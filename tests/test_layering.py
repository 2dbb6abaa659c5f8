"""The bound layer stands on its own: core, measures and bounds import nothing
from the lemma machinery, the posterior rules, the checks, the CLI or I/O."""

import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pacbayes"
UPPER = {"processes", "posterior_opt", "verify", "compare", "io", "cli"}


def package_imports(module: str) -> set[str]:
    """The package modules that `module` imports with `from .x import`."""
    text = (PACKAGE / f"{module}.py").read_text()
    return set(re.findall(r"^\s*from \.(\w+) import", text, flags=re.MULTILINE))


def test_the_import_scan_sees_the_package_imports():
    assert package_imports("bounds") >= {"core", "measures"}
    assert package_imports("cli") >= UPPER - {"cli"}


@pytest.mark.parametrize("module", ["core", "measures", "bounds"])
def test_the_bound_layer_imports_no_upper_module(module):
    assert not package_imports(module) & UPPER
