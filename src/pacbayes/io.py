"""Problem-instance files, flat config files, CSV output, and the run log.

Instance file: UTF-8 text with `#` comments. Sections `space` (probabilities),
`losses` (row-major matrix), `binary` (flag), and optional `prior` /
`posterior` weight lists; the prior is uniform when the file gives none.
Each section appears once; its data may follow the header inline or on later lines.

Config file: `section.key = value` lines; command-line flags win on conflict.
Run log: append-only strict JSON lines, one record per invocation.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import LossTable, ProbMeasure

_SECTIONS = ("space", "losses", "binary", "prior", "posterior")


@dataclass(frozen=True)
class Instance:
    dist: ProbMeasure
    table: LossTable
    prior: ProbMeasure
    posterior: ProbMeasure | None = None


def _strip(line: str) -> str:
    return line.partition("#")[0].strip()


def parse_instance(text: str) -> Instance:
    sections: dict[str, list[str]] = {}
    current = None
    for raw in text.splitlines():
        line = _strip(raw)
        if not line:
            continue
        head, sep, rest = line.partition(":")
        if sep and head.strip().lower() in _SECTIONS:
            if (current := head.strip().lower()) in sections:
                raise ValueError(f"{current}: section appears twice")
            sections[current] = [rest.strip()] if rest.strip() else []
        elif current is not None:
            sections[current].append(line)
        else:
            raise ValueError(f"data before any section header: {line!r}")
    if "space" not in sections or "losses" not in sections:
        raise ValueError("instance file needs `space` and `losses` sections")

    rows = sections["losses"]
    try:
        if not rows:
            raise ValueError("no rows")
        try:
            loss = np.loadtxt(rows, ndmin=2)
        except ValueError:  # NumPy's ragged-rows message names its own API; ours the file's
            if len({len(row.split()) for row in rows}) == 1:
                raise
            raise ValueError("rows must all have the same length") from None
        table = LossTable(loss)
    except ValueError as exc:
        raise ValueError(f"losses: {exc}") from None
    if "binary" in sections:
        flag_text = " ".join(sections["binary"]).lower()
        if flag_text not in ("true", "false"):
            raise ValueError(f"binary flag must be true or false, got {flag_text!r}")
        if (flag_text == "true") != table.binary_flag:
            raise ValueError("declared binary flag contradicts the loss entries")

    def measure(name, n):
        """The section's weights as a ProbMeasure of size n; errors name the section."""
        try:
            w = np.array(" ".join(sections[name]).split(), dtype=float)
            if w.size != n:
                raise ValueError(f"{w.size} entries where the loss matrix needs {n}")
            return ProbMeasure(w)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None

    dist, n_h = measure("space", table.point_count), table.hypothesis_count
    prior = measure("prior", n_h) if "prior" in sections else ProbMeasure.uniform(n_h)
    posterior = measure("posterior", n_h) if "posterior" in sections else None
    return Instance(dist, table, prior, posterior)


def load_instance(path, data: bytes | None = None) -> Instance:
    """The instance in the file at path; data, if given, is the file's bytes as
    already read (read_hashed), so that the file is read once."""
    data = Path(path).read_bytes() if data is None else data
    return parse_instance(data.decode("utf-8"))


def read_hashed(path) -> tuple[bytes, str]:
    """A file's bytes and their hex sha256, what the config hash knows of an instance file."""
    data = Path(path).read_bytes()
    return data, hashlib.sha256(data).hexdigest()


def format_instance(inst: Instance) -> str:
    def vec(v):
        # The shortest spelling that reads back as the same float; 0 and 1 stay bare.
        return " ".join(repr(x).removesuffix(".0") for x in v.tolist())

    lines = ["# pacbayes problem instance", "space: " + vec(inst.dist.weights), "losses:"]
    lines += [vec(row) for row in inst.table.loss]
    lines.append(f"binary: {'true' if inst.table.binary_flag else 'false'}")
    lines.append("prior: " + vec(inst.prior.weights))
    if inst.posterior is not None:
        lines.append("posterior: " + vec(inst.posterior.weights))
    return "\n".join(lines) + "\n"


def save_instance(inst: Instance, path) -> None:
    Path(path).write_text(format_instance(inst), encoding="utf-8")


def parse_config(text: str) -> dict[str, str]:
    """Flat `section.key = value` lines into a dict keyed by dotted name."""
    out: dict[str, str] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"config line {i} is not `section.key = value`: {raw!r}")
        out[key.strip()] = value.strip()
    return out


def load_config(path) -> dict[str, str]:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def fmt(x) -> str:
    """Numbers at 17 significant digits; infinities spelled out."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def write_csv(path, header: list[str], rows: list[list]) -> str:
    """Write the table as CSV and return the text written."""
    text = csv_text(header, rows)
    Path(path).write_text(text, encoding="utf-8")
    return text


def _json_value(x):
    """x in JSON values: NumPy values as Python ones, a non-finite number as fmt spells it."""
    if isinstance(x, dict):
        return {key: _json_value(value) for key, value in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_json_value(value) for value in x]
    x = x.item() if isinstance(x, np.generic) else x
    return fmt(x) if isinstance(x, float) and not math.isfinite(x) else x


def append_run_record(log_path, command: str, config: dict, seed: int | None,
                      summary: dict, exit_code: int, instance: str | None = None) -> None:
    """Append one record; its config hash covers config alone, so the
    instance path, like the seed and the outcome, stays outside it."""
    from . import __version__

    canonical = json.dumps(config, sort_keys=True, default=str)
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "command": command,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest()[:16],
        "exit_code": exit_code,
        "instance": instance,
        "seed": seed,
        "version": __version__,
        "summary": summary,
    }
    line = json.dumps(_json_value(record), sort_keys=True, allow_nan=False)
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
