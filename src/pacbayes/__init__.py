"""PAC-Bayes bound suite for Gibbs classifiers over finite hypothesis classes."""

__version__ = "0.1.0"

from .core import (LossTable, ProbMeasure, Sample, draw_sample, empirical_risks,
                   sample_blocks, true_risks)
from .measures import flatness, flatness_alternate, gibbs_losses, gibbs_risk, kl_divergence
from .bounds import (FAMILIES, BoundParams, BoundReport, DerivedConstants,
                     catoni_C_for_inflation, catoni_prefactor,
                     derive_matched_catoni_constants, evaluate_bound, flatness_bound)
from .processes import (TailEstimate, debias_mgf_exact,
                        kl_ball_sup, kl_dual_value, lemma_a3_threshold,
                        shifted_flatness_tail_mc, symmetrization_tail_mc, xy_cap,
                        xy_mgf_bruteforce)
from .verify import CoverageReport, clopper_pearson_upper, coverage_experiment
from .posterior_opt import evaluate_posterior_bound, gibbs_posterior, minimize_bound
from .compare import SweepResult, SweepRow, bound_sweep, crossover_threshold
from .io import Instance, load_instance, save_instance

__all__ = [
    "ProbMeasure", "LossTable", "Sample",
    "draw_sample", "sample_blocks", "true_risks", "empirical_risks",
    "kl_divergence", "gibbs_losses", "gibbs_risk", "flatness", "flatness_alternate",
    "FAMILIES", "BoundParams", "BoundReport", "DerivedConstants", "evaluate_bound",
    "derive_matched_catoni_constants", "flatness_bound", "catoni_prefactor",
    "catoni_C_for_inflation",
    "TailEstimate", "kl_ball_sup", "kl_dual_value",
    "debias_mgf_exact", "xy_mgf_bruteforce", "xy_cap", "lemma_a3_threshold",
    "shifted_flatness_tail_mc", "symmetrization_tail_mc",
    "CoverageReport", "coverage_experiment", "clopper_pearson_upper",
    "gibbs_posterior", "minimize_bound", "evaluate_posterior_bound",
    "SweepRow", "SweepResult", "bound_sweep", "crossover_threshold",
    "Instance", "load_instance", "save_instance",
]
