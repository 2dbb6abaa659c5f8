"""PAC-Bayes bound suite for Gibbs classifiers over finite hypothesis classes."""

__version__ = "0.1.0"

from .core import (DataDistribution, LossTable, Sample, draw_sample, empirical_risks,
                   sample_blocks, true_risks)
from .measures import (ProbMeasure, flatness, flatness_alternate, gibbs_empirical_risk,
                       gibbs_losses, gibbs_risk, kl_divergence)
from .bounds import (FAMILIES, BoundParams, BoundReport, DerivedConstants,
                     catoni_bound, catoni_C_for_inflation, catoni_prefactor,
                     derive_matched_catoni_constants, flatness_bound, kst_bound,
                     matched_catoni_bound, mcallester_bound)
from .processes import (TailEstimate, debias_mgf_exact,
                        kl_ball_sup, kl_dual_value, lemma_a3_threshold,
                        shifted_flatness_tail_mc, symmetrization_tail_mc, xy_cap,
                        xy_mgf_bruteforce)
from .verify import CoverageReport, clopper_pearson_upper, coverage_experiment
from .posterior_opt import (evaluate_posterior_bound, gibbs_posterior, minimize_bound,
                            row_by_row)
from .compare import SweepResult, SweepRow, bound_sweep, crossover_threshold
from .io import Instance, load_instance, save_instance

__all__ = [
    "DataDistribution", "LossTable", "Sample",
    "draw_sample", "sample_blocks", "true_risks", "empirical_risks",
    "ProbMeasure", "kl_divergence", "gibbs_losses", "gibbs_risk",
    "gibbs_empirical_risk", "flatness", "flatness_alternate",
    "FAMILIES", "BoundParams", "BoundReport", "DerivedConstants",
    "mcallester_bound", "catoni_bound", "kst_bound", "matched_catoni_bound",
    "derive_matched_catoni_constants", "flatness_bound", "catoni_prefactor",
    "catoni_C_for_inflation",
    "TailEstimate", "kl_ball_sup", "kl_dual_value",
    "debias_mgf_exact", "xy_mgf_bruteforce", "xy_cap", "lemma_a3_threshold",
    "shifted_flatness_tail_mc", "symmetrization_tail_mc",
    "CoverageReport", "coverage_experiment", "clopper_pearson_upper",
    "gibbs_posterior", "minimize_bound", "evaluate_posterior_bound", "row_by_row",
    "SweepRow", "SweepResult", "bound_sweep", "crossover_threshold",
    "Instance", "load_instance", "save_instance",
]
