"""Semiparametric two-component mixture estimation.

Estimates g(x) = (1-p) f0(x) + p f(x) from an i.i.d. sample when f0 is a
fully known density and f is only assumed log-concave. The mixing
proportion p and the log-density of f are fitted jointly by EM; each M-step
solves a weighted log-concave maximum-likelihood problem with an active-set
Newton method over piecewise-linear concave log-densities.

Modules:

- ``families``        known/unknown component densities and samplers
- ``logcon``          weighted log-concave MLE (the M-step, usable standalone)
- ``em``              EM driver, posteriors, summary statistics
- ``identifiability`` sufficient-condition diagnostics for the decomposition
- ``simulate``        Monte-Carlo benchmark harness
- ``special``         Student-t tail probabilities (incomplete beta)
- ``kernels``         the solver's two knot kernels, compiled (C) or python
- ``cli``             command-line front end (``logconmix`` entry point)
"""

from .em import (EmConfig, EmResult, classification_error, e_step,
                 em_result_to_dict, estimate_mu, m_step_f, m_step_p,
                 posterior_unknown, run_em)
from .errors import (AllReplicationsFailedError, AllWeightsKnownError,
                     CliInputError, ComponentCollapsedError,
                     DegenerateSampleError, LogconmixError,
                     ZeroMixtureDensityError)
from .families import (Beta15, Exponential, Normal, ShiftedChiSq3,
                       ShiftedExponential, ShiftedT5, StudentT, Tabulated,
                       Uniform, load_tabulated_csv, log_pdf_known,
                       sample_mixture)
from .identifiability import (IdentifiabilityClause, IdentifiabilityReport,
                              check_identifiability, report_to_dict)
from .logcon import (LogConcaveFit, WeightedSample, cdf, eval_log_density,
                     fit_from_dict, fit_to_dict, fit_weighted_logconcave,
                     load_fit_json, load_weighted_csv, objective,
                     save_fit_json)
from .rng import child_seed, make_rng
from .simulate import (MixtureModelSpec, ScenarioSpec, ScenarioSummary,
                       model_catalog, run_scenario, summary_table)
from .special import (regularized_incomplete_beta, student_t_cdf,
                      student_t_two_sided_p)

__version__ = "0.1.0"

__all__ = [
    "EmConfig", "EmResult", "classification_error", "e_step",
    "em_result_to_dict", "estimate_mu", "m_step_f", "m_step_p",
    "posterior_unknown", "run_em",
    "AllReplicationsFailedError", "AllWeightsKnownError", "CliInputError",
    "ComponentCollapsedError", "DegenerateSampleError", "LogconmixError",
    "ZeroMixtureDensityError",
    "Beta15", "Exponential", "Normal", "ShiftedChiSq3", "ShiftedExponential",
    "ShiftedT5", "StudentT", "Tabulated", "Uniform", "load_tabulated_csv",
    "log_pdf_known", "sample_mixture",
    "IdentifiabilityClause", "IdentifiabilityReport", "check_identifiability",
    "report_to_dict",
    "LogConcaveFit", "WeightedSample", "cdf", "eval_log_density",
    "fit_from_dict", "fit_to_dict", "fit_weighted_logconcave",
    "load_fit_json", "load_weighted_csv", "objective", "save_fit_json",
    "child_seed", "make_rng",
    "MixtureModelSpec", "ScenarioSpec", "ScenarioSummary", "model_catalog",
    "run_scenario", "summary_table",
    "regularized_incomplete_beta", "student_t_cdf", "student_t_two_sided_p",
    "__version__",
]
