"""Weighted min-max multi-objective optimization.

Solvers for min_w max_k r_k J_k(w): the EPO-AL primal-dual augmented
Lagrangian method plus subgradient and smooth-max baselines, with
certificates for Pareto stationarity and fairness, seeded synthetic
problem families, and a benchmark harness for iteration and wall-clock
complexity.
"""

from .core import (ObjectiveSet, as_model_vector, as_preference, fairness_residual,
                   lr_apply, minmax_value)
from .diagnostics import (EpoCertificate, StationarityResult, certify_epo,
                          pareto_stationarity_gap)
from .harness import (AggregateRecord, GridSpec, HarnessError, TrialRecord,
                      compute_target, iteration_complexity, log_grid, measure_time,
                      run_experiment, trimmed_mean_ci, tune_and_measure)
from .problems import (CONVEX, FIG1, KINDS, NONCONVEX, SyntheticProblem, fig1_problem,
                       gen_anchors, load_model, load_problem, make_problem, sample_initial,
                       sample_preference, save_problem)
from .solvers import (ALGORITHMS, EPO_AL, SMOOTH_MAX, SUBGRADIENT, DivergenceError,
                      EpoAlState, IterationRecord, SolverConfig, dual_mass,
                      epo_al_step, initial_state, run, smoothmax_step,
                      subgradient_step)

__version__ = "0.1.0"
