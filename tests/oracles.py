"""Slow reference implementations that the library's fast paths are tested against."""

import numpy as np

from epoal.harness import (SUBGRADIENT, _grid_configs, _run_allowing_divergence,
                           iteration_complexity)


def exhaustive_target(problem, r, w0, grid, seed):
    """J*: minimum over every iterate of a full subgradient run per step size."""
    values = [rec.minmax
              for cfg in _grid_configs(SUBGRADIENT, grid, seed)
              for rec in _run_allowing_divergence(SUBGRADIENT, problem, r, w0, cfg)]
    return float(np.min(values))


def exhaustive_tune(algorithm, problem, r, w0, grid, seed, target):
    """(i_o, best_config): every grid combination run to ``grid.max_iter``.

    Combinations are visited in lexicographic grid order and the best is
    replaced only by a strictly smaller i_o, so ties go to the first one.
    """
    best_i, best_cfg = None, None
    for cfg in _grid_configs(algorithm, grid, seed):
        records = _run_allowing_divergence(algorithm, problem, r, w0, cfg)
        if not records:
            continue
        i_o = iteration_complexity(records, target, grid.epsilon)
        if i_o is not None and (best_i is None or i_o < best_i):
            best_i, best_cfg = i_o, cfg
    return best_i, best_cfg
