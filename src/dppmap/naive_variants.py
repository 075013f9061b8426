"""Brute-force twins of the variant algorithms.

These take every marginal gain, and the ln det it came from, from
:func:`dppmap.reference.gains` and order picks by
:func:`~dppmap.reference.pick_order`, with no factor state and no laziness,
while consuming the exact same randomness protocol as their accelerated
counterparts in :mod:`dppmap.variants`.  The interlace twin supplies only its
pair builder to :func:`dppmap.variants.interlace`, the driver the accelerated
solver uses too.  They exist to ground differential tests, not to be fast.
"""

from __future__ import annotations

import numpy as np

from . import reference
from .greedy import GreedyConfig
from .kernel import KernelOracle
from .report import RunReport, SolverRun
from .stream import DecisionStream
from .variants import VariantConfig, interlace, require_size, stochastic_sample_size


def naive_random_greedy(oracle: KernelOracle, cfg: VariantConfig, stream: DecisionStream,
                        deadline: float | None = None) -> RunReport:
    require_size("random", oracle.n, cfg.k, 2)
    run = SolverRun("random-naive", oracle, cfg.k, seed=stream.seed)
    report = run.report
    matrix = oracle.materialize()
    setup_ms = run.ms()
    n = oracle.n
    rank_draws: list[int] = []
    dummy_steps: list[int] = []
    for step in run.steps(cfg.k, deadline):
        rank = stream.rank(cfg.k)
        rank_draws.append(rank)
        rows = reference.gains(matrix, report.selection, report.final_objective,
                               (i for i in range(n) if i not in report.selection))
        gain, item, objective = sorted(rows, key=reference.pick_order)[rank - 1]
        if gain > 0.0:
            run.take(item, gain, objective)
        else:
            run.decline(step, gain, 0.0)
            dummy_steps.append(step)
    report.extras.update(rank_draws=rank_draws, dummy_steps=dummy_steps)
    return run.finish(setup_ms=setup_ms)


def naive_stochastic_greedy(oracle: KernelOracle, cfg: VariantConfig, stream: DecisionStream,
                            deadline: float | None = None) -> RunReport:
    require_size("stochastic", oracle.n, cfg.k, 3)
    n = oracle.n
    s = stochastic_sample_size(n, cfg.k, cfg.epsilon)
    run = SolverRun("stochastic-naive", oracle, cfg.k, seed=stream.seed, epsilon=cfg.epsilon)
    report = run.report
    matrix = oracle.materialize()
    setup_ms = run.ms()
    skipped_steps: list[int] = []
    for step in run.steps(cfg.k, deadline):
        pool = np.array([i for i in range(n) if i not in report.selection], dtype=np.int64)
        sample = stream.sample_sorted(pool, s)
        rows = reference.gains(matrix, report.selection, report.final_objective, sample)
        gain, winner, objective = min(rows, key=reference.pick_order)
        if gain > 0.0:
            run.take(winner, gain, objective)
        else:
            run.decline(step, gain, 0.0)
            skipped_steps.append(step)
    report.extras.update(sample_size=s, skipped_steps=skipped_steps)
    return run.finish(setup_ms=setup_ms)


def naive_interlace_greedy(oracle: KernelOracle, cfg: GreedyConfig,
                           deadline: float | None = None) -> RunReport:
    require_size("interlace", oracle.n, cfg.k, 4)
    run = SolverRun("interlace-naive", oracle, cfg.k)
    matrix = oracle.materialize()
    setup_ms = run.ms()
    n = oracle.n

    def pair(first, steps):
        """Each run's best pick from :func:`reference.gains` over the items neither run holds."""
        runs = [[] if first is None else [first] for _ in range(2)]
        for _ in steps:
            for picks in runs:
                taken = {i for run_picks in runs for _, i, _ in run_picks}
                cands = [i for i in range(n) if i not in taken]
                if cands:
                    base = picks[-1][2] if picks else 0.0
                    rows = reference.gains(matrix, [i for _, i, _ in picks], base, cands)
                    pick = min(rows, key=reference.pick_order)
                    if pick[0] >= 0.0:
                        picks.append(pick)
        return runs

    interlace(run, cfg.k, pair, deadline)
    return run.finish(setup_ms=setup_ms)
