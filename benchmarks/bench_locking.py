"""Blocking-engine microbenchmarks for the online PCP bound.

Three costs the locking subsystem adds to the admission path:

- full ``beta_j`` recompute over the admitted set, swept across
  populations — the from-scratch sweep behind
  :meth:`PCPBlockingState.recompute`, the oracle the auditor checks the
  incremental vector against.  The sweep-based stabbing-max is
  ``O((S + T) log (S + T))`` per stage; the assertion pins it against
  accidental regression to the naive ``O(tasks x sections)`` double
  loop;
- ``preview`` at the largest population, the exact extra work a
  locking controller spends deciding one arrival;
- add/remove churn at the largest population: what every admission
  and expiry pays to keep ``beta_j`` current through the per-resource
  lanes instead of a sweep.

Run via ``make bench`` (folded into ``BENCH_core.json``) or, at
reduced iterations with a regression gate against the committed
baseline, via ``make bench-smoke``.
"""

import os
import random
import time

from repro.locking import PCPBlockingState, ResourceSpec

from conftest import run_once

NUM_STAGES = 3

#: Resource pool shared by the synthetic population.
RESOURCES = ("mtx-a", "mtx-b", "mtx-c", "mtx-d")

#: ``REPRO_BENCH_SMOKE=1`` shrinks the workloads so the CI regression
#: gate (``make bench-smoke``) finishes in seconds; the committed
#: baseline ``benchmarks/BASELINE_core.json`` was recorded in smoke
#: mode, so the gate compares like for like.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Admitted-set sweep for the recompute benchmark.
SWEEP = (100, 1000, 10_000)

#: Full recomputes measured per sweep point.
RECOMPUTE_REPEATS = (3 if SMOKE else 10)

#: Arrival previews measured at the largest population.
PREVIEW_ITERS = 50 if SMOKE else 400

#: Departure + previewed-arrival pairs measured at the largest population.
CHURN_ITERS = 200 if SMOKE else 2000


def _populate(state, count, seed):
    """Bulk-track ``count`` synthetic tasks; ~60% declare 1-2 sections."""
    rng = random.Random(seed)
    entries = []
    for task_id in range(count):
        resources = []
        if rng.random() < 0.6:
            picks = rng.sample(
                [(s, r) for s in range(NUM_STAGES) for r in RESOURCES],
                rng.randrange(1, 3),
            )
            resources = [
                ResourceSpec(stage, resource, rng.uniform(0.0, 0.05))
                for stage, resource in picks
            ]
        entries.append((task_id, rng.uniform(0.25, 4.0), resources))
    state.load(entries)


def _recompute_seconds(state, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        state.recompute()
        best = min(best, time.perf_counter() - start)
    return best


def test_beta_recompute_sweep(benchmark):
    """Full ``beta_j`` recompute vs admitted-set size.

    Prints recomputes/sec at each population and asserts near-linear
    scaling: 100x the tasks must cost well under 1000x the time (the
    naive all-pairs bound would be ~10,000x).
    """
    results = {}

    def run():
        for count in SWEEP:
            state = PCPBlockingState(NUM_STAGES)
            _populate(state, count, seed=count)
            results[count] = _recompute_seconds(state, RECOMPUTE_REPEATS)
        return results

    run_once(benchmark, run)
    print("\nblocking-engine full beta recompute:")
    for count, seconds in results.items():
        print(
            f"  admitted {count:>6}: {seconds * 1e3:>9.3f} ms   "
            f"({1.0 / seconds:>10,.1f} recomputes/s)"
        )
    growth = results[10_000] / results[100]
    assert growth < 1000.0, (
        f"recompute cost grew {growth:.0f}x from 100 to 10k admitted tasks — "
        "the sweep has regressed toward the quadratic double loop"
    )


def test_admission_preview_at_10k(benchmark):
    """Per-arrival ``preview`` cost against a 10k-task admitted set."""
    state = PCPBlockingState(NUM_STAGES)
    _populate(state, 10_000, seed=7)
    rng = random.Random(11)
    candidates = [
        (
            1_000_000 + i,
            rng.uniform(0.25, 4.0),
            [ResourceSpec(rng.randrange(NUM_STAGES), rng.choice(RESOURCES),
                          rng.uniform(0.0, 0.05))],
        )
        for i in range(PREVIEW_ITERS)
    ]

    def run():
        checksum = 0.0
        for task_id, deadline, resources in candidates:
            checksum += state.preview(task_id, deadline, resources)[0]
        return checksum

    run_once(benchmark, run)
    per_preview = benchmark.stats.stats.min / PREVIEW_ITERS
    print(
        f"\nadmission preview at 10k admitted: {per_preview * 1e3:.3f} ms "
        f"per arrival ({1.0 / per_preview:,.1f} previews/s)"
    )
    assert len(state) == 10_000  # previews never mutate


def test_blocking_churn_at_10k(benchmark):
    """Incremental ``beta_j`` upkeep: remove one task, preview and add one.

    Each pair keeps the population at 10k, the way an expiry and the
    next admission do.  Asserts that a mutation stays far below one full
    recompute — the cost every mutation paid before the lanes.
    """
    state = PCPBlockingState(NUM_STAGES)
    _populate(state, 10_000, seed=13)
    rng = random.Random(17)
    departures = rng.sample(range(10_000), CHURN_ITERS)
    arrivals = [
        (
            2_000_000 + i,
            rng.uniform(0.25, 4.0),
            [ResourceSpec(rng.randrange(NUM_STAGES), rng.choice(RESOURCES),
                          rng.uniform(0.0, 0.05))]
            if rng.random() < 0.6 else [],
        )
        for i in range(CHURN_ITERS)
    ]

    def run():
        for task_id, (new_id, deadline, resources) in zip(departures, arrivals):
            state.remove(task_id)
            state.preview(new_id, deadline, resources)
            state.add(new_id, deadline, resources)
        return state.betas()

    betas = run_once(benchmark, run)
    assert betas == state.recompute()
    assert len(state) == 10_000
    per_pair = benchmark.stats.stats.min / CHURN_ITERS
    recompute = _recompute_seconds(state, 1)
    print(
        f"\nblocking churn at 10k admitted: {per_pair * 1e6:.1f} us per "
        f"remove + preview + add (full recompute {recompute * 1e3:.1f} ms, "
        f"{recompute / per_pair:,.0f}x)"
    )
    assert per_pair * 20 < recompute, (
        "an incremental remove + preview + add costs more than 1/20 of a "
        "full sweep — the lanes have regressed toward recomputing"
    )
