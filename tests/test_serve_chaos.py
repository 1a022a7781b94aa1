"""Pinned chaos and loadgen reports: their bytes must not drift across commits.

Every case regenerates one report — a :func:`repro.serve.chaos.run_chaos`
run, a loadgen ``--scenario`` replay or the ``--compare-blocking``
comparison — and compares it with its committed golden file under
``tests/data/chaos/``.  The selftests only compare two runs of the same
commit, so a change that reorders RNG draws, or shifts one admission
decision of a simulated run or of the shedding path, passes them
unnoticed; these files do not.  A change meant to alter the op
streams or the decisions regenerates them on purpose with
``PYTHONPATH=src python tests/test_serve_chaos.py``.
"""

from functools import partial
from pathlib import Path

import pytest

from repro.serve.chaos import run_chaos
from repro.serve.loadgen import compare_blocking, main, render_report, run_scenario

GOLDEN = Path(__file__).parent / "data" / "chaos"

#: The three ``make serve-smoke`` chaos runs, then the shapes the crash,
#: degradation and fleet test modules gate, then the loadgen reports at
#: their CLI defaults (seed 0, 1000 requests).
CASES = {
    "crash-smoke": partial(run_chaos, "crash", seed=0, cycles=24),
    "fleet-smoke": partial(run_chaos, "fleet", seed=0, cycles=12, workers=3),
    "degradation-smoke": partial(run_chaos, "degradation", seed=0, cycles=12),
    "crash-seed0-cycles8": partial(
        run_chaos, "crash", seed=0, cycles=8, snapshot_every=10
    ),
    "degradation-seed5-cycles6": partial(
        run_chaos, "degradation", seed=5, cycles=6, ops_per_cycle=12, snapshot_every=10
    ),
    "fleet-seed2-cycles6-degradation": partial(
        run_chaos,
        "fleet",
        seed=2,
        cycles=6,
        workers=2,
        ops_per_cycle=10,
        degradation=True,
    ),
    # The migration moves a pipeline with an admit still queued in its
    # batch; the client's retry must reach the new owner's dedup window.
    "fleet-seed1-cycles1-workers3": partial(
        run_chaos, "fleet", seed=1, cycles=1, workers=3
    ),
    # The scenarios decide through the served pipeline (shedding under
    # overload), the blocking comparison through request() on two local
    # controllers: one drifted decision moves these bytes.
    "scenario-webserver-seed0": partial(run_scenario, "webserver", 0, 1000),
    "scenario-overload-seed0": partial(run_scenario, "overload", 0, 1000),
    "scenario-burst-seed0": partial(run_scenario, "burst", 0, 1000),
    "scenario-chaos-seed0": partial(run_scenario, "chaos", 0, 1000),
    "compare-blocking-seed0": partial(compare_blocking, seed=0, requests=1000),
}


def _render(name):
    return render_report(CASES[name]())


def _golden(name):
    return (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name):
    assert _render(name) == _golden(name)


@pytest.mark.parametrize(
    ("name", "argv"),
    [
        ("crash-smoke", ["--chaos-crash", "--cycles", "24"]),
        ("fleet-smoke", ["--chaos-fleet", "--cycles", "12", "--workers", "3"]),
        ("degradation-smoke", ["--chaos-degradation", "--cycles", "12"]),
    ],
)
def test_cli_out_matches_golden_bytes(name, argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(argv + ["--seed", "0", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == _golden(name)
    assert capsys.readouterr().out == _golden(name)


if __name__ == "__main__":
    for case in sorted(CASES):
        (GOLDEN / f"{case}.json").write_text(_render(case), encoding="utf-8")
        print(f"wrote {GOLDEN / case}.json")
