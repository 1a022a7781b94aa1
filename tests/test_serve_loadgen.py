"""The deterministic load generator: byte stability and scenario gates."""

import json

import pytest

from repro.serve.loadgen import (
    EQUIVALENCE_BATCH_SIZES,
    REPORT_FORMAT,
    SCENARIOS,
    batching_equivalence,
    build_trace,
    main,
    render_report,
    run_scenario,
)

SMALL = 120  # requests per scenario for fast in-suite runs


def _run_twice(name, seed=0, requests=SMALL, transport="inproc"):
    first = render_report(run_scenario(name, seed, requests, transport))
    second = render_report(run_scenario(name, seed, requests, transport))
    return first, second


class TestDeterminism:
    @pytest.mark.parametrize("name", [s.name for s in SCENARIOS])
    def test_reports_are_byte_stable(self, name):
        first, second = _run_twice(name)
        assert first == second

    def test_different_seeds_differ(self):
        a = render_report(run_scenario("webserver", 0, SMALL))
        b = render_report(run_scenario("webserver", 1, SMALL))
        assert a != b

    def test_trace_is_a_pure_function_of_seed(self):
        scenario = SCENARIOS[0]
        first = build_trace(scenario, seed=3, requests=50)
        second = build_trace(scenario, seed=3, requests=50)
        assert first == second


class TestScenarioGates:
    def test_webserver_in_region_zero_misses(self):
        report = run_scenario("webserver", 0, SMALL)
        assert report["format"] == REPORT_FORMAT
        traffic = report["traffic"]
        assert traffic["offered"] == SMALL
        assert traffic["admitted"] == SMALL  # rate 100 sits inside the region
        assert traffic["missed"] == 0
        assert traffic["unfinished"] == 0
        assert report["batching"]["equivalent"] is True
        assert report["snapshot"]["violations"] == 0
        assert report["snapshot"]["stable"] is True

    def test_overload_sheds_without_missing(self):
        # 4x the in-region rate needs a longer trace before the region
        # saturates and shedding starts.
        report = run_scenario("overload", 0, 200)
        traffic = report["traffic"]
        assert traffic["admitted"] < traffic["offered"]
        assert traffic["shed"] + traffic["rejected"] > 0
        assert traffic["missed"] == 0  # admission control keeps every promise

    def test_burst_offers_extra_arrivals(self):
        report = run_scenario("burst", 0, SMALL)
        assert report["traffic"]["offered"] > SMALL
        assert report["traffic"]["missed"] == 0

    def test_chaos_recovers_through_resync(self):
        report = run_scenario("chaos", 0, SMALL)
        assert report["traffic"]["missed"] == 0
        chaos = report["chaos"]
        assert len(chaos["resyncs"]) == 6
        # Resync observations are in simulated-time order.
        times = [entry["now"] for entry in chaos["resyncs"]]
        assert times == sorted(times)

    def test_snapshot_is_taken_mid_run(self):
        report = run_scenario("webserver", 0, SMALL)
        assert report["snapshot"]["admitted_records"] > 0


class TestBatchingEquivalenceHarness:
    def test_matrix_covers_required_sizes(self):
        assert EQUIVALENCE_BATCH_SIZES == (1, 4, 32)
        scenario = SCENARIOS[0]
        tasks, _, _ = build_trace(scenario, seed=0, requests=60)
        result = batching_equivalence(tasks)
        assert result["equivalent"] is True
        assert set(result["batch_sizes"]) == {1, 4, 32}


class TestCli:
    def test_list_prints_scenarios(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for scenario in SCENARIOS:
            assert scenario.name in out

    def test_report_written_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "--scenario",
                "webserver",
                "--seed",
                "0",
                "--requests",
                str(SMALL),
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["format"] == REPORT_FORMAT
        assert payload["seed"] == 0

    def test_selftest_passes(self, capsys):
        code = main(
            [
                "--scenario",
                "webserver",
                "--seed",
                "0",
                "--requests",
                str(SMALL),
                "--selftest",
            ]
        )
        assert code == 0
        assert "selftest ok" in capsys.readouterr().out

    def test_unknown_scenario_fails(self, capsys):
        with pytest.raises(SystemExit):
            main(["--scenario", "nonesuch"])

    def test_failing_gate_still_writes_out(self, tmp_path, capsys):
        # Four cycles are too few for the crash gate's coverage checks;
        # the report is the evidence a failing CI run has to upload.
        out_path = tmp_path / "crash.json"
        code = main(
            ["--chaos-crash", "--cycles", "4", "--seed", "0", "--selftest",
             "--out", str(out_path)]
        )
        assert code == 1
        assert "selftest FAILED" in capsys.readouterr().err
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "repro.serve.crash-chaos-report/1"
        assert payload["cycles"] == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["--chaos-crash", "--chaos-fleet", "--selftest"],
            ["--scenario", "webserver", "--compare-blocking"],
            ["--list", "--chaos-degradation"],
        ],
    )
    def test_two_modes_are_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.slow_serve
class TestFullScale:
    """The ISSUE acceptance runs: 1000 requests, every scenario, TCP."""

    @pytest.mark.parametrize("name", [s.name for s in SCENARIOS])
    def test_thousand_request_selftests(self, name):
        first, second = _run_twice(name, requests=1000)
        assert first == second
        report = run_scenario(name, 0, 1000)
        assert report["traffic"]["missed"] == 0

    def test_tcp_transport_matches_gates(self):
        report = run_scenario("webserver", 0, 300, transport="tcp")
        assert report["transport"] == "tcp"
        assert report["traffic"]["missed"] == 0
        assert report["batching"]["equivalent"] is True
