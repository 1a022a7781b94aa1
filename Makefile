# Developer entry points.  Only `python` and `pytest` are hard
# requirements; ruff and mypy are used when installed and skipped
# (with a note) when not, so `make check` works in the minimal image.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-sarif typecheck check chaos serve-smoke examples bench bench-smoke bench-protocol

test:
	$(PYTHON) -m pytest -x -q

# Fast chaos suite: every named fault scenario, deterministic at seed 0.
chaos:
	$(PYTHON) -m repro.faults --scenario all --seed 0

# Serving-layer smoke: replay a 1k-request seeded trace through the
# in-process gateway twice and require byte-identical reports, zero
# deadline misses, batching equivalence, and a clean snapshot audit —
# then 24 crash/recover cycles with zero lost or duplicated admissions
# and bitwise-identical recovered state, and 12 fleet chaos cycles
# (worker SIGKILLs + network faults across 3 shards) with the same
# zero-loss/zero-duplication guarantee against a shadow fleet.  The
# degradation chaos gate layers capacity-drop/restore waves over the
# crash kinds and additionally requires zero region violations after
# every sacrifice repair.
# Finally the blocking comparison report: online PCP-derived beta_j vs
# the static worst-case population bound over one contention trace —
# must be byte-stable, admit at least as much online, and finish the
# closed-loop simulation with zero deadline misses on both sides.
serve-smoke:
	$(PYTHON) -m repro.serve.loadgen --scenario webserver --seed 0 --requests 1000 --selftest
	$(PYTHON) -m repro.serve.loadgen --chaos-crash --cycles 24 --seed 0 --selftest
	$(PYTHON) -m repro.serve.loadgen --chaos-fleet --cycles 12 --workers 3 --seed 0 --selftest
	$(PYTHON) -m repro.serve.loadgen --chaos-degradation --cycles 12 --seed 0 --selftest
	$(PYTHON) -m repro.serve.loadgen --compare-blocking --seed 0 --selftest

# Every example script as an end-to-end driver (core admission, the
# simulator, the analysis layer, DAG feasibility, the web-server and
# TSCE applications): each must run to completion with exit status 0.
examples:
	@for script in examples/*.py; do \
		echo "$$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done

# Consolidated benchmark run: paper-artifact and serving benchmarks in
# BENCH_serve.json, the core hot-path + analyzer suite
# (exact-accumulator churn, admit_many, gateway encode/flush,
# whole-program lint pass) in BENCH_core.json.
bench:
	$(PYTHON) -m pytest benchmarks -q -o addopts="" --benchmark-only \
		--ignore=benchmarks/bench_core_hotpath.py \
		--ignore=benchmarks/bench_lint.py \
		--ignore=benchmarks/bench_locking.py \
		--ignore=benchmarks/bench_degradation.py \
		--ignore=benchmarks/bench_protocol.py \
		--benchmark-json=BENCH_serve.json
	$(PYTHON) -m pytest benchmarks/bench_core_hotpath.py benchmarks/bench_lint.py \
		benchmarks/bench_locking.py benchmarks/bench_degradation.py \
		benchmarks/bench_protocol.py \
		-q -o addopts="" \
		--benchmark-only --benchmark-json=BENCH_core.json
	@echo "wrote BENCH_serve.json and BENCH_core.json"

# Protocol-layer microbenchmarks alone (framing, decode, task decode,
# batch encode), with their comparison printouts.
bench-protocol:
	$(PYTHON) -m pytest benchmarks/bench_protocol.py -q -o addopts="" \
		--benchmark-only -s

# CI regression gate: the hot-path + analyzer suites at reduced
# iterations (REPRO_BENCH_SMOKE=1), failing when any benchmark runs
# more than 2x slower than the committed baseline
# benchmarks/BASELINE_core.json.
bench-smoke:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_core_hotpath.py \
		benchmarks/bench_lint.py benchmarks/bench_locking.py \
		benchmarks/bench_degradation.py benchmarks/bench_protocol.py \
		-q -o addopts="" --benchmark-only \
		--benchmark-json=BENCH_core_smoke.json
	$(PYTHON) benchmarks/check_bench_regression.py BENCH_core_smoke.json \
		benchmarks/BASELINE_core.json

# Whole-program pass (per-file rules + call-graph/taint rules + the
# unused-suppression audit), ratcheted against the committed baseline:
# only findings NOT recorded in lint-baseline.json fail.
lint:
	$(PYTHON) -m repro.lint src examples benchmarks --baseline lint-baseline.json
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples benchmarks; \
	else \
		echo "ruff not installed; skipping (config in pyproject.toml)"; \
	fi

# Machine-readable report for code-scanning UIs.
lint-sarif:
	$(PYTHON) -m repro.lint src examples benchmarks --sarif --out lint.sarif \
		--baseline lint-baseline.json
	@echo "wrote lint.sarif"

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro/core src/repro/lint src/repro/serve; \
	else \
		echo "mypy not installed; skipping (config in pyproject.toml)"; \
	fi

check: lint typecheck test examples serve-smoke
