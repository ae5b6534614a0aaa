# DiversiFi reproduction — common tasks.

PYTHON ?= python

.PHONY: install test lint lint-baseline typecheck sanitize-test \
	bench-pytest bench-smoke batch-smoke bench-full \
	obs-smoke sdn-smoke population-smoke examples docs clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/ -q

# Static-analysis pipeline, both stages:
#   stage 1 (tools/reprolint)  — per-file determinism lint
#   stage 2 (tools/reproflow)  — project-wide passes on one shared parse:
#                                pass 1 index, pass 2 units/lifecycle/
#                                config, pass 3 interprocedural dataflow
#                                (FLO/PUR/ORD), pass 4 concurrency &
#                                serialization safety (SER/IMP/KEY)
# Each fails on any finding not in its committed baseline; see
# CONTRIBUTING.md for the rule tables and suppression syntax.
lint:
	PYTHONPATH=tools $(PYTHON) -m reprolint src/ tools/ tests/
	PYTHONPATH=tools $(PYTHON) -m reproflow src/ tools/ tests/

# Refreeze the baselines (only for genuinely unfixable legacy findings).
lint-baseline:
	PYTHONPATH=tools $(PYTHON) -m reprolint src/ tools/ tests/ --write-baseline
	PYTHONPATH=tools $(PYTHON) -m reproflow src/ tools/ tests/ --write-baseline

# Strict typing gate for the core package.  mypy is an optional dev
# dependency (CI installs it); skip gracefully where it is absent.
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --config-file mypy.ini src/repro; \
	else \
		echo "typecheck: mypy not installed; skipping (pip install mypy)"; \
	fi

# Run the simulator test files with the runtime invariant sanitizer on:
# heap-order assertions, stream-ownership checks, determinism digests.
sanitize-test:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest tests/test_sim_engine.py \
		tests/test_sim_random.py tests/test_client_controller.py \
		tests/test_engine_frozen_digests.py -q

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# The pytest-benchmark micro-suite (per-component timings).
bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q -s \
		2>&1 | tee bench_output.txt

# Parallel-runner determinism smoke: the same small artifact executed
# serially and with --jobs 2 (sanitizer on) must print identical batch
# digests, and a warm-cache rerun must execute zero simulation runs.
bench-smoke:
	@rm -rf .bench-smoke-cache
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro fig2a --runs 6 \
		--cache-dir .bench-smoke-cache \
		| grep -o 'digest=[0-9a-f]*' > .bench-smoke-serial
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro fig2a --runs 6 \
		--no-cache --jobs 2 \
		| grep -o 'digest=[0-9a-f]*' > .bench-smoke-jobs2
	cmp .bench-smoke-serial .bench-smoke-jobs2
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro fig2a --runs 6 \
		--cache-dir .bench-smoke-cache > .bench-smoke-warm
	grep -q 'executed=0' .bench-smoke-warm
	grep -o 'digest=[0-9a-f]*' .bench-smoke-warm \
		| cmp - .bench-smoke-serial
	@rm -rf .bench-smoke-cache .bench-smoke-serial .bench-smoke-jobs2 \
		.bench-smoke-warm
	@echo "bench-smoke: serial, --jobs 2 and warm-cache digests identical"

# Batch-backend determinism smoke: a 120-session population (two
# cache-keyed blocks) rendered serially and with --jobs 2 must print
# identical batch digests, and a warm-cache rerun must execute zero
# blocks.  REPRO_SANITIZE=1 additionally re-runs a sampled subset of
# each block through the event engine and checks statistical
# equivalence (repro.batch.sanity) before any digest is accepted.
batch-smoke:
	@rm -rf .batch-smoke-cache
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro fig2a --runs 120 \
		--backend batch --cache-dir .batch-smoke-cache \
		| grep -o 'digest=[0-9a-f]*' > .batch-smoke-serial
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro fig2a --runs 120 \
		--backend batch --no-cache --jobs 2 \
		| grep -o 'digest=[0-9a-f]*' > .batch-smoke-jobs2
	cmp .batch-smoke-serial .batch-smoke-jobs2
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro fig2a --runs 120 \
		--backend batch --cache-dir .batch-smoke-cache > .batch-smoke-warm
	grep -q 'executed=0' .batch-smoke-warm
	grep -o 'digest=[0-9a-f]*' .batch-smoke-warm \
		| cmp - .batch-smoke-serial
	@rm -rf .batch-smoke-cache .batch-smoke-serial .batch-smoke-jobs2 \
		.batch-smoke-warm
	@echo "batch-smoke: serial, --jobs 2 and warm-cache digests identical"

# Metrics-export determinism smoke: the same artifact run serially, with
# --jobs 2 and from a warm cache (sanitizer on) must export byte-identical
# --metrics-out JSON — counters, gauges, histograms and span durations
# merged in spec order regardless of scheduling or cache hits.
obs-smoke:
	@rm -rf .obs-smoke-cache
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro fig8 --runs 3 \
		--cache-dir .obs-smoke-cache \
		--metrics-out .obs-smoke-serial.json > /dev/null
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro fig8 --runs 3 \
		--no-cache --jobs 2 \
		--metrics-out .obs-smoke-jobs2.json > /dev/null
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro fig8 --runs 3 \
		--cache-dir .obs-smoke-cache \
		--metrics-out .obs-smoke-warm.json > .obs-smoke-warm-out
	grep -q 'executed=0' .obs-smoke-warm-out
	cmp .obs-smoke-serial.json .obs-smoke-jobs2.json
	cmp .obs-smoke-serial.json .obs-smoke-warm.json
	@rm -rf .obs-smoke-cache .obs-smoke-serial.json .obs-smoke-jobs2.json \
		.obs-smoke-warm.json .obs-smoke-warm-out
	@echo "obs-smoke: serial, --jobs 2 and warm-cache metrics identical"

# Control-plane determinism smoke: the QoE controller head-to-head
# (event engine + SDN rules + middlebox valve) run serially, with
# --jobs 2 and from a warm cache (sanitizer on) must print identical
# batch digests — the controller's poll loop, reroutes and middlebox
# start/stop schedule are part of the digested payload.
sdn-smoke:
	@rm -rf .sdn-smoke-cache
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro controller \
		--runs 4 --cache-dir .sdn-smoke-cache \
		| grep -o 'digest=[0-9a-f]*' > .sdn-smoke-serial
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro controller \
		--runs 4 --no-cache --jobs 2 \
		| grep -o 'digest=[0-9a-f]*' > .sdn-smoke-jobs2
	cmp .sdn-smoke-serial .sdn-smoke-jobs2
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro controller \
		--runs 4 --cache-dir .sdn-smoke-cache > .sdn-smoke-warm
	grep -q 'executed=0' .sdn-smoke-warm
	grep -o 'digest=[0-9a-f]*' .sdn-smoke-warm \
		| cmp - .sdn-smoke-serial
	@rm -rf .sdn-smoke-cache .sdn-smoke-serial .sdn-smoke-jobs2 \
		.sdn-smoke-warm
	@echo "sdn-smoke: serial, --jobs 2 and warm-cache digests identical"

# Population-study determinism smoke: a 50k-call provider population
# (4 blocks x 2 passes) and a small NetTest population, each run
# serially, with --jobs 2 and from a warm cache (sanitizer on), must
# print identical batch digests, and the warm rerun must execute zero
# blocks — the streaming-sketch merge is byte-stable across scheduling
# and caching modes.
population-smoke:
	@rm -rf .population-smoke-cache
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro provider \
		--calls 50000 --cache-dir .population-smoke-cache \
		| grep -o 'digest=[0-9a-f]*' > .population-smoke-serial
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro provider \
		--calls 50000 --no-cache --jobs 2 \
		| grep -o 'digest=[0-9a-f]*' > .population-smoke-jobs2
	cmp .population-smoke-serial .population-smoke-jobs2
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro provider \
		--calls 50000 --cache-dir .population-smoke-cache \
		> .population-smoke-warm
	grep -q 'executed=0' .population-smoke-warm
	grep -o 'digest=[0-9a-f]*' .population-smoke-warm \
		| cmp - .population-smoke-serial
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro nettest \
		--calls 200 --cache-dir .population-smoke-cache \
		| grep -o 'digest=[0-9a-f]*' > .population-smoke-nt-serial
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro nettest \
		--calls 200 --no-cache --jobs 2 \
		| grep -o 'digest=[0-9a-f]*' > .population-smoke-nt-jobs2
	cmp .population-smoke-nt-serial .population-smoke-nt-jobs2
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro nettest \
		--calls 200 --cache-dir .population-smoke-cache \
		> .population-smoke-nt-warm
	grep -q 'executed=0' .population-smoke-nt-warm
	grep -o 'digest=[0-9a-f]*' .population-smoke-nt-warm \
		| cmp - .population-smoke-nt-serial
	@rm -rf .population-smoke-cache .population-smoke-serial \
		.population-smoke-jobs2 .population-smoke-warm \
		.population-smoke-nt-serial .population-smoke-nt-jobs2 \
		.population-smoke-nt-warm
	@echo "population-smoke: serial, --jobs 2 and warm-cache digests identical"

bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -q -s \
		2>&1 | tee bench_output_full.txt

examples:
	for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

docs:
	$(PYTHON) tools/gen_api_docs.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +; \
	rm -rf .pytest_cache .hypothesis build *.egg-info
