# DiversiFi reproduction — common tasks.

PYTHON ?= python

.PHONY: install test lint typecheck sanitize-test test-output \
	bench-pytest bench-smoke batch-smoke bench-full \
	obs-smoke population-smoke examples docs clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/ -q

# Static analysis (tools/reproflow): per-file determinism, hygiene,
# observability and unit rules (DET/GEN/OBS/UNT), an interprocedural
# call-graph pass for stream flow, ordering and runner-task safety
# (FLO/ORD/PUR/SER/KEY), and the RCH reachability family (what of
# src/repro only tests reach, judged against `python -m repro`,
# examples/, benchmarks/ and bench/), all on one shared parse.  Fails on any
# finding not silenced by an inline disable comment or the directory
# policy; see CONTRIBUTING.md for the rule tables and suppression syntax.
lint:
	PYTHONPATH=tools $(PYTHON) -m reproflow src/ tools/ tests/

# Strict typing gate for the core package.  mypy is an optional dev
# dependency (CI installs it); skip gracefully where it is absent.
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --config-file mypy.ini src/repro; \
	else \
		echo "typecheck: mypy not installed; skipping (pip install mypy)"; \
	fi

# Run the simulator test files with the runtime invariant sanitizer on:
# causality assertions, stream-ownership checks, determinism digests.
sanitize-test:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest tests/test_sim_engine.py \
		tests/test_sim_random.py tests/test_client_controller.py \
		tests/test_engine_frozen_digests.py \
		tests/test_wild_frozen_digests.py \
		tests/test_batch_frozen_digests.py \
		tests/test_channel_link.py tests/test_wifi_phy_mac.py \
		tests/test_channel_gilbert.py tests/test_wifi_ap.py \
		tests/test_wifi_wmm_beacon.py tests/test_net.py \
		tests/test_traffic.py tests/test_extensions.py \
		tests/test_population.py -q

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# The pytest-benchmark micro-suite (per-component timings).
bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q -s \
		2>&1 | tee bench_output.txt

# Determinism smokes (tools/digest_smoke.py): each artifact runs with
# the sanitizer on — serially into a fresh cache, with --jobs 2, and from
# the warm cache — and must print identical digests and write
# byte-identical --metrics-out files, the warm rerun executing zero
# simulations.
#   bench-smoke       the parallel runner on a small event-path figure,
#                     and fig3, which submits no runner batch (its printed
#                     report is compared instead of digests)
#   batch-smoke       the batch backend: 120 sessions in two cache-keyed
#                     blocks, each sanity-checked against the event
#                     engine (repro.batch.sanity) before its digest counts
#   obs-smoke         a session-mode figure (counters, gauges, histograms
#                     and span durations merged in spec order)
#   population-smoke  Tables 1 and 2 on the population studies: the
#                     provider year (4 blocks x 2 passes) and NetTest,
#                     the streaming-sketch merge
SMOKE = $(PYTHON) tools/digest_smoke.py

bench-smoke:
	$(SMOKE) fig2a --runs 6
	$(SMOKE) fig3

batch-smoke:
	$(SMOKE) fig2a --runs 120 --backend batch

obs-smoke:
	$(SMOKE) fig8 --runs 3

population-smoke:
	$(SMOKE) table1 --runs 50000
	$(SMOKE) table2 --runs 200

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
