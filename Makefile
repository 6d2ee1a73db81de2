PYTHON ?= python
export PYTHONPATH := src

# five fixed seeds for the deterministic fault-schedule sweep
FAULT_SEEDS ?= 0 1 7 42 1337

.PHONY: test faults parallel obs compile dstream ivm net columnar experiments e2e hotpath

test:
	$(PYTHON) -m pytest -x -q

faults:
	@for seed in $(FAULT_SEEDS); do \
		echo "== fault sweep: REPRO_FAULT_SEED=$$seed =="; \
		REPRO_FAULT_SEED=$$seed $(PYTHON) -m pytest -m faults -q || exit 1; \
	done

parallel:
	$(PYTHON) -m pytest -m parallel -q

# observability suite + a 2-second dashboard smoke that doubles as the
# artifact generator (sample trace + metrics land in benchmarks/_results/),
# then a 2-second cluster smoke: its skew panel pulls every worker's
# counters and hot-key sketch each frame
obs:
	$(PYTHON) -m pytest tests/obs -q
	$(PYTHON) -m repro.obs.dashboard --app voter --engine sstore \
		--seconds 2 --refresh 0.5 --plain \
		--export-trace benchmarks/_results/trace.jsonl \
		--export-chrome benchmarks/_results/trace_chrome.json \
		--export-metrics benchmarks/_results/metrics.json
	$(PYTHON) -m repro.obs.dashboard --app voter --engine parallel \
		--seconds 2 --plain

# distributed streaming: workflow scheduling on the process cluster, the
# single-engine-vs-cluster differential report, and streaming crash/recover
# equivalence (both judged by repro.core.recovery)
dstream:
	$(PYTHON) -m pytest -m dstream -q

# incremental view maintenance: delta-view unit tests plus the hypothesis
# differential sweep (view-backed reads vs the oracle's full recompute; the
# oracle is the tree-walking interpreter in tests/oracle.py)
ivm:
	$(PYTHON) -m pytest -m ivm -q

# expression lowering suites: every node's compiled lowering against the
# oracle (tests/oracle.py), compiled plans and the plan cache, hypothesis
# differential fuzzing of statements, literals that must never reach a
# kernel's source, and both apps run whole against the oracle
compile:
	$(PYTHON) -m pytest tests/hstore/test_expression.py \
		tests/hstore/test_compile.py \
		tests/hstore/test_plan_cache.py \
		tests/property/test_prop_compile_diff.py \
		tests/property/test_prop_kernel_literals.py \
		tests/integration/test_apps_on_the_oracle.py -q

# TCP front door: wire-protocol codec units + hypothesis garbage fuzzing,
# typed-error round trips, and the asyncio server lifecycle/load suite
# (includes the telemetry-plane suite: trace stitching over TCP, head
# sampling, the /metrics sidecar, and piggybacked worker deltas)
net:
	$(PYTHON) -m pytest -m net -q

# scans: sorted-flag heal and bulk-insert atomicity, EXPLAIN lanes vs
# counters, and the hypothesis scan differential (the engine vs the oracle,
# bit-for-bit, with writes, aborts, truncate and recovery between scans)
columnar:
	$(PYTHON) -m pytest -m columnar -q

# one check per paper claim (E1-E10, E4b, A1-A4): each asserts the claim's
# shape and writes the table EXPERIMENTS.md cites to benchmarks/_results/
experiments:
	$(PYTHON) -m pytest benchmarks/bench_claims.py -q

# end-to-end benchmark as a whole-stack check: the harness's self-test, then
# a short run of all five workloads whose correctness references (season-
# Voter model, acked => durable, recovered == live) must hold; then a smoke
# run of the sizing tool, whose probes name engine methods and fail loudly
# (AttributeError) when one moves, and of its deterministic call count
e2e:
	$(PYTHON) benchmarks/e2e/run.py --selftest
	$(PYTHON) benchmarks/e2e/run.py --quick
	$(PYTHON) benchmarks/hotpath.py --ops 500
	$(PYTHON) benchmarks/hotpath.py --count --ops 300

# sizing tool: us/op per statement name, per emit, stream/window insert and
# expiry, log append and transaction begin+commit for Voter and BikeShare on
# the in-process loop
hotpath:
	$(PYTHON) benchmarks/hotpath.py
