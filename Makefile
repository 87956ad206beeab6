# Convenience targets for the HERD reproduction.

.PHONY: install test test-fast bench figures figures-full examples metrics-smoke chaos-smoke ha-smoke lab-smoke elastic-smoke qos-smoke txn-smoke nemesis-smoke perf-pairs clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

test-fast:
	pytest tests/ -m "not slow"

bench:
	pytest benchmarks/ --benchmark-only

figures:
	python -m repro.bench.cli all --scale bench

figures-full:
	python -m repro.bench.cli all --scale full

# Interleaved host-time pairs of BASE against this tree on one workload
# of BENCHMARK.json, or on all six back to back: the before/after row a
# performance change owes docs/PERF.md, ending in one verdict table
# (within bound / regressed / unresolved per end-to-end metric and
# workload) and a non-zero exit on a regression.
# make perf-pairs BASE=<git-ref|dir> WORKLOAD=<name>|all [PAIRS=10]
PAIRS ?= 10
perf-pairs:
	python3 benchmarks/perf_pairs.py $(BASE) $(WORKLOAD) $(PAIRS)

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

# One small figure with full observability on; the export refuses an
# unwritable path up front and tests/test_bench_cli.py asserts the JSON.
metrics-smoke:
	python -m repro.bench.cli fig2 --metrics /tmp/herd-metrics.json \
		--trace /tmp/herd-trace.json

# Every smoke target below drives the CLI (which exits non-zero when a
# run violates a safety invariant) and, where a sweep is committed, the
# lab gate against its baseline (it writes no file; `--bench-json PATH`
# keeps a snapshot).  The scenario-level assertions (goodput floors,
# migration counts, shrink minimality, byte-identical replay,
# determinism) are tier-1 tests.

# Two seeded chaos runs: loss + corruption + duplication + reordering +
# NIC stall + RNR + one server crash; then one-sided transactions
# through the same harness, a participant paused mid-run.
chaos-smoke:
	python -m repro.bench.cli --chaos --chaos-seed 7 --chaos-runs 2 \
		--metrics /tmp/herd-chaos-metrics.json
	python -m repro.bench.cli --chaos --chaos-scenario txn-onesided --chaos-seed 7

# A replicated cluster loses its primary mid-load (docs/HA.md).
ha-smoke:
	python -m repro.bench.cli --chaos --chaos-scenario kill-primary \
		--chaos-seed 11 --chaos-intensity 0.5
	python -m repro.lab.cli run ha-failover --workers 2 --timeout 600
	python -m repro.lab.cli gate ha-failover \
		--baseline benchmarks/baselines/ha-failover.json

# A spare partition joins a live replicated cluster while a kill-primary
# fault lands on the migration source (docs/ELASTICITY.md).
elastic-smoke:
	python -m repro.bench.cli --chaos --chaos-scenario migrate-under-kill \
		--chaos-seed 11 --chaos-intensity 0.5
	python -m repro.lab.cli run elasticity --workers 2 --timeout 600
	python -m repro.lab.cli gate elasticity \
		--baseline benchmarks/baselines/elasticity.json

# A 10x flash crowd with admission control on (docs/QOS.md); the sweep
# prices it against the same crowd unprotected.
qos-smoke:
	python -m repro.bench.cli --chaos --chaos-scenario flash-crowd --chaos-seed 7
	python -m repro.lab.cli run overload --workers 2 --timeout 600
	python -m repro.lab.cli gate overload \
		--baseline benchmarks/baselines/overload.json

# Multi-key transactions, both commit dataplanes, across the contention
# sweep (docs/TXN.md).
txn-smoke:
	python -m repro.bench.cli figtxn
	python -m repro.lab.cli run txn --workers 2 --timeout 600
	python -m repro.lab.cli gate txn \
		--baseline benchmarks/baselines/txn.json

# A bounded random-schedule search across every dataplane must find
# zero violations; the sweep's planted-bug arm must find, shrink and
# replay its failure (docs/NEMESIS.md).
nemesis-smoke:
	python -m repro.bench.cli --nemesis 12 --nemesis-seed 7
	python -m repro.lab.cli run nemesis --workers 2 --timeout 600
	python -m repro.lab.cli gate nemesis \
		--baseline benchmarks/baselines/nemesis.json

# The lab gate, end to end: a 4-point parallel sweep lands in the
# result store, a re-run must be served entirely from cache, the
# committed baseline must pass, and a deliberately perturbed baseline
# must fail.
lab-smoke:
	python -m repro.lab.cli run smoke --workers 2 --timeout 300
	python -m repro.lab.cli run smoke --workers 2 --quiet \
		| grep -q "(4 cached, 0 ran, 0 failed)"
	python -m repro.lab.cli gate smoke \
		--baseline benchmarks/baselines/lab-smoke.json
	python -c "import json; b = json.load(open('benchmarks/baselines/lab-smoke.json')); \
		label = sorted(b['points'])[0]; b['points'][label]['mops'] *= 1.5; \
		json.dump(b, open('/tmp/herd-lab-perturbed.json', 'w'))"
	! python -m repro.lab.cli gate smoke \
		--baseline /tmp/herd-lab-perturbed.json
	@echo "lab-smoke ok: gate passed on committed baseline, failed on perturbed"

clean:
	rm -rf benchmarks/out .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
