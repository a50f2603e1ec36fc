# Arboretum reproduction — common targets.

export PYTHONPATH := src

.PHONY: install test lint verify-sweep bench bench-smoke bench-tests bench-pairs profile rss chaos-smoke chaos-resume-smoke release-check fuzz check eval examples artifacts all

install:
	python setup.py develop

test:
	python -m pytest -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "WARNING: ruff is not installed, so the F rules pyproject.toml selects (unused imports, undefined names; also E4/E7/E9/W) did NOT run" >&2; \
	fi
	python -m repro lint src/repro
	! grep -rnE "multiprocessing|concurrent\.futures|ThreadPoolExecutor|ProcessPoolExecutor" src/repro
	! grep -rnE --include="*.py" "^import (numpy|numba)|^from (numpy|numba)" src/repro/crypto
	! grep -rn "def _trip_count" src/repro
	! grep -rnE --include="*.py" "2\.0 \* [A-Za-z_.]*sensitivity / [A-Za-z_.]*epsilon" src/repro | grep -v "^src/repro/privacy/mechanisms\.py:"
	! grep -rnE "\.work\.[a-z_]+ *= " src tests

bench:
	python -m pytest benchmarks/ --benchmark-only

# The whole-query-path benchmark (BENCHMARK.json + bench/): every workload
# at tiny sizes with every correctness check, then the benchmark's own tests.
bench-smoke:
	python bench/run.py --smoke

bench-tests:
	python -m pytest bench/tests -q

# Before/after evidence for a performance claim: alternating runs of the
# benchmark on PARENT (a git ref or an existing checkout) and this tree.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=intake_65k [SEED=2023] [PAIRS=10]
# Without WORKLOAD it runs all five (about 45 minutes).
bench-pairs:
	python tools/bench_pairs.py $(PARENT) $(if $(WORKLOAD),--workload $(WORKLOAD)) --seed $(or $(SEED),2023) --pairs $(or $(PAIRS),10)

# Where a pass spends its time: a SIGPROF sampling profile of untraced passes
# (sees inside C builtins such as pow, which cProfile charges to nobody).
#   make profile WORKLOAD=service_mix [SEED=2023] [PASSES=2] [CALLERS=powmod]
# CALLERS splits the samples of every function whose qualified name contains it
# by immediate caller.
profile:
	python tools/profile_workload.py $(WORKLOAD) --seed $(or $(SEED),2023) --passes $(or $(PASSES),2) $(if $(CALLERS),--callers $(CALLERS))

# Peak RSS of one sharded top-1 query per population size, each in its own
# process, with the per-device slope between sizes (ARCHITECTURE §35).
#   make rss [DEVICES="16384 65536 262144"]
rss:
	python tools/rss_curve.py $(if $(DEVICES),--devices $(DEVICES))

verify-sweep:
	python -m repro verify-sweep

chaos-smoke:
	python -m repro chaos --scenario all --devices 32 --committee-size 4

# Every checkpoint killed and resumed: 4 shards, then 64 shards under a
# 7-level fanout-2 tree (76 checkpoints, ~10 s), where a resume restores up
# to all 64 journaled shard leaves.
chaos-resume-smoke:
	python -m repro chaos --crash-sweep --devices 32 --committee-size 4
	python -m repro chaos --crash-sweep --devices 512 --committee-size 4

# The long profile of the release check tier-1 runs on 200 seeds: what the
# full runtime releases against the calibrated Laplace / exponential-mechanism
# distributions, honest and under the seeded mutants (about a minute).
release-check:
	REPRO_RELEASE_SEEDS=2000 python -m pytest tests/test_release_distribution.py -q

# The journal loader fuzz, the deployment round trip and the run-invariant
# property tests, which tier-1 runs derandomised at 40 examples, on 2,000
# random examples each; and the search-against-oracle property (each example
# plans one query twice, once from scratch), derandomised at 6 in tier-1, on
# 200 random examples (about 35 s).
fuzz:
	REPRO_FUZZ_EXAMPLES=2000 python -m pytest tests/test_journal.py tests/test_deployment.py tests/test_run_invariants.py tests/test_search_bound.py -q -k "Fuzz or Properties"

check: lint verify-sweep test examples bench-smoke bench-tests chaos-smoke chaos-resume-smoke release-check fuzz

eval:
	python -m repro eval all

artifacts:
	python -m repro eval --export artifacts/

examples:
	for ex in examples/*.py; do echo "== $$ex =="; python $$ex || exit 1; done

all: lint test bench
