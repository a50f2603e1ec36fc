# Arboretum reproduction — common targets.

export PYTHONPATH := src

.PHONY: install test lint verify-sweep bench bench-smoke bench-tests bench-pairs profile chaos-smoke chaos-resume-smoke release-check check eval examples artifacts all

install:
	python setup.py develop

test:
	python -m pytest -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping ruff check"; \
	fi
	python -m repro lint src/repro
	! grep -rnE "multiprocessing|concurrent\.futures|ThreadPoolExecutor|ProcessPoolExecutor" src/repro
	! grep -nE "^import (numpy|numba)|^from (numpy|numba)" src/repro/crypto/backend.py src/repro/crypto/shamir.py src/repro/crypto/field.py

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

verify-sweep:
	python -m repro verify-sweep

chaos-smoke:
	python -m repro chaos --scenario all --devices 32 --committee-size 4

# Every checkpoint killed and resumed.
chaos-resume-smoke:
	python -m repro chaos --crash-sweep --devices 32 --committee-size 4

# The long profile of the release check tier-1 runs on 200 seeds: what the
# full runtime releases against the calibrated Laplace / exponential-mechanism
# distributions, honest and under the seeded mutants (about a minute).
release-check:
	REPRO_RELEASE_SEEDS=2000 python -m pytest tests/test_release_distribution.py -q

check: lint verify-sweep test examples bench-smoke bench-tests chaos-smoke chaos-resume-smoke release-check

eval:
	python -m repro eval all

artifacts:
	python -m repro eval --export artifacts/

examples:
	for ex in examples/*.py; do echo "== $$ex =="; python $$ex || exit 1; done

all: lint test bench
