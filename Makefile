# Developer entry points.  PYTHONPATH=src is how the repo is run
# everywhere (tests, benches, examples); no install step required.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

## the perf gates: scripts/bench_<name>.py, each writing BENCH_<name>.json
BENCHES := homengine cactus batch decomp semiring store service chaos
BENCH_TARGETS := $(addprefix bench-,$(BENCHES))

.PHONY: test lint fuzz bench check perf-gates ci $(BENCH_TARGETS)

## tier-1 test suite (the gate every PR must keep green); the
## slowest tests are listed at the end so CI logs show where the time
## goes
test:
	$(PYTHON) -m pytest -x -q --durations=15

## ruff lint (config in pyproject.toml); degrades to a syntax check
## when ruff is not installed (the offline dev container).  Also
## enforces the configuration architecture: os.environ may only be
## read in core/config.py (EngineConfig.from_env is the single
## env-var ingestion point), and the default session may only be
## looked up in core/errors.py (_resolve_session is the single
## default-session lookup; session.py defines it, __init__.py exports
## it).
lint: lint-env-gate lint-session-gate
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests scripts benchmarks examples; \
	else \
		echo "ruff not installed; falling back to a compile check"; \
		$(PYTHON) -m compileall -q src tests scripts benchmarks examples; \
	fi

.PHONY: lint-env-gate
lint-env-gate:
	@hits=$$(grep -rnE "os\.environ|os\.getenv|from os import.*environ|getenv" src/repro --include='*.py' | grep -v "^src/repro/core/config\.py:"); \
	if [ -n "$$hits" ]; then \
		echo "env gate: environment read outside core/config.py:"; \
		echo "$$hits"; \
		exit 1; \
	else \
		echo "env gate: ok (environment reads confined to core/config.py)"; \
	fi

.PHONY: lint-session-gate
lint-session-gate:
	@hits=$$(grep -rn "default_session" src/repro --include='*.py' | grep -vE "^src/repro/(session|__init__|core/errors)\.py:"); \
	if [ -n "$$hits" ]; then \
		echo "session gate: default session looked up outside core/errors.py:"; \
		echo "$$hits"; \
		exit 1; \
	else \
		echo "session gate: ok (default-session lookup confined to core/errors.py)"; \
	fi

## differential fuzz smoke: seeded cross-check of all hom backends,
## serial-vs-parallel sharding, and governed-session sanity.  The
## fixed seed makes CI failures replayable locally with the same
## arguments; --seconds caps the job even on throttled runners.  The
## second leg reruns with the durable store enabled, cross-checking
## answers replayed from its checkpoint and plan rows against the naive
## oracle and ending with a full checksum sweep.
fuzz:
	$(PYTHON) scripts/fuzz_differential.py --seed 0 --cases 2000 --seconds 25
	rm -rf /tmp/repro-fuzz-store
	$(PYTHON) scripts/fuzz_differential.py --seed 7 --cases 500 --seconds 15 \
		--cache-dir /tmp/repro-fuzz-store

## one perf gate without --check, e.g. `make bench-cactus`
$(BENCH_TARGETS): bench-%:
	$(PYTHON) scripts/bench_$*.py

## all experiment benchmarks, default engine configuration
bench:
	$(PYTHON) -m pytest benchmarks -q

## tier-1 tests plus the engine perf criteria; stops at the first
## failing gate
check: test
	for b in $(BENCHES); do $(PYTHON) scripts/bench_$$b.py --check || exit 1; done

## every perf gate with --check, each report written to
## /tmp/BENCH_<name>.json (the committed files stay untouched).  A
## failing gate is retried once: shared runners occasionally throttle a
## round, and a genuine regression fails both attempts.
perf-gates:
	for b in $(BENCHES); do \
		$(PYTHON) scripts/bench_$$b.py --check --output /tmp/BENCH_$$b.json \
		|| $(PYTHON) scripts/bench_$$b.py --check --output /tmp/BENCH_$$b.json \
		|| exit 1; \
	done

## everything the CI workflow runs (tests, lint, fuzz smoke, perf gates)
ci: test lint fuzz perf-gates
