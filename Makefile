# Developer entry points. The package is laid out src/-style, so every
# target exports PYTHONPATH=src rather than requiring an install.

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test test-slow test-all fuzz chaos-smoke serve-smoke fleet-smoke perf-smoke perf-ab coverage lint typecheck check

# Tier-1: the invariant linter, then the trimmed suite (pyproject
# addopts deselect `slow`).
test: lint
	$(PYTEST) -x -q

# The exhaustive matrix: every registered workload at every budget/cap
# through the batch-vs-scalar kernel harness (and any other slow tests).
test-slow:
	$(PYTEST) -x -q -m slow

test-all: test test-slow

# Random property testing: every hypothesis test with fresh random seeds
# and five times its tier-1 example count (the `fuzz` profile in
# tests/conftest.py; tier-1 itself is derandomized).  Pin any failure it
# finds as an @example before fixing it.
fuzz:
	$(PYTEST) -q -m "hypothesis and not slow" --hypothesis-profile=fuzz tests

# Static invariant checks (RPL001-RPL005) over the whole tree.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint src/repro

# mypy --strict over repro.core, repro.lint, the vectorized batch
# kernel, the scheduling package, and the coordination server
# (configured in pyproject.toml).
# Gated: the target skips with a notice when mypy is not installed so
# offline environments keep a working `make test`.
typecheck:
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		PYTHONPATH=src $(PYTHON) -m mypy; \
	else \
		echo "mypy is not installed; skipping typecheck (pip install mypy)"; \
	fi

# Everything the CI gate runs.
check: lint typecheck test

# CI smoke: the degradation contract under the canned fault plan,
# through the CLI battery, under both REPRO_SWEEP settings (the armed
# engine path must hold whichever sweep strategy the env resolves).
# Exit is nonzero iff the contract is violated.
chaos-smoke:
	REPRO_SWEEP=full     PYTHONPATH=src $(PYTHON) -m repro chaos \
		--plan examples/faults/chaos_smoke.json --scale smoke
	REPRO_SWEEP=adaptive PYTHONPATH=src $(PYTHON) -m repro chaos \
		--plan examples/faults/chaos_smoke.json --scale smoke

# CI smoke: the coordination server end-to-end — bind an ephemeral
# port, drive a concurrent TCP burst through the micro-batcher, verify
# every reply and spot-check bit-identity against the direct library
# call — under both REPRO_SWEEP settings (the served answers must not
# depend on which sweep strategy the env resolves).
serve-smoke:
	REPRO_SWEEP=full     PYTHONPATH=src $(PYTHON) -m repro serve --smoke
	REPRO_SWEEP=adaptive PYTHONPATH=src $(PYTHON) -m repro serve --smoke

# CI smoke: the fleet simulator end-to-end through the CLI — a small
# synthetic trace over a heterogeneous fleet with periodic budget
# re-splits — under both REPRO_SWEEP settings (grant lattices resolve
# through the engine, so both strategies must drive the fleet green).
fleet-smoke:
	REPRO_SWEEP=full     PYTHONPATH=src $(PYTHON) -m repro fleet \
		--nodes 32 --gen-jobs 300 --rate 4 --interval 10
	REPRO_SWEEP=adaptive PYTHONPATH=src $(PYTHON) -m repro fleet \
		--nodes 32 --gen-jobs 300 --rate 4 --interval 10

# CI smoke: the perf benchmark's fleet-pressure workload at its quick
# size (128 nodes, 5,000 jobs); exits non-zero on any failed check.
perf-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/perf/run.py --quick --workload fleet-pressure

# A/B of the perf benchmark: REF (checked out into a temporary git
# worktree under $$TMPDIR) against the working tree, PAIRS alternating
# runs of WORKLOAD (default: all four), then win counts per metric and
# `run.py compare` on the last pair.  Runs for minutes; not a CI step.
REF ?= HEAD
WORKLOAD ?=
PAIRS ?= 5
SECONDS ?= 20
SEED ?= 2016
perf-ab:
	$(PYTHON) benchmarks/perf_ab.py --ref $(REF) \
		--workload "$(WORKLOAD)" --pairs $(PAIRS) --seconds $(SECONDS) --seed $(SEED)

# Coverage floor over the engine and fault layers.  Gated: skips with a
# notice when pytest-cov is not installed (CI installs and enforces it).
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTEST) -x -q --cov=repro.core --cov=repro.faults \
			--cov-report=term-missing:skip-covered --cov-fail-under=75; \
	else \
		echo "pytest-cov is not installed; skipping coverage (pip install pytest-cov)"; \
	fi
