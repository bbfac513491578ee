# Developer entry points. The package is laid out src/-style, so every
# target exports PYTHONPATH=src rather than requiring an install.

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test test-slow test-all fuzz chaos-smoke serve-smoke fleet-smoke perf-smoke perf-ab bench-diff coverage lint typecheck check

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
# through the CLI battery, with --sweep-mode full and --sweep-mode
# adaptive (the armed engine path must hold whichever sweep strategy
# the battery's sweep checks run).  Exit is nonzero iff the contract is
# violated.  The canned plan's 5% worker faults never fire at smoke
# scale, so the battery runs again in both modes under
# examples/faults/worker_smoke.json, which crashes the second sweep
# task and times out the fourth: each run fails unless both
# sweep-curve checks print `recovered cleanly`, i.e. the worker-fault
# schedule resubmitted the faulted tasks and the armed kernel gather
# matched the clean run.  Then one armed
# verb: `experiment ablation` under the canned plan, whose
# online-shifting epochs drift, must flag that on stderr with a
# `degraded: ...` line (its stdout is discarded).
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro chaos --sweep-mode full \
		--plan examples/faults/chaos_smoke.json --scale smoke
	PYTHONPATH=src $(PYTHON) -m repro chaos --sweep-mode adaptive \
		--plan examples/faults/chaos_smoke.json --scale smoke
	for mode in full adaptive; do \
		out=$$(PYTHONPATH=src $(PYTHON) -m repro chaos --sweep-mode $$mode \
			--plan examples/faults/worker_smoke.json --scale smoke) || exit 1; \
		echo "$$out"; \
		test "$$(echo "$$out" | grep -c 'sweep-curve .*recovered cleanly')" -eq 2 \
			|| exit 1; \
	done
	REPRO_FAULTS=examples/faults/chaos_smoke.json PYTHONPATH=src \
		$(PYTHON) -m repro experiment ablation --fast 2>&1 >/dev/null \
		| grep '^degraded: '

# CI smoke: the coordination server end-to-end — bind an ephemeral
# port, drive a concurrent TCP burst through the micro-batcher, verify
# every reply and spot-check bit-identity against the direct library
# call — with --sweep-mode full and --sweep-mode adaptive (the served
# answers must not depend on the served engine's sweep strategy).  Then
# the same burst under the canned fault plan, in both modes: the armed
# flushes resolve every request on its own, and a reply may be degraded
# or a typed fault error but never any other error.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro serve --smoke --sweep-mode full
	PYTHONPATH=src $(PYTHON) -m repro serve --smoke --sweep-mode adaptive
	REPRO_FAULTS=examples/faults/chaos_smoke.json PYTHONPATH=src \
		$(PYTHON) -m repro serve --smoke --sweep-mode full
	REPRO_FAULTS=examples/faults/chaos_smoke.json PYTHONPATH=src \
		$(PYTHON) -m repro serve --smoke --sweep-mode adaptive

# CI smoke: the fleet simulator end-to-end through the CLI — a small
# synthetic trace over a heterogeneous fleet with periodic budget
# re-splits — with --sweep-mode full and --sweep-mode adaptive (grant
# lattices resolve through the engine, so both strategies must drive
# the fleet green).
fleet-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fleet --sweep-mode full \
		--nodes 32 --gen-jobs 300 --rate 4 --interval 10
	PYTHONPATH=src $(PYTHON) -m repro fleet --sweep-mode adaptive \
		--nodes 32 --gen-jobs 300 --rate 4 --interval 10

# CI smoke: the perf benchmark at its quick size, exiting non-zero on
# any failed check: fleet-pressure (128 nodes, 5,000 jobs; its FleetStats
# golden), sweeps-full (~3 s; the golden digests of the fig2, fig6 and
# fig9 answers, so CI checks them on every Python it runs) and
# sweeps-adaptive (~4 s; the same digests of the planned answers and of
# their re-plan from the disk tier, which reuse the engine's shared
# kernel tables the most).
perf-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/perf/run.py --quick --workload fleet-pressure
	PYTHONPATH=src $(PYTHON) benchmarks/perf/run.py --quick --workload sweeps-full
	PYTHONPATH=src $(PYTHON) benchmarks/perf/run.py --quick --workload sweeps-adaptive

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

# The benchmark trajectory: `run.py compare` on the two newest
# BENCH_<pr>.json files committed at HEAD, ordered by PR number, older
# first, read from HEAD itself rather than the working tree.  It fails
# when an end-to-end metric got worse than its bound between them, and
# when fewer than two such files are committed.
bench-diff:
	@set -- $$(git ls-tree --name-only HEAD | grep -E '^BENCH_[0-9]+\.json$$' \
		| sort -t_ -k2 -n | tail -n 2); \
	if [ $$# -ne 2 ]; then \
		echo "bench-diff: needs two BENCH_<pr>.json files committed at HEAD" >&2; \
		exit 2; \
	fi; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	git show "HEAD:$$1" > "$$tmp/$$1" && git show "HEAD:$$2" > "$$tmp/$$2" && \
	echo "run.py compare $$1 $$2" && \
	$(PYTHON) -B benchmarks/perf/run.py compare "$$tmp/$$1" "$$tmp/$$2"

# Coverage floor over the engine and fault layers.  Gated: skips with a
# notice when pytest-cov is not installed (CI installs and enforces it).
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTEST) -x -q --cov=repro.core --cov=repro.faults \
			--cov-report=term-missing:skip-covered --cov-fail-under=75; \
	else \
		echo "pytest-cov is not installed; skipping coverage (pip install pytest-cov)"; \
	fi
