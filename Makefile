PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-dynamic lint-changed model-check concurrency-verify \
	check bench loc op-budget

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.lint src/

lint-dynamic:
	$(PYTHON) -m repro.lint --dynamic src/

# Only the .py files touched since the merge-base with main.
lint-changed:
	$(PYTHON) -m repro.lint --changed-only

# Exhaustive bounded model check of the shm transport (DYN004) plus the
# static pipeline-schedule verifier (DYN005).
model-check:
	$(PYTHON) -m repro.lint --model-check

# Full concurrency verification: model-check the protocol, then record a
# real mp 1f1b 2x2 step, replay its event log through the DYN003
# happens-before race detector, and rebuild the trace from the same log.
concurrency-verify: model-check
	rm -rf conc-logs && mkdir -p conc-logs
	$(PYTHON) -m repro.obs mp-trace --out conc-logs/mp-1f1b.trace.json \
		--scheme A2 --tp 2 --pp 2 --schedule 1f1b --microbatches 4 \
		--conc-log conc-logs
	$(PYTHON) -m repro.lint --race-log conc-logs
	$(PYTHON) .github/scripts/trace_from_record.py \
		conc-logs/mp-1f1b.trace.json conc-logs

# The merge gate: tier-1 tests, the full static+dynamic lint, and the
# transport/schedule model checkers.
check: test lint-dynamic model-check

# The determinism pin: run the pinned suite (each case once, nothing timed)
# and gate it against the committed baseline. Wall clock is measured only by
# `python3 benchmarks/e2e/run.py`.
bench:
	$(PYTHON) -m repro.bench run --out bench-out
	$(PYTHON) -m repro.bench compare --dir bench-out --baseline benchmarks/baseline.json

# Code lines per src/repro package (non-blank, non-comment, non-docstring).
loc:
	$(PYTHON) .github/scripts/loc.py

# Where one serial training step spends its time and faults its pages, per
# (phase, op): OpProfiler's wall column and ru_minflt deltas, on the in-process
# twins of the four benchmark shapes (tp2 pp2 A2, tp2 Q2, pp2 1F1B, dp2 wide).
# It names the call site to look at; a speed claim still goes through
# benchmarks/e2e. A warmed step faults (almost) no pages: CI fails above
# 300 / 500 / 300 per step on the first three. The dp2 twin is printed, not
# gated: its Top-K codec's temporaries fault ~3 000 pages per step in one
# process (the mp leaders do not).
op-budget:
	$(PYTHON) .github/scripts/op_budget.py --tp 2 --pp 2 --scheme A2 --max-faults 300
	$(PYTHON) .github/scripts/op_budget.py --tp 2 --scheme Q2 --max-faults 500
	$(PYTHON) .github/scripts/op_budget.py --pp 2 --scheme w/o --schedule 1f1b \
		--microbatches 4 --max-faults 300
	$(PYTHON) .github/scripts/op_budget.py --dp 2 --scheme T2 --layers 8 --hidden 128 \
		--batch 8 --seq 16
