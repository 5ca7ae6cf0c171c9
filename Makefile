PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-changed concurrency-verify check bench loc op-budget

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.lint src/

# Only the .py files touched since the merge-base with main.
lint-changed:
	$(PYTHON) -m repro.lint --changed-only

# Record a real mp 1f1b 2x2 step, replay its event log through the DYN003
# happens-before race detector, and rebuild the trace from the same log.
concurrency-verify:
	rm -rf conc-logs && mkdir -p conc-logs
	$(PYTHON) -m repro.obs mp-trace --out conc-logs/mp-1f1b.trace.json \
		--scheme A2 --tp 2 --pp 2 --schedule 1f1b --microbatches 4 \
		--conc-log conc-logs
	$(PYTHON) -m repro.lint --race-log conc-logs
	$(PYTHON) .github/scripts/trace_from_record.py \
		conc-logs/mp-1f1b.trace.json conc-logs

# The merge gate: tier-1 tests (which run every kept dynamic checker, the
# determinism pin included) and the static lint.
check: test lint

# The determinism pin: run the pinned suite (each case once, nothing timed)
# and print every difference from benchmarks/baseline.json; exit 1 on any.
# Wall clock is measured only by `python3 benchmarks/e2e/run.py`.
bench:
	$(PYTHON) -m repro.bench

# Code lines per src/repro package (non-blank, non-comment, non-docstring).
loc:
	$(PYTHON) .github/scripts/loc.py

# Where one serial training step spends its time and faults its pages, per
# (phase, op): OpProfiler's wall column and ru_minflt deltas, on the in-process
# twins of the four benchmark shapes (tp2 pp2 A2, tp2 Q2, pp2 1F1B, dp2 wide).
# It names the call site to look at; a speed claim still goes through
# benchmarks/e2e. A warmed step faults (almost) no pages: CI fails above
# 300 per step on each shape. The dp2 twin reads 0 since its gradient
# reduce codes and folds each replica's flat gradient in place (~1 600
# before, from the Top-K codec's temporaries).
op-budget:
	$(PYTHON) .github/scripts/op_budget.py --tp 2 --pp 2 --scheme A2 --max-faults 300
	$(PYTHON) .github/scripts/op_budget.py --tp 2 --scheme Q2 --max-faults 300
	$(PYTHON) .github/scripts/op_budget.py --pp 2 --scheme w/o --schedule 1f1b \
		--microbatches 4 --max-faults 300
	$(PYTHON) .github/scripts/op_budget.py --dp 2 --scheme T2 --layers 8 --hidden 128 \
		--batch 8 --seq 16 --max-faults 300
