"""Mutation audit of the verification layer: ``mutants.py [--ref REF] [ID ...]``.

Each mutation ``(id, file under src/repro, old, new, contract broken)`` is
applied to a fresh ``git archive REF`` copy in a temp dir.  Columns:
``tier-1*`` (``pytest -x`` without the test of this list, which any mutant
fails; the AST invariants and the DYN002 event oracle run inside it),
``DYN003`` (record an mp 1F1B step and replay it with
``.github/scripts/race_replay.py``), and ``paper-claims`` where both miss.
A pytest catch counts if the test passes alone unmutated, else the column
re-runs without it.  Prints which check catches which bug as a markdown
table, with the test or finding behind each.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

T = "parallel/backend/transport.py"
C = "parallel/collectives.py"
P = "parallel/pipeline.py"

MUTANTS = [
    ("sum-order", "parallel/backend/context.py", "total = terms[0]\n    for term in terms[1:]:",
     "total = terms[-1]\n    for term in terms[-2::-1]:", "one rank-order fold"),
    ("ef-residual", "compression/error_feedback.py", "self._residuals[site] = np.subtract(",
     "_ = np.subtract(", "EF keeps the residual"),
    ("topk-bytes", "compression/topk.py", "return k * (BYTES_FP16 + BYTES_INT32)",
     "return k * (BYTES_FP16 + BYTES_INT32) + 1", "Top-K wire bytes"),
    ("quant-bytes", "compression/quantization.py", "return packed + 2 * n_groups * BYTES_FP16",
     "return packed + n_groups * BYTES_FP16", "quant wire bytes (scale + min per group)"),
    ("ae-bytes", "compression/autoencoder.py", "* self.code_dim * BYTES_FP16",
     "* (self.code_dim + 1) * BYTES_FP16", "AE wire bytes"),
    ("topk-bwd-mask", "compression/base.py", "if kept is None:", "if True:",
     "Top-K backward carries only kept coordinates"),
    ("send-emit-late", T, "self._send_seq = seq\n        rec = events.protocol()",
     "self._send_seq = seq\n        self._status[slot][0] = _FULL\n"
     "        rec = events.protocol()", "send event stamped before the FULL flip"),
    ("recv-emit-late", T, "self._recv_seq = seq\n        rec = events.protocol()",
     "self._recv_seq = seq\n        self._status[slot][0] = _EMPTY\n"
     "        rec = events.protocol()", "recv event stamped before the EMPTY release"),
    ("arrive-emit-late", T,
     "        rec = events.protocol()\n        if rec is not None:\n"
     "            # Before the publishing store (see",
     '        struct.pack_into("<I", self._buf, 4 * self.rank, self._generation)\n'
     "        rec = events.protocol()\n        if rec is not None:\n"
     "            # Before the publishing store (see", "arrival stamped before it is published"),
    ("send-event-slot", T, 'rec.emit("send", src=self.src, dst=self.dst, slot=slot, seq=seq,\n',
     'rec.emit("send", src=self.src, dst=self.dst, slot=0, seq=seq,\n', "send event names its slot"),
    ("resend-unmarked", T, "seq=seq, dropped=True, retry=attempt)", "seq=seq)",
     "a dropped attempt is marked in the record"),
    ("full-before-payload", T,
     "        if arr.nbytes:\n            self._payload[slot][: arr.nbytes]",
     "        self._status[slot][0] = _FULL\n        if arr.nbytes:\n"
     "            self._payload[slot][: arr.nbytes]", "FULL flips after payload and header"),
    ("seq-check", T, "if got_seq != seq:", "if False:", "stale or reordered slot is rejected"),
    ("magic-check", T, "if magic != _MAGIC:", "if False:", "corrupt magic is rejected"),
    ("header-shape-check", T, "if any(shape[ndim:]):", "if False:", "header layout words checked"),
    ("straggler", T, "                return peer\n", "                pass\n",
     "barrier waits for every peer"),
    ("send-no-wait", T,
     "        self._wait_status(slot, _EMPTY, deadline, waiting_on=self.dst, seq=seq)\n", "",
     "a send waits for its slot to be EMPTY"),
    ("warmup+1", P, "return min(pp - 1 - stage, num_microbatches)",
     "return min(pp - stage, num_microbatches)", "1F1B warmup depth"),
    ("steady-b-first", P,
     '        ops.append(ScheduleOp("F", fwd))\n        ops.append(ScheduleOp("B", bwd))',
     '        ops.append(ScheduleOp("B", bwd))\n        ops.append(ScheduleOp("F", fwd))',
     "1F1B steady state runs F before B"),
    ("drain-drop", P, 'ScheduleOp("B", i) for i in range(bwd, m)',
     'ScheduleOp("B", i) for i in range(bwd + 1, m)', "every microbatch gets its B"),
    ("peak+1", P, "return min(pp - stage, m)", "return min(pp - stage + 1, m)", "1F1B peak bound"),
    ("sp-ring-bytes", C, "wire = 3 * (sp - 1) * dense_bytes(block_shape)",
     "wire = 2 * (sp - 1) * dense_bytes(block_shape)", "SP ring moves K, V and ctx blocks"),
    ("bwd-twin", C, "        if records:\n            tracker.record(bwd)",
     "        if records:\n            pass", "a cut point logs its backward twin"),
    ("ae-all-gather", C, 'op = "all_gather" if kind == "message" else "all_reduce"',
     'op = "all_reduce" if kind == "dense" else "all_gather"', "AE all-reduces its code"),
    ("extra-recorder", C, "        if group.records:\n            tracker.record(event)",
     "        if True:\n            tracker.record(event)", "only the designated rank records"),
    ("dp-site-shared", C, 'rank_site = f"dp.rank{r}"', 'rank_site = "dp.rank0"', "one EF site per dp replica"),
    ("dp-mean", C, "mean = np.divide(total, dp, out=total)", "mean = total", "dp averages"),
    ("dp-fold-zero-sign", C, "            np.add(total, 0.0, out=total)  # where this replica sent nothing\n",
     "", "the message fold adds 0.0 where a replica sent nothing"),
    ("topk-ties-high", "compression/topk.py", "mask[tied[-surplus:]] = False",
     "mask[tied[-surplus:] if pos is None else tied[:surplus]] = False",
     "the bracketed Top-K keeps ties from the lowest index"),
    ("bind-non-owned", "parallel/backend/worker.py",
     "if ctx.sp_rank == 0 and (p.tp_rank or 0) == ctx.tp_rank:",
     "if ctx.sp_rank == 0 and p.tp_rank in (None, ctx.tp_rank):",
     "only a gradient's publisher accumulates into the slab"),
    ("first-touch-adds", "nn/module.py",
     "self.grad = self.grad_buffer\n        np.copyto(self.grad, grad)",
     "self.grad = self.grad_buffer\n        self.grad.fill(0.0)\n        self.grad += grad",
     "backward's first touch copies into a gradient buffer"),
    ("ef-kept-residual", "compression/error_feedback.py", "corrected[idx] -= kept",
     "corrected[idx] = 0.0", "in-place EF keeps corrected - decode at the kept entries"),
    ("untracked", "parallel/tensor_parallel.py",
     'x = tp_broadcast(x, self.tp, tracker, layer=layer, site="mlp")',
     'x = tp_broadcast(x, self.tp, layer=layer, site="mlp")', "collectives get a tracker"),
    ("unseeded-rng", "data/pretraining.py", "self.rng = np.random.default_rng(seed)",
     "self.rng = np.random.default_rng()", "every RNG is seeded"),
    ("unseeded-inputs", "obs/cli.py", "rng = np.random.default_rng(0)\n    input_ids",
     "rng = np.random.default_rng()\n    input_ids", "every RNG is seeded"),
    ("hash-seed", "data/tasks.py", "zlib.crc32(name.encode())", "hash(name)",
     "seeds are stable across processes"),
    ("eval-plan", "parallel/backend/faults.py", "return FaultPlan(json.loads(value))",
     "return FaultPlan(eval(value))", "config strings go through parsers"),
    ("mutable-default", "nn/module.py", "def __init__(self, modules=()):",
     "def __init__(self, modules=[]):", "no mutable defaults"),
    ("no-deadline", "parallel/backend/worker.py", "transport.barrier_wait(timeout=ctx.timeout)",
     "transport.barrier_wait()", "blocking calls carry the rank's deadline"),
    ("rank-context", C, 'group = Group("tp", world)\n',
     "from repro.parallel.backend.context import rank_context  # noqa\n"
     '    group = Group("tp", world)\n', "only the backend reads rank_context"),
    ("unvalidated-config", "training/trainer.py",
     "    def __post_init__(self):\n        if self.lr <= 0:",
     "    def _unused(self):\n        if self.lr <= 0:", "configs validate themselves"),
    ("float64-op", "tensor/functional.py",
     "out_data = pool.empty(np.broadcast(mask, x.data).shape, x.data.dtype)",
     "out_data = pool.empty(np.broadcast(mask, x.data).shape, np.float64)", "ops stay float32"),
    ("graph-keeps-parents", "tensor/tensor.py", "        out._node = _Node(backward, links)",
     "        backward.inputs = tuple(parents)\n        out._node = _Node(backward, links)",
     "a graph node holds no parent Tensor"),
    ("mul-keeps-operand", "tensor/tensor.py", "a = self.data if other.requires_grad else None",
     "a = self.data", "a closure keeps only the arrays its gradients read"),
    ("gelu-cube", "tensor/functional.py",
     "np.multiply(x_data, x_data, out=t)\n    np.multiply(t, x_data, out=t)",
     "np.power(x_data, 3, out=t)", "integer powers by multiplication"),
    ("slice-add-at", "tensor/tensor.py", "if basic:\n                grad[key] += g",
     "if False:\n                grad[key] += g", "a basic key's backward is a slice +="),
    ("weight-bwd-strided", "tensor/tensor.py",
     "if a.ndim > 2:\n                wt = pool.empty(", "if False:\n                wt = pool.empty(",
     "a stacked x's gradient runs against a contiguous Wᵀ"),
    ("bwd-writes-g", "tensor/functional.py",
     "np.multiply(g, ~mask, out=pool.empty(out_data.shape, g.dtype))",
     "np.multiply(g, ~mask, out=g)", "a backward closure never writes into g"),
    ("retry-budget", "parallel/backend/faults.py", "if self.retry_budget < 1:",
     "if self.retry_budget < 0:", "FaultPlan rejects retry_budget 0 at parse time"),
    ("ckpt-atomic", "training/checkpoint.py", 'tmp = f"{path}.{os.getpid()}.tmp"', "tmp = path",
     "a checkpoint appears only when complete"),
    ("clip-l1", "optim/optimizer.py",
     "total += float(np.square(sq, out=sq).sum())",
     "total += float(np.abs(sq).sum() ** 2)", "clip by the global L2 norm"),
    ("adam-m-copy", "optim/optimizer.py",
     "np.add(np.multiply(m, b1, out=m), np.multiply(g, 1 - b1, out=a), out=m)",
     "m = np.add(np.multiply(m, b1), np.multiply(g, 1 - b1, out=a))", "Adam updates m in place"),
    ("close-no-detach", "parallel/backend/mp.py",
     "if p.data is arena[name]:\n                        p.data = p.data.copy()",
     "if p.data is arena[name]:\n                        pass", "close() hands the model private weights"),
    ("top-parent-only", "obs/cli.py", "recorder.record.events += [e for rank in sorted(result.record)",
     "_ = [e for rank in sorted(result.record)", "top's run file holds every rank's events"),
    ("replay-no-dedup", "obs/metrics.py", "            monitor.check([r for tail",
     "            monitor._active = set()\n            monitor.check([r for tail",
     "replayed alerts keep HealthMonitor's dedup"),
    ("layer-noop-reshape", "parallel/tensor_parallel.py", "return self.ln2(x + self.dropout(h))",
     "return self.ln2(x + self.dropout(h)).reshape(x.shape)", "a layer runs no op it does not need"),
    ("shard-init-ulp", "parallel/tensor_parallel.py", "p = Parameter(data.copy())",
     "p = Parameter(np.nextafter(data.copy(), np.float32(1)))",
     "a shard holds its serial weights' bytes"),
    ("linear-bwd-copy", "tensor/tensor.py", "ga = _matmul(g, wt)", "ga = _matmul(g, wt).copy()",
     "linear's backward copies no gradient"),
    ("pool-bypass", "tensor/tensor.py",
     "return np.matmul(a, b, out=pool.empty(lead + (a.shape[-2], b.shape[-1]), dtype))",
     "return np.matmul(a, b, out=np.empty(lead + (a.shape[-2], b.shape[-1]), dtype))",
     "products land in pooled buffers"),
]

PYTEST = ["-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"]
TIER1 = PYTEST + ["-x", "--ignore=tests/test_mutation_list.py"]
CLAIMS = PYTEST + ["-x", "benchmarks", "--ignore=benchmarks/e2e"]
RECORD = ["-m", "repro.obs", "mp-trace", "--out", "conc/t.json", "--scheme", "A2", "--tp", "2",
          "--pp", "2", "--schedule", "1f1b", "--microbatches", "4", "--conc-log", "conc"]
ENV = {**{k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}, "PYTHONPATH": "src"}


def run(root, args, timeout):  # -> (returncode or None on timeout, seconds, output)
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=root, env=ENV, timeout=timeout,
                              capture_output=True, text=True)
        return proc.returncode, time.monotonic() - start, proc.stdout + proc.stderr
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - start, ""


def pytest_column(args, timeout):
    def check(root, clean):
        extra, spent = [], 0.0
        for _ in range(3):
            code, secs, out = run(root, args + extra, timeout)
            spent += secs
            failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", out, re.M)
            if code is None or code == 0 or not failed:
                return {None: "timeout", 0: "missed"}.get(code, "caught"), spent, out[-160:]
            test, alone = failed[0], PYTEST + [failed[0]]
            if clean is None:  # unmutated: a failure that passes alone was load
                real = run(root, alone, timeout)[0] != 0
            else:  # passes alone unmutated
                real = run(clean, alone, timeout)[0] == 0
            if real:
                return "caught", spent, test
            extra += ["--deselect", test]
        return "missed", spent, ""
    return check


def command_column(steps, timeout):
    def check(root, clean):
        spent = 0.0
        for args in steps:
            code, secs, out = run(root, args, timeout)
            spent += secs
            if code != 0:
                lines = [ln for ln in out.splitlines() if ln.strip()] or [f"exit {code}"]
                what = next((x for x in lines if re.search("::|DYN", x)), lines[-1])
                return ("timeout" if code is None else "caught"), spent, what[:160]
        return "missed", spent, ""
    return check


COLUMNS = {"tier-1*": pytest_column(TIER1, 900),
           "DYN003": command_column([RECORD, [".github/scripts/race_replay.py", "conc"]], 300)}


def extract(ref, dest):
    (dest / "conc").mkdir(parents=True)
    subprocess.run(f"git archive {ref} | tar -x -C {dest}", shell=True, check=True)


def row(label, contract, names, cells, notes):
    marks = {"caught": "**C**", "missed": "·", "timeout": "T"}
    got = [cells.get(name, ("-", 0, "")) for name in names]
    notes += [f"- {label} / {n}: {what}" for n, (st, _, what) in zip(names, got) if st == "caught"]
    out = [f"{marks[st]} {secs:.0f}s" if st in marks else "–" for st, secs, _ in got]
    print(f"| {label} | {contract} | " + " | ".join(out) + " |", flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--ref", default="HEAD", help="tree to audit (default HEAD)")
    ap.add_argument("ids", nargs="*", help="mutation ids (default: all)")
    args = ap.parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="mutants-"))
    clean, notes = tmp / "clean", []
    try:
        extract(args.ref, clean)
        base = {name: check(clean, None) for name, check in COLUMNS.items()}
        if any(cell[0] != "missed" for cell in base.values()):
            sys.exit(f"a column fails on the unmutated copy: {base}")
        names = list(COLUMNS) + ["paper-claims"]
        print(f"| mutation | contract broken | {' | '.join(names)} |")
        print("|---|---|" + "---|" * len(names))
        row("(unmutated)", "every column passes", names, base, notes)
        for mid, rel, old, new, contract in MUTANTS:
            if args.ids and mid not in args.ids:
                continue
            root = tmp / mid
            extract(args.ref, root)
            path = root / "src/repro" / rel
            text = path.read_text()
            assert text.count(old) == 1, f"{mid}: old text occurs {text.count(old)} times in {rel}"
            path.write_text(text.replace(old, new))
            cells = {name: check(root, clean) for name, check in COLUMNS.items()}
            if all(cell[0] != "caught" for cell in cells.values()):
                cells["paper-claims"] = pytest_column(CLAIMS, 1800)(root, clean)
            row(f"`{mid}`", contract, names, cells, notes)
        print("\nCatches (the failing test or finding):\n\n" + "\n".join(notes))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
