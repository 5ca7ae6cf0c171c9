"""Multiprocess execution backend: one spawned worker per logical rank.

The parent keeps the canonical model and optimizer.  Its parameters *are*
the weights arena in the shared-memory segment (writable views, bound by
``sync_weights``; ``close()`` gives each back a private copy), and workers
compute their rank's slice of each step on a replica whose parameters are
read-only views of the same arena.

The control pipe carries commands, the batch, and each rank's reply (loss,
names of the gradients it wrote, comm events, the step's slice of the rank
event record); shared memory carries activations, weights and gradients.
The optimizer's in-place update writes the arena, so ``sync_weights``
sends no message and copies only a rebound parameter; backward
accumulates each gradient a worker owns in its dp gang's slab.
With ``dp > 1`` the gangs' leaders then reduce the slabs among themselves
(:func:`~repro.parallel.collectives.dp_all_reduce`: each leader owns its
replica's gradient codec state) and leave the mean in gang 0's slab; the
parent reduces nothing, it copies that slab out.  None of it needs a flag:
the pipe is FIFO, so the ``step`` command follows the parent's arena write
and a reply follows the worker's last slab write (DESIGN.md decision 8).

Failure model: every wait on a worker carries a deadline and checks the
process is still alive, so a crashed or wedged rank surfaces as a typed
:class:`BackendError` naming the rank — never a hang.  Any failure tears
the whole gang down (``close()``) before the error propagates; a backend
is not reusable after an error.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from itertools import chain
from multiprocessing import connection as mp_connection

import numpy as np

from repro.parallel.backend.base import BackendError, ExecutionBackend, StepResult
from repro.parallel.backend.context import global_rank, grad_views
from repro.parallel.backend.events import span_view
from repro.parallel.backend.transport import (
    DEFAULT_CAPACITY,
    DEFAULT_TIMEOUT_S,
    RankTransport,
)
from repro.parallel.backend.worker import _worker_main

__all__ = ["MpBackend"]


class MpBackend(ExecutionBackend):
    """Spawn-context process gang executing the model's DP×PP×SP×TP grid."""

    name = "mp"

    def __init__(self, model, *, capacity_bytes: int = DEFAULT_CAPACITY,
                 timeout: float = DEFAULT_TIMEOUT_S,
                 collect_timelines: bool = False,
                 shutdown_timeout: float = 5.0):
        # Teardown state first: if anything below raises (bad config, spawn
        # failure), __del__ -> close() must find a coherent object instead
        # of masking the root cause with an AttributeError.
        self._closed = False
        self._procs: list = []
        self._conns: list = []
        self.transport = None
        self.shutdown_timeout = shutdown_timeout

        cfg = model.config
        if cfg.model.dropout != 0.0:
            raise BackendError(
                "mp backend requires dropout=0.0: each worker draws from its "
                "own RNG, so dropout masks cannot match the serial oracle"
            )
        self.model = model
        self.tp = cfg.tp
        self.pp = cfg.pp
        self.dp = getattr(cfg, "dp", 1)
        self.sp = getattr(cfg, "sp", 1)
        self.world = self.dp * cfg.pp * self.sp * cfg.tp
        self.timeout = timeout
        self.collect_timelines = collect_timelines

        # The parent attaches as an observer (rank=-1): it owns the segment
        # lifetime but opens no channels.
        self.transport = RankTransport.create(
            self.world, capacity_bytes, state=model.named_parameters(),
            grad_slabs=self.dp)
        try:
            self.sync_weights(model)  # before spawn: workers start on it
            self._spawn_workers(model, timeout)
            self._collect(range(self.world))  # one ("ready", rank) each
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    def _spawn_workers(self, model, timeout: float) -> None:
        spawn = multiprocessing.get_context("spawn")
        kwargs = {}
        if hasattr(model, "regression"):
            kwargs["regression"] = model.regression
        model_spec = {"cls": type(model), "config": model.config, "kwargs": kwargs}
        # Spawn order is global-rank order (dp-major, tp-minor), so
        # ``self._conns[rank]`` indexes by rank.
        for rank, coords in enumerate(
                np.ndindex(self.dp, self.pp, self.sp, self.tp)):
            dp_rank, stage, sp_rank, tp_rank = coords
            parent_conn, child_conn = spawn.Pipe()
            rank_info = dict(tp=self.tp, pp=self.pp, dp=self.dp, sp=self.sp,
                             tp_rank=tp_rank, stage=stage, dp_rank=dp_rank,
                             sp_rank=sp_rank)
            proc = spawn.Process(
                target=_worker_main, daemon=True, name=f"repro-rank{rank}",
                args=(child_conn, self.transport.spec, rank_info, model_spec,
                      timeout))
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def _collect(self, ranks) -> dict[int, tuple]:
        """One message from each rank, or a BackendError naming the culprit.

        Blocks in :func:`multiprocessing.connection.wait` so a reply (or a
        worker's death — its pipe end hits EOF) wakes the parent
        immediately instead of on the next fixed-interval poll; on a
        single-core host every milliseconds the parent sleeps past a ready
        reply is added straight to the step's critical path.
        """
        pending = set(ranks)
        results: dict[int, tuple] = {}
        deadline = time.monotonic() + self.timeout
        while pending:
            # Re-derive the map each pass: pending shrinks as replies land.
            conn_of = {self._conns[r]: r for r in pending}
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                culprit = sorted(pending)[0]
                self.close()
                raise BackendError(
                    f"ranks {sorted(pending)} sent no reply within "
                    f"{self.timeout:.0f}s",
                    rank=culprit,
                )
            ready = mp_connection.wait(list(conn_of), timeout=remaining)
            for conn in ready:
                rank = conn_of[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # Brief join so the exit code is harvested: EOF on the
                    # pipe usually races the process's actual death.
                    self._procs[rank].join(0.5)
                    exitcode = self._procs[rank].exitcode
                    self.close()
                    detail = (f" (worker died, exit code {exitcode})"
                              if exitcode is not None else "")
                    raise BackendError(f"connection to worker lost{detail}",
                                       rank=rank)
                if msg[0] == "error":
                    tb = msg[2]
                    self.close()
                    raise BackendError(f"worker failed:\n{tb}", rank=rank)
                results[rank] = msg
                pending.discard(rank)
        return results

    def _ensure_open(self) -> None:
        if self._closed:
            raise BackendError("backend is closed")

    def _send_all(self, msg: tuple) -> None:
        # Pickle once, fan the bytes out (pickling per worker put world-1
        # redundant passes on the step's critical path).  ``send_bytes``
        # pairs with the workers' ordinary ``recv``, which unpickles.
        buf = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        for rank, conn in enumerate(self._conns):
            try:
                conn.send_bytes(buf)
            except (BrokenPipeError, OSError):
                self.close()
                raise BackendError("worker pipe is broken (process died?)",
                                   rank=rank)

    # ------------------------------------------------------------------
    def train_step(self, input_ids, labels, attention_mask=None) -> StepResult:
        self._ensure_open()
        if self.dp > 1 and np.asarray(input_ids).shape[0] % self.dp != 0:
            raise ValueError(
                f"batch size {np.asarray(input_ids).shape[0]} not divisible "
                f"by dp={self.dp}")
        self._send_all(("step", input_ids, labels, attention_mask,
                        self.collect_timelines))
        replies = self._collect(range(self.world))

        # replies[rank] = ("result", rank, loss, written, events, record slice)
        # Each dp gang's last stage reports its shard loss; the step loss
        # is the gang-order mean, matching the oracle's replica loop.
        losses: list[float] = []
        for d in range(self.dp):
            loss_rank = global_rank(self.pp - 1, 0, self.tp, pp=self.pp,
                                    sp=self.sp, dp_rank=d)
            gang_loss = replies[loss_rank][2]
            if gang_loss is None:
                raise BackendError("last pipeline stage reported no loss",
                                   rank=loss_rank)
            losses.append(gang_loss)
        loss = sum(losses[1:], losses[0]) / self.dp

        events = [e for rank in range(self.world) for e in replies[rank][4]]
        record = {rank: replies[rank][5] for rank in range(self.world)
                  if replies[rank][5]}
        timelines = (span_view(chain.from_iterable(record.values()))
                     if self.collect_timelines else {})

        # Mirror the merged events onto the parent model's tracker so
        # `model.tracker.summary()` reads the same whichever backend ran.
        self.model.tracker.reset()
        self.model.tracker.events.extend(events)
        return StepResult(loss=float(loss), grads=self._step_grads(replies),
                          events=events, timelines=timelines, record=record)

    # ------------------------------------------------------------------
    def _step_grads(self, replies: dict[int, tuple]) -> dict[str, np.ndarray]:
        """The step's gradients, copied out of dp gang 0's slab.

        With ``dp > 1`` the gang leaders have already reduced every gang's
        slab into that one (:func:`~repro.parallel.collectives.dp_all_reduce`).
        A gradient belongs to whichever rank wrote it; two writers in one
        gang would make the slab depend on their timing, so that is an
        error, not a pick.  Checked before any view is taken: ``close()``
        cannot release a segment that still has views out.
        """
        gang = self.world // self.dp
        owners: list[dict[str, int]] = [{} for _ in range(self.dp)]
        for rank in range(self.world):
            for name in replies[rank][3]:
                first = owners[rank // gang].setdefault(name, rank)
                if first != rank:
                    self.close()
                    raise BackendError(
                        f"gradient of {name!r} was written by ranks {first} "
                        f"and {rank} of dp gang {rank // gang}", rank=rank)
        # The one copy out of the slab: StepResult owns its memory.  The
        # leaders leave the mean packed (``pack_grads``).
        weights = self.transport.weights
        names = owners[0] if self.dp > 1 else weights
        slab = grad_views(self.transport.grad_flat(0), {n: weights[n].shape for n in names})
        return {name: slab[name].copy() for name in owners[0]}

    def sync_weights(self, model) -> None:
        """Bind each parameter to its writable arena view, copying only one
        whose ``.data`` points elsewhere (first call, ``load_state_dict``):
        the optimizer's in-place update is then the whole weight push."""
        self._ensure_open()
        arena = self.transport.weights
        for name, p in model.named_parameters():
            if p.data is not arena[name]:
                np.copyto(arena[name], p.data)
                p.data = arena[name]

    # ------------------------------------------------------------------
    @staticmethod
    def _merge_nested(dst: dict, src: dict) -> None:
        """Recursive dict union; leaves overwrite.

        Safe for runtime state because every compressor site is either
        owned by exactly one rank or replicated bitwise across tp ranks
        (the replicas replay the same deterministic codec sequence), so
        colliding leaves are equal by construction.
        """
        for key, value in src.items():
            if isinstance(value, dict) and isinstance(dst.get(key), dict):
                MpBackend._merge_nested(dst[key], value)
            else:
                dst[key] = value

    def runtime_state(self) -> dict:
        """Union of every worker's compressor runtime state (EF, RNG).

        With ``dp > 1`` the gangs' compressor states diverge (each gang
        advances on its own batch shard), so every worker namespaces its
        reply — ``{"dp0": ..., "dp1": ..., "dp_grad": ...}`` — the last
        being the gradient codec's state, one ``dp.rank{r}`` site from
        each gang leader.
        """
        self._ensure_open()
        self._send_all(("runtime_state",))
        replies = self._collect(range(self.world))
        merged: dict = {}
        for rank in range(self.world):
            self._merge_nested(merged, replies[rank][2])
        return merged

    def load_runtime_state(self, state: dict) -> None:
        """Broadcast checkpointed compressor state to every worker.

        No reply needed: the control pipe is FIFO, so the next ``step``
        command is guaranteed to observe the restored state.  Each worker
        picks its own ``dp{d}`` slice out of a namespaced dict, each gang
        leader its own ``dp.rank{d}`` site of ``dp_grad``.
        """
        self._ensure_open()
        self._send_all(("load_runtime_state", state))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear the gang down; bounded, idempotent, leak-free.

        Total shutdown time is bounded by ``shutdown_timeout`` plus one
        shared 1s grace for terminated processes: the join deadline is
        *global* (a process past it gets ``join(0.0)``, not a fresh
        per-process grant), and stuck workers are terminated, then killed
        if SIGTERM doesn't take.  The shm segment is closed+unlinked in a
        ``finally`` so even a worker that had to be terminated while
        attached never leaks the segment (the kernel frees it once the
        killed process's mapping goes away).
        """
        if getattr(self, "_closed", True):
            return
        self._closed = True
        try:
            for conn in self._conns:
                try:
                    conn.send(("shutdown",))
                except (OSError, BrokenPipeError):
                    pass
            deadline = time.monotonic() + self.shutdown_timeout
            for proc in self._procs:
                proc.join(max(0.0, deadline - time.monotonic()))
            stuck = [p for p in self._procs if p.is_alive()]
            for proc in stuck:
                proc.terminate()
            kill_deadline = time.monotonic() + 1.0
            for proc in stuck:
                proc.join(max(0.0, kill_deadline - time.monotonic()))
                if proc.is_alive():
                    proc.kill()
                    proc.join(1.0)
            for conn in self._conns:
                try:
                    conn.close()
                except OSError:
                    pass
        finally:
            transport = getattr(self, "transport", None)
            if transport is not None:
                # The model outlives the segment: each parameter still on
                # the arena gets a private copy before the views are released.
                arena = transport.weights
                for name, p in self.model.named_parameters():
                    if p.data is arena[name]:
                        p.data = p.data.copy()
                transport.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
