"""Entry point of one mp-backend worker process (one logical rank).

A worker owns a single (dp_rank, stage, sp_rank, tp_rank) coordinate.  It
builds the model from the parent's config, rebinds every parameter to a
read-only view of the weights arena in the shared-memory segment (so it
always computes on the very bytes the parent last wrote), then activates
a :class:`RankContext` so every :class:`Group` the model code builds has
exactly this rank local.  Per step it executes exactly the slice of the
oracle's computation its rank would own:

- stage 0 embeds the batch; later stages receive the boundary message
  over shared memory, decode it and turn it into a gradient leaf;
- the stage's transformer layers run with the worker's tp shard;
- the last stage computes the loss and starts backward; earlier stages
  receive the relayed boundary gradient and resume their local graph;
- stages > 0 relay their input-leaf gradient back to the previous stage.

The gradients a worker owns — those it computes on the gang's sp rank 0
plane (the SP sync made the planes equal) and on the parameter's tp rank,
the shard's or rank 0 for a replicated parameter — accumulate in its dp
gang's slab, where backward writes them (:func:`_bind_state`); its reply
names them.  With ``dp > 1`` the
gang's first rank — its leader, which owns the replica's gradient codec
and its ``dp.rank{r}`` state — then runs
:func:`~repro.parallel.collectives.dp_all_reduce` on the gang's slab, in
place, with the other gangs' leaders, once its own gang has told it what
was written.

The control pipe (``multiprocessing.Pipe``) carries commands, batch, loss,
comm events and the step's slice of the rank event record
(:mod:`repro.parallel.backend.events`); everything else lives exclusively
in shared memory.
"""

from __future__ import annotations

import gc
import os
import time
import traceback

import numpy as np

from repro.parallel.backend import events, faults
from repro.parallel.backend.context import RankContext, set_rank_context
from repro.parallel.backend.transport import RankTransport
from repro.tensor import Tensor


def _disable_shm_tracking() -> None:
    """Stop this process's resource tracker from adopting shm segments.

    The parent owns (and unlinks) every segment.  Python 3.10–3.12 have no
    ``track=False`` on ``SharedMemory``, and a spawned child's resource
    tracker would otherwise unlink the parent's segment at child exit,
    breaking every sibling still attached.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name, rtype):
        if rtype == "shared_memory":
            return
        original(name, rtype)

    resource_tracker.register = register


def _spmd_step(model, ctx: RankContext, input_ids, labels, attention_mask):
    """One training step of this rank's slice; returns (loss, names of the
    gradients written to the gang's slab).  The autograd graph dies with
    this frame, before a dp leader's gradient reduce allocates.

    The step executes the pipeline schedule's op list verbatim
    (:func:`repro.parallel.pipeline.schedule_ops`): each ``F`` op carries
    one microbatch from boundary to boundary, each ``B`` op runs its
    backward and relays the input-leaf gradient upstream.  Under 1F1B the
    interleaving lets a stage's backward compute overlap the in-flight
    boundary sends of neighbouring microbatches; gradient accumulation
    stays in ascending microbatch order under both schedules, keeping the
    result bitwise-identical to the serial oracle.
    """
    from repro.parallel.backend.microbatch import (
        loss_grad_seed,
        mean_loss,
        split_microbatches,
    )
    from repro.parallel.collectives import pipeline_receive, pipeline_transfer
    from repro.parallel.grad_sync import sp_sync_grads
    from repro.parallel.pipeline import schedule_ops

    transport = ctx.transport
    backbone = model.backbone
    partition = backbone.partition
    pp = ctx.pp
    stage = ctx.stage
    cfg = model.config
    m = getattr(cfg, "num_microbatches", 1)
    schedule = getattr(cfg, "pipeline_schedule", "gpipe")

    rec = events.active()

    model.zero_grad()
    model.tracker.reset()
    transport.barrier_wait(timeout=ctx.timeout)

    if ctx.dp > 1:
        # Each dp gang trains on its contiguous batch shard; the parent
        # ships the full batch and every rank slices its own view.
        shard = input_ids.shape[0] // ctx.dp
        sl = slice(ctx.dp_rank * shard, (ctx.dp_rank + 1) * shard)
        input_ids = input_ids[sl]
        labels = labels[sl]
        if attention_mask is not None:
            attention_mask = attention_mask[sl]

    microbatches = split_microbatches(input_ids, labels, attention_mask, m)
    seed = None if m == 1 else loss_grad_seed(m)

    x_in: dict[int, Tensor] = {}  # stages > 0: per-microbatch input leaves
    outs: dict[int, Tensor] = {}  # stages < pp-1: per-microbatch boundary outs
    losses: dict[int, Tensor] = {}  # last stage: per-microbatch losses
    loss_vals: list[float] = []

    for op in schedule_ops(schedule, pp, stage, m):
        i = op.microbatch
        mb_ids, mb_labels, mb_mask = microbatches[i]
        t0 = time.monotonic()
        if op.kind == "F":
            if stage == 0:
                x, mask4d = backbone.embed(mb_ids, mb_mask)
            else:
                x_data = pipeline_receive(
                    backbone.site_compressor(f"boundary{stage - 1}"),
                    (*mb_ids.shape, cfg.model.hidden),
                    lambda: transport.recv(ctx.peer(stage - 1),
                                           timeout=ctx.timeout))
                leaf = Tensor(x_data, requires_grad=True)
                x_in[i] = leaf
                x = leaf
                mask4d = backbone.attention_bias(mb_mask)
            h = backbone.stage_forward(x, stage, mask4d)
            if stage < pp - 1:
                comp = backbone.site_compressor(f"boundary{stage}")
                outs[i] = pipeline_transfer(
                    h, comp, model.tracker, boundary=stage,
                    layer=partition.boundaries()[stage],
                )
            else:
                losses[i] = model.loss_from_hidden(h, mb_labels)
            if rec is not None:
                rec.span("forward" if m == 1 else f"F{i}", "mp.phase", t0)
        else:
            if stage < pp - 1:
                g = transport.recv(ctx.peer(stage + 1), timeout=ctx.timeout)
                outs.pop(i).backward(g)
            else:
                loss_t = losses.pop(i)
                loss_vals.append(float(loss_t.item()))
                if seed is None:
                    loss_t.backward()
                else:
                    loss_t.backward(seed)
            if stage > 0:
                leaf = x_in.pop(i)
                if leaf.grad is None:
                    raise RuntimeError(
                        f"stage {stage} produced no input gradient to relay "
                        f"(microbatch {i})"
                    )
                # The relay is staged in the upstream ring and stays in
                # flight while this stage continues with its next op.
                t_send = time.monotonic()
                transport.send(ctx.peer(stage - 1),
                               np.ascontiguousarray(leaf.grad),
                               timeout=ctx.timeout)
                if rec is not None:
                    rec.span(f"pp grad send mb{i}", "mp.async", t_send)
            if rec is not None:
                rec.span("backward" if m == 1 else f"B{i}", "mp.phase", t0)

    # Ring SP leaves each rank's QKV gradients partial over its sequence
    # block; reconcile around the ring before replying to the parent.
    if ctx.sp > 1:
        sp_sync_grads(model)

    # Backward wrote the gradients this rank owns into the slab; the
    # reply only names them.
    written = [name for name, p in model.named_parameters()
               if p.grad is not None and p.grad is p.grad_buffer]
    return mean_loss(loss_vals) if loss_vals else None, written


def _bind_state(model, ctx: RankContext) -> None:
    """Put the replica on the state plane: every parameter's ``.data`` on
    its read-only view of the weights arena, and the gradient buffer of
    each one this rank publishes (on the sp rank 0 plane, the parameter's
    tp rank) on its view of the gang's slab, where backward then
    accumulates it."""
    weights, slab = ctx.transport.weights, ctx.transport.grad_slab(ctx.dp_rank)
    for name, p in model.named_parameters():
        p.data = weights[name]
        if ctx.sp_rank == 0 and (p.tp_rank or 0) == ctx.tp_rank:
            p.grad_buffer = slab[name]


def _gang_reduce(model, ctx: RankContext, written: list[str], dp_codec) -> None:
    """dp > 1: the gang's first rank reduces the gang's slab with its dp peers.

    The gang first trades which gradients each rank wrote (a mask over the
    slab's names; the mailbox carries arrays).  The trade doubles as the
    ordering edge: a rank sends after its last slab write, so once the
    leader holds every mask its gang's slab is complete.  Under a sparse
    codec a leader ``r >= 1`` returns once its message lies over its
    slab's front; leader 0 reads it there before it replies, and the next
    step, which writes the slab again, starts only after every reply.
    """
    from repro.parallel.collectives import dp_all_reduce, pack_grads

    transport = ctx.transport
    gang = transport.world // ctx.dp
    leader = ctx.dp_rank * gang
    slab = transport.grad_slab(ctx.dp_rank)
    masks = transport.exchange(list(range(leader, leader + gang)),
                               np.isin(list(slab), written), timeout=ctx.timeout)
    if ctx.rank != leader:
        return
    wrote = np.logical_or.reduce(list(masks.values()))
    flat = transport.grad_flat(ctx.dp_rank)
    dp_all_reduce([flat if wrote.all() else pack_grads(
        flat, {name: slab[name] for name, w in zip(slab, wrote) if w})], dp_codec, model.tracker)


def _own_sites(state: dict, site: str) -> dict:
    """``state`` without the other replicas' ``dp.rank*`` entries, at any
    depth: the checkpoint carries every replica's residual and stream, a
    leader keeps (and later reports) only its own."""
    return {key: _own_sites(value, site) if isinstance(value, dict) else value
            for key, value in state.items()
            if not key.startswith("dp.rank") or key == site}


def _serve(conn, ctx: RankContext, model_spec: dict, rec, fault_plan) -> None:
    """Build the replica on the weights arena and answer commands until
    ``shutdown``.  The model lives in this frame only: once it is gone, no
    local of the caller holds a view of the segment."""
    rank, transport = ctx.rank, ctx.transport
    # A step allocates and frees arrays up to parameter size (a gradient no
    # slab holds, a dp leader's Q2 decode).  glibc serves blocks
    # above its mmap threshold from fresh pages (one fault per 4 KiB, each
    # step) and hands the heap's top back once twice that much of it is
    # free; freeing one block as large as the whole state lifts the dynamic
    # threshold (mallopt(3)) past all of them for good.  The codec writes
    # over the slab and keeps its residual, so a leader needs no more.
    bytearray(min(transport.spec["state_bytes"], 31 << 20))
    model = model_spec["cls"](model_spec["config"], **model_spec["kwargs"])
    _bind_state(model, ctx)
    set_rank_context(ctx)
    # The gang's leader (its first rank) owns the replica's gradient codec:
    # the ``dp.rank{r}`` error-feedback residual and Random-K stream.
    from repro.parallel.grad_sync import build_dp_grad_compressor

    leads = ctx.dp > 1 and rank % (transport.world // ctx.dp) == 0
    dp_codec = build_dp_grad_compressor(model_spec["config"]) if leads else None
    conn.send(("ready", rank))
    steps_done = 0
    while True:
        msg = conn.recv()
        cmd = msg[0]
        if cmd == "shutdown":
            break
        if cmd == "runtime_state":
            state = model.backbone.runtime_state_dict()
            if ctx.dp > 1:
                # The namespaces ``load_runtime_state`` below reads back.
                state = {f"dp{ctx.dp_rank}": state}
                if dp_codec is not None and (grad := dp_codec.runtime_state()):
                    state["dp_grad"] = grad
            conn.send(("result", rank, state))
        elif cmd == "load_runtime_state":
            # dp runs namespace per-replica compressor state; each gang
            # restores its own slice of the broadcast dict, and its leader
            # its own site of the gradient codec's.
            model.backbone.load_runtime_state_dict(
                msg[1].get(f"dp{ctx.dp_rank}", msg[1]))
            if dp_codec is not None and "dp_grad" in msg[1]:
                dp_codec.load_runtime_state(_own_sites(
                    msg[1]["dp_grad"], f"dp.rank{ctx.dp_rank}"))
        elif cmd == "step":
            _, input_ids, labels, attention_mask, collect = msg
            # The step is observed if any sink wants it: the reply (the
            # parent asked for the record) or the JSONL.
            if collect or rec.path is not None:
                # Imported before ``step_begin``, so the first observed step
                # does not pay for it; an unobserved gang never loads the
                # obs package.
                from repro.obs.telemetry.agent import emit_step_telemetry

                events.install(rec)
                # Stamped before fault injection so a planned straggler
                # delay lands in this rank's wall (and busy) time instead
                # of disappearing between commands.
                rec.emit("step_begin", step=steps_done)
            else:
                events.uninstall()
            live = events.active()
            if fault_plan is not None:
                fault_plan.set_step(steps_done)
                # Every fault planned for this (rank, step) fires, in list
                # order; a kill ends the list.
                while (spec := fault_plan.take_step_fault(
                        rank, steps_done)) is not None:
                    if live is not None:
                        live.emit("fault", fault=spec.kind, step=steps_done,
                                  seconds=spec.seconds)
                    if spec.kind == "kill":
                        # Planned death: flush the record so the run stays
                        # replayable, then exit hard — the parent sees EOF
                        # on the pipe and raises a BackendError naming this
                        # rank.
                        rec.flush()
                        conn.close()
                        os._exit(faults.KILL_EXIT_CODE)
                    time.sleep(spec.seconds)
            loss_val, written = _spmd_step(
                model, ctx, input_ids, labels, attention_mask)
            if ctx.dp > 1:
                _gang_reduce(model, ctx, written, dp_codec)
            if live is not None:
                emit_step_telemetry(live, loss=loss_val,
                                    ring_occupancy=transport.ring_occupancy())
                live.emit("step_end", step=steps_done)
            steps_done += 1
            # Flushed after every step, so a crashed run still leaves a
            # replayable prefix on disk; the same slice rides the reply.
            step_slice = rec.flush() if live is not None else []
            conn.send(("result", rank, loss_val, written,
                       list(model.tracker.events),
                       step_slice if collect else []))
        else:
            raise RuntimeError(f"unknown command {cmd!r}")


def _worker_main(conn, spec: dict, rank_info: dict, model_spec: dict,
                 timeout: float) -> None:
    """Process target: attach transport, build the replica, serve commands.

    ``rank_info`` carries this rank's :class:`RankContext` coordinates,
    ``model_spec`` the model class, its config and extra constructor kwargs.
    Every command is answered (``("result", ...)`` or ``("error", rank,
    tb)``) so the parent never waits on a silent failure.
    """
    _disable_shm_tracking()
    ctx = RankContext(**rank_info, timeout=timeout)
    rank, world = ctx.rank, spec["world"]
    ctx.rng = np.random.default_rng((model_spec["config"].seed, rank))
    # The rank event record; REPRO_CONC_LOG attaches its JSONL sink.
    rec = events.EventRecord.from_env(rank, world)
    # Fault plan (chaos injection): also purely env-gated; the env var is
    # inherited from the parent through the spawn context.
    fault_plan = faults.maybe_install_from_env()
    try:
        ctx.transport = RankTransport(spec, rank)
        _serve(conn, ctx, model_spec, rec, fault_plan)
    except EOFError:
        pass  # parent went away; nothing to report to
    except BaseException:
        try:
            conn.send(("error", rank, traceback.format_exc()))
        except OSError:
            pass
    finally:
        set_rank_context(None)
        events.uninstall()
        rec.flush()
        if ctx.transport is not None:
            # The parameters were views of the segment and the module tree
            # has reference cycles; the views must be gone before close().
            gc.collect()
            ctx.transport.close()
        conn.close()
