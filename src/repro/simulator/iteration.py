"""Per-iteration timing composition (the engine behind Tables 2–4, 6–7, 11–14).

One training iteration under TP × PP decomposes as:

- per layer, per microbatch: forward GEMMs + elementwise kernels + two
  forward ``g`` collectives (all-reduce, or the compressed variant);
- backward: ``backward_ratio`` × forward compute + two dense ``f``
  all-reduces (compression never shrinks these — the input-gradient
  reduction is part of the layer math, not a message we encode);
- encode/decode kernel overheads at every compressed site;
- the pipeline schedule stretches per-stage work over ``m + pp − 1``
  slots (GPipe and non-interleaved 1F1B share that makespan; 1F1B
  interleaves the steady state, overlapping ``(m−1)(tf+tb)`` of forward
  and backward work — reported as :attr:`IterationBreakdown.overlap_ms`);
- pipeline boundaries add per-microbatch sends gated by the slowest
  boundary link.

Column conventions follow Table 4's caption: the Forward column contains
forward compute **plus** tensor enc/dec and the forward collectives; the
Backward column contains backward compute plus the backward ``f``
all-reduces (and the AE's extra backward GEMMs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compression import CompressionPolicy
from repro.compression.base import BYTES_FP16
from repro.compression.notation import SchemeSpec, scheme_spec
from repro.nn.transformer import TransformerConfig
from repro.parallel.pipeline import SCHEDULES, PipelinePartition, warmup_depth
from repro.parallel.topology import ClusterTopology, ParallelLayout
from repro.simulator.calibration import CALIBRATION, Calibration
from repro.simulator.comm import (
    allgather_time,
    allreduce_multinode_time,
    allreduce_time,
    link_of,
    p2p_time,
)
from repro.simulator.hardware import LinkModel
from repro.simulator.kernels import (
    EncodeDecodeCost,
    elementwise_time,
    encode_decode_time,
    gemm_time,
    layer_forward_flops,
)

__all__ = ["SimSetting", "IterationBreakdown", "IterationSimulator"]


@dataclass
class SimSetting:
    """One simulated experimental setting."""

    topology: ClusterTopology
    tp: int
    pp: int
    micro_batch: int
    seq: int
    num_microbatches: int = 1
    scheme: str = "w/o"
    policy: CompressionPolicy | None = None
    model: TransformerConfig = field(default_factory=TransformerConfig.bert_large)
    schedule: str = "gpipe"
    #: Heterogeneous deviation from the uniform topology (per-stage TP
    #: links, per-boundary PP links, straggler multipliers).  None, the
    #: default, is the uniform cluster.
    links: "LinkModel | None" = None
    #: Data-parallel replicas.  At the default 1 the iteration sum gains
    #: exactly ``+ 0.0``.
    dp: int = 1

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"unknown pipeline schedule {self.schedule!r}; "
                f"valid: {list(SCHEDULES)}"
            )
        if self.policy is None:
            if self.scheme == "w/o":
                self.policy = CompressionPolicy.none(self.model.num_layers)
            else:
                self.policy = CompressionPolicy.default(self.model.num_layers)
        # Validates dp·pp·tp == world size.
        self.layout = ParallelLayout(self.topology, self.tp, self.pp, dp=self.dp)
        self.partition = PipelinePartition.balanced(self.model.num_layers, self.pp)
        if self.num_microbatches <= 0:
            raise ValueError("num_microbatches must be positive")


@dataclass(frozen=True)
class IterationBreakdown:
    """Table-4-style per-iteration breakdown, all times in ms."""

    forward_ms: float
    backward_ms: float
    optimizer_ms: float
    pipeline_ms: float  # "Waiting & Pipeline Comm."
    encode_ms: float  # "Tensor Enc."
    decode_ms: float  # "Tensor Dec."
    tensor_comm_ms: float  # forward g collectives ("Tensor Comm.")
    #: Wall time where the schedule runs forward and backward compute
    #: concurrently (1F1B steady state); 0 under GPipe, whose forward
    #: region drains before the first backward starts.  Counted once in
    #: :attr:`total_ms` — the Forward and Backward columns each contain
    #: their full makespan, so their sum double-counts this window.
    overlap_ms: float = 0.0
    #: Per-iteration DP gradient all-reduce; exactly 0.0 at dp = 1,
    #: keeping total_ms bitwise-unchanged for every pre-grid setting.
    dp_comm_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return (self.forward_ms + self.backward_ms + self.optimizer_ms
                + self.pipeline_ms - self.overlap_ms
                + self.dp_comm_ms)


class IterationSimulator:
    """Compose an iteration's timing for one :class:`SimSetting`."""

    def __init__(self, setting: SimSetting, cal: Calibration = CALIBRATION):
        self.s = setting
        self.cal = cal
        self.spec: SchemeSpec = scheme_spec(setting.scheme)
        #: The scheme's codec, built once: every message size below is its
        #: ``compressed_bytes`` / ``backward_bytes``, the runtime's formula.
        self.compressor = self.spec.build(setting.model.hidden)

    # ------------------------------------------------------------------
    # Per-layer ingredients
    # ------------------------------------------------------------------
    def _activation_shape(self) -> tuple[int, int, int]:
        s = self.s
        return (s.micro_batch, s.seq, s.model.hidden)

    def _dense_bytes(self) -> int:
        s = self.s
        return s.micro_batch * s.seq * s.model.hidden * BYTES_FP16

    def _compressed_bytes(self) -> int:
        """Forward wire bytes of one compressed activation message."""
        return self.compressor.compressed_bytes(self._activation_shape())

    def layer_forward_compute_ms(self) -> float:
        s = self.s
        flops = layer_forward_flops(s.micro_batch, s.seq, s.model.hidden) / s.tp
        return gemm_time(flops, self.cal.gemm_tflops(s.tp))

    def layer_elementwise_ms(self) -> float:
        s = self.s
        return elementwise_time(s.micro_batch, s.seq, s.model.hidden, s.tp, self.cal)

    def site_cost(self) -> EncodeDecodeCost:
        """Encode/decode kernel cost at one TP site (per microbatch)."""
        s = self.s
        mult = 1 if self.spec.family in ("none", "ae") else s.tp
        return encode_decode_time(
            self.spec, s.micro_batch, s.seq, s.model.hidden,
            decode_multiplicity=mult, cal=self.cal,
        )

    def _tp_link_override(self, stage: int | None):
        """The stage's heterogeneous TP link, or None for the uniform one."""
        s = self.s
        if s.links is None or stage is None:
            return None
        return s.links.tp_link(stage)

    def _stage_slowdown(self, stage: int | None) -> float:
        """Straggler multiplier gating ``stage`` (1.0 when homogeneous)."""
        s = self.s
        if s.links is None or stage is None:
            return 1.0
        return s.links.stage_slowdown(stage, s.tp)

    def _tp_allreduce_ms(self, nbytes: int, stage: int | None = None) -> float:
        """One TP all-reduce, hierarchical when the group spans nodes."""
        s = self.s
        override = self._tp_link_override(stage)
        if override is not None:
            # A per-stage link replaces the whole hierarchy: the stage's TP
            # group runs its ring over that one fabric.
            return allreduce_time(nbytes, s.tp, override, self.cal)
        return allreduce_multinode_time(
            nbytes, s.tp, s.topology.gpus_per_node,
            s.topology.intra_node_link, s.topology.inter_node_link, self.cal,
        )

    def tp_forward_comm_ms(self, compressed: bool, stage: int | None = None) -> float:
        """One forward ``g`` collective (per site, per microbatch)."""
        s = self.s
        if s.tp <= 1:
            return 0.0
        if not compressed or self.spec.family == "none":
            return self._tp_allreduce_ms(self._dense_bytes(), stage)
        if self.spec.family == "ae":
            return self._tp_allreduce_ms(self._compressed_bytes(), stage)
        link = self._tp_link_override(stage) or s.layout.tp_link(0)
        return allgather_time(self._compressed_bytes(), s.tp, link, self.cal)

    def tp_backward_comm_ms(self, stage: int | None = None) -> float:
        """One backward ``f`` all-reduce — always the dense activation."""
        if self.s.tp <= 1:
            return 0.0
        return self._tp_allreduce_ms(self._dense_bytes(), stage)

    # ------------------------------------------------------------------
    # DP axis (closed-form per-iteration comm volume)
    # ------------------------------------------------------------------
    def _model_param_count(self) -> int:
        """Closed-form parameter count of the model (the DP wire volume)."""
        mdl = self.s.model
        h, f = mdl.hidden, mdl.ffn_hidden
        per_layer = ((h * 3 * h + 3 * h)      # qkv projection
                     + (h * h + h)            # out projection
                     + 2 * (2 * h)            # two layer norms
                     + (h * f + f)            # fc1
                     + (f * h + h))           # fc2
        emb = mdl.vocab_size * h + mdl.max_seq_len * h + 2 * h
        return mdl.num_layers * per_layer + emb

    def dp_comm_ms(self) -> float:
        """The once-per-iteration DP gradient sync over the flat parameter
        vector; compressed schemes ship (all-gather) their sparse/quantized
        payloads exactly as the runtime's ``dp_all_reduce`` does."""
        s = self.s
        if s.dp <= 1:
            return 0.0
        n = self._model_param_count()
        link = s.layout.dp_link()
        if self.compressor.allreduce_compatible:
            # "w/o" and AE reduce dense: the AE's encoder is dimension-bound
            # to the activation hidden size and cannot eat a parameter vector.
            return allreduce_time(n * BYTES_FP16, s.dp, link, self.cal)
        return allgather_time(self.compressor.compressed_bytes((n,)), s.dp,
                              link, self.cal)

    # ------------------------------------------------------------------
    # Pipeline boundaries
    # ------------------------------------------------------------------
    def boundary_send_ms(self, boundary_index: int) -> tuple[float, float]:
        """(forward, backward) send time of one boundary, per microbatch."""
        s = self.s
        link = s.layout.pp_link(boundary_index)
        if s.links is not None:
            link = s.links.pp_link(boundary_index, link)
        last_layer = s.partition.boundaries()[boundary_index]
        compressed = (
            self.spec.family != "none" and s.policy.boundary_compressed(last_layer)
        )
        if not compressed:
            dense = p2p_time(self._dense_bytes(), link, self.cal)
            return dense, dense
        fwd = p2p_time(self._compressed_bytes(), link, self.cal)
        # §3.3: quantization's backward stays dense fp16 (backward_bytes).
        bwd = p2p_time(self.compressor.backward_bytes(self._activation_shape()),
                       link, self.cal)
        if self.spec.family == "quant" and self.cal.quant_pipeline_dense_staging:
            # Table 7 Q rows: the multi-tensor + dtype-conversion path costs
            # ~2 dense-equivalent staging passes in each direction.
            staging = (self.cal.quant_pipeline_staging_passes
                       * p2p_time(self._dense_bytes(), link, self.cal))
            fwd += staging
            bwd += staging
        return fwd, bwd

    def boundary_site_cost(self) -> EncodeDecodeCost:
        """Encode/decode kernel cost at one PP boundary (per microbatch)."""
        s = self.s
        return encode_decode_time(
            self.spec, s.micro_batch, s.seq, s.model.hidden,
            decode_multiplicity=1, cal=self.cal,
        )

    # ------------------------------------------------------------------
    # Schedule ingredients (shared with repro.obs.trace)
    # ------------------------------------------------------------------
    def stage_compute_ms(self, stage: int | None = None) -> tuple[float, float]:
        """(forward, backward) compute of one stage for one microbatch.

        ``stage`` selects the straggler multiplier when a heterogeneous
        :class:`LinkModel` is configured; None (or no model) is the
        uniform-cluster value.
        """
        s = self.s
        layer_fwd = self.layer_forward_compute_ms()
        layer_ew = self.layer_elementwise_ms()
        per_stage = s.model.num_layers / s.pp
        fwd = (layer_fwd + layer_ew) * per_stage
        bwd = (self.cal.backward_ratio * layer_fwd + layer_ew) * per_stage
        slow = self._stage_slowdown(stage)
        if slow != 1.0:
            fwd *= slow
            bwd *= slow
        return fwd, bwd

    def compute_makespans(self) -> tuple[float, float, float]:
        """(forward, backward, overlap) compute makespans of the schedule.

        GPipe drains all forwards before the first backward, so the two
        regions abut: ``slots·tf`` then ``slots·tb``, overlap 0.  Under
        non-interleaved 1F1B the last stage starts B0 at ``pp·tf`` while
        earlier stages still have steady-state forwards to run, so the
        forward region stretches to ``pp·tf + (m−1)(tf+tb)`` and the
        backward region to ``(m−1)·tf + (m+pp−1)·tb`` — the two windows
        share exactly ``(m−1)(tf+tb)`` of wall time, and the iteration
        makespan ``(m+pp−1)(tf+tb)`` matches GPipe's (the non-interleaved
        schedule shrinks memory and overlaps comm, not the bubble).
        """
        s = self.s
        m = s.num_microbatches
        # Per-stage times: a pipeline's steady state is gated by its
        # slowest stage, and each region additionally pays every stage's
        # own work once (the fill/drain ramps).  With equal stages these
        # are the closed forms above.
        per_stage = [self.stage_compute_ms(st) for st in range(s.pp)]
        tfs = [tf for tf, _ in per_stage]
        tbs = [tb for _, tb in per_stage]
        if s.schedule == "gpipe":
            fwd = sum(tfs) + (m - 1) * max(tfs)
            bwd = sum(tbs) + (m - 1) * max(tbs)
            return fwd, bwd, 0.0
        cycle = max(tf + tb for tf, tb in per_stage)
        fwd = sum(tfs) + (m - 1) * cycle
        bwd = (m - 1) * max(tfs) + sum(tbs) + (m - 1) * max(tbs)
        return fwd, bwd, (m - 1) * cycle

    def stage_op_starts(self, stage: int) -> tuple[list[float], list[float]]:
        """Start times (ms) of stage ``stage``'s F and B ops, per microbatch.

        The tight schedule under uniform per-stage times ``tf``/``tb``:

        - GPipe: ``F_i`` at ``(stage+i)·tf``; ``B_i`` drains after the
          forward region at ``slots·tf + (pp−1−stage+i)·tb``.
        - 1F1B: ``B_i`` is gated by the downstream grad,
          ``pp·tf + i(tf+tb) + (pp−1−stage)·tb`` on every stage; warmup
          forwards run at ``(stage+i)·tf`` and each steady-state forward
          back-to-back against its paired backward (``B_{i−w}`` start −
          ``tf``, with ``w`` the stage's warmup depth).

        Always uses the *uniform* stage times — trace rendering keeps the
        idealized schedule even under a heterogeneous
        :class:`LinkModel`; the makespans above are where heterogeneity
        enters the timing model.
        """
        s = self.s
        m = s.num_microbatches
        tf, tb = self.stage_compute_ms()
        if s.schedule == "gpipe":
            fwd_end = (m + s.pp - 1) * tf
            return ([(stage + i) * tf for i in range(m)],
                    [fwd_end + (s.pp - 1 - stage + i) * tb for i in range(m)])
        w = warmup_depth(s.schedule, s.pp, stage, m)
        b = [s.pp * tf + i * (tf + tb) + (s.pp - 1 - stage) * tb
             for i in range(m)]
        f = [(stage + i) * tf if i < w else b[i - w] - tf for i in range(m)]
        return f, b

    def encdec_multipliers(self) -> tuple[int, int]:
        """(encode, decode/ae-backward) kernel multiplicities per site.

        GPU-side encode/decode kernels hide in pipeline stalls once several
        microbatches are in flight (see Calibration); the CPU-blocking
        Random-K sampler cannot, so its encode count stays per-microbatch.
        """
        s, cal = self.s, self.cal
        m = s.num_microbatches
        overlapped = m > 1 and cal.overlap_encdec_with_pipeline
        gpu_mult = 1 if overlapped else m
        enc_mult = m if self.spec.family == "randomk" else gpu_mult
        return enc_mult, gpu_mult

    def layer_compressed(self, layer: int) -> bool:
        """Whether ``layer``'s two TP collectives run through the compressor."""
        s = self.s
        return self.spec.family != "none" and s.tp > 1 and s.policy.applies(layer)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def breakdown(self) -> IterationBreakdown:
        s, cal = self.s, self.cal
        m = s.num_microbatches
        compressed_scheme = self.spec.family != "none"

        fwd_comm_total = 0.0  # per iteration, all layers, all microbatches
        bwd_comm_total = 0.0
        enc_total = 0.0
        dec_total = 0.0
        ae_bwd_total = 0.0

        site = self.site_cost()
        L = s.model.num_layers
        enc_mult, gpu_mult = self.encdec_multipliers()

        for layer in range(L):
            layer_compressed = self.layer_compressed(layer)
            stage = s.partition.stage_of(layer) if s.links is not None else None
            fwd_comm_total += 2 * m * self.tp_forward_comm_ms(layer_compressed, stage)
            bwd_comm_total += 2 * m * self.tp_backward_comm_ms(stage)
            if layer_compressed:
                enc_total += 2 * enc_mult * site.encode_ms
                dec_total += 2 * gpu_mult * site.decode_ms
                ae_bwd_total += 2 * gpu_mult * site.backward_ms

        # Pipeline boundary sends + encode/decode at compressed boundaries.
        pipeline_ms = 0.0
        if s.pp > 1:
            sends = [self.boundary_send_ms(b) for b in range(s.pp - 1)]
            pipeline_ms = m * sum(f + b for f, b in sends) \
                + (s.pp - 1) * cal.pipeline_overhead_ms
            bcost = self.boundary_site_cost()
            for b, last_layer in enumerate(s.partition.boundaries()):
                if compressed_scheme and s.policy.boundary_compressed(last_layer):
                    enc_total += enc_mult * bcost.encode_ms
                    dec_total += gpu_mult * bcost.decode_ms

        fwd_makespan, bwd_makespan, overlap_ms = self.compute_makespans()
        forward_ms = fwd_makespan + fwd_comm_total + enc_total + dec_total
        backward_ms = bwd_makespan + bwd_comm_total + ae_bwd_total
        return IterationBreakdown(
            forward_ms=forward_ms,
            backward_ms=backward_ms,
            optimizer_ms=cal.optimizer_ms,
            pipeline_ms=pipeline_ms,
            encode_ms=enc_total,
            decode_ms=dec_total,
            tensor_comm_ms=fwd_comm_total,
            overlap_ms=overlap_ms,
            dp_comm_ms=self.dp_comm_ms(),
        )

    def total_ms(self) -> float:
        """Average iteration time in ms (the tables' headline number)."""
        return self.breakdown().total_ms

    def placement_report(self) -> list[dict]:
        """Per-link compression payoff: where does this scheme help?

        One entry per TP stage (``kind="tp"``) and PP boundary
        (``kind="pp"``), each with the resolved link name, the dense and
        compressed per-microbatch comm cost over that link, and their
        ratio.  ``speedup < 1`` flags links where the scheme *loses* —
        the heterogeneous question the paper's uniform testbeds can't
        ask: with stage 0 on NVLink and stage 1 on Ethernet, compression
        may pay only on the slow half.
        """
        s = self.s
        report: list[dict] = []
        if s.tp > 1:
            for stage in range(s.pp):
                st = stage if s.links is not None else None
                dense = self.tp_forward_comm_ms(False, st)
                comp = self.tp_forward_comm_ms(True, st)
                link = self._tp_link_override(st) or s.topology.intra_node_link
                report.append({
                    "kind": "tp",
                    "index": stage,
                    "link": link_of(link).name,
                    "dense_ms": dense,
                    "compressed_ms": comp,
                    "speedup": dense / comp if comp > 0 else 1.0,
                })
        if s.pp > 1:
            for b in range(s.pp - 1):
                link = s.layout.pp_link(b)
                if s.links is not None:
                    link = s.links.pp_link(b, link)
                dense = p2p_time(self._dense_bytes(), link, self.cal)
                fwd, bwd = self.boundary_send_ms(b)
                report.append({
                    "kind": "pp",
                    "index": b,
                    "link": link_of(link).name,
                    "dense_ms": 2 * dense,
                    "compressed_ms": fwd + bwd,
                    "speedup": (2 * dense) / (fwd + bwd) if fwd + bwd > 0 else 1.0,
                })
        return report
