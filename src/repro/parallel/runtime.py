"""Full model-parallel BERT: TP × PP with compression sites.

This is the in-process analogue of the paper's patched Megatron-LM. A model
is configured with a parallel layout (tp, pp), a compression scheme label
from the notation table, and a placement policy. During the forward pass:

- each transformer layer whose index is in the policy routes its two
  tensor-parallel all-reduces through the layer's compressor instances;
- each pipeline-stage boundary whose *receiving* layer is in the policy
  compresses the activation (and its backward gradient) crossing the cut.

All message sizes are logged to the model's :class:`CommTracker`, and AE
compressor weights are registered as ordinary parameters so they train
jointly with the model — and can be *dropped* when loading a pre-trained
checkpoint for fine-tuning (the Table 8 workflow).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.compression import CompressionPolicy, build_compressor
from repro.compression.base import Compressor, NoCompressor
from repro.nn.bert import BertForPreTraining
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.transformer import TransformerConfig, TransformerLayer
from repro.parallel.collectives import CommTracker, pipeline_transfer
from repro.parallel.pipeline import PipelinePartition
from repro.parallel.tensor_parallel import ParallelTransformerLayer
from repro.tensor import Tensor, functional as F

__all__ = [
    "ModelParallelConfig",
    "ModelParallelBertClassifier",
    "ModelParallelBertPreTraining",
]


def _default_backend() -> str:
    """Execution backend, overridable via ``REPRO_BACKEND`` (CI matrix)."""
    return os.environ.get("REPRO_BACKEND", "inproc")


def _default_schedule() -> str:
    """Pipeline schedule, overridable via ``REPRO_SCHEDULE`` (CI matrix)."""
    return os.environ.get("REPRO_SCHEDULE", "gpipe")


def _default_dp() -> int:
    """Data-parallel degree, overridable via ``REPRO_DP`` (CI matrix)."""
    return int(os.environ.get("REPRO_DP", "1"))


def _default_sp() -> int:
    """Sequence-parallel degree, overridable via ``REPRO_SP`` (CI matrix)."""
    return int(os.environ.get("REPRO_SP", "1"))


@dataclass
class ModelParallelConfig:
    """One experimental setting: model × layout × compression scheme.

    ``backend`` selects *where* the logical ranks execute (see
    :mod:`repro.parallel.backend`): ``"inproc"`` is the serial in-process
    oracle, ``"mp"`` spawns one worker process per rank.  The default is
    read from the ``REPRO_BACKEND`` environment variable so a test run can
    be flipped wholesale without touching call sites.

    ``pipeline_schedule`` picks the per-stage op order (``"gpipe"`` or
    ``"1f1b"``, see :mod:`repro.parallel.pipeline`); the default comes
    from ``REPRO_SCHEDULE`` so the CI matrix can flip it globally.  Both
    schedules produce bitwise-identical losses and gradients — the choice
    only moves peak activation memory and comm/compute overlap.
    ``num_microbatches`` splits the batch along dim 0; with the default 1
    the schedules coincide and existing baselines stay comparable.
    """

    model: TransformerConfig
    tp: int = 1
    pp: int = 1
    scheme: str = "w/o"
    policy: CompressionPolicy | None = None
    seed: int = 0
    backend: str = field(default_factory=_default_backend)
    pipeline_schedule: str = field(default_factory=_default_schedule)
    num_microbatches: int = 1
    dp: int = field(default_factory=_default_dp)
    sp: int = field(default_factory=_default_sp)

    @property
    def world_size(self) -> int:
        """Ranks the layout occupies: dp·pp·sp·tp."""
        return self.dp * self.pp * self.sp * self.tp

    def __post_init__(self):
        from repro.parallel.backend.base import BACKEND_NAMES
        from repro.parallel.pipeline import SCHEDULES
        from repro.parallel.topology import TopologyError, validate_grid

        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; valid: {list(BACKEND_NAMES)}"
            )
        if self.pipeline_schedule not in SCHEDULES:
            raise ValueError(
                f"unknown pipeline_schedule {self.pipeline_schedule!r}; "
                f"valid: {list(SCHEDULES)}"
            )
        if self.num_microbatches < 1:
            raise ValueError("num_microbatches must be >= 1")
        # Typed grid validation up front: a bad axis must fail here, with
        # the axis named, not deep inside worker spawn.
        validate_grid(self.dp, self.tp, self.pp, self.sp)
        if self.sp > 1 and self.tp != 1:
            raise TopologyError(
                f"ring sequence parallelism (sp={self.sp}) composes with "
                f"pp/dp but not tp (got tp={self.tp}): both axes would "
                f"shard the same attention heads", axis="sp")
        if self.sp > 1 and self.model.max_seq_len % self.sp != 0:
            raise TopologyError(
                f"sp={self.sp} must divide max_seq_len={self.model.max_seq_len}",
                axis="sp")
        if self.policy is None:
            if self.scheme == "w/o":
                self.policy = CompressionPolicy.none(self.model.num_layers)
            else:
                self.policy = CompressionPolicy.default(self.model.num_layers)
        if self.policy.num_layers != self.model.num_layers:
            raise ValueError("policy num_layers must match the model")
        if self.pp > self.model.num_layers:
            raise ValueError("pp cannot exceed the number of layers")
        if self.model.num_heads % self.tp != 0:
            raise TopologyError(
                f"num_heads={self.model.num_heads} must be divisible by "
                f"tp={self.tp}", axis="tp")


class _ModelParallelBackbone(Module):
    """Shared embedding + parallel encoder with compression plumbing."""

    def __init__(self, config: ModelParallelConfig, rng: np.random.Generator):
        super().__init__()
        mc = config.model
        self.config = config
        self.tracker = CommTracker()
        self.partition = PipelinePartition.balanced(mc.num_layers, config.pp)

        self.token_embedding = Embedding(mc.vocab_size, mc.hidden, rng, mc.init_std)
        self.position_embedding = Embedding(mc.max_seq_len, mc.hidden, rng, mc.init_std)
        self.embed_ln = LayerNorm(mc.hidden)
        self.embed_dropout = Dropout(mc.dropout, rng)
        self.layers = ModuleList(
            ParallelTransformerLayer(TransformerLayer(mc, rng), config.tp, sp=config.sp)
            for _ in range(mc.num_layers)
        )

        # Per-site compressor instances. Sparsification/quantization are
        # stateless but AE holds learnable weights per site, so each site
        # gets its own object (seeded distinctly for Random-K).
        self._site_compressors: dict[str, Compressor] = {}
        scheme = config.scheme
        if scheme != "w/o":
            for layer_idx in sorted(config.policy.layers):
                if config.tp > 1:
                    for site in ("attn", "mlp"):
                        key = f"layer{layer_idx}.{site}"
                        self._site_compressors[key] = build_compressor(
                            scheme, mc.hidden, seed=config.seed * 1000 + layer_idx * 2 + (site == "mlp")
                        )
            for b, last_layer in enumerate(self.partition.boundaries()):
                if config.policy.boundary_compressed(last_layer):
                    key = f"boundary{b}"
                    self._site_compressors[key] = build_compressor(
                        scheme, mc.hidden, seed=config.seed * 1000 + 500 + b
                    )
        self._add_compressor_params()
        self._identity = NoCompressor()

    def _add_compressor_params(self) -> None:
        # Enumerate with stable indices: an `is`-check against comp.encoder
        # names every non-encoder parameter "decoder", so a compressor with
        # a third parameter (or without an `encoder` attribute) registers
        # colliding names and silently drops weights from state_dict().
        for key, comp in sorted(self._site_compressors.items()):
            for i, p in enumerate(comp.parameters()):
                if p is getattr(comp, "encoder", None):
                    suffix = "encoder"
                elif p is getattr(comp, "decoder", None):
                    suffix = "decoder"
                else:
                    suffix = f"param{i}"
                name = f"compressor.{key}.{suffix}"
                if name in self._parameters:
                    raise ValueError(
                        f"duplicate compressor parameter name {name!r} "
                        f"(site {key!r}, parameter index {i})"
                    )
                self.add_parameter(name, p)

    # ------------------------------------------------------------------
    def site_compressor(self, key: str) -> Compressor:
        return self._site_compressors.get(key, self._identity)

    def runtime_state_dict(self) -> dict:
        """Mutable compressor state (EF residuals, RNG streams) by site.

        Complements :meth:`state_dict` (which holds learnable parameters)
        for mid-run checkpointing: restoring both makes a resumed run
        bitwise-identical to an uninterrupted one.  Sites with no state
        are omitted, so stateless schemes checkpoint nothing extra.
        """
        state = {}
        for key in sorted(self._site_compressors):
            site_state = self._site_compressors[key].runtime_state()
            if site_state:
                state[key] = site_state
        return state

    def load_runtime_state_dict(self, state: dict) -> None:
        """Restore per-site compressor state from :meth:`runtime_state_dict`.

        Unknown site keys are ignored, so a checkpoint written under one
        placement policy can restore into a model that materializes only
        a subset of its sites.
        """
        for key, site_state in state.items():
            comp = self._site_compressors.get(key)
            if comp is not None:
                comp.load_runtime_state(site_state)

    @property
    def compressor_parameter_names(self) -> list[str]:
        return [n for n, _ in self.named_parameters() if n.startswith("compressor.")]

    def model_state_dict(self) -> dict[str, np.ndarray]:
        """State dict *without* compressor parameters (Table 8: the AE can be
        dropped after pre-training)."""
        return {
            n: a for n, a in self.state_dict().items() if not n.startswith("compressor.")
        }

    # ------------------------------------------------------------------
    @staticmethod
    def attention_bias(attention_mask: np.ndarray | None) -> np.ndarray | None:
        """Broadcastable additive-mask selector from a (b, s) 0/1 mask.

        Pure function of the (replicated) input, so every pipeline stage
        can recompute it locally instead of shipping it across boundaries.
        """
        if attention_mask is None:
            return None
        return (np.asarray(attention_mask) == 0)[:, None, None, :]

    def embed(
        self, input_ids: np.ndarray, attention_mask: np.ndarray | None = None
    ) -> tuple[Tensor, np.ndarray | None]:
        """Token+position embedding (stage 0's preamble)."""
        input_ids = np.asarray(input_ids)
        b, s = input_ids.shape
        mc = self.config.model
        if s > mc.max_seq_len:
            raise ValueError(f"sequence length {s} exceeds max {mc.max_seq_len}")
        pos = np.arange(s)[None, :].repeat(b, axis=0)
        x = self.token_embedding(input_ids) + self.position_embedding(pos)
        x = self.embed_dropout(self.embed_ln(x))
        return x, self.attention_bias(attention_mask)

    def stage_forward(
        self, x: Tensor, stage: int, mask4d: np.ndarray | None = None
    ) -> Tensor:
        """Run one pipeline stage's transformer layers (no boundary send)."""
        for layer_idx in self.partition.layers_of(stage):
            layer = self.layers[layer_idx]
            attn_c = self.site_compressor(f"layer{layer_idx}.attn")
            mlp_c = self.site_compressor(f"layer{layer_idx}.mlp")
            x = layer(
                x,
                self.tracker,
                mask4d,
                attn_compressor=attn_c,
                mlp_compressor=mlp_c,
                layer=layer_idx,
            )
        return x

    def forward(self, input_ids: np.ndarray, attention_mask: np.ndarray | None = None) -> Tensor:
        x, mask4d = self.embed(input_ids, attention_mask)
        boundaries = self.partition.boundaries()
        for stage in range(self.partition.pp):
            x = self.stage_forward(x, stage, mask4d)
            if stage < self.partition.pp - 1:
                comp = self.site_compressor(f"boundary{stage}")
                x = pipeline_transfer(
                    x, comp, self.tracker, boundary=stage, layer=boundaries[stage]
                )
        return x


class ModelParallelBertClassifier(Module):
    """Model-parallel BERT with a classification/regression head (GLUE)."""

    def __init__(self, config: ModelParallelConfig, regression: bool = False):
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.regression = regression
        self.backbone = _ModelParallelBackbone(config, rng)
        num_out = 1 if regression else config.model.num_classes
        self.classifier = Linear(config.model.hidden, num_out, rng,
                                 init_std=config.model.init_std)

    @property
    def tracker(self) -> CommTracker:
        return self.backbone.tracker

    def forward(self, input_ids, attention_mask=None) -> Tensor:
        hidden = self.backbone(input_ids, attention_mask)
        return self.classifier(hidden[:, 0, :])

    def loss_from_hidden(self, hidden: Tensor, labels) -> Tensor:
        """Head + loss on an already-computed backbone output.

        The mp backend's last pipeline stage enters here directly: the
        hidden states it assembled locally are the same tensor the serial
        forward would have produced.
        """
        logits = self.classifier(hidden[:, 0, :])
        if self.regression:
            return F.mse_loss(logits.reshape(-1), np.asarray(labels, dtype=np.float32))
        return F.cross_entropy(logits, np.asarray(labels))

    def loss(self, input_ids, labels, attention_mask=None) -> Tensor:
        hidden = self.backbone(input_ids, attention_mask)
        return self.loss_from_hidden(hidden, labels)

    def predict(self, input_ids, attention_mask=None) -> np.ndarray:
        logits = self.forward(input_ids, attention_mask)
        if self.regression:
            return logits.data.reshape(-1)
        return logits.data.argmax(axis=-1)

    def load_backbone(self, state: dict[str, np.ndarray]) -> None:
        """Load a pre-trained backbone state dict, ignoring AE/head params.

        Mirrors the paper's Table 8 observation: "we only need to load the
        parameters of the BERT model to do fine-tuning, and the parameters
        of the AE can be ignored."
        """
        backbone_state = {
            k: v for k, v in state.items() if not k.startswith("compressor.")
        }
        self.backbone.load_state_dict(backbone_state, strict=False)


class ModelParallelBertPreTraining(Module):
    """Model-parallel BERT with the masked-language-model head."""

    IGNORE_INDEX = BertForPreTraining.IGNORE_INDEX

    def __init__(self, config: ModelParallelConfig):
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.backbone = _ModelParallelBackbone(config, rng)
        mc = config.model
        self.mlm_dense = Linear(mc.hidden, mc.hidden, rng, init_std=mc.init_std)
        self.mlm_ln = LayerNorm(mc.hidden)
        self.mlm_head = Linear(mc.hidden, mc.vocab_size, rng, init_std=mc.init_std)

    @property
    def tracker(self) -> CommTracker:
        return self.backbone.tracker

    def forward(self, input_ids, attention_mask=None) -> Tensor:
        hidden = self.backbone(input_ids, attention_mask)
        h = self.mlm_ln(F.gelu(self.mlm_dense(hidden)))
        return self.mlm_head(h)

    def loss_from_hidden(self, hidden: Tensor, mlm_labels) -> Tensor:
        """MLM head + loss on an already-computed backbone output."""
        h = self.mlm_ln(F.gelu(self.mlm_dense(hidden)))
        logits = self.mlm_head(h)
        return F.cross_entropy(logits, np.asarray(mlm_labels), ignore_index=self.IGNORE_INDEX)

    def loss(self, input_ids, mlm_labels, attention_mask=None) -> Tensor:
        hidden = self.backbone(input_ids, attention_mask)
        return self.loss_from_hidden(hidden, mlm_labels)

    def backbone_state_dict(self) -> dict[str, np.ndarray]:
        """Backbone weights without AE parameters, for fine-tuning handoff."""
        return self.backbone.model_state_dict()
