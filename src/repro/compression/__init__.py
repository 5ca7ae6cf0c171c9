"""Activation compression algorithms (the paper's §3.1).

Four families are implemented, matching the study:

- :class:`TopKCompressor` / :class:`RandomKCompressor` — sparsification.
- :class:`QuantizationCompressor` — 2/4/8-bit uniform quantization.
- :class:`AutoencoderCompressor` — learnable linear encoder/decoder (AE).
- :class:`NoCompressor` — the "w/o" baseline.

Each compressor has one face, the message: ``compress(x, site)`` produces a
:class:`CompressedMessage` (named payload arrays plus the original shape)
and ``decompress`` reconstructs a dense array from it.  The tensor-parallel
all-gather and the pipeline boundary put the payload arrays themselves on
the wire, and the receiver decodes them (what is only modelled, not sent,
is listed in DESIGN decision 3).  ``apply`` is that round trip inside the autograd graph,
written once in :class:`Compressor`: the backward keeps the selected
coordinates for sparsification and is straight-through otherwise.  The
learnable AE keeps its own ``apply`` (ordinary backprop through its
encoder/decoder GEMMs).

``notation`` maps the paper's scheme labels (A1, A2, T1–T4, R1–R4, Q1–Q3)
to configured compressors; ``policy`` captures *where* compression is applied
(which layers — §4.5).
"""

from repro.compression.base import (
    Compressor,
    CompressedMessage,
    NoCompressor,
)
from repro.compression.topk import TopKCompressor
from repro.compression.randomk import RandomKCompressor
from repro.compression.quantization import QuantizationCompressor
from repro.compression.autoencoder import AutoencoderCompressor
from repro.compression.error_feedback import ErrorFeedbackCompressor
from repro.compression.powersgd import PowerSGDCompressor
from repro.compression.policy import CompressionPolicy
from repro.compression.notation import SCHEME_LABELS, SchemeSpec, scheme_spec, build_compressor

__all__ = [
    "Compressor",
    "CompressedMessage",
    "NoCompressor",
    "TopKCompressor",
    "RandomKCompressor",
    "QuantizationCompressor",
    "AutoencoderCompressor",
    "ErrorFeedbackCompressor",
    "PowerSGDCompressor",
    "CompressionPolicy",
    "SCHEME_LABELS",
    "SchemeSpec",
    "scheme_spec",
    "build_compressor",
]
