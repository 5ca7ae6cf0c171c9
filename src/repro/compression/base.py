"""Compressor interface, message container, and registry.

A codec has one face: the message.  :meth:`Compressor.compress` turns an
activation into a :class:`CompressedMessage`, :meth:`Compressor.decompress`
turns a message back into a dense array, and :meth:`Compressor.apply` is
that round trip inside the autograd graph.  The tensor-parallel all-gather
and the pipeline boundary put the message's payload arrays on the wire, and
the receiver decodes them.

Wire-byte convention (matching the paper's fp16 training setup), per
payload array: a floating-point payload counts ``BYTES_FP16`` per element
(it travels at compute dtype, fp32, and the model counts it as fp16); an
integer or bit-packed payload counts its itemsize.
``CompressedMessage.wire_bytes`` is that sum, and it is the number the
performance simulator feeds into its α–β communication model.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.tensor import Tensor

__all__ = [
    "BYTES_FP16",
    "BYTES_INT32",
    "CompressedMessage",
    "Compressor",
    "NoCompressor",
    "register_compressor",
    "make_compressor",
    "available_compressors",
]

BYTES_FP16 = 2
BYTES_INT32 = 4


@dataclass
class CompressedMessage:
    """A compressed activation as it crosses the wire.

    Attributes
    ----------
    payloads:
        Named arrays making up the message, in the order they travel
        (the producing codec's ``fields``).
    shape:
        Original (uncompressed) activation shape.
    """

    payloads: dict[str, np.ndarray]
    shape: tuple[int, ...]

    @property
    def wire_bytes(self) -> int:
        """Bytes the model counts on the wire: fp16 per floating-point
        element, the itemsize for integer and packed payloads."""
        return sum(a.size * (BYTES_FP16 if a.dtype.kind == "f" else a.itemsize)
                   for a in self.payloads.values())

    @property
    def original_bytes(self) -> int:
        """Bytes of the uncompressed fp16 activation."""
        return int(np.prod(self.shape)) * BYTES_FP16

    @property
    def ratio(self) -> float:
        """Compression ratio original/compressed (>1 means smaller)."""
        return self.original_bytes / max(self.wire_bytes, 1)


class Compressor(abc.ABC):
    """Interface for activation compressors.

    Subclasses implement :meth:`compress`, :meth:`decompress` and
    :meth:`compressed_bytes`; :meth:`apply` is written once, here.
    """

    name: str = "base"

    #: True when the scheme produces a message all-reduce can sum directly
    #: (single float tensor).  False forces the runtime onto the
    #: all-gather path, like Top-K / Random-K / quantization in the paper §3.2.
    allreduce_compatible: bool = False

    #: True for schemes with learnable parameters (AE).
    learnable: bool = False

    #: True when the backward keeps only the message's ``indices``
    #: (sparsification); the other schemes' backward is straight-through.
    sparse: bool = False

    #: Names of the message's payload arrays, in the order they travel.
    fields: tuple[str, ...] = ("values",)

    @abc.abstractmethod
    def compress(self, x: np.ndarray, site: str = "default") -> CompressedMessage:
        """Produce the wire message for activation ``x``.

        ``site`` identifies the activation site (layer, rank, pipeline
        boundary) for *stateful* compressors: error feedback keeps one
        residual and Random-K one selection stream per site, so two call
        sites sharing a compressor instance must pass distinct keys or they
        clobber each other's state.  Stateless schemes ignore it.
        """

    @abc.abstractmethod
    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        """Reconstruct a dense activation from ``msg``."""

    @abc.abstractmethod
    def compressed_bytes(self, shape: tuple[int, ...]) -> int:
        """Analytic wire size for an activation of ``shape`` (no data needed)."""

    def code(self, x: np.ndarray, site: str = "default") -> tuple[CompressedMessage, np.ndarray]:
        """``compress(x, site)`` and its decode, each computed once."""
        msg = self.compress(x, site)
        return msg, self.decompress(msg)

    def code_in_place(self, x: np.ndarray, site: str = "default") -> None:
        """Overwrite ``x`` with the decode :meth:`code` gives it (the
        gradient wire: nothing downstream needs the input)."""
        x[...] = self.code(x, site)[1]

    def transmit(self, x: Tensor, site: str = "default") -> tuple[CompressedMessage, Tensor]:
        """What crossing a cut point does to ``x``: the message that
        travels, and its decode as ``x``'s graph node.

        The backward keeps the message's selected coordinates for the
        sparse schemes and is straight-through for the rest (quantization,
        PowerSGD): the codec is treated as identity on what it sent.
        """
        msg, rec = self.code(x.data, site)
        kept = msg.payloads["indices"] if self.sparse else None

        def backward(g):
            if kept is None:
                return (g,)
            out = np.zeros(g.shape, g.dtype)
            out.reshape(-1)[kept] = g.reshape(-1)[kept]
            return (out,)

        return msg, Tensor._make(rec.astype(x.data.dtype, copy=False), (x,), backward)

    def apply(self, x: Tensor, site: str = "default") -> Tensor:
        """Differentiable ``decompress(compress(x, site))`` (see :meth:`transmit`)."""
        return self.transmit(x, site)[1]

    def backward_bytes(self, shape: tuple[int, ...]) -> int:
        """Wire size of the *backward* (gradient-of-activation) message.

        Compressing the forward activation also shrinks the backward message
        (§3.3): sparsified gradients only carry the kept coordinates, and AE
        gradients flow through the code. Quantization is the exception —
        "the PyTorch backward engine only supports gradients for floating
        point tensors", so its backward stays dense
        (:class:`QuantizationCompressor` overrides this).
        """
        return self.compressed_bytes(shape)

    # ------------------------------------------------------------------
    def roundtrip(self, x: np.ndarray) -> np.ndarray:
        """Convenience: compress then decompress."""
        return self.code(x)[1]

    def ratio(self, shape: tuple[int, ...]) -> float:
        """Analytic compression ratio for ``shape``."""
        return (int(np.prod(shape)) * BYTES_FP16) / max(self.compressed_bytes(shape), 1)

    def reconstruction_error(self, x: np.ndarray) -> float:
        """Relative Frobenius reconstruction error ``||x - D(C(x))|| / ||x||``."""
        denom = float(np.linalg.norm(x))
        if denom == 0.0:
            return 0.0
        return float(np.linalg.norm(x - self.roundtrip(x))) / denom

    def parameters(self):
        """Learnable parameters (empty for non-learning schemes)."""
        return []

    # ------------------------------------------------------------------
    def runtime_state(self) -> dict:
        """Mutable per-site state for mid-run checkpointing.

        Learnable *parameters* live in the model's state dict; this is the
        rest — error-feedback residuals, advancing RNG streams — anything
        a bitwise resume of an interrupted run must restore.  Stateless
        schemes return ``{}`` (the default) and cost nothing in the
        checkpoint.
        """
        return {}

    def load_runtime_state(self, state: dict) -> None:
        """Restore state captured by :meth:`runtime_state`."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoCompressor(Compressor):
    """Identity baseline ("w/o" in the paper's tables)."""

    name = "none"
    allreduce_compatible = True

    def compress(self, x: np.ndarray, site: str = "default") -> CompressedMessage:
        x = np.asarray(x)
        return CompressedMessage({"values": x}, tuple(x.shape))

    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        return msg.payloads["values"]

    def compressed_bytes(self, shape: tuple[int, ...]) -> int:
        return int(np.prod(shape)) * BYTES_FP16

    def apply(self, x: Tensor, site: str = "default") -> Tensor:
        return x


_REGISTRY: dict[str, type[Compressor]] = {}


def register_compressor(cls: type[Compressor]) -> type[Compressor]:
    """Class decorator adding a compressor to the global registry."""
    if not cls.name or cls.name == "base":
        raise ValueError(f"{cls.__name__} must define a unique .name")
    _REGISTRY[cls.name] = cls
    return cls


def make_compressor(name: str, **kwargs) -> Compressor:
    """Instantiate a registered compressor by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown compressor {name!r}; available: {sorted(_REGISTRY)}") from None
    return cls(**kwargs)


def available_compressors() -> list[str]:
    """Names of all registered compressors."""
    return sorted(_REGISTRY)


register_compressor(NoCompressor)
