"""Random-K sparsification of activations.

Keeps ``k`` uniformly random entries: the sparse codec of
:mod:`repro.compression.topk` with a random selection. The paper implemented
selection with Python's ``random.sample``, which is why its Random-K rows
show enormous encoding times; our NumPy implementation is fast, but the
*simulator* reproduces the paper's kernel cost (see ``simulator/kernels.py``)
because the timing tables characterise the paper's system, not ours.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.compression.topk import SparseCompressor

__all__ = ["RandomKCompressor"]


class RandomKCompressor(SparseCompressor):
    """Keep a uniformly random ``fraction`` of entries.

    Parameters
    ----------
    fraction:
        Fraction of entries kept, in (0, 1].
    seed:
        Seed for the selection RNG.
    """

    name = "randomk"

    def __init__(self, fraction: float, seed: int = 0):
        super().__init__(fraction)
        self._seed = int(seed)
        self._site_rngs: dict[str, np.random.Generator] = {}

    def _rng_for(self, site: str) -> np.random.Generator:
        # One independent, advancing stream per call site.  Selection at a
        # site then depends only on (seed, site, call count) — never on how
        # many *other* sites ran in this process — so an mp worker that
        # materializes a single tp rank draws the same indices the serial
        # oracle drew for that rank.
        rng = self._site_rngs.get(site)
        if rng is None:
            rng = np.random.default_rng((self._seed, zlib.crc32(site.encode())))
            self._site_rngs[site] = rng
        return rng

    def _select(self, x: np.ndarray, site: str) -> np.ndarray:
        size = x.size
        k = self._k(size)
        if k >= size:
            return np.arange(size, dtype=np.int32)
        idx = self._rng_for(site).choice(size, size=k, replace=False)
        return np.sort(idx).astype(np.int32)

    def runtime_state(self) -> dict:
        # bit_generator.state is a plain JSON-able dict (PCG64: name plus
        # integer state/inc words) — exactly what a bitwise resume needs.
        return {"rng": {site: rng.bit_generator.state
                        for site, rng in self._site_rngs.items()}}

    def load_runtime_state(self, state: dict) -> None:
        self._site_rngs = {}
        for site, bg_state in state.get("rng", {}).items():
            rng = np.random.default_rng(
                (self._seed, zlib.crc32(site.encode())))
            rng.bit_generator.state = bg_state
            self._site_rngs[site] = rng
