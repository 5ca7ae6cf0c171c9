"""A warmed training step faults (almost) no pages.

Before ``repro.tensor.pool`` a step of these models paid 4 700 (tp2 pp2
``A2``) and 8 600 (tp2 ``Q2``) minor faults for arrays whose sizes repeat
every step: glibc returned their pages to the kernel and the next step
faulted them in again, zero-filled (EXPERIMENTS.md, "Buffer pool").  With
op outputs and kernel scratch recycled the counts are 2 and 2.  A hot op
that goes back to allocating its output shows here as hundreds of faults;
nothing is timed.
"""

import resource
import sys

import numpy as np
import pytest

from repro.nn.transformer import TransformerConfig
from repro.optim import Adam
from repro.parallel import ModelParallelBertClassifier, ModelParallelConfig

pytestmark = pytest.mark.skipif(sys.platform != "linux",
                                reason="ru_minflt is exact on Linux only")


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.parametrize("grid, limit", [
    (dict(tp=2, pp=2, scheme="A2"), 300),
    (dict(tp=2, scheme="Q2"), 500),
], ids=["tp2pp2-A2", "tp2-Q2"])
def test_warm_steps_fault_few_pages(grid, limit):
    model_cfg = TransformerConfig(vocab_size=128, max_seq_len=32, hidden=64, num_layers=4,
                                  num_heads=4, dropout=0.0, num_classes=2)
    model = ModelParallelBertClassifier(ModelParallelConfig(model_cfg, **grid))
    optimizer = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 128, size=(32, 32))
    labels = rng.integers(0, 2, size=32)
    mask = np.ones((32, 32), dtype=np.int64)
    mask[:, 24:] = 0

    def step():
        optimizer.zero_grad()
        model.loss(ids, labels, mask).backward()
        optimizer.step()

    for _ in range(8):
        step()
    before = _minor_faults()
    for _ in range(5):
        step()
    assert (_minor_faults() - before) / 5 <= limit
