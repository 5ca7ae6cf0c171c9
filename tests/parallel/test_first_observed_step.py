"""An observed mp step does not pay for loading the obs package.

A worker imports the telemetry agent before it stamps ``step_begin``, so
the first observed step's wall (and busy) time holds the step and nothing
else; an unobserved gang never loads the package.  The check reads
``sys.modules`` inside the step's compute on every rank and times
nothing.  This module imports nothing from ``repro.obs``: the workers
import it to build the probe model.
"""

import sys

import numpy as np

from repro.nn.transformer import TransformerConfig
from repro.parallel.backend import create_backend, events
from repro.parallel.runtime import ModelParallelBertClassifier, ModelParallelConfig

AGENT = "repro.obs.telemetry.agent"


class ObsImportProbe(ModelParallelBertClassifier):
    """Fails a step whose compute finds the agent loaded iff it is unobserved."""

    def loss_from_hidden(self, hidden, labels):
        observed = events.active() is not None
        loaded = AGENT in sys.modules
        assert observed == loaded, f"observed={observed} but {AGENT} loaded={loaded}"
        return super().loss_from_hidden(hidden, labels)


def test_first_observed_step_computes_with_the_agent_loaded(monkeypatch):
    monkeypatch.delenv("REPRO_CONC_LOG", raising=False)
    mc = TransformerConfig(vocab_size=64, hidden=32, num_layers=2, num_heads=4,
                           max_seq_len=16, dropout=0.0, num_classes=3)
    model = ObsImportProbe(ModelParallelConfig(model=mc, tp=2, scheme="w/o", seed=0))
    rng = np.random.default_rng(0)
    batch = (rng.integers(0, 64, size=(4, 12)), rng.integers(0, 3, size=(4,)),
             np.ones((4, 12), dtype=np.int64))
    with create_backend("mp", model, timeout=30.0) as backend:
        assert backend.train_step(*batch).record == {}  # unobserved
        backend.collect_timelines = True
        for _ in range(2):  # the first observed step, then a warm one
            assert sorted(backend.train_step(*batch).record) == [0, 1]
