"""Helpers shared by the parallel tests.

``reference_step`` is the parent-side optimizer step written out call by
call: :meth:`~repro.parallel.backend.ExecutionBackend.step` composes these
calls; the multi-step equivalence tests run ``step`` on one side and this
reference on the other, so the sequence is spelled out once in the tests.

``race_replay`` is ``.github/scripts/race_replay.py``, the DYN003
happens-before replay of a recorded run, loaded once as a module.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "race_replay", Path(__file__).resolve().parents[2] / ".github/scripts/race_replay.py")
race_replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(race_replay)


def reference_step(backend, model, optimizer, input_ids, labels, mask, *,
                   max_grad_norm=None):
    """One optimizer step on ``model``; the result carries the clip's
    pre-clip norm as ``grad_norm`` (None when nothing clipped)."""
    optimizer.zero_grad()
    result = backend.train_step(input_ids, labels, mask)
    backend.apply_grads(model, result)
    if max_grad_norm:
        result.grad_norm = optimizer.clip_grad_norm(max_grad_norm)
    optimizer.step()
    backend.sync_weights(model)
    return result
