"""Checkpoint serialization to .npz.

Two layers:

- :func:`save_checkpoint` / :func:`load_checkpoint` — a flat
  ``{name: array}`` state dict, unchanged since v0.
- :func:`save_trainer_state` / :func:`load_trainer_state` — the *full*
  mid-run trainer snapshot: model weights, optimizer slot buffers, LR
  scheduler step, the data-order RNG stream, training progress counters,
  and per-site compressor runtime state (error-feedback residuals,
  Random-K RNG streams).  Restoring all of it makes a run killed at step
  k and resumed from the step-k checkpoint finish bitwise-identical to
  an unkilled run (tests/training/test_chaos_recovery.py).

The trainer snapshot stays a plain ``allow_pickle=False`` npz: every
array travels as a real npz entry, and the nested structure (optimizer
slots, RNG states, runtime state) is carried by a single JSON document in
the ``meta`` entry, with arrays swapped for ``{"__array__": i}``
placeholders pointing at ``aux::{i}`` entries.  RNG bit-generator states
are dicts of (big) ints — JSON-safe without pickle.

Writes are atomic (temp file in the target directory, then
``os.replace``): a process killed mid-checkpoint leaves the previous
snapshot at the resume path, never a truncated one.  A snapshot that
cannot be read whole — truncated, written by another format version,
missing an entry its ``meta`` refers to — raises :class:`SnapshotError`
naming the path and the reason; no partial state is ever returned.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

__all__ = ["save_checkpoint", "load_checkpoint", "TrainerState",
           "SnapshotError", "save_trainer_state", "load_trainer_state"]

_ARRAY_KEY = "__array__"
_SNAPSHOT_VERSION = 1


class SnapshotError(ValueError):
    """A trainer snapshot could not be loaded; nothing was restored."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"cannot load trainer snapshot {path!r}: {reason}")
        self.path = path
        self.reason = reason


def _npz_path(path: str) -> str:
    """The on-disk path ``np.savez`` actually writes for ``path``.

    ``np.savez`` appends ``.npz`` when the suffix is missing, so both save
    and load must normalize the same way or a round-trip through a bare
    ``"ckpt"`` path raises ``FileNotFoundError``.
    """
    return path if path.endswith(".npz") else path + ".npz"


def save_checkpoint(state: dict[str, np.ndarray], path: str) -> None:
    """Write a state dict to ``path`` (npz). Dotted names are preserved.

    The file appears under its final name only once it is complete.
    """
    path = _npz_path(path)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **state)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Load a state dict written by :func:`save_checkpoint`.

    Accepts the same ``path`` that was passed to :func:`save_checkpoint`,
    with or without the ``.npz`` suffix.  The bare path is only taken as-is
    when it names a *file* — ``isfile``, not ``exists`` — so a directory
    that happens to share the checkpoint's name (``ckpt/`` next to
    ``ckpt.npz``) can't shadow it and send ``np.load`` into a confusing
    IsADirectoryError.
    """
    if not os.path.isfile(path):
        path = _npz_path(path)
    with np.load(path) as data:
        return {k: data[k].copy() for k in data.files}


# ---------------------------------------------------------------------------
# Full trainer snapshots


@dataclass
class TrainerState:
    """Everything a bitwise mid-run resume needs, as loaded from disk."""

    model_state: dict[str, np.ndarray]
    optimizer_state: dict
    schedule_state: dict
    data_rng_state: dict
    runtime_state: dict = field(default_factory=dict)
    global_step: int = 0
    epoch: int = 0
    step_in_epoch: int = 0


def _pack(node, arrays: list[np.ndarray]):
    """Replace every ndarray in a nested structure with a placeholder.

    Appends extracted arrays to ``arrays``; returns the JSON-able mirror.
    Scalars (including numpy scalars) pass through as native types.
    """
    if isinstance(node, np.ndarray):
        arrays.append(node)
        return {_ARRAY_KEY: len(arrays) - 1}
    if isinstance(node, dict):
        return {str(k): _pack(v, arrays) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_pack(v, arrays) for v in node]
    if isinstance(node, (np.integer, np.floating, np.bool_)):
        return node.item()
    return node


def _unpack(node, entries: dict[str, np.ndarray]):
    if isinstance(node, dict):
        if set(node) == {_ARRAY_KEY}:
            return entries[f"aux::{int(node[_ARRAY_KEY])}"]
        return {k: _unpack(v, entries) for k, v in node.items()}
    if isinstance(node, list):
        return [_unpack(v, entries) for v in node]
    return node


def save_trainer_state(path: str, *, model_state: dict[str, np.ndarray],
                       optimizer_state: dict, schedule_state: dict,
                       data_rng_state: dict, runtime_state: dict | None = None,
                       global_step: int = 0, epoch: int = 0,
                       step_in_epoch: int = 0) -> None:
    """Write a full trainer snapshot (one pickle-free npz file)."""
    arrays: list[np.ndarray] = []
    meta = {
        "version": _SNAPSHOT_VERSION,
        "global_step": int(global_step),
        "epoch": int(epoch),
        "step_in_epoch": int(step_in_epoch),
        "optimizer": _pack(optimizer_state, arrays),
        "schedule": _pack(schedule_state, arrays),
        "data_rng": _pack(data_rng_state, arrays),
        "runtime": _pack(runtime_state or {}, arrays),
    }
    entries: dict[str, np.ndarray] = {
        f"model::{name}": arr for name, arr in model_state.items()
    }
    for i, arr in enumerate(arrays):
        entries[f"aux::{i}"] = arr
    entries["meta"] = np.asarray(json.dumps(meta))
    save_checkpoint(entries, path)


def load_trainer_state(path: str) -> TrainerState:
    """Load a snapshot written by :func:`save_trainer_state`.

    Raises :class:`SnapshotError` unless the whole snapshot is readable
    (a missing file stays ``FileNotFoundError``).
    """
    try:
        entries = load_checkpoint(path)
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise SnapshotError(path, f"not a readable npz archive, possibly "
                                  f"truncated ({exc})") from exc
    if "meta" not in entries:
        raise SnapshotError(
            path, "no 'meta' entry; was it written by save_checkpoint "
                  "instead of save_trainer_state?")
    try:
        meta = json.loads(str(entries["meta"][()]))
        version = meta["version"]
    except (ValueError, KeyError, TypeError) as exc:
        raise SnapshotError(path, f"unreadable 'meta' entry ({exc})") from exc
    if version != _SNAPSHOT_VERSION:
        raise SnapshotError(
            path, f"snapshot format version {version!r}, this build reads "
                  f"version {_SNAPSHOT_VERSION}")
    try:
        return TrainerState(
            model_state={k.split("::", 1)[1]: v
                         for k, v in entries.items() if k.startswith("model::")},
            optimizer_state=_unpack(meta["optimizer"], entries),
            schedule_state=_unpack(meta["schedule"], entries),
            data_rng_state=_unpack(meta["data_rng"], entries),
            runtime_state=_unpack(meta["runtime"], entries),
            global_step=int(meta["global_step"]),
            epoch=int(meta["epoch"]),
            step_in_epoch=int(meta["step_in_epoch"]),
        )
    except KeyError as exc:
        raise SnapshotError(path, f"missing entry {exc.args[0]!r}") from exc
