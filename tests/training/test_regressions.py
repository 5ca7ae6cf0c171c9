"""Regression tests for state-corrupting edge cases in the training stack."""

import json
import os

import numpy as np
import pytest

from repro.training.checkpoint import (
    SnapshotError,
    load_checkpoint,
    load_trainer_state,
    save_checkpoint,
    save_trainer_state,
)
from repro.training.finetune import finetune_on_task
from repro.training.trainer import TrainConfig


class TestCheckpointSuffix:
    """np.savez silently appends ``.npz`` to suffix-less paths; save and load
    must normalize identically or a bare-path round-trip raises."""

    def test_roundtrip_without_npz_suffix(self, tmp_path):
        state = {"layer.w": np.arange(6, dtype=np.float32).reshape(2, 3)}
        path = os.path.join(tmp_path, "ckpt")  # no .npz
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)  # same bare path back
        np.testing.assert_array_equal(loaded["layer.w"], state["layer.w"])

    def test_bare_save_loadable_with_explicit_suffix(self, tmp_path):
        state = {"b": np.ones(4, dtype=np.float32)}
        path = os.path.join(tmp_path, "model")
        save_checkpoint(state, path)
        loaded = load_checkpoint(path + ".npz")
        np.testing.assert_array_equal(loaded["b"], state["b"])

    def test_suffixed_path_still_works(self, tmp_path):
        state = {"x": np.zeros(2, dtype=np.float32)}
        path = os.path.join(tmp_path, "full.npz")
        save_checkpoint(state, path)
        assert os.path.exists(path)  # no double suffix
        assert set(load_checkpoint(path)) == {"x"}

    def test_missing_checkpoint_still_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(os.path.join(tmp_path, "absent"))

    def test_sibling_directory_cannot_shadow_checkpoint(self, tmp_path):
        """A directory named like the bare path must not shadow ckpt.npz.

        ``load_checkpoint`` used ``os.path.exists`` on the bare path, so a
        ``ckpt/`` directory next to ``ckpt.npz`` sent ``np.load`` straight
        into IsADirectoryError; only a *file* may short-circuit the
        suffix normalization.
        """
        state = {"w": np.arange(4, dtype=np.float32)}
        path = os.path.join(tmp_path, "ckpt")
        save_checkpoint(state, path)  # writes ckpt.npz
        os.mkdir(path)  # the shadowing directory
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded["w"], state["w"])


class TestCheckpointEdgeCases:
    """Round-trips that exercise the npz serialization corners."""

    @pytest.mark.parametrize("dtype", ["int8", "uint16", "int32", "int64",
                                       "bool", "float16"])
    def test_non_float_dtypes_round_trip(self, tmp_path, dtype):
        arr = (np.arange(12) % 2).astype(dtype).reshape(3, 4)
        path = os.path.join(tmp_path, "ckpt")
        save_checkpoint({"t": arr}, path)
        out = load_checkpoint(path)["t"]
        assert out.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(out, arr)

    def test_zero_d_arrays_round_trip(self, tmp_path):
        state = {"scalar": np.float32(3.5) * np.ones(()),
                 "count": np.array(7, dtype=np.int64)}
        path = os.path.join(tmp_path, "ckpt")
        save_checkpoint(state, path)
        out = load_checkpoint(path)
        assert out["scalar"].shape == () and out["scalar"] == np.float32(3.5)
        assert out["count"].shape == () and out["count"] == 7

    def test_empty_state_dict_round_trips(self, tmp_path):
        path = os.path.join(tmp_path, "empty")
        save_checkpoint({}, path)
        assert load_checkpoint(path) == {}

    def test_bare_relative_path_has_no_directory_component(self, tmp_path,
                                                           monkeypatch):
        """save_checkpoint('ckpt') must not trip on dirname('') == ''."""
        monkeypatch.chdir(tmp_path)
        state = {"w": np.ones(3, dtype=np.float32)}
        save_checkpoint(state, "ckpt")
        np.testing.assert_array_equal(load_checkpoint("ckpt")["w"], state["w"])

    def test_parent_directories_are_created(self, tmp_path):
        path = os.path.join(tmp_path, "a", "b", "ckpt")
        save_checkpoint({"w": np.zeros(2, dtype=np.float32)}, path)
        assert set(load_checkpoint(path)) == {"w"}


class TestAtomicCheckpointWrite:
    """A kill mid-checkpoint (the chaos-recovery scenario) must leave the
    previous snapshot at the resume path, never a truncated file."""

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = os.path.join(tmp_path, "ckpt")
        save_checkpoint({"w": np.ones(4, dtype=np.float32)}, path)

        def dies_mid_write(fh, **state):
            fh.write(b"PK\x03\x04 half a zip")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez", dies_mid_write)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint({"w": np.zeros(4, dtype=np.float32)}, path)
        monkeypatch.undo()
        np.testing.assert_array_equal(load_checkpoint(path)["w"], np.ones(4))
        assert os.listdir(tmp_path) == ["ckpt.npz"]  # no temp file left behind


class TestUnloadableSnapshots:
    """Every unreadable trainer snapshot raises one typed error naming the
    path and the reason, before any state is returned."""

    @staticmethod
    def _save(path, **overrides):
        kwargs = dict(
            model_state={"w": np.arange(64, dtype=np.float32)},
            optimizer_state={"step_count": 2, "slots": {"m": [np.ones(8)]}},
            schedule_state={"step": 2},
            data_rng_state={"bit_generator": "PCG64", "state": {"state": 1}},
            runtime_state={"boundary0": {"residuals": {"site": np.ones(3)}}},
            global_step=2,
        )
        kwargs.update(overrides)
        save_trainer_state(path, **kwargs)
        return path + ".npz"

    @staticmethod
    def _rewrite(npz, edit):
        with np.load(npz) as data:
            entries = {k: data[k] for k in data.files}
        edit(entries)
        np.savez(npz, **entries)

    @pytest.mark.parametrize("keep", [0.0, 0.1, 0.5, 0.99])
    def test_truncated_file(self, tmp_path, keep):
        path = os.path.join(tmp_path, "snap")
        npz = self._save(path)
        raw = open(npz, "rb").read()
        with open(npz, "wb") as fh:
            fh.write(raw[:int(len(raw) * keep)])
        with pytest.raises(SnapshotError, match="truncated") as exc:
            load_trainer_state(path)
        assert exc.value.path == path and path in str(exc.value)

    def test_foreign_version(self, tmp_path):
        path = os.path.join(tmp_path, "snap")

        def bump(entries):
            meta = json.loads(str(entries["meta"][()]))
            meta["version"] = 2
            entries["meta"] = np.asarray(json.dumps(meta))

        self._rewrite(self._save(path), bump)
        with pytest.raises(SnapshotError, match="version 2.*reads version 1"):
            load_trainer_state(path)

    def test_missing_aux_entry(self, tmp_path):
        path = os.path.join(tmp_path, "snap")
        self._rewrite(self._save(path), lambda entries: entries.pop("aux::1"))
        with pytest.raises(SnapshotError, match="missing entry 'aux::1'"):
            load_trainer_state(path)

    def test_missing_meta_field(self, tmp_path):
        path = os.path.join(tmp_path, "snap")

        def drop(entries):
            meta = json.loads(str(entries["meta"][()]))
            del meta["data_rng"]
            entries["meta"] = np.asarray(json.dumps(meta))

        self._rewrite(self._save(path), drop)
        with pytest.raises(SnapshotError, match="missing entry 'data_rng'"):
            load_trainer_state(path)

    def test_plain_checkpoint_is_not_a_snapshot(self, tmp_path):
        path = os.path.join(tmp_path, "ckpt")
        save_checkpoint({"w": np.zeros(2, dtype=np.float32)}, path)
        with pytest.raises(SnapshotError, match="no 'meta' entry"):
            load_trainer_state(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trainer_state(os.path.join(tmp_path, "absent"))


class TestRegressionTaskEvaluation:
    def test_stsb_finetune_evaluates_with_spearman(self):
        """STS-B is the regression task: a 1-output head scored by Spearman
        correlation must flow through evaluate_task without the
        classification argmax path mangling it."""
        res = finetune_on_task(
            "STS-B", "w/o", tp=1, pp=1, seed=0, num_layers=2,
            train_config=TrainConfig(epochs=1, lr=1e-3, seed=0, batch_size=64),
        )
        assert res.task == "STS-B"
        assert res.scores, "STS-B must produce at least one eval split score"
        for score in res.scores.values():
            assert np.isfinite(score)
            assert -100.0 <= score <= 100.0  # Spearman ×100
