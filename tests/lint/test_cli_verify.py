"""CLI surface of the concurrency verification layer.

``--race-log`` / ``--changed-only`` — the entry points CI and `make`
drive.  The changed-only tests run against a scratch git repository so
they are independent of this checkout's state.
"""

import json
import subprocess

import pytest

from repro.lint.cli import main
from repro.parallel.backend.events import EventRecord


class TestRaceLogFlag:
    def test_missing_log_is_a_dyn003_finding(self, tmp_path, capsys):
        assert main(["--race-log", str(tmp_path / "nope")]) == 1
        out = capsys.readouterr().out
        assert "DYN003" in out and "cannot load" in out

    def test_clean_recorded_log_exits_zero(self, tmp_path, capsys):
        log = EventRecord(rank=0, world=1, path=tmp_path / "conc-rank0.jsonl")
        log.emit("step_end", step=0)
        log.flush()
        assert main(["--race-log", str(tmp_path)]) == 0
        assert "clean (static + dynamic)" in capsys.readouterr().out

    def test_combines_with_fix_report(self, tmp_path, capsys):
        log = EventRecord(rank=0, world=1, path=tmp_path / "conc-rank0.jsonl")
        log.emit("step_end", step=0)
        log.flush()
        report = tmp_path / "report.json"
        assert main(["--race-log", str(tmp_path), "--fix-report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["clean"] is True and data["dynamic_checks"] is True
        capsys.readouterr()

    def test_corrupt_log_names_the_race(self, tmp_path, capsys):
        log = EventRecord(rank=0, world=2, path=tmp_path / "conc-rank0.jsonl")
        log.emit("send", src=0, dst=1, slot=0, seq=1)
        log.flush()  # sent, never received; rank 1 logged nothing
        assert main(["--race-log", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DYN003" in out and "never" in out


@pytest.fixture
def scratch_repo(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(["git", *args], cwd=tmp_path, check=True,
                       capture_output=True)

    git("init", "-q", "-b", "main")
    git("config", "user.email", "ci@example.invalid")
    git("config", "user.name", "ci")
    (tmp_path / "clean.py").write_text("X = 1\n")
    git("add", ".")
    git("commit", "-q", "-m", "seed")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestChangedOnly:
    def test_no_changes_is_clean(self, scratch_repo, capsys):
        assert main(["--changed-only"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_untracked_dirty_file_is_linted(self, scratch_repo, capsys):
        (scratch_repo / "dirty.py").write_text("def f(x=[]):\n    return x\n")
        assert main(["--changed-only"]) == 1
        assert "REPRO005" in capsys.readouterr().out

    def test_modified_tracked_file_is_linted(self, scratch_repo, capsys):
        (scratch_repo / "clean.py").write_text("def f(x=[]):\n    return x\n")
        assert main(["--changed-only"]) == 1
        assert "clean.py" in capsys.readouterr().out

    def test_unchanged_dirty_file_is_not_linted(self, scratch_repo, capsys):
        # A pre-existing finding in an untouched file must not block a
        # changed-only run — that is the whole point of the flag.
        def git(*args):
            subprocess.run(["git", *args], cwd=scratch_repo, check=True,
                           capture_output=True)

        (scratch_repo / "legacy.py").write_text("def f(x=[]):\n    return x\n")
        git("add", "legacy.py")
        git("commit", "-q", "-m", "legacy wart")
        # merge-base(HEAD, main) == HEAD, so the committed wart is out of
        # scope; only the new untracked file is linted.
        (scratch_repo / "fresh.py").write_text("Y = 2\n")
        assert main(["--changed-only"]) == 0
        capsys.readouterr()

    def test_scoping_to_a_subdirectory(self, scratch_repo, capsys):
        sub = scratch_repo / "pkg"
        sub.mkdir()
        (sub / "inner.py").write_text("def f(x=[]):\n    return x\n")
        (scratch_repo / "outer.py").write_text("def g(y=[]):\n    return y\n")
        assert main(["--changed-only", "pkg"]) == 1
        out = capsys.readouterr().out
        assert "inner.py" in out and "outer.py" not in out

    def test_bad_base_ref_is_usage_error(self, scratch_repo, capsys):
        assert main(["--changed-only", "--base", "no-such-ref"]) == 2
        assert "error" in capsys.readouterr().err
