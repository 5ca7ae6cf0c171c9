"""Rule engine plumbing: registry, suppressions, CLI report surface."""

import json
import textwrap

import pytest

from repro.lint import LintError, available_rules, lint_paths, lint_source
from repro.lint.cli import main


def test_registry_has_at_least_six_rules():
    rules = available_rules()
    assert len(rules) >= 6
    assert len({r.id for r in rules}) == len(rules)
    assert all(r.id.startswith("REPRO") for r in rules)


def test_clean_source_yields_nothing():
    assert lint_source("x = 1\n") == []


def test_inline_suppression_by_id_and_slug():
    bad = "def f(x=[]):\n    return x\n"
    assert any(f.rule == "REPRO005" for f in lint_source(bad))
    for tag in ("REPRO005", "mutable-default", "all"):
        suppressed = f"def f(x=[]):  # lint: disable={tag}\n    return x\n"
        assert lint_source(suppressed) == []


def test_suppression_is_line_scoped():
    src = textwrap.dedent(
        """
        def f(x=[]):  # lint: disable=REPRO005
            return x

        def g(y={}):
            return y
        """
    )
    findings = lint_source(src)
    assert [f.rule for f in findings] == ["REPRO005"]
    assert findings[0].message.startswith("mutable default argument in g")


def test_syntax_error_becomes_parse_finding():
    (f,) = lint_source("def broken(:\n")
    assert f.rule == "REPRO000" and f.name == "parse-error"


def test_unknown_rule_selection_raises():
    with pytest.raises(LintError):
        lint_source("x = 1\n", rule_ids=["REPRO999"])


def test_rule_selection_by_slug():
    bad = "import numpy as np\nr = np.random.rand(3)\n"
    assert lint_source(bad, rule_ids=["seeded-rng"])
    assert lint_source(bad, rule_ids=["no-eval-exec"]) == []


def test_lint_paths_rejects_missing_path(tmp_path):
    with pytest.raises(LintError):
        lint_paths([tmp_path / "nope"])


def test_cli_clean_and_dirty_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(clean)]) == 0
    assert "clean" in capsys.readouterr().out

    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(x=[]):\n    return x\n")
    assert main([str(dirty)]) == 1
    assert "REPRO005" in capsys.readouterr().out


def test_cli_json_report_and_fix_report_file(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(x=[]):\n    return x\n")
    report_path = tmp_path / "report.json"
    code = main(["--json", "--fix-report", str(report_path), str(dirty)])
    assert code == 1
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads(report_path.read_text())
    assert printed == on_disk
    assert on_disk["clean"] is False
    assert on_disk["counts_by_rule"] == {"REPRO005": 1}
    assert on_disk["findings"][0]["path"] == str(dirty)


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rid in ("REPRO001", "REPRO002", "REPRO003", "REPRO004", "REPRO005",
                "REPRO006", "REPRO007", "REPRO010", "REPRO011",
                "DYN001", "DYN002", "DYN003", "DYN004", "DYN005"):
        assert rid in out
    # The issue/wait API's rules are retired; their ids are not reused.
    assert "REPRO008" not in out and "REPRO009" not in out


def test_cli_no_paths_is_usage_error(capsys):
    assert main([]) == 2


def test_cli_parse_error_exit_code(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    assert main([str(broken)]) == 2


def test_suppression_covers_multiline_statement():
    # The finding anchors on the continuation line (the default's own
    # line); the disable comment sits on the statement's first line.
    src = ("def f(a,  # lint: disable=REPRO005\n"
           "      b=[]):\n"
           "    return b\n")
    bare = src.replace("  # lint: disable=REPRO005", "")
    (finding,) = lint_source(bare, rule_ids=["REPRO005"])
    assert finding.line == 2  # really anchored inside the statement
    assert lint_source(src, rule_ids=["REPRO005"]) == []


def test_suppression_on_continuation_line_still_works():
    src = ("def f(a,\n"
           "      b=[]):  # lint: disable=mutable-default\n"
           "    return b\n")
    assert lint_source(src, rule_ids=["REPRO005"]) == []


def test_header_suppression_does_not_leak_into_body():
    # The innermost covering statement wins: the body statement anchors
    # to itself, not to the suppressed def header.
    src = ("def f():  # lint: disable=all\n"
           "    eval('1')\n")
    (finding,) = lint_source(src, rule_ids=["REPRO007"])
    assert finding.line == 2
