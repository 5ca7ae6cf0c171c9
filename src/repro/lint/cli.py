"""``python -m repro.lint`` / ``repro-lint`` command line interface.

Usage::

    python -m repro.lint src/                 # static AST rules
    python -m repro.lint --changed-only       # only files touched vs merge-base
    python -m repro.lint --race-log runs/conc # replay a recorded concurrency log
    python -m repro.lint --list-rules
    python -m repro.lint --fix-report report.json src/

Exit codes: 0 clean, 1 findings, 2 usage or parse failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from repro.lint.engine import Finding, LintError, available_rules, lint_paths

__all__ = ["main"]

#: Rule ids for the dynamic checkers (listed alongside the AST rules).
DYNAMIC_RULES = (
    ("DYN002", "spmd-consistency",
     "recorded CommEvent stream matches the closed-form (scheme, tp, pp) oracle"),
    ("DYN003", "happens-before",
     "recorded concurrency log is race-free under vector-clock replay (--race-log)"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static AST invariants; --race-log replays a recorded mp run.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument("--list-rules", action="store_true",
                        help="list every rule id and exit")
    parser.add_argument("--rules", metavar="ID[,ID...]",
                        help="run only the named rules (ids or slugs)")
    parser.add_argument("--changed-only", action="store_true",
                        help="lint only .py files changed since the merge-base "
                             "with --base (plus untracked files)")
    parser.add_argument("--base", default="main", metavar="REF",
                        help="base ref for --changed-only (default: main)")
    parser.add_argument("--race-log", metavar="PATH",
                        help="replay a recorded concurrency event log (file or "
                             "directory of conc-rank*.jsonl) through the DYN003 "
                             "happens-before checker")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the report as JSON instead of human-readable lines")
    parser.add_argument("--fix-report", metavar="PATH",
                        help="write a machine-readable JSON report (for tooling that "
                             "triages or auto-fixes findings) to PATH")
    return parser


def _list_rules() -> int:
    for rule in available_rules():
        print(f"{rule.id}  {rule.name:<20} {rule.summary}")
    for rid, name, summary in DYNAMIC_RULES:
        print(f"{rid}  {name:<20} {summary}")
    return 0


def _race_findings(log_path: str) -> list[Finding]:
    from repro.lint.race_check import run_race_check_on_path

    return [Finding("DYN003", "happens-before", message, str(log_path), 0)
            for message in run_race_check_on_path(log_path)]


def _changed_files(base: str, paths: list[str]) -> list[Path]:
    """``.py`` files changed since ``merge-base(HEAD, base)`` plus untracked.

    When explicit ``paths`` are also given, only changed files under one
    of them are kept, so ``repro-lint --changed-only src/`` scopes the
    diff to the source tree.
    """
    def git(*args: str) -> str:
        proc = subprocess.run(["git", *args], capture_output=True, text=True)
        if proc.returncode != 0:
            raise LintError(
                f"git {' '.join(args)} failed: {proc.stderr.strip() or 'unknown error'}"
            )
        return proc.stdout

    merge_base = git("merge-base", "HEAD", base).strip()
    names = git("diff", "--name-only", "--diff-filter=d", merge_base,
                "--", "*.py").splitlines()
    names += git("ls-files", "--others", "--exclude-standard",
                 "--", "*.py").splitlines()
    scopes = [Path(p).resolve() for p in paths]
    out: list[Path] = []
    for name in sorted(set(names)):
        p = Path(name)
        if not p.is_file():
            continue  # deleted or moved away since the merge base
        if scopes and not any(p.resolve().is_relative_to(s) for s in scopes):
            continue
        out.append(p)
    return out


def _report_dict(findings: list[Finding], checked_dynamic: bool) -> dict:
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    return {
        "clean": not findings,
        "dynamic_checks": checked_dynamic,
        "total": len(findings),
        "counts_by_rule": counts,
        "findings": [f.to_json() for f in findings],
    }


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules()
    if not args.paths and not args.changed_only and not args.race_log:
        parser.print_usage(sys.stderr)
        print("error: no paths given (or use --changed-only / --race-log / "
              "--list-rules)", file=sys.stderr)
        return 2

    rule_ids = [r.strip() for r in args.rules.split(",")] if args.rules else None
    try:
        if args.changed_only:
            targets: list = _changed_files(args.base, args.paths)
        else:
            targets = list(args.paths)
        findings = lint_paths(targets, rule_ids) if targets else []
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checked_dynamic = bool(args.race_log)
    if args.race_log:
        findings.extend(_race_findings(args.race_log))

    report = _report_dict(findings, checked_dynamic)
    if args.fix_report:
        with open(args.fix_report, "w") as fh:
            json.dump(report, fh, indent=2)
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        for f in findings:
            print(f.format())
        suffix = " (static + dynamic)" if checked_dynamic else ""
        if findings:
            print(f"{len(findings)} finding(s){suffix}")
        else:
            print(f"clean{suffix}")

    if any(f.rule == "REPRO000" for f in findings):
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
