"""``python -m repro.bench`` — run, gate and report the determinism pin.

Usage::

    python -m repro.bench run [--out DIR] [--only GLOB]
    python -m repro.bench compare [CANDIDATE] [--baseline PATH] [--all]
    python -m repro.bench report [CANDIDATE] [--format md|csv] [--out PATH]

``run`` executes the pinned suite (see :mod:`repro.bench.suite`), each
case once, and writes ``BENCH_<git-sha>.json``.  ``compare`` gates a
candidate against the committed baseline and exits 1 on any drift —
CI's bench-smoke job runs exactly that.  ``report`` renders a run as
markdown (default) or CSV.

When CANDIDATE is omitted, the newest ``BENCH_*.json`` under the output
directory (default ``.``) is used.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from repro.bench.compare import compare_docs, load_doc
from repro.bench.report import render_csv, render_markdown
from repro.bench.run import run_suite
from repro.bench.schema import BenchSchemaError, validate_bench

__all__ = ["main"]

DEFAULT_BASELINE = os.path.join("benchmarks", "baseline.json")


def _newest_bench(directory: str) -> str | None:
    paths = glob.glob(os.path.join(directory, "BENCH_*.json"))
    return max(paths, key=os.path.getmtime) if paths else None


def _resolve_candidate(arg: str | None, directory: str) -> str | None:
    if arg:
        return arg
    found = _newest_bench(directory)
    if found is None:
        print(f"error: no BENCH_*.json found under {directory!r}; "
              "run `python -m repro.bench run` first", file=sys.stderr)
    return found


def _load_validated(path: str) -> dict | None:
    try:
        return validate_bench(load_doc(path))
    except FileNotFoundError:
        print(f"error: file not found: {path}", file=sys.stderr)
    except (BenchSchemaError, ValueError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
    return None


def cmd_run(args: argparse.Namespace) -> int:
    try:
        doc, bench_path = run_suite(
            out_dir=args.out, only=args.only,
            progress=lambda case, _: print(f"  {case.id}"))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {bench_path} ({len(doc['cases'])} cases, "
          f"sha {doc['git_sha']})")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table

    candidate_path = _resolve_candidate(args.candidate, args.dir)
    if candidate_path is None:
        return 2
    candidate = _load_validated(candidate_path)
    baseline = _load_validated(args.baseline)
    if candidate is None or baseline is None:
        return 2

    result = compare_docs(candidate, baseline)
    rows = result.as_rows()
    if not args.all:
        rows = [r for r in rows if not r["status"].startswith("ok")]
    if rows:
        print(format_table(rows, title=f"{candidate_path} vs {args.baseline}"))
    if result.ok:
        print(f"OK: no regressions across {len(result.checks)} checks")
        return 0
    print(f"FAIL: {len(result.regressions)} regression(s) "
          f"across {len(result.checks)} checks", file=sys.stderr)
    # Name every offender explicitly: the summary table above is filtered
    # and easy to misread in CI logs, so the verdict itself must say which
    # case/metric regressed and the two values being compared.
    for check in result.regressions:
        print(f"  {check.case_id} :: {check.metric}: "
              f"baseline={check.baseline} candidate={check.candidate}",
              file=sys.stderr)
    return 1


def cmd_report(args: argparse.Namespace) -> int:
    candidate_path = _resolve_candidate(args.candidate, args.dir)
    if candidate_path is None:
        return 2
    doc = _load_validated(candidate_path)
    if doc is None:
        return 2
    text = render_csv(doc) if args.format == "csv" else render_markdown(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.bench",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run the pinned suite")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--only", metavar="GLOB",
                       help="run only cases whose id matches this glob "
                            "(e.g. 'backend_step/mp/*')")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="gate a run against the baseline")
    p_cmp.add_argument("candidate", nargs="?",
                       help="bench file (default: newest BENCH_*.json in --dir)")
    p_cmp.add_argument("--dir", default=".",
                       help="where to look for the newest candidate")
    p_cmp.add_argument("--baseline", default=DEFAULT_BASELINE)
    p_cmp.add_argument("--all", action="store_true",
                       help="print passing checks too")
    p_cmp.set_defaults(fn=cmd_compare)

    p_rep = sub.add_parser("report", help="render a run as markdown/CSV")
    p_rep.add_argument("candidate", nargs="?")
    p_rep.add_argument("--dir", default=".")
    p_rep.add_argument("--format", choices=("md", "csv"), default="md")
    p_rep.add_argument("--out", help="write to a file instead of stdout")
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
