"""``python -m repro.bench [--write PATH]`` — the determinism pin.

Runs the pinned suite (see :mod:`repro.bench.suite`), each case once,
prints every difference from ``benchmarks/baseline.json`` and exits 1 if
there is any.  ``--write PATH`` also saves the run to PATH; the
deliberate baseline refresh is ``--write benchmarks/baseline.json``,
whose printed differences are the refresh log (EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.compare import drift
from repro.bench.run import run_suite

BASELINE = os.path.join("benchmarks", "baseline.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", metavar="PATH",
                        help="also save the run to PATH")
    args = parser.parse_args(argv)

    doc = run_suite()
    with open(BASELINE, encoding="utf-8") as fh:
        lines = drift(doc, json.load(fh))
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for line in lines:
        print(line)
    print(f"{len(doc['cases'])} cases, {len(lines)} difference(s) from {BASELINE}"
          + (f"; wrote {args.write}" if args.write else ""))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
