"""One record, two views: the Chrome trace `repro.obs mp-trace` wrote live
from ``StepResult.timelines`` must equal the one rebuilt offline from the
``conc-rank*.jsonl`` files of the same run — same per-rank span names,
categories and durations, which here means the very same trace events.

    PYTHONPATH=src python .github/scripts/trace_from_record.py TRACE.json LOG_DIR
"""

import json
import sys

from repro.obs.trace import worker_timelines_trace
from repro.parallel.backend import load_events, span_view


def main(trace_path: str, log_dir: str) -> int:
    with open(trace_path) as fh:
        live = json.load(fh)
    recorded = load_events(log_dir)
    rebuilt = worker_timelines_trace(span_view(recorded), live["otherData"])
    faults = sum(e["kind"] == "fault" for e in recorded)
    fault_spans = sum(e.get("cat") == "mp.fault" for e in live["traceEvents"])
    print(f"{len(live['traceEvents'])} live trace events, "
          f"{len(rebuilt['traceEvents'])} rebuilt from {len(recorded)} record "
          f"events; {faults} fault events, {fault_spans} mp.fault spans")
    return 0 if rebuilt["traceEvents"] == live["traceEvents"] else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
