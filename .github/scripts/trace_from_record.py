"""One record, one fold: the Chrome trace `repro.obs mp-trace` wrote live
from ``StepResult.record`` must equal ``chrome_trace`` over the
``conc-rank*.jsonl`` files of the same run — the same events carried two
ways (the reply and the JSONL sink), rendered by the same function.

    PYTHONPATH=src python .github/scripts/trace_from_record.py TRACE.json LOG_DIR
"""

import json
import sys

from repro.obs.trace import chrome_trace
from repro.parallel.backend import load_events


def main(trace_path: str, log_dir: str) -> int:
    with open(trace_path) as fh:
        live = json.load(fh)
    recorded = load_events(log_dir)
    rebuilt = chrome_trace(recorded, live["otherData"])
    faults = sum(e["kind"] == "fault" for e in recorded)
    fault_spans = sum(e.get("cat") == "mp.fault" for e in live["traceEvents"])
    print(f"{len(live['traceEvents'])} live trace events, "
          f"{len(rebuilt['traceEvents'])} rebuilt from {len(recorded)} record "
          f"events; {faults} fault events, {fault_spans} mp.fault spans")
    return 0 if rebuilt["traceEvents"] == live["traceEvents"] else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
