"""Row builders for the telemetry tests: the shape ``step_rows`` emits."""


def row(rank, step, **fields):
    """One ``step_rows`` row with flat defaults; ``fields`` override any
    column (``gauges`` / ``fidelity`` are dicts)."""
    base = {"rank": rank, "step": step, "t_start_ms": 0.0, "wall_ms": 10.0,
            "comm_wait_ms": 4.0, "busy_ms": 6.0, "fault_ms": 0.0,
            "delays": 0, "gauges": {},
            "counters": {}, "timers_ms": {}, "fidelity": {}}
    base.update(fields)
    return base


def steps_of(per_rank, samples=1):
    """``samples`` steps of rows, one per rank per step: ``per_rank`` maps
    a rank to the fields of each of its rows."""
    return [row(rank, step, **fields) for step in range(samples)
            for rank, fields in per_rank.items()]


def events(rows, **meta):
    """Rank events whose ``step_rows`` fold gives ``rows`` back: each row's
    step begins at t=0 and ends ``comm_wait_ms + busy_ms`` later (its
    ``wall_ms`` follows from those two), with one ``mp.wait`` span, its
    gauges, counters and phase timers, one ``fidelity`` call per site and
    one ``fault`` event per delay.  ``meta`` fields, if
    any, make a leading parent ``meta`` event (``run_id=...``)."""
    out = [{"kind": "meta", "rank": -1, "idx": 0, "t": 0.0, "world": 1, **meta}] if meta else []
    for r in rows:
        def ev(kind, t=0.0, **fields):
            return {"kind": kind, "rank": r["rank"], "idx": 0, "t": t, **fields}

        out += [ev("step_begin", step=r["step"]),
                ev("span", name="wait", cat="mp.wait", dur=r["comm_wait_ms"] / 1e3),
                *(ev("gauge", name=k, value=v) for k, v in r["gauges"].items()),
                *(ev("count", name=k, n=v) for k, v in r["counters"].items()),
                *(ev("span", name=k, cat="phase", dur=v / 1e3)
                  for k, v in r["timers_ms"].items()),
                *(ev("fidelity", site=site, **f) for site, f in r["fidelity"].items()),
                *(ev("fault", fault="delay") for _ in range(r["delays"])),
                ev("step_end", t=(r["comm_wait_ms"] + r["busy_ms"]) / 1e3, step=r["step"])]
    return out
