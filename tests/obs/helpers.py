"""Row builders for the telemetry tests: the shape ``step_rows`` emits."""


def row(rank, step, **fields):
    """One ``step_rows`` row with flat defaults; ``fields`` override any
    column (``gauges`` / ``fidelity`` are dicts)."""
    base = {"rank": rank, "step": step, "t_start_ms": 0.0, "wall_ms": 10.0,
            "comm_wait_ms": 4.0, "busy_ms": 6.0, "fault_ms": 0.0,
            "retries": 0, "drops": 0, "delays": 0, "gauges": {},
            "counters": {}, "timers_ms": {}, "fidelity": {}}
    base.update(fields)
    return base


def steps_of(per_rank, samples=1):
    """``samples`` steps of rows, one per rank per step: ``per_rank`` maps
    a rank to the fields of each of its rows."""
    return [row(rank, step, **fields) for step in range(samples)
            for rank, fields in per_rank.items()]
