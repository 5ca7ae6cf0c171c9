"""Tables 15–16: accuracy under the (batch, sequence) hyper-parameter sweep."""

from repro.experiments import format_table, tables15_16_accuracy


def test_tables15_16_accuracy_hparams():
    tables = tables15_16_accuracy()
    for key, rows in tables.items():
        print("\n" + format_table(rows, title=f"{key} — GLUE scores (×100), TP=2 PP=2"))
    # At the default batch the separation is real: the baseline and the
    # low-distortion scheme both stay ahead of Top-K.
    b32 = {r["scheme"]: r for r in tables["table15_b32"]}
    assert b32["w/o"]["Avg."] > b32["T1"]["Avg."]
    assert b32["Q2"]["Avg."] > b32["T1"]["Avg."]
    # At b=8 the paper's "ordering unchanged" does not reproduce: Top-K's
    # damage vanishes on the easy tasks and the 3-task average is decided by
    # RTE alone, where T1 ties w/o at 83.3 and Q2 reads 78.1 (5 of 96 dev
    # examples), so Top-K is not last: 92.95 / 92.95 / 91.2 (EXPERIMENTS.md,
    # Known deviations 9; the PR 16 record had T1 on top, the same coin).
    # What the tree shows and this pins: every scheme still trains the
    # suite, and QQP and SST-2 are tied within a point across schemes.
    b8 = tables["table16_b8"]
    for row in b8:
        assert row["Avg."] > 90.0, row["scheme"]
    for task in ("QQP", "SST-2"):
        scores = [row[task] for row in b8]
        assert max(scores) - min(scores) < 1.0, task
