"""Figure 4a: accuracy vs number of compressed layers (CoLA/RTE analogues)."""

from repro.experiments import fig4a_num_layers, format_table


def test_fig4a_num_layers():
    rows = fig4a_num_layers()
    print("\n" + format_table(rows, title="Figure 4a — score vs #final layers compressed (A2)"))
    first, last = rows[0], rows[-1]
    half = next(r for r in rows if r["layers_compressed"] == 2)
    # Takeaway 6 on the robust RTE analogue: compressing every layer costs
    # far more than a few points against both the uncompressed run and the
    # half-compressed one (this tree: 80.2 / 83.3 / 50.0) ...
    assert last["RTE"] < first["RTE"] - 10.0
    assert last["RTE"] < half["RTE"] - 10.0
    # ... while compressing half the layers stays within a few points of
    # the baseline.
    assert half["RTE"] > first["RTE"] - 12.0
    # CoLA carries no ordering claim: its single-seed training either
    # "clicks" or stalls, and on this tree the *uncompressed* run is the
    # one that stalls (MCC 12.2 vs 37.5 half / 28.0 all; EXPERIMENTS.md,
    # Known deviations 7). What holds is that every run completes in range
    # and that all-layers does not beat half-layers.
    for row in rows:
        assert -100.0 <= row["CoLA"] <= 100.0
    assert last["CoLA"] < half["CoLA"]
