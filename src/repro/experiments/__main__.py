"""Command-line table/figure regeneration.

Usage::

    python -m repro.experiments list
    python -m repro.experiments table2 table9 fig2
    python -m repro.experiments all-timing
    REPRO_PROFILE=full python -m repro.experiments table5

Each target prints the regenerated table in the paper's layout.
"""

from __future__ import annotations

import sys

from repro.experiments import (
    fig4a_num_layers,
    fig4b_location,
    figure1_comm_overhead,
    figure2_lowrank,
    figure5_fit,
    format_table,
    table2_finetune_nvlink,
    table3_nvlink_ablation,
    table4_breakdown_finetune,
    table5_glue_accuracy,
    table6_pretrain,
    table7_breakdown_pretrain,
    table8_pretrain_accuracy,
    table9_stage_comm,
    table10_weak_scaling,
    tables11_14_hparam_sweep,
    tables15_16_accuracy,
)


def _fig2():
    r = figure2_lowrank()
    print("Figure 2 — spectrum AUC: gradient "
          f"{r['gradient']['auc']:.3f}, activation {r['activation']['auc']:.3f} "
          f"(low-rank claim holds: {r['gradient_is_lower_rank']})\n")


def _fig5():
    r = figure5_fit()
    p = r["params"]
    rows = [
        {"hidden": h, "speedup": s}
        for h, s in zip(r["measured"]["hiddens"], r["predicted"]["speedup"])
    ]
    print(f"Figure 5 — fitted alpha={p.alpha:.3e}, beta={p.beta:.3e}, "
          f"gamma={p.gamma:.3e}, c={p.comm_const_ms:.2f} ms, "
          f"d={p.comm_threshold_elems:.0f} elems")
    print(format_table(rows, title="Predicted AE speedup vs hidden size"))
    print()


def _multi(fn, prefix):
    def run():
        for key, rows in fn().items():
            print(format_table(rows, title=key))
            print()

    return run


TARGETS = {
    "fig1": lambda: print(format_table(figure1_comm_overhead(), title="Figure 1") + "\n"),
    "fig2": _fig2,
    "fig4a": lambda: print(format_table(fig4a_num_layers(), title="Figure 4a") + "\n"),
    "fig4b": lambda: print(format_table(fig4b_location(), title="Figure 4b") + "\n"),
    "fig5": _fig5,
    "table2": lambda: print(format_table(table2_finetune_nvlink(), title="Table 2") + "\n"),
    "table3": lambda: print(format_table(table3_nvlink_ablation(), title="Table 3") + "\n"),
    "table4": lambda: print(format_table(table4_breakdown_finetune(), title="Table 4") + "\n"),
    "table5": lambda: print(format_table(table5_glue_accuracy(), title="Table 5") + "\n"),
    "table6": lambda: print(format_table(table6_pretrain(), title="Table 6") + "\n"),
    "table7": lambda: print(format_table(table7_breakdown_pretrain(), title="Table 7") + "\n"),
    "table8": lambda: print(format_table(table8_pretrain_accuracy(), title="Table 8") + "\n"),
    "table9": lambda: print(format_table(table9_stage_comm(), title="Table 9") + "\n"),
    "table10": lambda: print(format_table(table10_weak_scaling(), title="Table 10") + "\n"),
    "tables11-14": _multi(tables11_14_hparam_sweep, "Tables 11-14"),
    "tables15-16": _multi(tables15_16_accuracy, "Tables 15-16"),
}

GROUPS = {
    "all-timing": ["fig1", "table2", "table3", "table4", "table6", "table7",
                   "table9", "tables11-14"],
    "all-model": ["fig5", "table10", "fig2"],
    "all-accuracy": ["table5", "table8", "fig4a", "fig4b", "tables15-16"],
}


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help", "list"):
        print(__doc__)
        print("Targets:", " ".join(sorted(TARGETS)))
        print("Groups:", " ".join(sorted(GROUPS)))
        return 0
    targets: list[str] = []
    for arg in argv:
        if arg in GROUPS:
            targets.extend(GROUPS[arg])
        elif arg in TARGETS:
            targets.append(arg)
        else:
            print(f"unknown target {arg!r}; run `list` for options", file=sys.stderr)
            return 2
    for t in targets:
        TARGETS[t]()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
