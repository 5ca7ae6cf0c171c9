"""``results_tables.txt`` is what the timing and model targets print.

The committed file is ``python -m repro.experiments all-timing all-model``
line for line, blank lines aside.  Regenerated in-process (≈1 s), so a
change to the simulator, the cost model or a table's layout that moves a
committed number fails here until the file is regenerated with it.
"""

from pathlib import Path

from repro.experiments.__main__ import main

ROOT = Path(__file__).resolve().parents[2]


def test_committed_tables_equal_a_fresh_run(capsys):
    assert main(["all-timing", "all-model"]) == 0
    fresh = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
    committed = [line for line in (ROOT / "results_tables.txt").read_text().splitlines()
                 if line.strip()]
    assert fresh == committed
