"""The mutation audit's list still applies to the tree it audits.

``.github/scripts/mutants.py`` patches each mutation's ``old`` text into its
``new`` one.  Each ``old`` must occur exactly once in its file, so a refactor
that moves the code fails here, loudly, instead of leaving a mutation that
can no longer apply.  Reads files only.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / ".github/scripts/mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_at_least_thirty_mutations_with_unique_ids():
    ids = [m[0] for m in mutants.MUTANTS]
    assert len(ids) >= 30
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("mutation", mutants.MUTANTS, ids=[m[0] for m in mutants.MUTANTS])
def test_old_text_occurs_once_and_new_differs(mutation):
    _, rel, old, new, contract = mutation
    text = (ROOT / "src/repro" / rel).read_text()
    assert text.count(old) == 1, f"{rel}: the mutation's old text occurs {text.count(old)} times"
    assert new != old and contract
