"""Project-specific static analysis and dynamic consistency checks.

Three layers, each usable on its own:

1. :mod:`repro.lint.engine` + :mod:`repro.lint.ast_rules` — an AST rule
   engine enforcing the reproduction's structural invariants (seeded
   randomness, stable seeds, no ``eval``, deadlines on blocking calls,
   ...).  Rules are registered in a global registry and can be
   suppressed per line with ``# lint: disable=<rule>``.
2. Two dynamic checkers: :mod:`repro.lint.spmd_check` (DYN002) runs a
   tiny model-parallel BERT and cross-validates the recorded
   :class:`~repro.parallel.collectives.CommEvent` stream against an
   independent closed-form oracle; :mod:`repro.lint.race_check` (DYN003)
   replays a recorded mp run's event log for happens-before races.
   Tier-1 runs both; the CLI reaches DYN003 through ``--race-log``.
3. :mod:`repro.lint.cli` — ``python -m repro.lint [options] paths...``.

The dynamic modules import the model stack, so they are *not* imported
here.
"""

from repro.lint.engine import (
    Finding,
    LintError,
    SourceFile,
    available_rules,
    lint_paths,
    lint_source,
    register_rule,
)
from repro.lint import ast_rules as _ast_rules  # noqa: F401  (registers rules)

__all__ = [
    "Finding",
    "LintError",
    "SourceFile",
    "available_rules",
    "lint_paths",
    "lint_source",
    "register_rule",
]
