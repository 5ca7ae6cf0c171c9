"""Project-specific static analysis and dynamic consistency checks.

Three layers, each usable on its own:

1. :mod:`repro.lint.engine` + :mod:`repro.lint.ast_rules` — an AST rule
   engine enforcing the reproduction's structural invariants (tracked
   collectives, seeded randomness, validated configs, recorded backward
   closures, ...).  Rules are registered in a global registry and can be
   suppressed per line with ``# lint: disable=<rule>``.
2. :mod:`repro.lint.graph_check` + :mod:`repro.lint.spmd_check` — dynamic
   checkers that run a tiny model-parallel BERT and cross-validate the
   recorded :class:`~repro.parallel.collectives.CommEvent` stream against
   an independent closed-form oracle, plus a NaN/Inf + dtype sanitizer
   installable on :class:`repro.tensor.Tensor` ops.
3. :mod:`repro.lint.cli` — ``python -m repro.lint [options] paths...``.

The dynamic modules import the full model stack, so they are *not*
imported here; the CLI loads them lazily when ``--dynamic`` is given.
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
