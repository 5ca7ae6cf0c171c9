"""The docs name commands that exist.

Every ``python -m repro.<pkg> <verb>`` in README, DESIGN, EXPERIMENTS,
the CI workflow, the Makefile and the verify skill must be a verb that
package's command line accepts (``repro.bench`` and ``repro.lint`` take
none); every
``--flag`` of a ``python -m repro.lint`` command in README, DESIGN, the CI
workflow, the Makefile and the verify skill must be one
``repro.lint.cli._build_parser()`` accepts; every ``make <target>`` in
README's, DESIGN's and the verify skill's code (backticked spans and fenced
blocks) must be a Makefile target; and every backticked span that starts
with a dotted ``repro.a.b[.Name]`` in README, DESIGN, EXPERIMENTS and the
verify skill must import and resolve.  CHANGES.md is history and is not
checked.
"""

import argparse
import importlib
import re
from pathlib import Path

import pytest

from repro.lint.cli import _build_parser as build_lint_parser
from repro.obs.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SKILL = ".claude/skills/verify/SKILL.md"
VERB_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".github/workflows/ci.yml",
             "Makefile", SKILL)
LINT_DOCS = ("README.md", "DESIGN.md", ".github/workflows/ci.yml", "Makefile", SKILL)
MAKE_DOCS = ("README.md", "DESIGN.md", SKILL)
NAME_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", SKILL)

#: ``-m repro.<pkg>`` then a verb, or a ``{a,b}`` list of them, on the same
#: line or after a shell line continuation (a path such as ``src/`` is no verb).
VERB = re.compile(r"-m repro\.(\w+)(?:[ \t]|\\\n)+(\{[\w,-]+\}|[a-z][\w-]*)(?![\w/.])")
#: ``-m repro.lint`` and the rest of its command (line continuations
#: included, up to a closing backtick); ``--flags`` are read from that.
LINT_COMMAND = re.compile(r"-m repro\.lint((?:[^\n`\\]|\\\n)*)")
LINT_FLAG = re.compile(r"(?<![\w-])(--[a-z][\w-]*)")
MAKE_TARGET = re.compile(r"(?<![\w-])make[ \t]+([a-z][\w.-]*)")
FENCED = re.compile(r"^```.*?^```", re.S | re.M)
SPAN = re.compile(r"`([^`\n]+)`")
#: The dotted ``repro`` name a backticked span starts with.
DOTTED = re.compile(r"repro(?:\.[A-Za-z_]\w*)+")


def cli_verbs(text: str) -> list[tuple[str, str]]:
    """``(package, verb)`` for every ``python -m repro.<package> <verb>``."""
    return [(match.group(1), verb) for match in VERB.finditer(text)
            for verb in match.group(2).strip("{}").split(",")]


def lint_flags(text: str) -> list[str]:
    return [flag for command in LINT_COMMAND.findall(text)
            for flag in LINT_FLAG.findall(command)]


def make_targets(text: str) -> list[str]:
    code = FENCED.findall(text)
    code += SPAN.findall(FENCED.sub("", text))
    return [t for chunk in code for t in MAKE_TARGET.findall(chunk)]


def dotted_names(text: str) -> list[str]:
    spans = SPAN.findall(FENCED.sub("", text))
    return [m.group(0) for span in spans if (m := DOTTED.match(span))]


def resolves(name: str) -> bool:
    """Whether ``name`` is a module, or an attribute path below the
    longest importable module prefix of it."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def parser_verbs(package: str) -> set[str]:
    """The verbs ``python -m repro.<package>`` accepts."""
    if package == "obs":
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return set(sub.choices)
    if package == "experiments":
        from repro.experiments.__main__ import GROUPS, TARGETS

        return {"list", *TARGETS, *GROUPS}
    return set()


def makefile_targets() -> set[str]:
    text = (ROOT / "Makefile").read_text()
    return set(re.findall(r"^([A-Za-z][\w.-]*)\s*:(?!=)", text, re.M))


@pytest.mark.parametrize("doc", VERB_DOCS)
def test_repro_cli_verbs_exist(doc):
    verbs = cli_verbs((ROOT / doc).read_text())
    assert verbs, f"{doc} names no `python -m repro.<pkg>` verb; is the pattern stale?"
    unknown = sorted({f"repro.{pkg} {verb}" for pkg, verb in verbs
                      if verb not in parser_verbs(pkg)})
    assert not unknown, f"{doc} runs unknown verbs: {unknown}"


@pytest.mark.parametrize("doc", LINT_DOCS)
def test_repro_lint_flags_exist(doc):
    known = {opt for action in build_lint_parser()._actions
             for opt in action.option_strings}
    unknown = sorted(set(lint_flags((ROOT / doc).read_text())) - known)
    assert not unknown, f"{doc} passes unknown `repro.lint` flags: {unknown}"


@pytest.mark.parametrize("doc", MAKE_DOCS)
def test_make_targets_exist(doc):
    targets = make_targets((ROOT / doc).read_text())
    unknown = sorted(set(targets) - makefile_targets())
    assert not unknown, f"{doc} runs unknown `make` targets: {unknown}"


@pytest.mark.parametrize("doc", NAME_DOCS)
def test_repro_names_resolve(doc):
    names = dotted_names((ROOT / doc).read_text())
    assert names, f"{doc} names no `repro.…` object; is the pattern stale?"
    unknown = sorted({name for name in names if not resolves(name)})
    assert not unknown, f"{doc} names `repro` objects that do not exist: {unknown}"


def test_patterns_catch_a_stale_reference():
    text = ("run `python -m repro.obs {report,explain}` or\n"
            "```\nPYTHONPATH=src python -m repro.obs \\\n  budget\nmake ab\n```\n"
            "then `make loc`; prose may make sense of it.\n")
    assert cli_verbs(text) == [("obs", "report"), ("obs", "explain"), ("obs", "budget")]
    stale = ("`python -m repro.bench run --quick` and `python -m repro.lint src/`,\n"
             "\t$(PYTHON) -m repro.experiments table2 fig2\n")
    assert cli_verbs(stale) == [("bench", "run"), ("experiments", "table2")]
    assert [verb in parser_verbs(pkg) for pkg, verb in cli_verbs(stale)] == [False, True]
    assert make_targets(text) == ["ab", "loc"]
    lint = ("PYTHONPATH=src python -m repro.lint --race-log d \\\n  --fix-report r\n"
            "`python -m repro.lint --model-check` then --prose-flag\n"
            "\t$(PYTHON) -m repro.lint --dynamic src/\n")
    assert lint_flags(lint) == ["--race-log", "--fix-report", "--model-check", "--dynamic"]
    names = ("`repro.obs.metrics.step_rows(events)` and `repro.tensor.pool`, "
             "not `python -m repro.obs`; `repro.obs.retired.Sidecar`\n"
             "```\nrepro.obs.Nope\n```\n")
    assert dotted_names(names) == ["repro.obs.metrics.step_rows", "repro.tensor.pool",
                                   "repro.obs.retired.Sidecar"]
    assert [resolves(n) for n in dotted_names(names)] == [True, True, False]
    assert not resolves("repro.obs.metrics.NoSuchName")
