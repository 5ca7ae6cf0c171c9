"""The docs name commands that exist.

Every ``python -m repro.<pkg> <verb>`` in README, DESIGN, EXPERIMENTS,
the CI workflow, the Makefile and the verify skill must be a verb that
package's command line accepts (``repro.bench`` and ``repro.lint`` take
none); every
``--flag`` of a ``python -m repro.lint`` command in README, DESIGN, the CI
workflow, the Makefile and the verify skill must be one
``repro.lint.cli._build_parser()`` accepts, and every ``--flag`` of a
``python -m repro.obs <verb>`` command in the verb docs one that verb's
subparser accepts; every ``EXPERIMENTS "Heading"`` citation in README,
DESIGN, EXPERIMENTS, ROADMAP and the verify skill must name an
EXPERIMENTS.md heading (whitespace normalised; a heading's trailing
``(…)`` may be left off); every ``make <target>`` in
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
CITE_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", SKILL)

#: ``-m repro.<pkg>`` then a verb, or a ``{a,b}`` list of them, on the same
#: line or after a shell line continuation (a path such as ``src/`` is no verb).
VERB = re.compile(r"-m repro\.(\w+)(?:[ \t]|\\\n)+(\{[\w,-]+\}|[a-z][\w-]*)(?![\w/.])")
#: ``-m repro.lint`` and the rest of its command (line continuations
#: included, up to a closing backtick); ``--flags`` are read from that.
LINT_COMMAND = re.compile(r"-m repro\.lint((?:[^\n`\\]|\\\n)*)")
FLAG = re.compile(r"(?<![\w-])(--[a-z][\w-]*)")
#: ``-m repro.obs <verb>`` and the rest of its command, likewise, up to a
#: closing backtick or a shell pipe or list operator.
OBS_COMMAND = re.compile(r"-m repro\.obs(?:[ \t]|\\\n)+([a-z][\w-]*)(?![\w/.])"
                         r"((?:[^\n`\\|;&]|\\\n)*)")
#: ``EXPERIMENTS "Heading"`` or ``EXPERIMENTS.md "Heading"``; it may wrap.
CITATION = re.compile(r'EXPERIMENTS(?:\.md)?\s+"([^"]+)"')
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
            for flag in FLAG.findall(command)]


def obs_flags(text: str) -> list[tuple[str, str]]:
    """``(verb, --flag)`` for every flag of a ``python -m repro.obs <verb>``."""
    return [(verb, flag) for verb, rest in OBS_COMMAND.findall(text)
            for flag in FLAG.findall(rest)]


def citations(text: str) -> list[str]:
    """The headings ``EXPERIMENTS "…"`` citations name, whitespace
    normalised; the literal placeholder ``"…"`` is none."""
    return [" ".join(c.split()) for c in CITATION.findall(text) if c != "…"]


def experiments_headings() -> set[str]:
    """EXPERIMENTS.md's headings, each also without a trailing ``(…)``."""
    heads = set()
    for head in re.findall(r"^#+[ \t]+(.+?)[ \t]*$", (ROOT / "EXPERIMENTS.md").read_text(), re.M):
        head = " ".join(head.split())
        heads |= {head, re.sub(r" \([^()]*\)$", "", head)}
    return heads


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


def obs_subparsers() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def parser_verbs(package: str) -> set[str]:
    """The verbs ``python -m repro.<package>`` accepts."""
    if package == "obs":
        return set(obs_subparsers())
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


@pytest.mark.parametrize("doc", VERB_DOCS)
def test_repro_obs_flags_exist(doc):
    verbs = obs_subparsers()
    unknown = sorted({f"{verb} {flag}" for verb, flag in obs_flags((ROOT / doc).read_text())
                      if verb in verbs and flag not in {
                          opt for action in verbs[verb]._actions
                          for opt in action.option_strings}})
    assert not unknown, f"{doc} passes unknown `repro.obs` flags: {unknown}"


@pytest.mark.parametrize("doc", CITE_DOCS)
def test_experiments_citations_name_a_heading(doc):
    unknown = sorted(set(citations((ROOT / doc).read_text())) - experiments_headings())
    assert not unknown, f"{doc} cites EXPERIMENTS sections that do not exist: {unknown}"


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
    obs = ("PYTHONPATH=src python -m repro.obs top --steps 4 \\\n  --registry r | tee --x\n"
           "`python -m repro.obs diff a b --regsitry r` then --prose-flag\n"
           "python -m repro.obs runs/x.jsonl --no-verb\n")
    assert obs_flags(obs) == [("top", "--steps"), ("top", "--registry"),
                              ("diff", "--regsitry")]
    cites = ('EXPERIMENTS "Buffer pool" and EXPERIMENTS.md "Mutation audit of\n'
             '    the verification layer", not EXPERIMENTS "…" or EXPERIMENTS "Gone"\n')
    assert citations(cites) == ["Buffer pool", "Mutation audit of the verification layer",
                                "Gone"]
    assert [c in experiments_headings() for c in citations(cites)] == [True, True, False]
    names = ("`repro.obs.metrics.step_rows(events)` and `repro.tensor.pool`, "
             "not `python -m repro.obs`; `repro.obs.retired.Sidecar`\n"
             "```\nrepro.obs.Nope\n```\n")
    assert dotted_names(names) == ["repro.obs.metrics.step_rows", "repro.tensor.pool",
                                   "repro.obs.retired.Sidecar"]
    assert [resolves(n) for n in dotted_names(names)] == [True, True, False]
    assert not resolves("repro.obs.metrics.NoSuchName")
