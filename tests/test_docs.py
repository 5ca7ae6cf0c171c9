"""The docs name commands that exist.

Every ``python -m repro.obs <verb>`` in README, DESIGN and the CI
workflow must be a verb ``repro.obs.cli.build_parser()`` accepts, and
every ``make <target>`` in README's and DESIGN's code (backticked spans
and fenced blocks) must be a Makefile target.  CHANGES.md is history and
is not checked.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.obs.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
OBS_DOCS = ("README.md", "DESIGN.md", ".github/workflows/ci.yml")
MAKE_DOCS = ("README.md", "DESIGN.md")

#: ``python -m repro.obs`` then a verb, or a ``{a,b}`` list of them, on the
#: same line or after a shell line continuation.
OBS_VERB = re.compile(r"python3? -m repro\.obs(?:[ \t]|\\\n)+(\{[\w,-]+\}|[a-z][\w-]*)")
MAKE_TARGET = re.compile(r"(?<![\w-])make[ \t]+([a-z][\w.-]*)")
FENCED = re.compile(r"^```.*?^```", re.S | re.M)
SPAN = re.compile(r"`([^`\n]+)`")


def obs_verbs(text: str) -> list[str]:
    verbs = []
    for match in OBS_VERB.finditer(text):
        verbs += match.group(1).strip("{}").split(",")
    return verbs


def make_targets(text: str) -> list[str]:
    code = FENCED.findall(text)
    code += SPAN.findall(FENCED.sub("", text))
    return [t for chunk in code for t in MAKE_TARGET.findall(chunk)]


def parser_verbs() -> set[str]:
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return set(sub.choices)


def makefile_targets() -> set[str]:
    text = (ROOT / "Makefile").read_text()
    return set(re.findall(r"^([A-Za-z][\w.-]*)\s*:(?!=)", text, re.M))


@pytest.mark.parametrize("doc", OBS_DOCS)
def test_repro_obs_verbs_exist(doc):
    verbs = obs_verbs((ROOT / doc).read_text())
    assert verbs, f"{doc} names no repro.obs verb; is the pattern stale?"
    unknown = sorted(set(verbs) - parser_verbs())
    assert not unknown, f"{doc} runs unknown `repro.obs` verbs: {unknown}"


@pytest.mark.parametrize("doc", MAKE_DOCS)
def test_make_targets_exist(doc):
    targets = make_targets((ROOT / doc).read_text())
    unknown = sorted(set(targets) - makefile_targets())
    assert not unknown, f"{doc} runs unknown `make` targets: {unknown}"


def test_patterns_catch_a_stale_reference():
    text = ("run `python -m repro.obs {report,explain}` or\n"
            "```\nPYTHONPATH=src python -m repro.obs \\\n  budget\nmake ab\n```\n"
            "then `make loc`; prose may make sense of it.\n")
    assert obs_verbs(text) == ["report", "explain", "budget"]
    assert make_targets(text) == ["ab", "loc"]
