"""Project-specific AST rules.

Each rule encodes an invariant the test suite cannot see directly:
unseeded (or hash-salted) randomness silently breaks reproducibility; an
unvalidated config accepts nonsense; a blocking transport call without a
deadline turns a dead peer into a hang; a collective that reads the rank
context grows a second, worker-only copy of itself.  Rules REPRO002,
REPRO003, REPRO005–REPRO007, REPRO010 and REPRO011 are registered on
import.  Retired ids are not reused: REPRO008/009 policed a deleted
issue/wait API, and REPRO001/004 (untracked collectives, unrecorded
backward closures) caught only what the tests catch.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.engine import Finding, SourceFile, register_rule

__all__ = [
    "SeededRngRule",
    "ConfigValidationRule",
    "MutableDefaultRule",
    "UnstableHashSeedRule",
    "NoEvalExecRule",
    "DeadlineOnWaitRule",
    "RankContextPrivateRule",
]


def _call_name(node: ast.Call) -> str:
    """Terminal name of a call target: ``foo(...)`` and ``a.b.foo(...)`` → ``foo``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _attr_chain(node: ast.expr) -> list[str]:
    """``np.random.rand`` → ["np", "random", "rand"]; [] when not a pure chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


@register_rule
class SeededRngRule:
    """All randomness must flow through explicitly seeded Generators.

    Legacy ``np.random.<fn>`` calls draw from hidden global state and
    ``np.random.default_rng()`` without a seed is fresh entropy per call —
    either one makes Random-K masks and dropout irreproducible across
    schemes, so accuracy comparisons stop being paired.  Test files are
    exempt (they may legitimately exercise unseeded paths).
    """

    id = "REPRO002"
    name = "seeded-rng"
    summary = "no legacy np.random.* calls; np.random.default_rng() must be seeded"

    LEGACY = {
        "rand", "randn", "randint", "random", "seed", "normal", "uniform",
        "choice", "shuffle", "permutation", "standard_normal", "random_sample",
        "binomial", "poisson", "beta", "gamma", "exponential",
    }

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if source.is_test:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if len(chain) != 3 or chain[0] not in ("np", "numpy") or chain[1] != "random":
                continue
            if chain[2] in self.LEGACY:
                yield Finding(self.id, self.name,
                              f"legacy global-state RNG call np.random.{chain[2]}(); "
                              "use a seeded np.random.Generator",
                              source.path, node.lineno, node.col_offset)
            elif chain[2] == "default_rng" and not node.args and not node.keywords:
                yield Finding(self.id, self.name,
                              "np.random.default_rng() without a seed is fresh entropy "
                              "per call; pass an explicit seed",
                              source.path, node.lineno, node.col_offset)


@register_rule
class ConfigValidationRule:
    """Every ``@dataclass`` whose name ends in ``Config`` must validate itself.

    Config dataclasses are the experiment surface; a bad field (negative
    step count, tp that does not divide the heads) should fail at
    construction, not as a wrong number three tables later.
    """

    id = "REPRO003"
    name = "config-validated"
    summary = "@dataclass *Config classes must define __post_init__ validation"

    @staticmethod
    def _is_dataclass_decorator(dec: ast.expr) -> bool:
        target = dec.func if isinstance(dec, ast.Call) else dec
        chain = _attr_chain(target)
        return bool(chain) and chain[-1] == "dataclass"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef) or not node.name.endswith("Config"):
                continue
            if not any(self._is_dataclass_decorator(d) for d in node.decorator_list):
                continue
            has_post_init = any(
                isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                for item in node.body
            )
            if not has_post_init:
                yield Finding(self.id, self.name,
                              f"dataclass {node.name} has no __post_init__ validation",
                              source.path, node.lineno, node.col_offset)


@register_rule
class MutableDefaultRule:
    """No mutable default argument values.

    A shared default list/dict aliases state across calls — in a codebase
    where per-site compressors and trackers are identity-sensitive, that
    is a silent cross-contamination channel.
    """

    id = "REPRO005"
    name = "mutable-default"
    summary = "no mutable default arguments (list/dict/set literals or constructors)"

    MUTABLE_CTORS = {"list", "dict", "set", "bytearray", "defaultdict", "Counter"}

    def _is_mutable(self, default: ast.expr) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                ast.DictComp, ast.SetComp)):
            return True
        return isinstance(default, ast.Call) and _call_name(default) in self.MUTABLE_CTORS

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [d for d in node.args.kw_defaults if d]
            for default in defaults:
                if self._is_mutable(default):
                    fn = getattr(node, "name", "<lambda>")
                    yield Finding(self.id, self.name,
                                  f"mutable default argument in {fn}()",
                                  source.path, default.lineno, default.col_offset)


@register_rule
class UnstableHashSeedRule:
    """Seeds must not be derived from the builtin ``hash()``.

    CPython salts string hashing per process (PYTHONHASHSEED), so
    ``default_rng(seed + hash(name))`` produces a *different* stream every
    run — reproducibility silently evaporates outside single-process test
    runs.  Derive stable seeds with ``zlib.crc32`` or an explicit table.
    """

    id = "REPRO006"
    name = "stable-seed"
    summary = "RNG seeds must not use the process-salted builtin hash()"

    @staticmethod
    def _contains_builtin_hash(nodes: Iterable[ast.expr]) -> ast.Call | None:
        for root in nodes:
            for node in ast.walk(root):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "hash"):
                    return node
        return None

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = _call_name(node)
            seed_exprs: list[ast.expr] = []
            if fn == "default_rng":
                seed_exprs.extend(node.args)
            seed_exprs.extend(kw.value for kw in node.keywords if kw.arg == "seed")
            hit = self._contains_builtin_hash(seed_exprs)
            if hit is not None:
                yield Finding(self.id, self.name,
                              f"seed for {fn}() derived from builtin hash(), which is "
                              "salted per process; use zlib.crc32 for stable seeds",
                              source.path, hit.lineno, hit.col_offset)


@register_rule
class NoEvalExecRule:
    """No ``eval``/``exec`` — config strings must go through declared parsers."""

    id = "REPRO007"
    name = "no-eval-exec"
    summary = "builtin eval()/exec() are banned"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("eval", "exec")):
                yield Finding(self.id, self.name,
                              f"call to builtin {node.func.id}()",
                              source.path, node.lineno, node.col_offset)


@register_rule
class DeadlineOnWaitRule:
    """Every blocking transport call must carry an explicit deadline.

    Without one, a dead peer is an infinite hang instead of a typed
    :class:`~repro.parallel.backend.base.BackendError` naming the culprit
    rank.  Test files are exempt (they exercise shutdown paths).
    """

    id = "REPRO010"
    name = "deadline-on-wait"
    summary = "blocking transport calls must pass an explicit timeout="

    #: Always transport-owned, regardless of receiver spelling.
    UNIQUE = {"barrier_wait"}
    #: Transport-owned only when the receiver names the transport.
    GATED = {"send", "recv", "exchange", "wait"}
    #: Receiver-name tokens that mark a call target as the shm transport.
    TRANSPORT_TOKENS = {"transport", "_transport", "channel", "channels",
                        "_channels", "chan", "barrier", "_barrier"}

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if source.is_test:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = _call_name(node)
            if fn in self.GATED:
                if not (isinstance(node.func, ast.Attribute)
                        and self._transport_receiver(node.func.value)):
                    continue
            elif fn not in self.UNIQUE:
                continue
            if any(kw.arg == "timeout" for kw in node.keywords):
                continue
            yield Finding(
                self.id, self.name,
                f"blocking transport call {fn}() without an explicit "
                "timeout= deadline; a dead peer would hang forever instead "
                "of raising a typed BackendError naming the rank",
                source.path, node.lineno, node.col_offset)

    def _transport_receiver(self, node: ast.expr) -> bool:
        """Whether the receiver expression names the shm transport."""
        return any(
            (isinstance(n, ast.Name) and n.id in self.TRANSPORT_TOKENS)
            or (isinstance(n, ast.Attribute) and n.attr in self.TRANSPORT_TOKENS)
            for n in ast.walk(node))


@register_rule
class RankContextPrivateRule:
    """``rank_context()`` may be read only under ``repro/parallel/backend/``.

    Code that asks "am I inside an mp worker?" forks into an in-process
    half and an SPMD half that must then be kept in step by hand — every
    collective used to exist twice that way.  Everything above the backend
    package asks for a :class:`~repro.parallel.backend.context.Group`
    instead, which answers the same questions (which ranks are local, who
    records, how to reach the peers) identically on both backends.  Test
    files are exempt.
    """

    id = "REPRO011"
    name = "rank-context-private"
    summary = "rank_context() may be read only under repro/parallel/backend/"

    HOME = "repro/parallel/backend/"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if source.is_test or self.HOME in Path(source.path).as_posix():
            return
        for node in ast.walk(source.tree):
            called = isinstance(node, ast.Call) and _call_name(node) == "rank_context"
            imported = isinstance(node, ast.ImportFrom) and any(
                alias.name == "rank_context" for alias in node.names)
            if called or imported:
                yield Finding(self.id, self.name,
                              "rank_context() read outside repro/parallel/backend/; "
                              "build a Group(axis, world) instead",
                              source.path, node.lineno, node.col_offset)
