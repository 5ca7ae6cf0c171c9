"""The source tree's structural invariants, one AST rule each.

Each rule is a function over a parsed module that returns ``(line,
message)`` for every violation, and each ``test_src_*`` runs one over
every ``src/**/*.py`` and names ``path:line: message`` on failure.  The
rules hold what no behavioural test sees: unseeded or hash-salted
randomness silently breaks reproducibility; an unvalidated config accepts
nonsense; a mutable default aliases state across calls; ``eval`` bypasses
the declared parsers; a blocking transport call without a deadline turns
a dead peer into a hang; a collective that reads the rank context grows a
second, worker-only copy of itself.  The classes below run every rule on
violating and conforming snippets, so a rule that stopped looking fails
here instead of passing ``src/`` without checking anything.

The ids (REPRO002 …) are the ones EXPERIMENTS "Mutation audit of the
verification layer" names.  Retired ids are not reused: REPRO008/009
policed a deleted issue/wait API, and REPRO001/004 (untracked
collectives, unrecorded backward closures) caught only what the tests
catch.
"""

import ast
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: REPRO011's home: the one package that may read ``rank_context()``.
BACKEND = "src/repro/parallel/backend/"


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


def _calls(tree: ast.AST):
    return (node for node in ast.walk(tree) if isinstance(node, ast.Call))


LEGACY_RNG = {
    "rand", "randn", "randint", "random", "seed", "normal", "uniform",
    "choice", "shuffle", "permutation", "standard_normal", "random_sample",
    "binomial", "poisson", "beta", "gamma", "exponential",
}


def seeded_rng(tree: ast.AST) -> list[tuple[int, str]]:
    """REPRO002: all randomness flows through explicitly seeded Generators.

    Legacy ``np.random.<fn>`` calls draw from hidden global state and
    ``np.random.default_rng()`` without a seed is fresh entropy per call —
    either one makes Random-K masks and dropout irreproducible across
    schemes, so accuracy comparisons stop being paired.
    """
    found = []
    for node in _calls(tree):
        chain = _attr_chain(node.func)
        if len(chain) != 3 or chain[0] not in ("np", "numpy") or chain[1] != "random":
            continue
        if chain[2] in LEGACY_RNG:
            found.append((node.lineno, f"legacy global-state RNG call np.random.{chain[2]}(); "
                                       "use a seeded np.random.Generator"))
        elif chain[2] == "default_rng" and not node.args and not node.keywords:
            found.append((node.lineno, "np.random.default_rng() without a seed is fresh "
                                       "entropy per call; pass an explicit seed"))
    return found


def config_validated(tree: ast.AST) -> list[tuple[int, str]]:
    """REPRO003: every ``@dataclass`` named ``*Config`` defines ``__post_init__``.

    Config dataclasses are the experiment surface; a bad field (negative
    step count, tp that does not divide the heads) should fail at
    construction, not as a wrong number three tables later.
    """
    def is_dataclass(dec: ast.expr) -> bool:
        chain = _attr_chain(dec.func if isinstance(dec, ast.Call) else dec)
        return bool(chain) and chain[-1] == "dataclass"

    return [(node.lineno, f"dataclass {node.name} has no __post_init__ validation")
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
            and any(is_dataclass(d) for d in node.decorator_list)
            and not any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                        for item in node.body)]


MUTABLE_CTORS = {"list", "dict", "set", "bytearray", "defaultdict", "Counter"}


def mutable_default(tree: ast.AST) -> list[tuple[int, str]]:
    """REPRO005: no mutable default argument values.

    A shared default list/dict aliases state across calls — in a codebase
    where per-site compressors and trackers are identity-sensitive, that
    is a silent cross-contamination channel.
    """
    def is_mutable(default: ast.expr) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                ast.DictComp, ast.SetComp)):
            return True
        return isinstance(default, ast.Call) and _call_name(default) in MUTABLE_CTORS

    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
                if is_mutable(default):
                    found.append((default.lineno, "mutable default argument in "
                                                  f"{getattr(node, 'name', '<lambda>')}()"))
    return found


def stable_seed(tree: ast.AST) -> list[tuple[int, str]]:
    """REPRO006: no seed derived from the builtin ``hash()``.

    CPython salts string hashing per process (PYTHONHASHSEED), so
    ``default_rng(seed + hash(name))`` produces a *different* stream every
    run.  Derive stable seeds with ``zlib.crc32`` or an explicit table.
    """
    found = []
    for node in _calls(tree):
        fn = _call_name(node)
        seeds = list(node.args) if fn == "default_rng" else []
        seeds += [kw.value for kw in node.keywords if kw.arg == "seed"]
        hit = next((h for seed in seeds for h in _calls(seed)
                    if isinstance(h.func, ast.Name) and h.func.id == "hash"), None)
        if hit is not None:
            found.append((hit.lineno, f"seed for {fn}() derived from builtin hash(), which "
                                      "is salted per process; use zlib.crc32 for stable seeds"))
    return found


def no_eval_exec(tree: ast.AST) -> list[tuple[int, str]]:
    """REPRO007: no ``eval``/``exec`` — config strings go through declared parsers."""
    return [(node.lineno, f"call to builtin {node.func.id}()") for node in _calls(tree)
            if isinstance(node.func, ast.Name) and node.func.id in ("eval", "exec")]


#: Always transport-owned, regardless of receiver spelling.
UNIQUE_WAITS = {"barrier_wait"}
#: Transport-owned only when the receiver names the transport.
GATED_WAITS = {"send", "recv", "exchange", "wait"}
#: Receiver-name tokens that mark a call target as the shm transport.
TRANSPORT_TOKENS = {"transport", "_transport", "channel", "channels",
                    "_channels", "chan", "barrier", "_barrier"}


def deadline_on_wait(tree: ast.AST) -> list[tuple[int, str]]:
    """REPRO010: every blocking transport call carries ``timeout=``.

    Without one, a dead peer is an infinite hang instead of a typed
    :class:`~repro.parallel.backend.base.BackendError` naming the culprit
    rank.
    """
    def transport_receiver(node: ast.expr) -> bool:
        return any((isinstance(n, ast.Name) and n.id in TRANSPORT_TOKENS)
                   or (isinstance(n, ast.Attribute) and n.attr in TRANSPORT_TOKENS)
                   for n in ast.walk(node))

    found = []
    for node in _calls(tree):
        fn = _call_name(node)
        if fn in GATED_WAITS:
            if not (isinstance(node.func, ast.Attribute) and transport_receiver(node.func.value)):
                continue
        elif fn not in UNIQUE_WAITS:
            continue
        if not any(kw.arg == "timeout" for kw in node.keywords):
            found.append((node.lineno, f"blocking transport call {fn}() without an explicit "
                                       "timeout= deadline; a dead peer would hang forever "
                                       "instead of raising a typed BackendError naming the rank"))
    return found


def rank_context_private(tree: ast.AST) -> list[tuple[int, str]]:
    """REPRO011: ``rank_context()`` is read only under ``repro/parallel/backend/``.

    Code that asks "am I inside an mp worker?" forks into an in-process
    half and an SPMD half that must then be kept in step by hand — every
    collective used to exist twice that way.  Everything above the backend
    package asks for a :class:`~repro.parallel.backend.context.Group`
    instead, which answers the same questions identically on both
    backends.  The test applies this outside :data:`BACKEND` only.
    """
    return [(node.lineno, "rank_context() read outside repro/parallel/backend/; "
                          "build a Group(axis, world) instead")
            for node in ast.walk(tree)
            if (isinstance(node, ast.Call) and _call_name(node) == "rank_context")
            or (isinstance(node, ast.ImportFrom)
                and any(alias.name == "rank_context" for alias in node.names))]


def outside_backend(modules: dict) -> dict:
    return {path: tree for path, tree in modules.items() if not path.startswith(BACKEND)}


def violations(rule, modules: dict) -> list[str]:
    """``path:line: message`` for every violation of ``rule`` in ``modules``."""
    return [f"{path}:{line}: {message}"
            for path, tree in modules.items() for line, message in rule(tree)]


def assert_clean(rule, modules: dict) -> None:
    found = violations(rule, modules)
    assert not found, "\n".join(found)


@pytest.fixture(scope="module")
def src_modules() -> dict:
    """Every ``src/**/*.py``, parsed once: repo-relative path → AST."""
    modules = {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(), str(path))
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert modules, "found no src/**/*.py"
    return modules


def test_src_rngs_are_seeded(src_modules):
    assert_clean(seeded_rng, src_modules)


def test_src_configs_validate_themselves(src_modules):
    assert_clean(config_validated, src_modules)


def test_src_has_no_mutable_defaults(src_modules):
    assert_clean(mutable_default, src_modules)


def test_src_seeds_are_stable(src_modules):
    assert_clean(stable_seed, src_modules)


def test_src_has_no_eval_or_exec(src_modules):
    assert_clean(no_eval_exec, src_modules)


def test_src_transport_waits_carry_a_deadline(src_modules):
    assert_clean(deadline_on_wait, src_modules)


def test_src_reads_rank_context_only_in_the_backend(src_modules):
    assert_clean(rank_context_private, outside_backend(src_modules))


def hits(rule, src: str) -> list[tuple[int, str]]:
    return rule(ast.parse(textwrap.dedent(src)))


class TestSeededRng:
    def test_legacy_global_rng_flagged(self):
        assert hits(seeded_rng, "import numpy as np\nx = np.random.rand(3)\n")
        assert hits(seeded_rng, "import numpy as np\nnp.random.seed(0)\n")

    def test_unseeded_default_rng_flagged(self):
        assert hits(seeded_rng, "import numpy as np\nr = np.random.default_rng()\n")

    def test_seeded_default_rng_ok(self):
        assert not hits(seeded_rng, "import numpy as np\nr = np.random.default_rng(0)\n")
        assert not hits(seeded_rng, "import numpy as np\nr = np.random.default_rng(seed=3)\n")

    def test_generator_annotation_not_flagged(self):
        src = """
        import numpy as np

        def f(rng: np.random.Generator) -> None:
            rng.normal(size=3)
        """
        assert not hits(seeded_rng, src)


class TestConfigValidated:
    def test_config_dataclass_without_post_init_flagged(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class SweepConfig:
            steps: int = 1
        """
        assert hits(config_validated, src)

    def test_post_init_satisfies(self):
        src = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class SweepConfig:
            steps: int = 1

            def __post_init__(self):
                if self.steps <= 0:
                    raise ValueError("steps")
        """
        assert not hits(config_validated, src)

    def test_non_config_and_non_dataclass_ignored(self):
        assert not hits(config_validated, "from dataclasses import dataclass\n\n"
                                          "@dataclass\nclass Event:\n    x: int = 0\n")
        assert not hits(config_validated, "class RunConfig:\n    steps = 1\n")


class TestMutableDefault:
    def test_literals_and_ctors_flagged(self):
        assert hits(mutable_default, "def f(x=[]):\n    return x\n")
        assert hits(mutable_default, "def f(x={}):\n    return x\n")
        assert hits(mutable_default, "def f(*, x=dict()):\n    return x\n")

    def test_immutable_defaults_ok(self):
        assert not hits(mutable_default, "def f(x=(), y=None, z=1, s='a'):\n    return x\n")


class TestStableSeed:
    def test_hash_in_default_rng_flagged(self):
        assert hits(stable_seed,
                    "import numpy as np\nr = np.random.default_rng(seed + hash(name) % 100)\n")

    def test_hash_in_seed_kwarg_flagged(self):
        assert hits(stable_seed, "c = build(thing, seed=hash(key))\n")

    def test_crc32_seed_ok(self):
        assert not hits(stable_seed, "import zlib\nimport numpy as np\n"
                                     "r = np.random.default_rng(zlib.crc32(name.encode()))\n")


class TestNoEvalExec:
    def test_eval_exec_flagged(self):
        assert hits(no_eval_exec, "x = eval('1+1')\n")
        assert hits(no_eval_exec, "exec('x = 1')\n")

    def test_method_named_eval_ok(self):
        assert not hits(no_eval_exec, "model.eval()\n")


class TestDeadlineOnWait:
    def test_transport_recv_without_timeout(self):
        ((_, message),) = hits(deadline_on_wait, """
            def pull(ctx, src):
                return ctx.transport.recv(src)
            """)
        assert "recv()" in message and "timeout=" in message

    def test_transport_recv_with_timeout_is_clean(self):
        assert hits(deadline_on_wait, """
            def pull(ctx, src):
                return ctx.transport.recv(src, timeout=ctx.timeout)
            """) == []

    def test_unique_names_checked_regardless_of_receiver(self):
        # barrier_wait is the transport's whatever the receiver is called;
        # exchange only when the receiver names the transport.
        found = hits(deadline_on_wait, """
            def sync(t, ctx, out):
                t.barrier_wait()
                t.exchange(out)
                return ctx.transport.exchange(out)
            """)
        assert [(line, message.split("(")[0].split()[-1])
                for line, message in found] == [(3, "barrier_wait"), (5, "exchange")]

    def test_non_transport_receiver_is_not_gated(self):
        assert hits(deadline_on_wait, """
            def push(conn, payload):
                conn.send(payload)
            """) == []

    def test_handle_wait_is_not_a_transport_wait(self):
        assert hits(deadline_on_wait, """
            def finish(handle):
                return handle.wait()
            """) == []


class TestRankContextPrivate:
    def test_read_outside_backend_flagged(self):
        src = """
        def my_collective(x):
            ctx = rank_context()
            return x if ctx is None else exchange(ctx, x)
        """
        assert hits(rank_context_private, src)
        assert hits(rank_context_private,
                    "from repro.parallel.backend.context import rank_context\n")
        assert hits(rank_context_private, "ctx = context.rank_context()\n")

    def test_backend_package_and_group_ok(self):
        tree = ast.parse("def f():\n    return rank_context()\n")
        home = {"src/repro/parallel/backend/context.py": tree}
        assert violations(rank_context_private, outside_backend(home)) == []
        away = {"src/repro/parallel/collectives.py": tree}
        assert violations(rank_context_private, outside_backend(away)) == [
            "src/repro/parallel/collectives.py:2: rank_context() read outside "
            "repro/parallel/backend/; build a Group(axis, world) instead"]
        assert not hits(rank_context_private, "ranks = Group('tp', tp).local\n")
        assert not hits(rank_context_private, "set_rank_context(None)\n")
