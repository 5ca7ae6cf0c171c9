"""Each AST rule: one violating snippet, one conforming snippet."""

import textwrap

from repro.lint import lint_source


def rules_hit(src: str, path: str = "src/module.py") -> set[str]:
    return {f.rule for f in lint_source(textwrap.dedent(src), path)}


class TestSeededRng:
    def test_legacy_global_rng_flagged(self):
        assert "REPRO002" in rules_hit("import numpy as np\nx = np.random.rand(3)\n")
        assert "REPRO002" in rules_hit("import numpy as np\nnp.random.seed(0)\n")

    def test_unseeded_default_rng_flagged(self):
        assert "REPRO002" in rules_hit("import numpy as np\nr = np.random.default_rng()\n")

    def test_seeded_default_rng_ok(self):
        assert "REPRO002" not in rules_hit("import numpy as np\nr = np.random.default_rng(0)\n")
        assert "REPRO002" not in rules_hit(
            "import numpy as np\nr = np.random.default_rng(seed=3)\n"
        )

    def test_generator_annotation_not_flagged(self):
        src = """
        import numpy as np

        def f(rng: np.random.Generator) -> None:
            rng.normal(size=3)
        """
        assert "REPRO002" not in rules_hit(src)

    def test_tests_are_exempt(self):
        bad = "import numpy as np\nx = np.random.rand(3)\n"
        assert "REPRO002" not in {
            f.rule for f in lint_source(bad, "tests/test_something.py")
        }


class TestConfigValidated:
    def test_config_dataclass_without_post_init_flagged(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class SweepConfig:
            steps: int = 1
        """
        assert "REPRO003" in rules_hit(src)

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
        assert "REPRO003" not in rules_hit(src)

    def test_non_config_and_non_dataclass_ignored(self):
        assert "REPRO003" not in rules_hit(
            "from dataclasses import dataclass\n\n@dataclass\nclass Event:\n    x: int = 0\n"
        )
        assert "REPRO003" not in rules_hit("class RunConfig:\n    steps = 1\n")


class TestMutableDefault:
    def test_literals_and_ctors_flagged(self):
        assert "REPRO005" in rules_hit("def f(x=[]):\n    return x\n")
        assert "REPRO005" in rules_hit("def f(x={}):\n    return x\n")
        assert "REPRO005" in rules_hit("def f(*, x=dict()):\n    return x\n")

    def test_immutable_defaults_ok(self):
        assert "REPRO005" not in rules_hit("def f(x=(), y=None, z=1, s='a'):\n    return x\n")


class TestStableSeed:
    def test_hash_in_default_rng_flagged(self):
        assert "REPRO006" in rules_hit(
            "import numpy as np\nr = np.random.default_rng(seed + hash(name) % 100)\n"
        )

    def test_hash_in_seed_kwarg_flagged(self):
        assert "REPRO006" in rules_hit("c = build(thing, seed=hash(key))\n")

    def test_crc32_seed_ok(self):
        assert "REPRO006" not in rules_hit(
            "import zlib\nimport numpy as np\n"
            "r = np.random.default_rng(zlib.crc32(name.encode()))\n"
        )


class TestNoEvalExec:
    def test_eval_exec_flagged(self):
        assert "REPRO007" in rules_hit("x = eval('1+1')\n")
        assert "REPRO007" in rules_hit("exec('x = 1')\n")

    def test_method_named_eval_ok(self):
        assert "REPRO007" not in rules_hit("model.eval()\n")


class TestRankContextPrivate:
    def test_read_outside_backend_flagged(self):
        src = """
        def my_collective(x):
            ctx = rank_context()
            return x if ctx is None else exchange(ctx, x)
        """
        assert "REPRO011" in rules_hit(src, "src/repro/parallel/collectives.py")
        assert "REPRO011" in rules_hit(
            "from repro.parallel.backend.context import rank_context\n",
            "src/repro/parallel/tensor_parallel.py")
        assert "REPRO011" in rules_hit("ctx = context.rank_context()\n")

    def test_backend_package_and_group_ok(self):
        src = "def f():\n    return rank_context()\n"
        assert "REPRO011" not in rules_hit(
            src, "src/repro/parallel/backend/context.py")
        assert "REPRO011" not in rules_hit(
            "ranks = Group('tp', tp).local\n", "src/repro/parallel/collectives.py")
        assert "REPRO011" not in rules_hit("set_rank_context(None)\n")


def test_repo_source_tree_is_clean():
    """The shipped src/ tree must satisfy its own linter."""
    from repro.lint import lint_paths

    assert lint_paths(["src"]) == []
