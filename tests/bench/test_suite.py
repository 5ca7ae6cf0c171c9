"""The pinned suite: full scheme × layout coverage, stable ids."""

from repro.bench.suite import (
    BACKEND_SCHEMES,
    GRID_CELLS,
    LAYOUTS,
    SCHEMES,
    BenchCase,
    default_suite,
    scheme_slug,
    topology_slug,
)


class TestDefaultSuite:
    def test_covers_all_schemes_and_layouts(self):
        suite = default_suite()
        for kind in ("backend_step", "sim"):
            cells = {(c.scheme, c.tp, c.pp) for c in suite
                     if c.kind == kind and c.backend == "inproc"
                     and c.dp == c.sp == 1}
            assert cells == {(s, tp, pp) for s in SCHEMES for tp, pp in LAYOUTS}

    def test_kinds_are_the_two_deterministic_ones(self):
        assert {c.kind for c in default_suite()} == {"backend_step", "sim"}

    def test_ids_unique_and_slugged(self):
        suite = default_suite()
        ids = [c.id for c in suite]
        assert len(ids) == len(set(ids)) == len(suite)
        assert all("/w/o" not in i for i in ids)  # "w/o" slugs to "wo"

    def test_scheme_slug(self):
        assert scheme_slug("w/o") == "wo"
        assert scheme_slug("T2") == "T2"

    def test_case_params(self):
        case = BenchCase(id="x", kind="sim", scheme="Q2", tp=2, pp=2)
        assert case.params() == {"scheme": "Q2", "tp": 2, "pp": 2,
                                 "dp": 1, "sp": 1,
                                 "backend": "inproc", "schedule": "gpipe",
                                 "microbatches": 1}

    def test_backend_step_covers_both_backends(self):
        suite = default_suite()
        cells = {(c.backend, c.scheme, c.dp, c.tp, c.pp, c.sp)
                 for c in suite if c.kind == "backend_step"}
        expected = {(b, s, 1, tp, pp, 1)
                    for b, schemes in (("inproc", SCHEMES),
                                       ("mp", BACKEND_SCHEMES))
                    for s in schemes
                    for tp, pp in LAYOUTS}
        expected |= {(b, s, dp, tp, pp, sp)
                     for b in ("inproc", "mp")
                     for s in BACKEND_SCHEMES
                     for dp, tp, pp, sp in GRID_CELLS}
        assert cells == expected
        mp_cases = [c for c in suite
                    if c.kind == "backend_step" and c.backend == "mp"]
        assert len(mp_cases) >= 6  # acceptance floor for mp coverage

    def test_grid_cell_ids_are_stable(self):
        assert topology_slug(2, 1, 1, 1) == "dp2tp1pp1"
        assert topology_slug(1, 1, 2, 2) == "tp1pp2sp2"
        assert topology_slug(1, 2, 2, 1) == "tp2pp2"  # pre-grid ids intact
        ids = {c.id for c in default_suite()}
        assert "backend_step/mp/dp2tp1pp1/T2" in ids
        assert "backend_step/inproc/tp1pp2sp2/wo" in ids
