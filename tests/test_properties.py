"""Property-based tests (hypothesis) on core invariants.

Covers the compressors' message contracts (Top-K's exactly-k,
lowest-index-tie selection; error-feedback conservation), byte accounting,
autograd linearity, metric ranges, partition/policy algebra, grid validation, and
fault-plan parsing.
"""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import (
    AutoencoderCompressor,
    CompressionPolicy,
    ErrorFeedbackCompressor,
    QuantizationCompressor,
    RandomKCompressor,
    TopKCompressor,
)
from repro.compression.topk import select_topk
from repro.data.metrics import f1_binary, matthews_corrcoef, spearman_corr
from repro.parallel.backend import faults
from repro.parallel.pipeline import PipelinePartition
from repro.parallel.topology import TopologyError, validate_grid
from repro.tensor import Tensor

finite_arrays = hnp.arrays(
    dtype=np.float32,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=24),
    elements=st.floats(-100, 100, width=32),
)

fractions = st.floats(0.01, 1.0)


class TestCompressorProperties:
    @given(x=finite_arrays, fraction=fractions)
    @settings(max_examples=40, deadline=None)
    def test_topk_roundtrip_supported_on_input(self, x, fraction):
        """Reconstruction is zero or an exact copy of the input entrywise."""
        c = TopKCompressor(fraction)
        out = c.roundtrip(x)
        assert out.shape == x.shape
        mask = out != 0
        np.testing.assert_array_equal(out[mask], x[mask])

    @given(x=finite_arrays, fraction=fractions)
    @settings(max_examples=40, deadline=None)
    def test_topk_keeps_largest_mass(self, x, fraction):
        """No dropped entry exceeds a kept entry in magnitude."""
        c = TopKCompressor(fraction)
        out = c.roundtrip(x)
        kept = np.abs(x[out != 0])
        dropped = np.abs(x[out == 0])
        if kept.size and dropped.size:
            assert dropped.max() <= kept.min() + 1e-6

    @given(x=finite_arrays, fraction=fractions, seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_randomk_wire_bytes_match_analytic(self, x, fraction, seed):
        c = RandomKCompressor(fraction, seed=seed)
        msg = c.compress(x)
        assert msg.wire_bytes == c.compressed_bytes(x.shape)
        assert msg.ratio >= 1.0 / 3.0  # 6 bytes per kept vs 2 per dense

    @given(x=finite_arrays, bits=st.sampled_from([2, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_quant_error_bounded_by_group_range(self, x, bits):
        c = QuantizationCompressor(bits, group_size=64)
        out = c.roundtrip(x)
        span = float(x.max() - x.min()) if x.size else 0.0
        step = span / (2**bits - 1)
        assert np.abs(out - x).max() <= step / 2 + 1e-4

    @given(x=finite_arrays, bits=st.sampled_from([2, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_quant_wire_bytes_positive_and_exact(self, x, bits):
        c = QuantizationCompressor(bits)
        msg = c.compress(x)
        assert msg.wire_bytes == c.compressed_bytes(x.shape) > 0

    @given(
        batch=st.integers(1, 4),
        seq=st.integers(1, 8),
        hidden=st.sampled_from([8, 16, 32]),
        code=st.integers(2, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_ae_linearity(self, batch, seq, hidden, code):
        """dec(enc(x+y)) == dec(enc(x)) + dec(enc(y)) — the property that
        makes AE all-reduce compatible."""
        code = min(code, hidden - 1)
        ae = AutoencoderCompressor(hidden, code, seed=0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(batch, seq, hidden)).astype(np.float32)
        y = rng.normal(size=(batch, seq, hidden)).astype(np.float32)
        np.testing.assert_allclose(
            ae.roundtrip(x + y), ae.roundtrip(x) + ae.roundtrip(y),
            rtol=1e-3, atol=1e-4,
        )

    @given(x=finite_arrays)
    @settings(max_examples=30, deadline=None)
    def test_backward_bytes_never_exceed_dense(self, x):
        if x.size < 64:
            return  # per-message floors dominate tiny tensors
        dense = x.size * 2
        for comp in (TopKCompressor(0.1), QuantizationCompressor(4),
                     RandomKCompressor(0.1)):
            assert comp.backward_bytes(x.shape) <= dense * 1.2


#: Few distinct values, so threshold ties are the rule and not the exception.
tied_arrays = hnp.arrays(
    dtype=np.float32,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9),
    elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
)

#: Size-1, all-equal and not-a-multiple-of-anything inputs, by construction.
EDGE_INPUTS = [
    np.array([3.5], dtype=np.float32),
    np.full((3, 7), -1.25, dtype=np.float32),
    np.zeros(13, dtype=np.float32),
    np.arange(-18, 19, dtype=np.float32).reshape(37),
]


def argpartition_selection(x, k):
    """The selection every Top-K site made before ``select_topk``."""
    flat = np.abs(x).reshape(-1)
    mask = np.zeros(flat.size, dtype=bool)
    mask[np.argpartition(flat, flat.size - k)[-k:]] = True
    return mask


class TestTopKSelectionProperties:
    @given(x=st.one_of(finite_arrays, tied_arrays), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_exactly_k_kept_and_ties_go_to_the_lowest_index(self, x, data):
        k = data.draw(st.integers(1, x.size))
        mask = select_topk(x, k)
        assert mask.shape == (x.size,) and mask.sum() == k
        mag = np.abs(x).reshape(-1)
        threshold = mag[mask].min()
        assert (mag[~mask] <= threshold).all()
        assert mask[mag > threshold].all()
        tied = np.flatnonzero(mag == threshold)
        kept_ties = int(mask[tied].sum())
        assert mask[tied[:kept_ties]].all() and not mask[tied[kept_ties:]].any()

    @given(x=st.one_of(finite_arrays, tied_arrays), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_across_calls_scratch_and_memory_layouts(self, x, data):
        k = data.draw(st.integers(1, x.size))
        want = select_topk(x, k)
        scratch = np.full(x.size, np.nan, dtype=x.dtype)  # stale contents
        np.testing.assert_array_equal(select_topk(x, k, scratch), want)
        np.testing.assert_array_equal(select_topk(x, k, scratch), want)
        fortran = np.asfortranarray(x)
        strided = np.repeat(x.reshape(-1), 2)[::2].reshape(x.shape)
        np.testing.assert_array_equal(select_topk(fortran, k), want)
        np.testing.assert_array_equal(select_topk(strided, k), want)
        np.testing.assert_array_equal(x, fortran)  # the input is only read

    @given(x=finite_arrays, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_argpartition_when_the_threshold_is_not_tied(self, x, data):
        k = data.draw(st.integers(1, x.size))
        order = np.sort(np.abs(x).reshape(-1))
        if k < x.size and order[x.size - k] == order[x.size - k - 1]:
            return  # k-th and (k+1)-th magnitudes tie: argpartition may pick either
        np.testing.assert_array_equal(select_topk(x, k),
                                      argpartition_selection(x, k))

    @pytest.mark.parametrize("x", EDGE_INPUTS, ids=lambda x: str(x.shape))
    @pytest.mark.parametrize("fraction", [0.01, 0.3, 1.0])
    def test_edge_inputs(self, x, fraction):
        c = TopKCompressor(fraction)
        k = max(1, int(round(fraction * x.size)))
        msg = c.compress(x)
        idx = msg.payloads["indices"]
        assert idx.size == k and idx.dtype == np.int32
        assert (np.diff(idx) > 0).all()
        if np.unique(np.abs(x)).size == 1:  # all tied: the first k indices
            np.testing.assert_array_equal(idx, np.arange(k))
        np.testing.assert_array_equal(c.decompress(msg),
                                      c.apply(Tensor(x)).data)

    @given(x=st.one_of(finite_arrays, tied_arrays), fraction=fractions)
    @settings(max_examples=60, deadline=None)
    def test_compress_then_decompress_is_applys_forward(self, x, fraction):
        c = TopKCompressor(fraction)
        rec = c.decompress(c.compress(x))
        np.testing.assert_array_equal(rec, c.apply(Tensor(x)).data)
        np.testing.assert_array_equal(
            rec != 0, (x != 0) & select_topk(x, c._k(x.size)).reshape(x.shape))


class TestErrorFeedbackProperties:
    @given(xs=st.lists(finite_arrays, min_size=1, max_size=3),
           fraction=fractions, face=st.sampled_from(["compress", "apply"]))
    @settings(max_examples=60, deadline=None)
    def test_conservation_is_bitwise(self, xs, fraction, face):
        """``x + r_old == rec + r_new`` at every step of a chain, exactly:
        what is not sent is kept, nothing else."""
        ef = ErrorFeedbackCompressor(TopKCompressor(fraction))
        xs = [xs[0]] + [x for x in xs[1:] if x.shape == xs[0].shape] * 2
        for x in xs:
            prev = ef.residual()
            r_old = np.zeros_like(x) if prev is None else prev.copy()
            before = x.copy()
            if face == "compress":
                rec = ef.decompress(ef.compress(x))
            else:
                rec = ef.apply(Tensor(x)).data
            np.testing.assert_array_equal(x, before)
            np.testing.assert_array_equal(x + r_old, rec + ef.residual())
            assert not np.shares_memory(rec, ef.residual())

    @pytest.mark.parametrize("x", EDGE_INPUTS, ids=lambda x: str(x.shape))
    def test_conservation_on_edge_inputs(self, x):
        ef = ErrorFeedbackCompressor(TopKCompressor(0.3))
        r_old = np.zeros_like(x)
        for _ in range(3):
            rec = ef.apply(Tensor(x)).data
            np.testing.assert_array_equal(x + r_old, rec + ef.residual())
            r_old = ef.residual().copy()

    def test_a_backward_pass_still_sees_the_corrected_input(self):
        """``corrected`` is formed in the residual's buffer; an inner codec
        whose backward reads its input (the AE's weight gradient does) must
        still find it there after the residual update."""
        hidden, code = 8, 3
        ef = ErrorFeedbackCompressor(AutoencoderCompressor(hidden, code, seed=0))
        twin = AutoencoderCompressor(hidden, code, seed=0)
        rng = np.random.default_rng(0)
        x1, x2 = (rng.normal(size=(2, 5, hidden)).astype(np.float32)
                  for _ in range(2))
        ef.apply(Tensor(x1))
        corrected = x2 + ef.residual()
        ef.apply(Tensor(x2)).sum().backward()
        twin.apply(Tensor(corrected)).sum().backward()
        for got, want in zip(ef.parameters(), twin.parameters()):
            np.testing.assert_array_equal(got.grad, want.grad)


class TestAutogradProperties:
    @given(
        a=hnp.arrays(np.float32, (3, 4), elements=st.floats(-10, 10, width=32)),
        b=hnp.arrays(np.float32, (3, 4), elements=st.floats(-10, 10, width=32)),
    )
    @settings(max_examples=30, deadline=None)
    def test_sum_gradient_is_ones(self, a, b):
        x = Tensor(a, requires_grad=True)
        y = Tensor(b, requires_grad=True)
        (x + y).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(a))
        np.testing.assert_allclose(y.grad, np.ones_like(b))

    @given(
        a=hnp.arrays(np.float32, (2, 3), elements=st.floats(-5, 5, width=32)),
        k=st.floats(-3, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_backward_linear_in_upstream(self, a, k):
        """grad(k·f) == k·grad(f) for f = sum(x²)."""
        x1 = Tensor(a.copy(), requires_grad=True)
        (x1 * x1).sum().backward()
        x2 = Tensor(a.copy(), requires_grad=True)
        ((x2 * x2).sum() * float(k)).backward()
        np.testing.assert_allclose(x2.grad, np.float32(k) * x1.grad, rtol=1e-3, atol=1e-4)


class TestMetricProperties:
    labels = hnp.arrays(np.int64, st.integers(4, 60), elements=st.integers(0, 1))

    @given(
        data=st.integers(4, 60).flatmap(
            lambda n: st.tuples(
                hnp.arrays(np.int64, n, elements=st.integers(0, 1)),
                hnp.arrays(np.int64, n, elements=st.integers(0, 1)),
            )
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matthews_in_range(self, data):
        labels, preds = data
        m = matthews_corrcoef(preds, labels)
        assert -1.0 <= m <= 1.0

    @given(labels=labels)
    @settings(max_examples=30, deadline=None)
    def test_f1_perfect_prediction(self, labels):
        expected = 1.0 if (labels == 1).any() else 0.0
        assert f1_binary(labels, labels) == expected

    @given(
        x=hnp.arrays(np.int64, st.integers(3, 40),
                     elements=st.integers(-1000, 1000)).map(
            lambda a: a.astype(np.float64) * 0.1
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_spearman_invariant_to_monotone_transform(self, x):
        y = 2.0 * x + 1.0
        s = spearman_corr(x, y)
        assert abs(s - 1.0) < 1e-9 or s == 0.0  # 0 when x is constant


class TestPartitionPolicyProperties:
    @given(layers=st.integers(1, 48), pp=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_partition_covers_all_layers_once(self, layers, pp):
        if pp > layers:
            return
        p = PipelinePartition.balanced(layers, pp)
        seen = [l for stage in p.stages for l in stage]
        assert seen == list(range(layers))
        sizes = [len(s) for s in p.stages]
        assert max(sizes) - min(sizes) <= 1

    @given(layers=st.integers(1, 48), k=st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_last_k_policy_size(self, layers, k):
        p = CompressionPolicy.last_k(layers, k)
        assert p.num_compressed == min(k, layers)
        if p.layers:
            assert max(p.layers) == layers - 1

    @given(layers=st.integers(2, 48), pp=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_boundary_count_matches_pp(self, layers, pp):
        if pp > layers:
            return
        p = PipelinePartition.balanced(layers, pp)
        assert len(p.boundaries()) == pp - 1
        for b in p.boundaries():
            assert p.stage_of(b) + 1 == p.stage_of(b + 1)


def _check_grid(grid, world_size):
    """validate_grid returns the product iff it factors ``world_size``
    exactly; otherwise a TopologyError naming one of the four axes."""
    product = math.prod(grid)
    if world_size is None or product == world_size:
        assert validate_grid(*grid, world_size=world_size) == product
    else:
        with pytest.raises(TopologyError) as exc:
            validate_grid(*grid, world_size=world_size)
        assert exc.value.axis in ("dp", "tp", "pp", "sp")
        assert exc.value.axis in str(exc.value)


class TestValidateGridProperties:
    def test_every_factorization_of_worlds_up_to_16(self):
        grids = [g for g in itertools.product(range(1, 17), repeat=4)
                 if math.prod(g) <= 16]
        assert len(grids) == 204
        for grid in grids:
            for world_size in range(1, 17):
                _check_grid(grid, world_size)

    @given(grid=st.tuples(*[st.integers(1, 16)] * 4),
           world_size=st.one_of(st.none(), st.integers(1, 4096)))
    @settings(max_examples=200, deadline=None)
    def test_product_iff_exact_factorization(self, grid, world_size):
        _check_grid(grid, world_size)

    @given(grid=st.tuples(*[st.integers(1, 4)] * 4), axis=st.integers(0, 3),
           bad=st.one_of(
               st.integers(-8, 0), st.booleans(),
               st.floats(allow_nan=True, allow_infinity=True),
               st.sampled_from([np.int64(2), np.int32(1), np.uint8(4), "2", None])))
    @settings(max_examples=200, deadline=None)
    def test_extent_rule_is_positive_builtin_int(self, grid, axis, bad):
        """One rule, ``type(extent) is int and extent > 0``: ``True``, ``1.0``
        and NumPy integer scalars are rejected with the axis named."""
        extents = list(grid)
        extents[axis] = bad
        with pytest.raises(TopologyError) as exc:
            validate_grid(*extents)
        assert exc.value.axis == ("dp", "tp", "pp", "sp")[axis]


_rank = st.integers(0, 3)
_times = st.integers(1, 3)
_seconds = st.floats(0.0, 0.01)
_channel_fault = st.fixed_dictionaries(
    {"kind": st.sampled_from(["delay", "drop", "corrupt"]),
     "src": _rank, "dst": _rank},
    optional={"seq": st.integers(1, 3), "step": _rank, "times": _times,
              "seconds": _seconds,
              "field": st.sampled_from(["payload", "header"])})
_step_fault = st.fixed_dictionaries(
    {"kind": st.sampled_from(["delay", "kill"]), "rank": _rank, "step": _rank},
    optional={"times": _times, "seconds": _seconds})
#: Overrides that turn a well-formed spec into one the parser may refuse.
_damage = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["kill", "corrupt", "explode"]),
    "src": st.one_of(st.none(), st.integers(-1, 3)),
    "dst": st.none(), "rank": _rank, "step": st.none(),
    "seq": st.integers(-1, 0), "times": st.integers(-1, 0),
    "seconds": st.sampled_from([-1.0, float("nan"), float("inf")]),
    "field": st.just("checksum"), "when": st.just("now")})
_fault_specs = st.builds(
    lambda spec, damage: {**spec, **damage},
    st.one_of(_channel_fault, _step_fault), st.one_of(st.just({}), _damage))


def _fire_everything(plan, bound=4):
    """Every spec the plan hands out over ranks/steps < ``bound``, seq ≤ 3."""
    fired = []

    def drain(take, *at):
        while (spec := take(*at)) is not None:
            fired.append(spec)

    for step in range(bound):
        plan.set_step(step)
        for rank in range(bound):
            drain(plan.take_step_fault, rank, step)
        for src, dst in itertools.permutations(range(bound), 2):
            for seq in range(1, bound):
                drain(plan.take_send_fault, src, dst, seq)
                drain(plan.take_recv_fault, src, dst, seq)
    return fired


class TestFaultPlanProperties:
    @given(specs=st.lists(_fault_specs, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_an_accepted_plan_has_no_fault_that_can_never_fire(self, specs):
        """Parse either raises a ``ValueError`` naming the fault, or every
        spec fires exactly ``times`` times somewhere in the sweep — also
        when several specs overlap on one message or one (rank, step)."""
        try:
            plan = faults.FaultPlan({"faults": specs})
        except ValueError as exc:
            assert re.match(r"fault \d+: ", str(exc))
            return
        fired = _fire_everything(plan)
        for spec in plan.faults:
            assert sum(f is spec for f in fired) == spec.times, spec
        assert all(spec.remaining == 0 for spec in plan.faults)

    @pytest.mark.parametrize("spec, rule", [
        ({"kind": "kill", "rank": 1, "step": 0, "src": 0}, "not src/dst/seq"),
        ({"kind": "delay", "rank": 1, "seconds": 0.1}, "both rank and step"),
        ({"kind": "drop", "src": 0, "dst": 1, "seq": 1, "times": 0},
         "times must be an integer >= 1"),
        ({"kind": "drop", "src": 0, "dst": 1, "seq": 0},
         "seq must be an integer >= 1"),
        ({"kind": "corrupt", "dst": 1}, "both src and dst"),
        ({"kind": "delay", "rank": 1, "step": 0, "seconds": -1}, "seconds"),
        ({"kind": "delay", "rank": 1, "step": 0, "secs": 1}, "'secs'"),
        ({"kind": "delay", "rank": 1, "step": 0, "src": 0, "dst": 1},
         "not rank"),
    ])
    def test_each_dead_rule_is_rejected_by_index_and_rule(self, spec, rule):
        healthy = {"kind": "delay", "rank": 0, "step": 0}
        with pytest.raises(ValueError, match=r"fault 1: .*" + re.escape(rule)):
            faults.FaultPlan({"faults": [healthy, spec]})

    def test_builtin_plans_parse_and_fire_completely(self):
        for name in faults.BUILTIN_PLANS:
            plan = faults.parse_plan(name)
            assert len(_fire_everything(plan)) == sum(
                spec.times for spec in plan.faults)

    def test_two_step_faults_on_one_rank_and_step_fire_in_list_order(self):
        plan = faults.FaultPlan({"faults": [
            {"kind": "delay", "rank": 1, "step": 0, "seconds": 0.0},
            {"kind": "kill", "rank": 1, "step": 0}]})
        assert [plan.take_step_fault(1, 0).kind for _ in range(2)] == [
            "delay", "kill"]
        assert plan.take_step_fault(1, 0) is None
