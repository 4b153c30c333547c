import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    assert_bitwise,
    nested_where_entropy,
    per_head_depth_profile,
    per_head_trace_gate_values,
    triu_mad,
)
from siggate.attention import GateConfig, HeadTraces
from siggate.diagnostics import (
    attention_entropy,
    depth_profile,
    gate_stats,
    mad,
    rank_bound_holds,
    stable_rank,
    trace_gate_values,
    write_diagnostics_csv,
    write_diagnostics_json,
)
from siggate.gps import GraphBatch, GraphInstance, batch_forward, init_model, model_forward
from siggate.numeric import NonFiniteInputError, SeededRng, gaussian_matrix, row_softmax
from siggate.synthexp import make_toy_task


class TestStableRank:
    def test_rank_one_outer_product(self):
        rng = SeededRng(1)
        u = rng.standard_normal((6, 1))
        v = rng.standard_normal((1, 4))
        assert stable_rank(u @ v) == pytest.approx(1.0, abs=1e-10)

    def test_identity_is_full(self):
        assert stable_rank(np.eye(5)) == pytest.approx(5.0, abs=1e-10)

    def test_diagonal_case_by_hand(self):
        # (4 + 1 + 1) / 4 from the singular values {2, 1, 1}
        assert stable_rank(np.diag([2.0, 1.0, 1.0])) == pytest.approx(1.5, abs=1e-10)

    def test_scaling_invariance(self):
        rng = SeededRng(2)
        m = gaussian_matrix(rng, 7, 5, 1.0)
        base = stable_rank(m)
        for c in (1e-3, -2.0, 37.0):
            assert stable_rank(c * m) == pytest.approx(base, abs=1e-10)

    def test_range_bounds(self):
        rng = SeededRng(3)
        for _ in range(25):
            m = gaussian_matrix(rng, 9, 6, 1.0)
            sr = stable_rank(m)
            assert 1.0 - 1e-12 <= sr <= 6.0 + 1e-12

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            stable_rank(np.zeros((3, 3)))

    def test_matrix_whose_squares_overflow(self):
        # ||M||_F^2 and sigma^2 overflow; the matrix is divided by sigma first
        big = np.full((3, 3), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stable_rank(big) == pytest.approx(1.0, rel=1e-15)
            assert stable_rank(np.diag([1e154, 1e154])) == pytest.approx(2.0, rel=1e-15)
            ordinary = gaussian_matrix(SeededRng(5), 3, 3, 1.0)
            got = stable_rank(np.stack([big, ordinary]))
        assert got[0] == stable_rank(big)
        assert_bitwise(got[1], np.float64(stable_rank(ordinary)))

    @pytest.mark.parametrize("layout", ["C", "transposed", "F", "sliced", "broadcast"])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 1, 7), (4, 64, 32), (5, 33, 65),
                                       (17, 9, 6)])
    def test_each_layout_of_a_stack_gives_the_lone_values(self, layout, shape):
        base = gaussian_matrix(SeededRng(4), shape[0] * shape[1], shape[2], 1.0)
        base = base.reshape(shape) * np.geomspace(1e-3, 1e3, shape[2])
        stack = {
            "C": base,
            "transposed": np.ascontiguousarray(base.transpose(0, 2, 1)).transpose(0, 2, 1),
            "F": np.asfortranarray(base),
            "sliced": np.concatenate([base, base], axis=2)[:, :, ::2],
            "broadcast": np.broadcast_to(base[:1], shape),
        }[layout]
        got = stable_rank(stack)
        assert got.shape == (shape[0],)
        assert_bitwise(got, np.array([stable_rank(m) for m in stack]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected_before_iterating(self, bad):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError, match=rf"entry \(1, 2\) is {bad}"):
            stable_rank(m)
        with pytest.raises(ValueError, match=rf"entry \(1, 2\) is {bad}"):
            rank_bound_holds(np.full((3, 3), 1.0 / 3.0), m)


class TestStackedStableRank:
    """A stack of matrices in one call against one call per matrix, bit for bit."""

    @pytest.mark.parametrize("shape", [(64, 32), (32, 64), (5, 5), (1, 7)])
    def test_bitwise_equals_lone_calls(self, shape):
        stack = SeededRng(4).standard_normal((13,) + shape)
        stack[::4] *= np.linspace(3.0, 0.1, shape[-1])  # spread some spectra
        for s in (stack, stack.transpose(0, 2, 1), np.asfortranarray(stack)):
            got = stable_rank(s)
            assert got.shape == (len(s),)
            for i, m in enumerate(s):
                assert_bitwise(got[i], np.float64(stable_rank(m)))

    def test_empty_stack_gives_no_values(self):
        got = stable_rank(np.zeros((0, 4, 4)))
        assert got.shape == (0,) and got.dtype == np.float64

    def test_bad_matrix_named(self):
        stack = np.ones((3, 2, 2))
        stack[1] = 0.0
        with pytest.raises(ValueError, match="matrix 1 is the zero matrix$"):
            stable_rank(stack)
        stack[1, 1, 0] = np.inf
        with pytest.raises(NonFiniteInputError, match=r"matrix 1: entry \(1, 0\) is inf$"):
            stable_rank(stack)
        with pytest.raises(ValueError, match="2-D or a 3-D stack"):
            stable_rank(np.ones(4))


class TestMad:
    def test_identical_rows(self):
        h = np.tile([1.0, 2.0, 3.0], (4, 1))
        assert mad(h) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair(self):
        assert mad(np.array([[1.0, 0.0], [0.0, 2.0]])) == pytest.approx(1.0, abs=1e-12)

    def test_sixty_degree_pair(self):
        h = np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        assert mad(h) == pytest.approx(0.5, abs=1e-12)

    def test_row_rescaling_invariance(self):
        rng = SeededRng(4)
        h = gaussian_matrix(rng, 5, 3, 1.0)
        scales = np.abs(rng.standard_normal((5, 1))) + 0.1
        assert mad(h * scales) == pytest.approx(mad(h), abs=1e-10)

    def test_zero_rows_excluded(self):
        h = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        assert mad(h) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="fewer than 2 nonzero rows"):
            mad(np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        h = np.eye(4)
        h[2, 1] = bad
        with pytest.raises(NonFiniteInputError, match="^mad undefined: row 2"):
            mad(h)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            mad(np.ones((1, 3)))

    @pytest.mark.parametrize("h, want", [
        ([[1e200, 1e200], [2e200, 2e200]], 0.0),
        ([[1e200, 0.0], [0.0, 3e300], [1.0, 0.0]], 2.0 / 3.0),
        ([[-1e308, 1e308], [1.0, 1.0], [1e160, -1e160]], 4.0 / 3.0),
    ])
    def test_finite_rows_whose_norm_overflows(self, h, want):
        # cosine distance does not depend on scale; no RuntimeWarning either
        h = np.array(h)
        before = h.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mad(h)
        assert got == pytest.approx(want, abs=1e-12)
        assert_bitwise(h, before)  # the caller's array is untouched

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_beside_an_overflowing_row_rejected(self, bad):
        h = np.array([[1e200, 1e200], [1.0, 2.0], [bad, 1.0]])
        with pytest.raises(NonFiniteInputError, match="^mad undefined: row 2"):
            mad(h)

    def test_ordinary_rows_bitwise_unchanged(self):
        # the rescaling path runs only for rows whose norm overflows
        h = gaussian_matrix(SeededRng(8), 12, 5, 3.0)
        assert mad(h) == triu_mad(h)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), d=st.integers(1, 6), zeros=st.integers(0, 38),
           seed=st.integers(0, 2**31))
    @example(n=2, d=3, zeros=0, seed=0)
    @example(n=7, d=2, zeros=5, seed=1)
    @example(n=128, d=16, zeros=3, seed=2)
    def test_upper_triangle_bitwise_equals_the_triu_indices_oracle(self, n, d, zeros, seed):
        # The mask takes the pairs i < j in the row-major order of
        # ``np.triu_indices``, so the mean sums the same terms in the same order.
        rng = SeededRng(seed)
        h = gaussian_matrix(rng, n, d, 3.0)
        h[np.argsort(rng.uniform((n,)))[:min(zeros, n - 2)]] = 0.0  # rows mad drops
        got, want = mad(h), triu_mad(h)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestAttentionEntropy:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_uniform_attains_log_n(self, n):
        assert attention_entropy(np.full((n, n), 1.0 / n)) == pytest.approx(
            np.log(n), abs=1e-12
        )

    def test_one_hot_rows_are_zero(self):
        assert attention_entropy(np.eye(6)) == 0.0

    def test_half_half_rows(self):
        a = np.full((2, 2), 0.5)
        assert attention_entropy(a) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_row_sum_validation(self):
        with pytest.raises(ValueError, match="invalid attention"):
            attention_entropy(np.full((2, 2), 0.6))

    def test_negative_entries_rejected(self):
        a = np.array([[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="invalid attention"):
            attention_entropy(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # The masked log alone would skip the NaN (NaN > 0 is False).
        a = np.full((3, 3), 1.0 / 3.0)
        a[1, 2] = bad
        with pytest.raises(NonFiniteInputError, match="^attention_entropy undefined: row 1"):
            attention_entropy(a)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), masked=st.booleans(), seed=st.integers(0, 2**31))
    @example(n=131, masked=True, seed=0)
    @example(n=128, masked=False, seed=1)
    def test_bitwise_equals_nested_where_formula(self, n, masked, seed):
        rng = SeededRng(seed)
        mask = None
        if masked:  # masked entries come out of the softmax as exact zeros
            mask = rng.uniform((n, n)) < 0.5
            np.fill_diagonal(mask, True)
        a = row_softmax(gaussian_matrix(rng, n, n, 3.0), mask)
        assert (a == 0.0).any() == (masked and not mask.all())
        got, want = attention_entropy(a), nested_where_entropy(a)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("entry, branch", [
        (0.25, "plain log"), (0.0, "masked log"), (-0.0, "masked log"),
        (-1e-300, "rejected"), (-0.25, "rejected"),
    ])
    def test_smallest_entry_picks_the_branch(self, entry, branch):
        # Row 1 holds `entry` and still sums to 1; the other rows are positive.
        a = row_softmax(gaussian_matrix(SeededRng(3), 5, 5, 2.0))
        a[1] = [entry, 0.5 - entry, 0.25, 0.125, 0.125]
        if branch == "rejected":
            with pytest.raises(ValueError, match="^invalid attention matrix: rows must be"):
                attention_entropy(a)
            return
        # a plain log over a (signed) zero would make the entropy NaN
        got, want = attention_entropy(a), nested_where_entropy(a)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_upper_bound_with_equality_only_at_uniform(self):
        rng = SeededRng(5)
        for n in range(2, 9):
            a = row_softmax(gaussian_matrix(rng, n, n, 1.0))
            h = attention_entropy(a)
            assert h <= np.log(n) + 1e-12
            if not np.allclose(a, 1.0 / n):
                assert h < np.log(n)


class TestGateStats:
    def test_constant_half(self):
        gs = gate_stats([np.full((3, 4), 0.5)], "pooled")
        assert (gs.mean, gs.std, gs.frac_below, gs.frac_above) == (0.5, 0.0, 0.0, 0.0)
        assert gs.count == 12

    def test_threshold_straddle(self):
        gs = gate_stats([np.array([0.05, 0.95])], "pooled")
        assert gs.frac_below == 0.5
        assert gs.frac_above == 0.5

    def test_strict_thresholds(self):
        gs = gate_stats([np.array([0.1, 0.9])], "pooled")
        assert gs.frac_below == 0.0
        assert gs.frac_above == 0.0

    def test_pooled_mean_is_equal_weight_mean_for_equal_counts(self):
        rng = SeededRng(6)
        layers = [rng.uniform((4, 5)) for _ in range(2)]
        pooled = gate_stats(layers, "pooled")
        per_layer = gate_stats(layers, "per_layer")
        assert pooled.mean == pytest.approx(
            np.mean([g.mean for g in per_layer]), abs=1e-12
        )

    def test_pooled_count_is_sum_of_layers(self):
        layers = [np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(7)]
        pooled = gate_stats(layers, "pooled")
        per_layer = gate_stats(layers, "per_layer")
        assert pooled.count == sum(g.count for g in per_layer)

    @pytest.mark.parametrize("pooling", ["pooled", "per_layer"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gate_rejected(self, pooling, bad):
        layers = [np.full((2, 3), 0.5), np.array([0.2, bad, 0.7])]
        with pytest.raises(NonFiniteInputError, match="^gate_stats undefined"):
            gate_stats(layers, pooling)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gate_stats([], "pooled")
        with pytest.raises(ValueError, match="no gate values"):
            gate_stats([np.ones(3), np.zeros((2, 0))], "per_layer")
        with pytest.raises(ValueError):
            gate_stats([np.ones(3)], "median")


class TestRankBound:
    def test_identity_attention_is_tight(self):
        rng = SeededRng(7)
        v = gaussian_matrix(rng, 6, 4, 1.0)
        report = rank_bound_holds(np.eye(6), v)
        assert report.holds
        assert report.srank_av == pytest.approx(report.srank_v, rel=1e-9)

    def test_uniform_attention_collapses_to_rank_one(self):
        rng = SeededRng(8)
        v = gaussian_matrix(rng, 6, 4, 1.0)
        report = rank_bound_holds(np.full((6, 6), 1.0 / 6.0), v)
        assert report.holds
        assert report.srank_av == pytest.approx(1.0, abs=1e-9)

    def test_reports_agree_with_svd_oracle(self):
        rng = SeededRng(9)
        for _ in range(50):
            a = row_softmax(gaussian_matrix(rng, 16, 16, 1.0))
            v = gaussian_matrix(rng, 16, 8, 1.0)
            report = rank_bound_holds(a, v)
            for got, mat in ((report.srank_a, a), (report.srank_v, v),
                             (report.srank_av, a @ v)):
                s = np.linalg.svd(mat, compute_uv=False)
                assert got == pytest.approx(np.sum(s**2) / s[0] ** 2, rel=1e-9)
            assert report.holds == (
                report.srank_av <= min(report.srank_a, report.srank_v) + 1e-9
            )

    def test_detects_violations_honestly(self):
        # Row-stochastic averaging can cancel V's dominant direction and
        # flatten the spectrum, so the product bound genuinely fails for
        # stable rank (unlike exact rank). This frozen draw is one such
        # instance; the checker must say so rather than clamp it.
        rng = SeededRng(9)
        found_violation = False
        for _ in range(100):
            a = row_softmax(2.0 * gaussian_matrix(rng, 16, 16, 1.0))
            v = gaussian_matrix(rng, 16, 8, 1.0)
            report = rank_bound_holds(a, v)
            if not report.holds:
                found_violation = True
                assert report.srank_av > min(report.srank_a, report.srank_v) + 1e-9
        assert found_violation

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            rank_bound_holds(np.ones((3, 3)), np.ones((3, 2)))


def forward_trace(n_layers=3, seed=10, placement="g1"):
    gate = (GateConfig(placement=placement) if placement != "none"
            else GateConfig(placement="none"))
    model = init_model(SeededRng(seed), d_in=4, d=16, n_heads=4,
                       n_layers=n_layers, gate=gate)
    task = make_toy_task(seed=seed, n_graphs=2, nodes_per_graph=7)
    _, trace = model_forward(task.train[0][0], model)
    return trace


class TestDepthProfile:
    def test_single_layer_profile(self):
        profile = depth_profile(forward_trace(n_layers=1))
        assert len(profile.mad) == 1
        assert len(profile.entropy) == 1

    def test_duplicate_hidden_gives_constant_mad(self):
        trace = forward_trace(n_layers=3)
        trace.hidden = [trace.hidden[0]] * 3
        profile = depth_profile(trace)
        assert profile.mad[0] == profile.mad[1] == profile.mad[2]

    def test_matches_manual_composition(self):
        trace = forward_trace(n_layers=3)
        profile = depth_profile(trace)
        for i in range(3):
            assert profile.mad[i] == mad(trace.hidden[i])
            manual = np.mean([attention_entropy(ht.attention)
                              for ht in trace.head_traces[i]])
            assert profile.entropy[i] == pytest.approx(manual, abs=1e-15)

    def test_gate_values_absent_for_ungated(self):
        assert trace_gate_values(forward_trace(placement="none")) == []


def three_graphs(seed=30, n=7):
    """A masked graph, an open one and another masked one, of n nodes each."""
    rng = SeededRng(seed)
    ring = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 3) % n) for i in range(n)]
    graphs = []
    for masked in (True, False, True):
        mask = None
        if masked:
            mask = rng.uniform((n, n)) < 0.6
            np.fill_diagonal(mask, True)
        graphs.append(GraphInstance(n=n, node_features=rng.standard_normal((n, 4)),
                                    edges=ring, attn_mask=mask))
    return graphs


def loud_head_model(placement, sharing):
    """Two layers of 4 heads whose head 0 has a 1000x query, so its softmax
    underflows to exact zeros where the other heads' rows have none."""
    model = init_model(SeededRng(31), d_in=4, d=16, n_heads=4, n_layers=2,
                       gate=GateConfig(placement=placement, sharing=sharing))
    for layer in model.layers:
        layer.attn.w_q[0] *= 1e3
    return model


def assert_same_instruments(trace):
    got, want = depth_profile(trace), per_head_depth_profile(trace)
    assert [x.hex() for x in got.mad + got.entropy] == [x.hex() for x in want.mad + want.entropy]
    gates, want_gates = trace_gate_values(trace), per_head_trace_gate_values(trace)
    assert len(gates) == len(want_gates)
    for g, w in zip(gates, want_gates):
        assert_bitwise(g, w)


class TestStackedInstruments:
    """``depth_profile`` and ``trace_gate_values`` read each layer's head
    stacks, and give bitwise what reading head by head gives."""

    @pytest.mark.parametrize("sharing", ["per_head", "shared"])
    @pytest.mark.parametrize("placement", ["none", "g1", "g2", "g3"])
    def test_stacks_equal_the_per_head_reads(self, placement, sharing):
        model, graphs = loud_head_model(placement, sharing), three_graphs()
        lone = [model_forward(g, model)[1] for g in graphs]
        split = batch_forward(GraphBatch.of(graphs), model)[1].split(3)
        for trace in lone + split:
            assert_same_instruments(trace)
        # the split traces' stacks are strided views of the batch's, and the open
        # graph's heads take both entropy branches: head 0 has exact zeros, head 1 none
        assert not split[1].head_traces[0].attention.flags.c_contiguous
        for trace in (lone[1], split[1]):
            stack = trace.head_traces[1].attention
            assert (stack[0] == 0.0).any() and (stack[1] > 0.0).all()
        assert all((t.head_traces[0].attention == 0.0).all(axis=0).any() for t in lone[::2])

    @pytest.mark.parametrize("fault, kind", [
        ("nan", NonFiniteInputError), ("inf", NonFiniteInputError),
        ("negative", ValueError), ("row sum", ValueError),
    ])
    def test_a_bad_head_raises_what_its_lone_read_raised(self, fault, kind):
        trace = forward_trace(n_layers=2)
        heads = trace.head_traces[1]
        a = heads.attention.copy()
        if fault == "negative":  # row 3 still sums to 1
            a[2, 3, :2] = [-0.25, a[2, 3, 0] + a[2, 3, 1] + 0.25]
        elif fault == "row sum":
            a[2, 3] *= 2.0
        else:
            a[2, 3, 0] = np.nan if fault == "nan" else np.inf
        a[3, 0, 0] = np.nan  # a later head's fault is not the one named
        trace.head_traces[1] = HeadTraces(a, heads.gate, heads.output)
        with pytest.raises(ValueError) as want:
            per_head_depth_profile(trace)
        with pytest.raises(kind) as got:
            depth_profile(trace)
        assert type(got.value) is type(want.value) is kind
        assert str(got.value) == f"layer 1, head 2: {want.value}"

    def test_an_unsplit_batch_trace_is_rejected_as_head_by_head(self):
        model = loud_head_model("g1", "per_head")
        trace = batch_forward(GraphBatch.of(three_graphs()[:2]), model)[1]
        with pytest.raises(ValueError) as want:
            per_head_depth_profile(trace)
        with pytest.raises(ValueError, match="must be 2-D") as got:
            depth_profile(trace)
        assert str(got.value) == f"layer 0, head 0: {want.value}"

    def test_no_stack_wide_temporary(self):
        # At perfbench forward_large's sizes (n = 128, d = 64, 8 heads, 800 edges) a
        # layer's attention stack is 1 MB; the profile holds one n x n buffer at a time.
        rng = np.random.default_rng(32)
        n, heads = 128, 8
        src, dst = rng.integers(0, n, 400), rng.integers(0, n, 400)
        edges = [(int(a), int(b)) for a, b in zip(src, dst)]
        graph = GraphInstance(n=n, node_features=rng.standard_normal((n, 8)),
                              edges=edges + [(b, a) for a, b in edges])
        model = init_model(SeededRng(32), d_in=8, d=64, n_heads=heads, n_layers=1,
                           gate=GateConfig(placement="g1"))
        _, trace = model_forward(graph, model)
        stack_bytes = trace.head_traces[0].attention.nbytes
        assert stack_bytes == heads * n * n * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            depth_profile(trace)
            peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            np.log(trace.head_traces[0].attention)  # what a stack-wide log would hold
            stack_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert stack_peak >= stack_bytes
        assert peak < stack_bytes // 2, peak


class TestReports:
    def test_csv_and_json_round_trip(self, tmp_path):
        trace = forward_trace(n_layers=2)
        profile = depth_profile(trace)
        gates = trace_gate_values(trace)
        per_layer = gate_stats(gates, "per_layer")
        pooled = gate_stats(gates, "pooled")
        csv_path = tmp_path / "diag.csv"
        json_path = tmp_path / "diag.json"
        write_diagnostics_csv(csv_path, profile, per_layer, pooled)
        write_diagnostics_json(json_path, profile, per_layer, pooled)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "layer,mad,entropy,gate_mean,gate_std,gate_below,gate_above"
        assert len(lines) == 4  # header + 2 layers + pooled
        row = lines[1].split(",")
        assert float(row[1]) == profile.mad[0]
        assert float(row[3]) == per_layer[0].mean
        doc = json.loads(json_path.read_text())
        assert doc["pooled_gate"]["count"] == pooled.count
        assert len(doc["layers"]) == 2

    def test_csv_without_gates(self, tmp_path):
        profile = depth_profile(forward_trace(placement="none"))
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(path, profile, None, None)
        lines = path.read_text().strip().splitlines()
        assert lines[1].split(",")[3] == "nan"
