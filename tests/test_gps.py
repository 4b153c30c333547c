import dataclasses

import numpy as np
import pytest

from oracles import (
    MemoLift, add_at_rows, assert_bitwise, eager_head_traces, np_split_trace,
    per_op_mpnn_forward, taped, two_branch_sigmoid,
)
from siggate import autodiff as ad
from siggate.attention import GateConfig, HeadTrace, HeadTraces, siggate_mhsa
from siggate.gps import (
    GraphBatch,
    GraphInstance,
    MpnnParams,
    ParamSet,
    batch_forward,
    gps_layer_forward,
    init_model,
    layer_norm,
    model_forward,
    mpnn_forward,
    read_graph,
    write_graph,
)
from siggate.numeric import SeededRng, ShapeError, gaussian_matrix, sigmoid
from siggate.synthexp import make_toy_task


def small_graph(rng, n=5, d_in=4, edge_prob=0.5, d_e=0):
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.uniform() < edge_prob:
                edges.append((i, j))
    ef = gaussian_matrix(rng, len(edges), d_e, 1.0) if d_e and edges else None
    return GraphInstance(n=n, node_features=gaussian_matrix(rng, n, d_in, 1.0),
                         edges=edges, edge_features=ef)


class TestGraphInstance:
    def test_edge_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            GraphInstance(n=2, node_features=np.zeros((2, 1)), edges=[(0, 2)])

    def test_mask_diagonal_enforced(self):
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 1] = False
        with pytest.raises(ValueError, match="diagonal"):
            GraphInstance(n=3, node_features=np.zeros((3, 1)), edges=[], attn_mask=mask)

    def test_edge_feature_rows_must_match(self):
        with pytest.raises(ShapeError):
            GraphInstance(n=2, node_features=np.zeros((2, 1)), edges=[(0, 1)],
                          edge_features=np.zeros((2, 3)))


class TestLayerNorm:
    def test_constant_row_becomes_shift(self):
        h = np.full((2, 4), 3.5)
        out = layer_norm(h, np.ones(4), np.full(4, 0.25))
        assert np.allclose(out, 0.25, atol=1e-12)

    def test_two_point_row(self):
        out = layer_norm(np.array([[1.0, 3.0]]), np.ones(2), np.zeros(2))
        expected = 1.0 / np.sqrt(1.0 + 1e-5)  # variance 1 plus epsilon
        assert np.allclose(out, [[-expected, expected]], atol=1e-15)

    def test_output_mean_equals_shift_mean(self):
        rng = SeededRng(21)
        h = gaussian_matrix(rng, 6, 8, 2.0)
        shift = gaussian_matrix(rng, 1, 8, 1.0).reshape(-1)
        out = layer_norm(h, np.ones(8), shift)
        assert np.max(np.abs(out.mean(axis=1) - shift.mean())) <= 1e-9


class TestMpnnForward:
    def test_no_edges_gives_zeros(self):
        rng = SeededRng(22)
        g = GraphInstance(n=4, node_features=gaussian_matrix(rng, 4, 3, 1.0), edges=[])
        p = MpnnParams(w_edge=gaussian_matrix(rng, 6, 3, 1.0),
                       w_val=gaussian_matrix(rng, 3, 3, 1.0))
        h = gaussian_matrix(rng, 4, 3, 1.0)
        assert np.array_equal(mpnn_forward(g, h, p)[0], np.zeros((4, 3)))

    def test_single_edge_zero_edge_weights(self):
        # w_edge = 0 makes the gate exactly sigmoid(0) = 0.5 everywhere
        rng = SeededRng(23)
        g = GraphInstance(n=3, node_features=np.zeros((3, 2)), edges=[(1, 0)])
        p = MpnnParams(w_edge=np.zeros((4, 2)), w_val=gaussian_matrix(rng, 2, 2, 1.0))
        h = gaussian_matrix(rng, 3, 2, 1.0)
        out, _ = mpnn_forward(g, h, p)
        assert np.allclose(out[0], 0.5 * (h[1] @ p.w_val), atol=1e-15)
        assert np.array_equal(out[1:], np.zeros((2, 2)))

    def test_path_graph_hand_composition(self):
        # 3-node path 0->1->2 with 2-dim states, recomposed edge by edge
        rng = SeededRng(24)
        g = GraphInstance(n=3, node_features=np.zeros((3, 2)), edges=[(0, 1), (1, 2)])
        p = MpnnParams(w_edge=gaussian_matrix(rng, 4, 2, 1.0),
                       w_val=gaussian_matrix(rng, 2, 2, 1.0))
        h = gaussian_matrix(rng, 3, 2, 1.0)
        out, _ = mpnn_forward(g, h, p)
        msg_to_1 = sigmoid(np.concatenate([h[1], h[0]]) @ p.w_edge) * (h[0] @ p.w_val)
        msg_to_2 = sigmoid(np.concatenate([h[2], h[1]]) @ p.w_edge) * (h[1] @ p.w_val)
        expected = np.vstack([np.zeros(2), msg_to_1, msg_to_2])
        assert np.allclose(out, expected, atol=1e-14)

    def test_edge_features_enter_the_gate(self):
        rng = SeededRng(25)
        g = small_graph(rng, n=4, d_in=3, d_e=2)
        if not g.edges:  # deterministic seed produces edges; guard anyway
            pytest.skip("no edges drawn")
        p = MpnnParams(w_edge=gaussian_matrix(rng, 2 * 3 + 2, 3, 1.0),
                       w_val=gaussian_matrix(rng, 3, 3, 1.0))
        h = gaussian_matrix(rng, 4, 3, 1.0)
        out, _ = mpnn_forward(g, h, p)
        assert out.shape == (4, 3)

    @staticmethod
    def reference(graphs, h, p):
        """Gather, concatenate, two-branch sigmoid gate, ``np.add.at`` scatter."""
        n = graphs[0].n
        src = np.array([b * n + s for b, g in enumerate(graphs) for s, _ in g.edges], dtype=np.intp)
        dst = np.array([b * n + t for b, g in enumerate(graphs) for _, t in g.edges], dtype=np.intp)
        parts = [h[dst], h[src]]
        if graphs[0].edge_features is not None:
            parts.append(np.concatenate([g.edge_features for g in graphs]))
        gate = two_branch_sigmoid(np.concatenate(parts, axis=1) @ p.w_edge)
        return add_at_rows(gate * (h[src] @ p.w_val), dst, len(h))

    @pytest.mark.parametrize("case", ["one", "batch3", "edge_features", "isolated", "no_edges"])
    def test_bitwise_equals_gather_concat_add_at_reference(self, case):
        rng = SeededRng(27)
        d_e = 2 if case == "edge_features" else 0
        graphs = [small_graph(rng, n=6, d_in=3, d_e=d_e)
                  for _ in range(3 if case == "batch3" else 1)]
        if case == "isolated":  # node 5 neither sends nor receives
            g = graphs[0]
            graphs = [GraphInstance(n=6, node_features=g.node_features,
                                    edges=[e for e in g.edges if 5 not in e])]
        if case == "no_edges":
            graphs = [GraphInstance(n=6, node_features=graphs[0].node_features, edges=[])]
        assert all(g.edges for g in graphs) == (case != "no_edges")
        batch = GraphBatch.of(graphs)
        p = MpnnParams(w_edge=gaussian_matrix(rng, 2 * 4 + d_e, 4, 2.0),
                       w_val=gaussian_matrix(rng, 4, 4, 1.0))
        h = gaussian_matrix(rng, batch.rows, 4, 3.0)
        want = self.reference(graphs, h, p)
        if case == "isolated":
            assert not want[5].any()
        assert_bitwise(mpnn_forward(batch, h, p)[0], want)
        # A leading copy axis, as the gradient check stacks its probes: each copy on its own.
        copies = np.stack([h, 0.5 * h, -h])
        assert_bitwise(mpnn_forward(batch, copies, p)[0],
                       np.stack([self.reference(graphs, c, p) for c in copies]))
        # The form's back: h's summed terms (none without edges), W_edge's and W_val's
        # gradients, as the op-by-op tape has them.
        weight = gaussian_matrix(rng, batch.rows, 4, 1.0)
        *h_terms, dw_edge, dw_val = mpnn_forward(batch, h, p)[1](weight)
        assert len(h_terms) == (0 if case == "no_edges" else 2)
        lift, x = MemoLift(), ad.Var(h)
        per_op = per_op_mpnn_forward(batch, x, p, lift=lift)
        assert_bitwise(per_op.value, want)
        ad.backward(ad.vsum(taped(ad.mul_vjp, per_op, weight)))
        assert_bitwise(sum(h_terms[1:], h_terms[0]) if h_terms else np.zeros_like(h), x.grad)
        assert_bitwise(dw_edge, lift.grad(p.w_edge))
        assert_bitwise(dw_val, lift.grad(p.w_val))

    @pytest.mark.parametrize("rows, edges", [(5, [(0, 1), (2, 1)]), (2, [(0, 1), (2, 1)]),
                                             (5, [])],
                             ids=["too_many_rows", "too_few_rows", "edgeless"])
    def test_rows_off_the_graph_rejected(self, rows, edges):
        # h must hold one row per node; the error names both counts, in the layer too.
        g = GraphInstance(n=3, node_features=np.zeros((3, 2)), edges=edges)
        p = MpnnParams(w_edge=np.zeros((4, 2)), w_val=np.eye(2))
        message = rf"^h has {rows} rows, but the graph has 3 nodes$"
        with pytest.raises(ShapeError, match=message):
            mpnn_forward(g, np.ones((rows, 2)), p)
        model = init_model(SeededRng(36), d_in=2, d=4, n_heads=2, n_layers=1,
                           gate=GateConfig(placement="g1"))
        with pytest.raises(ShapeError, match=message):
            gps_layer_forward(g, np.ones((rows, 4)), model.layers[0])

    def test_width_mismatch_rejected(self):
        rng = SeededRng(26)
        g = small_graph(rng, n=3, d_in=2)
        p = MpnnParams(w_edge=gaussian_matrix(rng, 5, 2, 1.0),
                       w_val=gaussian_matrix(rng, 2, 2, 1.0))
        with pytest.raises(ShapeError, match="w_edge"):
            mpnn_forward(g, gaussian_matrix(rng, 3, 2, 1.0), p)


class TestGpsLayerForward:
    def test_zero_branches_pass_residual_through(self):
        rng = SeededRng(27)
        model = init_model(rng, d_in=3, d=8, n_heads=2, n_layers=1,
                           gate=GateConfig(placement="g1"))
        layer = model.layers[0]
        layer.mpnn.w_val[:] = 0.0
        layer.attn.w_o[:] = 0.0
        g = small_graph(SeededRng(28), n=5, d_in=3)
        h = gaussian_matrix(SeededRng(29), 5, 8, 1.0)
        h_next, _ = gps_layer_forward(g, h, layer)
        t = layer_norm(h, layer.ln1.scale, layer.ln1.shift)
        ffn = ad.gelu_vjp(t @ layer.ffn.w1 + layer.ffn.b1)[0] @ layer.ffn.w2 + layer.ffn.b2
        expected = layer_norm(ffn + t, layer.ln2.scale, layer.ln2.shift)
        assert np.array_equal(h_next, expected)

    def test_degenerate_ffn_reduces_to_double_norm(self):
        rng = SeededRng(30)
        model = init_model(rng, d_in=3, d=8, n_heads=2, n_layers=1,
                           gate=GateConfig(placement="none"))
        layer = model.layers[0]
        layer.ffn.w2[:] = 0.0
        layer.ffn.b2[:] = 0.0
        g = small_graph(SeededRng(31), n=5, d_in=3)
        h = gaussian_matrix(SeededRng(32), 5, 8, 1.0)
        h_next, _ = gps_layer_forward(g, h, layer)
        attn_out, _, _ = siggate_mhsa(h, layer.attn, g.attn_mask)
        s = h + mpnn_forward(g, h, layer.mpnn)[0] + attn_out
        t = layer_norm(s, layer.ln1.scale, layer.ln1.shift)
        assert np.allclose(h_next, layer_norm(t, layer.ln2.scale, layer.ln2.shift),
                           atol=1e-15)

    def test_matches_module_level_recomposition(self):
        rng = SeededRng(33)
        model = init_model(rng, d_in=3, d=8, n_heads=4, n_layers=1,
                           gate=GateConfig(placement="g1"))
        layer = model.layers[0]
        g = small_graph(SeededRng(34), n=6, d_in=3)
        h = gaussian_matrix(SeededRng(35), 6, 8, 1.0)
        h_next, entry = gps_layer_forward(g, h, layer)
        attn_out, traces, _ = siggate_mhsa(h, layer.attn, g.attn_mask)
        s = h + mpnn_forward(g, h, layer.mpnn)[0] + attn_out
        t = layer_norm(s, layer.ln1.scale, layer.ln1.shift)
        ffn = ad.gelu_vjp(t @ layer.ffn.w1 + layer.ffn.b1)[0] @ layer.ffn.w2 + layer.ffn.b2
        expected = layer_norm(ffn + t, layer.ln2.scale, layer.ln2.shift)
        assert np.array_equal(h_next, expected)
        assert np.array_equal(entry.hidden, expected)
        assert len(entry.head_traces) == 4
        for mine, theirs in zip(entry.head_traces, traces):
            assert np.array_equal(mine.attention, theirs.attention)


class TestModelForward:
    def test_zero_network_predicts_head_bias(self):
        rng = SeededRng(36)
        model = init_model(rng, d_in=3, d=8, n_heads=2, n_layers=1,
                           gate=GateConfig(placement="none"))
        from siggate.training import ParamSet

        for _, arr in ParamSet.from_model(model).items():
            arr[:] = 0.0
        model.b_head[:] = 1.25
        g = small_graph(SeededRng(37), n=4, d_in=3)
        pred, _ = model_forward(g, model)
        assert np.array_equal(pred, [1.25])

    def test_duplicated_component_doubles_sum_pooled_prediction(self):
        rng = SeededRng(38)
        model = init_model(rng, d_in=3, d=8, n_heads=2, n_layers=2,
                           gate=GateConfig(placement="g1"), readout="sum")
        model.b_head[:] = 0.0
        single = small_graph(SeededRng(39), n=4, d_in=3)
        feats = np.vstack([single.node_features, single.node_features])
        edges = list(single.edges) + [(a + 4, b + 4) for a, b in single.edges]
        mask = np.zeros((8, 8), dtype=bool)
        mask[:4, :4] = True
        mask[4:, 4:] = True
        double = GraphInstance(n=8, node_features=feats, edges=edges, attn_mask=mask)
        p1, _ = model_forward(single, model)
        p2, _ = model_forward(double, model)
        assert np.allclose(p2, 2.0 * p1, atol=1e-10)

    def test_permutation_invariance(self):
        rng = SeededRng(40)
        model = init_model(rng, d_in=4, d=8, n_heads=2, n_layers=2,
                           gate=GateConfig(placement="g1"))
        g = small_graph(SeededRng(41), n=7, d_in=4)
        pred, _ = model_forward(g, model)
        perm_rng = SeededRng(42)
        for _ in range(10):
            perm = np.argsort(perm_rng.uniform((7,)))
            relabel = {int(old): int(new) for new, old in enumerate(perm)}
            permuted = GraphInstance(
                n=7, node_features=g.node_features[perm],
                edges=[(relabel[a], relabel[b]) for a, b in g.edges],
            )
            pred_p, _ = model_forward(permuted, model)
            assert np.max(np.abs(pred_p - pred)) <= 1e-10

    def test_empty_graph_rejected(self):
        rng = SeededRng(43)
        model = init_model(rng, d_in=2, d=4, n_heads=2, n_layers=1,
                           gate=GateConfig(placement="none"))
        g = GraphInstance(n=0, node_features=np.zeros((0, 2)), edges=[])
        with pytest.raises(ValueError, match="empty graph"):
            model_forward(g, model)

    def test_single_node_graph_allowed(self):
        rng = SeededRng(44)
        model = init_model(rng, d_in=2, d=4, n_heads=2, n_layers=1,
                           gate=GateConfig(placement="g1"))
        g = GraphInstance(n=1, node_features=np.ones((1, 2)), edges=[])
        pred, trace = model_forward(g, model)
        assert pred.shape == (1,)
        assert np.array_equal(trace.head_traces[0][0].attention, [[1.0]])

    def test_trace_completeness(self):
        rng = SeededRng(45)
        model = init_model(rng, d_in=3, d=8, n_heads=4, n_layers=3,
                           gate=GateConfig(placement="g1"))
        g = small_graph(SeededRng(46), n=5, d_in=3)
        _, trace = model_forward(g, model)
        assert len(trace) == 3
        assert all(len(heads) == 4 for heads in trace.head_traces)
        assert all(h.shape == (5, 8) for h in trace.hidden)


def assert_rel_close(a, b, rel=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= rel * max(np.max(np.abs(b)), 1e-300)


class TestBatchForward:
    @staticmethod
    def graphs(d_e=0, masked=()):
        rng = SeededRng(50)
        out = []
        for i in range(4):
            g = small_graph(rng, n=6, d_in=3, d_e=d_e)
            if i in masked:
                mask = np.eye(6, dtype=bool) | (rng.uniform((6, 6)) < 0.5)
                g = GraphInstance(n=6, node_features=g.node_features, edges=g.edges,
                                  edge_features=g.edge_features, attn_mask=mask)
            out.append(g)
        return out

    @pytest.mark.parametrize("placement, kw, readout, d_e, masked", [
        ("none", {}, "mean", 0, ()),
        ("g1", {}, "mean", 0, ()),
        ("g2", {"activation": "relu"}, "sum", 0, ()),
        ("g3", {"activation": "tanh"}, "mean", 0, ()),
        ("g1", {"sharing": "shared"}, "sum", 0, ()),
        ("g3", {"sharing": "shared"}, "mean", 2, ()),
        ("g1", {}, "sum", 2, (1, 3)),
        ("g3", {}, "mean", 0, (0,)),
    ])
    def test_batch_equals_each_graph_alone(self, placement, kw, readout, d_e, masked):
        model = init_model(SeededRng(51), d_in=3, d=8, n_heads=2, n_layers=3, d_e=d_e,
                           gate=GateConfig(placement=placement, **kw), readout=readout,
                           out_dim=2)
        graphs = self.graphs(d_e, masked)
        preds, trace = batch_forward(GraphBatch.of(graphs), model)
        assert preds.shape == (4, 2)
        per_graph = trace.split(4)
        for g, pred, got in zip(graphs, preds, per_graph):
            want_pred, want = model_forward(g, model)
            assert_rel_close(pred, want_pred)
            assert len(got) == len(want) == 3
            for h_got, h_want in zip(got.hidden, want.hidden):
                assert_rel_close(h_got, h_want)
            for heads_got, heads_want in zip(got.head_traces, want.head_traces):
                for ht_got, ht_want in zip(heads_got, heads_want):
                    assert_rel_close(ht_got.attention, ht_want.attention)
                    assert_rel_close(ht_got.output, ht_want.output)
                    if placement == "none":
                        assert ht_got.gate is None and ht_want.gate is None
                    else:
                        assert_rel_close(ht_got.gate, ht_want.gate)

    def test_stacked_layout(self):
        graphs = self.graphs(d_e=2, masked=(2,))
        batch = GraphBatch.of(graphs)
        assert (batch.size, batch.n, batch.rows, batch.d_e) == (4, 6, 24, 2)
        assert np.array_equal(batch.node_features,
                              np.vstack([g.node_features for g in graphs]))
        offsets = np.repeat(6 * np.arange(4), [len(g.edges) for g in graphs])
        assert np.array_equal(batch.src - offsets, [a for g in graphs for a, _ in g.edges])
        assert np.array_equal(batch.dst - offsets, [b for g in graphs for _, b in g.edges])
        assert batch.attn_mask.shape == (24, 6)
        assert np.array_equal(batch.attn_mask[12:18], graphs[2].attn_mask)
        assert batch.attn_mask[:12].all() and batch.attn_mask[18:].all()
        assert GraphBatch.of(graphs[:2]).attn_mask is None

    def test_mixed_shapes_rejected(self):
        rng = SeededRng(52)
        with pytest.raises(ShapeError, match="graph 1 has"):
            GraphBatch.of([small_graph(rng, n=4), small_graph(rng, n=5)])
        with pytest.raises(ShapeError, match="graph 1 has"):
            GraphBatch.of([small_graph(rng, n=4, d_in=3), small_graph(rng, n=4, d_in=2)])
        with pytest.raises(ValueError, match="at least one graph"):
            GraphBatch.of([])


TRACE_CASES = [(p, s) for p in ("none", "g1", "g2", "g3") for s in ("per_head", "shared")
               if p != "none" or s == "per_head"]


def trace_model(placement, sharing):
    return init_model(SeededRng(53), d_in=3, d=8, n_heads=4, n_layers=2,
                      gate=GateConfig(placement=placement, sharing=sharing))


def masked_graphs(count):
    """``count`` 6-node graphs, the first with an attention mask."""
    return TestBatchForward.graphs(masked=(0,))[:count]


def assert_same_head(got, want):
    assert type(got) is HeadTrace
    assert_bitwise(got.attention, want.attention)
    assert_bitwise(got.output, want.output)
    if want.gate is None:
        assert got.gate is None
    else:
        assert_bitwise(got.gate, want.gate)


class TestHeadTraces:
    """A layer's head traces are views of its stacks, made anew on each read."""

    @pytest.mark.parametrize("placement, sharing", TRACE_CASES)
    @pytest.mark.parametrize("n_graphs", [1, 3])
    def test_each_head_is_the_eager_trace_bitwise(self, placement, sharing, n_graphs):
        model = trace_model(placement, sharing)
        _, trace = batch_forward(GraphBatch.of(masked_graphs(n_graphs)), model)
        for heads in trace.head_traces:
            assert type(heads) is HeadTraces and len(heads) == 4
            want = eager_head_traces(heads, placement, n_graphs)
            for got, w in zip(heads, want, strict=True):
                assert_same_head(got, w)
                assert np.shares_memory(got.attention, heads.attention)
            for k in range(-4, 4):
                assert_same_head(heads[k], want[k])
            for got, w in zip(heads[1:3], want[1:3], strict=True):
                assert_same_head(got, w)
            with pytest.raises(IndexError):
                heads[4]

    @pytest.mark.parametrize("placement", ["g1", "g3"])
    def test_copies_of_the_input_keep_their_axes(self, placement):
        model = trace_model(placement, "shared")
        h = gaussian_matrix(SeededRng(54), 12, 8, 1.0)
        copies = np.stack([h, 2.0 * h])
        _, traces, _ = siggate_mhsa(copies, model.layers[0].attn, n_graphs=2)
        want = eager_head_traces(traces, placement, 2)
        assert len(traces) == 4
        for got, w in zip(traces, want, strict=True):
            assert_same_head(got, w)
            assert got.output.shape == (2, 12, 2)

    @pytest.mark.parametrize("n_graphs", [1, 2])
    def test_copies_of_one_stack_leave_the_other_stacks_axes(self, n_graphs):
        # Two copies of W_g alone: the g1 gate and the output carry the copy
        # axis and the attention does not; each head reads its own slice of
        # every stack, in the whole pass and in each graph's split piece.
        attn = trace_model("g1", "per_head").layers[0].attn
        copies = np.stack([attn.w_g, 2.0 * attn.w_g])
        h = gaussian_matrix(SeededRng(54), 6 * n_graphs, 8, 1.0)
        _, traces, _ = siggate_mhsa(h, dataclasses.replace(attn, w_g=copies), n_graphs=n_graphs)
        lone = [siggate_mhsa(h, dataclasses.replace(attn, w_g=w_g), n_graphs=n_graphs)[1]
                for w_g in copies]
        assert traces.attention.shape == ((4, 6, 6) if n_graphs == 1 else (4, 2, 6, 6))
        assert traces.output.shape == (2, 4, 6 * n_graphs, 2)
        pieces = [(traces, lone)]
        if n_graphs > 1:
            pieces += zip(traces.split(n_graphs), zip(*(t.split(n_graphs) for t in lone)))
        for got, want in pieces:
            assert len(got) == 4
            for k in range(4):
                assert_bitwise(got[k].attention, want[0][k].attention)
                for c in range(2):
                    assert_bitwise(got[k].gate[c], want[c][k].gate)
                    assert_bitwise(got[k].output[c], want[c][k].output)

    @pytest.mark.parametrize("placement, sharing", TRACE_CASES)
    def test_split_pieces_are_np_splits_bitwise(self, placement, sharing):
        model = trace_model(placement, sharing)
        _, trace = batch_forward(GraphBatch.of(masked_graphs(3)), model)
        want = np_split_trace(trace, 3)
        got = trace.split(3)
        assert len(got) == len(want) == 3
        for graph_got, graph_want in zip(got, want):
            assert len(graph_got) == len(graph_want) == 2
            for h, heads, (h_want, heads_want) in zip(graph_got.hidden, graph_got.head_traces,
                                                       graph_want):
                assert_bitwise(h, h_want)
                assert len(heads) == len(heads_want) == 4
                for ht, (a, g, o) in zip(heads, heads_want, strict=True):
                    assert_same_head(ht, HeadTrace(a, g, o))


class TestGraphFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = SeededRng(47)
        g = small_graph(rng, n=6, d_in=3, d_e=2)
        path = tmp_path / "graph.txt"
        write_graph(g, path)
        back = read_graph(path)
        assert back.n == g.n
        assert np.array_equal(back.node_features, g.node_features)
        assert back.edges == g.edges
        assert np.array_equal(back.edge_features, g.edge_features)

    def test_round_trip_without_edge_features(self, tmp_path):
        task = make_toy_task(seed=2, n_graphs=2, nodes_per_graph=5)
        g = task.train[0][0]
        path = tmp_path / "graph.txt"
        write_graph(g, path)
        back = read_graph(path)
        assert np.array_equal(back.node_features, g.node_features)
        assert back.edges == g.edges
        assert back.edge_features is None

    @pytest.mark.parametrize("edge_features", [None, [[0.75]]], ids=["no-edge-features",
                                                                   "edge-features"])
    def test_round_trip_without_node_features(self, tmp_path, edge_features):
        # Its node rows are blank lines, which the reader skips.
        g = GraphInstance(n=2, node_features=np.zeros((2, 0)), edges=[(0, 1)],
                          edge_features=edge_features)
        path = tmp_path / "graph.txt"
        write_graph(g, path)
        back = read_graph(path)
        assert back.n == 2 and back.node_features.shape == (2, 0)
        assert back.edges == g.edges
        assert np.array_equal(back.edge_features, g.edge_features) if edge_features \
            else back.edge_features is None

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 0\n1.0 2.0\n")  # missing a node row and edge count
        with pytest.raises(ValueError, match="malformed graph file"):
            read_graph(path)

    def test_wrong_token_count_rejected(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("1 2 0\n1.0\n0\n")
        with pytest.raises(ValueError, match="malformed graph file"):
            read_graph(path)

    @pytest.mark.parametrize("text, row", [
        ("2 2 0\n1.0 nan\n0.5 0.5\n0\n", "node row 0"),
        ("2 2 0\n1.0 2.0\n-inf 0.5\n0\n", "node row 1"),
        ("2 1 1\n1.0\n2.0\n2\n0 1 0.5\n1 0 inf\n", "edge row 1"),
    ])
    def test_non_finite_feature_rejected(self, tmp_path, text, row):
        path = tmp_path / "nonfinite.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"malformed graph file .*nonfinite.txt: {row} "
                                             "has a non-finite value"):
            read_graph(path)

    @pytest.mark.parametrize("header", ["-1 2 0", "0 -2 0", "0 2 -1"])
    def test_negative_header_size_rejected(self, tmp_path, header):
        path = tmp_path / "negative.txt"
        path.write_text(f"{header}\n0\n")
        with pytest.raises(ValueError, match=f"malformed graph file .*negative.txt: the "
                                             f"header '{header}' has a negative size"):
            read_graph(path)

    def test_negative_edge_count_rejected(self, tmp_path):
        path = tmp_path / "negative.txt"
        path.write_text("2 1 0\n1.0\n2.0\n-1\n")
        with pytest.raises(ValueError, match="malformed graph file .*negative.txt: the edge "
                                             "count '-1' is negative"):
            read_graph(path)

    def test_lines_after_last_edge_rejected(self, tmp_path):
        path = tmp_path / "trailing.txt"
        path.write_text("2 1 0\n1.0\n2.0\n1\n0 1\n5 5 5\ngarbage\n\n")
        with pytest.raises(ValueError, match=r"trailing.txt: 2 line\(s\) after the last "
                                             r"edge row, starting with '5 5 5'"):
            read_graph(path)


def _one_edge():
    return GraphInstance(n=2, node_features=np.zeros((2, 1)), edges=[(0, 1)])


def _one_layer():
    return init_model(SeededRng(0), d_in=1, d=4, n_heads=2, n_layers=1, gate=GateConfig())


# Rejections that no other test reaches: each raise statement's type and text.
@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda: GraphInstance(n=3, node_features=np.zeros((2, 1)), edges=[]),
                 ShapeError, "node_features must be (3, d_in), got (2, 1)", id="node-features"),
    pytest.param(lambda: GraphInstance(n=2, node_features=np.zeros((2, 1)), edges=[],
                                       attn_mask=np.ones((3, 3), dtype=bool)),
                 ShapeError, "attn_mask must be (2, 2)", id="attn-mask"),
    pytest.param(lambda: mpnn_forward(_one_edge(), np.zeros((2, 4)),
                                      MpnnParams(w_edge=np.zeros((8, 4)), w_val=np.zeros((3, 4)))),
                 ShapeError, "w_val expects 3 features, hidden has 4", id="w-val"),
    pytest.param(lambda: batch_forward(GraphBatch.of([_one_edge()]),
                                       dataclasses.replace(_one_layer(), layers=[])),
                 ValueError, "model needs at least one layer", id="no-layers"),
    pytest.param(lambda: batch_forward(GraphBatch.of([_one_edge()]),
                                       dataclasses.replace(_one_layer(), readout="max")),
                 ValueError, "readout must be one of ('mean', 'sum'), got 'max'", id="readout"),
    pytest.param(lambda: ParamSet.from_model(_one_layer())["layer9.w"], KeyError, "'layer9.w'",
                 id="unknown-parameter"),
])
def test_each_rejection_gives_its_type_and_text(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message
