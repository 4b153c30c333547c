import copy

import numpy as np
import pytest

from siggate.attention import (
    GATE_ACTIVATIONS,
    GateConfig,
    HeadParams,
    MhsaParams,
    compute_gate,
    gate_param_count,
    gated_head_forward,
    init_head_params,
    init_mhsa_params,
    sdpa,
    siggate_mhsa,
)
from siggate.numeric import (
    SeededRng,
    ShapeError,
    elementwise,
    gaussian_matrix,
    hadamard,
    matmul,
    row_softmax,
)


def make_head(rng, d, d_k, gated=True, g3=False):
    std = 1.0 / np.sqrt(d)
    head = HeadParams(
        w_q=gaussian_matrix(rng, d, d_k, std),
        w_k=gaussian_matrix(rng, d, d_k, std),
        w_v=gaussian_matrix(rng, d, d_k, std),
    )
    if gated:
        head.w_g = gaussian_matrix(rng, d, d_k, std)
        if g3:
            head.w_g2 = gaussian_matrix(rng, d, d_k, std)
            head.b_g = np.array([0.5])
        else:
            head.b_g = np.full(d_k, 0.5)
    return head


class TestSdpa:
    def test_single_node_forced_attention(self):
        rng = SeededRng(0)
        head = make_head(rng, 4, 2, gated=False)
        h = gaussian_matrix(rng, 1, 4, 1.0)
        attn, y = sdpa(h, head)
        assert np.array_equal(attn, [[1.0]])
        assert y.shape == (1, 2)

    def test_zero_values_give_zero_output(self):
        rng = SeededRng(1)
        head = make_head(rng, 4, 2, gated=False)
        head.w_v = np.zeros((4, 2))
        h = gaussian_matrix(rng, 5, 4, 1.0)
        _, y = sdpa(h, head)
        assert np.array_equal(y, np.zeros((5, 2)))

    def test_two_node_scalar_hand_computation(self):
        # d = d_k = 1: everything reduces to scalar arithmetic done by hand
        h = np.array([[1.0], [2.0]])
        head = HeadParams(w_q=np.array([[0.3]]), w_k=np.array([[-0.7]]),
                          w_v=np.array([[1.1]]))
        attn, y = sdpa(h, head)
        q = h * 0.3
        k = h * -0.7
        v = h * 1.1
        logits = q @ k.T / 1.0
        expected_attn = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected_attn /= expected_attn.sum(axis=1, keepdims=True)
        assert np.allclose(attn, expected_attn, atol=1e-15)
        assert np.allclose(y, expected_attn @ v, atol=1e-15)

    def test_rows_are_stochastic(self):
        rng = SeededRng(2)
        head = make_head(rng, 8, 4, gated=False)
        h = gaussian_matrix(rng, 6, 8, 1.0)
        attn, _ = sdpa(h, head)
        assert np.max(np.abs(attn.sum(axis=1) - 1.0)) <= 1e-12


class TestComputeGate:
    def test_zero_weights_bias_half_sigmoid(self):
        rng = SeededRng(3)
        head = make_head(rng, 4, 3)
        head.w_g = np.zeros((4, 3))
        h = gaussian_matrix(rng, 5, 4, 1.0)
        gate = compute_gate(h, head, "sigmoid")
        assert np.allclose(gate, 0.6224593312018546, atol=1e-12)

    def test_zero_bias_gives_half(self):
        rng = SeededRng(4)
        head = make_head(rng, 4, 3)
        head.w_g = np.zeros((4, 3))
        head.b_g = np.zeros(3)
        h = gaussian_matrix(rng, 5, 4, 1.0)
        assert np.allclose(compute_gate(h, head, "sigmoid"), 0.5, atol=0)

    def test_identity_activation_is_projection(self):
        rng = SeededRng(5)
        head = make_head(rng, 4, 4)
        head.w_g = np.eye(4)
        head.b_g = np.zeros(4)
        h = gaussian_matrix(rng, 5, 4, 1.0)
        assert np.allclose(compute_gate(h, head, "identity"), h, atol=0)


class TestGatedHeadForward:
    def setup_method(self):
        rng = SeededRng(6)
        self.h = gaussian_matrix(rng, 6, 8, 1.0)
        self.head = make_head(rng, 8, 4)
        self.head_g3 = make_head(SeededRng(6).child(1), 8, 4, g3=True)

    def test_placement_none_equals_sdpa(self):
        out, trace = gated_head_forward(self.h, self.head, GateConfig(placement="none"))
        _, y = sdpa(self.h, self.head)
        assert np.array_equal(out, y)
        assert trace.gate is None

    def test_g1_ones_override_is_bitwise_ungated(self):
        out, _ = gated_head_forward(self.h, self.head, GateConfig(placement="g1"),
                                    gate_override="ones")
        _, y = sdpa(self.h, self.head)
        assert np.array_equal(out, y)

    def test_g1_zeros_override_kills_output(self):
        out, _ = gated_head_forward(self.h, self.head, GateConfig(placement="g1"),
                                    gate_override="zeros")
        assert np.array_equal(out, np.zeros((6, 4)))

    def test_g1_matches_numeric_composition(self):
        out, trace = gated_head_forward(self.h, self.head, GateConfig(placement="g1"))
        attn = row_softmax(matmul(self.h, self.head.w_q) @ matmul(self.h, self.head.w_k).T
                           / np.sqrt(4))
        y = matmul(attn, matmul(self.h, self.head.w_v))
        gate = elementwise("sigmoid", matmul(self.h, self.head.w_g) + self.head.b_g)
        assert np.allclose(out, hadamard(y, gate), atol=1e-14)
        assert np.allclose(trace.attention, attn, atol=1e-14)

    def test_g2_matches_numeric_composition(self):
        out, _ = gated_head_forward(self.h, self.head, GateConfig(placement="g2"))
        attn = row_softmax(matmul(self.h, self.head.w_q) @ matmul(self.h, self.head.w_k).T
                           / np.sqrt(4))
        gate = elementwise("sigmoid", matmul(self.h, self.head.w_g) + self.head.b_g)
        expected = matmul(attn, hadamard(gate, matmul(self.h, self.head.w_v)))
        assert np.allclose(out, expected, atol=1e-14)

    def test_g3_matches_numeric_composition(self):
        head = self.head_g3
        out, trace = gated_head_forward(self.h, head, GateConfig(placement="g3"))
        raw = matmul(self.h, head.w_q) @ matmul(self.h, head.w_k).T / np.sqrt(4)
        bilinear = matmul(self.h, head.w_g) @ matmul(self.h, head.w_g2).T / np.sqrt(4)
        gate = elementwise("sigmoid", bilinear + head.b_g[0])
        attn = row_softmax(hadamard(gate, raw))
        assert trace.gate.shape == (6, 6)
        assert np.allclose(out, matmul(attn, matmul(self.h, head.w_v)), atol=1e-14)

    def test_g3_requires_second_projection(self):
        cfg = GateConfig(placement="g3")
        bad = make_head(SeededRng(9), 8, 4)  # no w_g2, d_k-shaped bias
        params = MhsaParams(heads=[bad], w_o=np.eye(4, 8), gate=cfg)
        with pytest.raises(ShapeError, match="second gate projection"):
            siggate_mhsa(self.h, params)

    def test_attention_rows_stochastic_for_all_placements(self):
        for placement, head in (("none", self.head), ("g1", self.head),
                                ("g2", self.head), ("g3", self.head_g3)):
            _, trace = gated_head_forward(self.h, head, GateConfig(placement=placement))
            assert np.max(np.abs(trace.attention.sum(axis=1) - 1.0)) <= 1e-12

    def test_sigmoid_gate_strictly_inside_unit_interval(self):
        _, trace = gated_head_forward(self.h, self.head, GateConfig(placement="g1"))
        assert np.all(trace.gate > 0.0) and np.all(trace.gate < 1.0)

    def test_g1_never_amplifies_ungated_output(self):
        out, _ = gated_head_forward(self.h, self.head, GateConfig(placement="g1"))
        _, y = sdpa(self.h, self.head)
        assert np.all(np.abs(out) <= np.abs(y) + 1e-15)


class TestSiggateMhsa:
    def test_single_head_identity_projection(self):
        rng = SeededRng(10)
        params = init_mhsa_params(rng, 6, 1, GateConfig(placement="none"), d_k=6)
        params.w_o = np.eye(6)
        h = gaussian_matrix(rng, 5, 6, 1.0)
        out, traces = siggate_mhsa(h, params)
        _, y = sdpa(h, params.heads[0])
        assert np.array_equal(out, y)
        assert len(traces) == 1

    def test_shared_equals_per_head_with_duplicated_params(self):
        rng = SeededRng(11)
        shared = init_mhsa_params(rng, 8, 4, GateConfig(placement="g1", sharing="shared"))
        # same arrays, flagged per-head
        heads = [HeadParams(h.w_q, h.w_k, h.w_v, h.w_g, h.w_g2, h.b_g)
                 for h in shared.heads]
        per_head = MhsaParams(heads=heads, w_o=shared.w_o,
                              gate=GateConfig(placement="g1", sharing="per_head"))
        h = gaussian_matrix(rng, 7, 8, 1.0)
        out_shared, _ = siggate_mhsa(h, shared)
        out_per, _ = siggate_mhsa(h, per_head)
        assert np.array_equal(out_shared, out_per)

    def test_permutation_equivariance(self):
        rng = SeededRng(12)
        params = init_mhsa_params(rng, 8, 2, GateConfig(placement="g1"))
        h = gaussian_matrix(rng, 9, 8, 1.0)
        out, _ = siggate_mhsa(h, params)
        perm = np.argsort(SeededRng(13).uniform((9,)))
        out_perm, _ = siggate_mhsa(h[perm], params)
        assert np.max(np.abs(out_perm - out[perm])) <= 1e-10

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            init_mhsa_params(SeededRng(0), 10, 4, GateConfig(placement="none"))

    def test_inconsistent_heads_rejected(self):
        rng = SeededRng(14)
        params = init_mhsa_params(rng, 8, 2, GateConfig(placement="none"))
        params.heads[1].w_k = np.zeros((8, 3))
        with pytest.raises(ShapeError, match="head 1.w_k"):
            siggate_mhsa(gaussian_matrix(rng, 4, 8, 1.0), params)

    def test_wrong_input_width_rejected(self):
        rng = SeededRng(15)
        params = init_mhsa_params(rng, 8, 2, GateConfig(placement="none"))
        with pytest.raises(ShapeError, match="heads expect 8"):
            siggate_mhsa(gaussian_matrix(rng, 4, 6, 1.0), params)

    def test_shared_flag_with_private_arrays_rejected(self):
        rng = SeededRng(16)
        params = init_mhsa_params(rng, 8, 2, GateConfig(placement="g1", sharing="shared"))
        params.heads[1].w_g = params.heads[1].w_g.copy()
        with pytest.raises(ValueError, match="its own gate params"):
            siggate_mhsa(gaussian_matrix(rng, 4, 8, 1.0), params)

    def test_mask_propagates(self):
        rng = SeededRng(17)
        params = init_mhsa_params(rng, 8, 2, GateConfig(placement="g1"))
        h = gaussian_matrix(rng, 5, 8, 1.0)
        mask = np.eye(5, dtype=bool)
        _, traces = siggate_mhsa(h, params, mask)
        for t in traces:
            assert np.array_equal(t.attention, np.eye(5))


class TestGateParamCount:
    def test_reference_scale_configurations(self):
        assert gate_param_count(256, 32, 8, 5) == 328_960
        assert gate_param_count(64, 8, 8, 10) == 41_600

    def test_degenerate_counts(self):
        assert gate_param_count(16, 4, 0, 3) == 0
        assert gate_param_count(16, 4, 4, 0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="n_heads"):
            gate_param_count(16, 4, -1, 3)


CELLS = [("none", "sigmoid", "per_head")] + [
    (placement, activation, "per_head")
    for placement in ("g1", "g2", "g3") for activation in GATE_ACTIVATIONS
] + [(placement, "sigmoid", "shared") for placement in ("g1", "g2", "g3")]


def stacked_layer(seed, placement, activation="sigmoid", sharing="per_head", d=8, heads=4):
    cfg = GateConfig(placement=placement, activation=activation, sharing=sharing)
    return init_mhsa_params(SeededRng(seed), d, heads, cfg)


class TestHeadStack:
    """A layer holds its heads' projections as stacks; each head views its slice."""

    @pytest.mark.parametrize("placement, activation, sharing", CELLS)
    def test_stacked_pass_equals_loop_over_heads_bitwise(self, placement, activation,
                                                         sharing):
        params = stacked_layer(30, placement, activation, sharing)
        cfg = params.gate
        rng = SeededRng(31)
        n = 5
        mask = np.ones((3 * n, n), dtype=bool)
        mask[1, 3:] = False
        mask[n + 4, :2] = False  # the second graph's last node
        inputs = [(gaussian_matrix(rng, n, 8, 1.0), None, 1),
                  (gaussian_matrix(rng, n, 8, 1.0), mask[:n], 1),
                  (gaussian_matrix(rng, 3 * n, 8, 1.0), mask, 3)]
        overrides = (None,) if placement == "none" else (None, "ones", "zeros")
        for h, m, n_graphs in inputs:
            for override in overrides:
                out, traces = gated_head_forward(h, params, cfg, m, gate_override=override,
                                                 n_graphs=n_graphs)
                assert out.shape == (4, len(h), 2) and len(traces) == 4
                for k, head in enumerate(params.heads):
                    out_k, trace_k = gated_head_forward(h, head, cfg, m,
                                                        gate_override=override,
                                                        n_graphs=n_graphs)
                    assert np.array_equal(out[k], out_k)
                    assert np.array_equal(traces[k].output, trace_k.output)
                    assert np.array_equal(traces[k].attention, trace_k.attention)
                    if placement == "none":
                        assert traces[k].gate is None and trace_k.gate is None
                    else:
                        assert np.array_equal(traces[k].gate, trace_k.gate)

    @pytest.mark.parametrize("placement, sharing, gate_heads", [
        ("none", "per_head", 0), ("g1", "per_head", 4), ("g1", "shared", 1),
        ("g3", "per_head", 4), ("g3", "shared", 1),
    ])
    def test_heads_view_slices_of_the_stacks(self, placement, sharing, gate_heads):
        params = stacked_layer(32, placement, sharing=sharing)
        assert params.w_q.shape == params.w_k.shape == params.w_v.shape == (4, 8, 2)
        for k, head in enumerate(params.heads):
            for name in ("w_q", "w_k", "w_v"):
                assert getattr(head, name).base is getattr(params, name)
                assert np.shares_memory(getattr(head, name), getattr(params, name)[k])
        if not gate_heads:
            assert params.w_g is None and params.b_g is None
            return
        assert params.w_g.shape == (gate_heads, 8, 2)
        assert params.b_g.shape == (gate_heads, 1 if placement == "g3" else 2)
        assert (params.w_g2 is None) == (placement != "g3")
        for k, head in enumerate(params.heads):
            assert head.w_g.base is params.w_g
            if gate_heads == 1:
                assert head.w_g is params.heads[0].w_g and head.b_g is params.heads[0].b_g
        params.heads[1].w_g[0, 0] = 7.0
        assert params.w_g[1 if gate_heads > 1 else 0, 0, 0] == 7.0

    def test_init_keeps_the_per_head_draw_order(self):
        cfg = GateConfig(placement="g3")
        params = init_mhsa_params(SeededRng(33), 8, 2, cfg)
        rng = SeededRng(33)
        for k in range(2):
            head = init_head_params(rng, 8, 4, cfg)
            for name in ("w_q", "w_k", "w_v", "w_g", "w_g2", "b_g"):
                assert np.array_equal(getattr(params.heads[k], name), getattr(head, name))
        assert np.array_equal(params.w_o, gaussian_matrix(rng, 8, 8, 1.0 / np.sqrt(8)))

    def test_construction_adopts_existing_stacks(self):
        gated = stacked_layer(34, "g1")
        ungated = MhsaParams(heads=gated.heads, w_o=gated.w_o,
                             gate=GateConfig(placement="none"))
        for name in ("w_q", "w_k", "w_v"):
            assert getattr(ungated, name) is getattr(gated, name)
        assert all(a is b for a, b in zip(ungated.heads, gated.heads))
        assert ungated.w_g is None
        for k, head in enumerate(gated.heads):
            for name in ("w_q", "w_k", "w_v", "w_g", "b_g"):
                assert getattr(head, name).base is getattr(gated, name)
        h = gaussian_matrix(SeededRng(35), 5, 8, 1.0)
        siggate_mhsa(h, gated)  # the original still passes the view checks
        out_ones, _ = siggate_mhsa(h, gated, gate_override="ones")
        assert np.array_equal(out_ones, siggate_mhsa(h, ungated)[0])

    def test_construction_copies_other_arrays_without_touching_the_heads(self):
        rng = SeededRng(36)
        heads = [make_head(rng, 8, 4) for _ in range(2)]
        originals = [(h.w_q, h.w_g) for h in heads]
        params = MhsaParams(heads=heads, w_o=np.eye(8), gate=GateConfig(placement="g1"))
        for head, (w_q, w_g) in zip(heads, originals):
            assert head.w_q is w_q and head.w_g is w_g
        for k, head in enumerate(params.heads):
            assert head.w_q.base is params.w_q and head.w_g.base is params.w_g
            assert np.array_equal(head.w_q, heads[k].w_q)
        h = gaussian_matrix(rng, 5, 8, 1.0)
        out, _ = siggate_mhsa(h, params)
        loop = [gated_head_forward(h, head, params.gate)[0] for head in heads]
        assert np.array_equal(out, np.concatenate(loop, axis=1) @ np.eye(8))

    def test_deepcopy_restacks(self):
        params = stacked_layer(37, "g3", sharing="shared")
        twin = copy.deepcopy(params)
        assert twin.w_q is not params.w_q
        assert all(head.w_q.base is twin.w_q for head in twin.heads)
        assert all(head.w_g is twin.heads[0].w_g for head in twin.heads)
        h = gaussian_matrix(SeededRng(38), 5, 8, 1.0)
        assert np.array_equal(siggate_mhsa(h, twin)[0], siggate_mhsa(h, params)[0])

    @pytest.mark.parametrize("placement, name", [
        ("g1", "w_q"), ("g1", "w_k"), ("g1", "w_v"), ("g1", "w_g"), ("g1", "b_g"),
        ("g3", "w_g2"),
    ])
    def test_replaced_head_field_rejected(self, placement, name):
        params = stacked_layer(39, placement)
        setattr(params.heads[2], name, getattr(params.heads[2], name).copy())
        with pytest.raises(ValueError, match=rf"head 2\.{name} is not a view"):
            siggate_mhsa(gaussian_matrix(SeededRng(40), 5, 8, 1.0), params)

    def test_replaced_stack_rejected(self):
        params = stacked_layer(41, "g2")
        params.w_v = params.w_v.copy()
        with pytest.raises(ValueError, match=r"head 0\.w_v is not a view"):
            siggate_mhsa(gaussian_matrix(SeededRng(42), 5, 8, 1.0), params)
