import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slim import autodiff as ad
from slim.autodiff import Tensor, grad_check
from slim.embedding import cooccurrence_loss, cooccurrence_op, encode, encode_values
from slim.training import TrainConfig

from conftest import (adjacency_of, cooccurrence_grad_oracle, cooccurrence_loss_oracle,
                      cooccurrence_loss_reference, directed_edges, encoder_model,
                      random_graph)


def cooc(h, adjacency) -> float:
    """The fused co-occurrence op over a batch of one graph."""
    return cooccurrence_op(Tensor(h), [(0, len(h))], [directed_edges(adjacency)]).value.item()


def encoder_state(rng, activation="sigmoid"):
    """A model whose encoder maps 3-wide rows through 4 hidden units to 2."""
    return encoder_model(rng, 3, 4, 2, activation)


def zero_params():
    state = encoder_state(np.random.default_rng(0))
    return state.with_parameters(Tensor(np.zeros_like(p.value)) for p in state.parameters())


class TestEncode:
    def test_all_zero_weights_give_one_half(self):
        z = np.zeros((5, 3))
        h = encode_values(z, zero_params())
        np.testing.assert_allclose(h, np.full((5, 2), 0.5))

    def test_identical_rows_map_identically(self, rng):
        params = encoder_state(rng)
        z = np.tile(rng.standard_normal(3), (4, 1))
        h = encode_values(z, params)
        assert np.all(h == h[0])

    def test_rows_in_unit_interval(self, rng):
        params = encoder_state(rng)
        h = encode_values(rng.standard_normal((20, 3)) * 5, params)
        assert np.all((h > 0) & (h < 1))

    def test_deterministic(self, rng):
        params = encoder_state(rng)
        z = rng.standard_normal((6, 3))
        assert np.array_equal(encode_values(z, params), encode_values(z, params))

    def test_tanh_switch(self, rng):
        params = encoder_state(rng, activation="tanh")
        h = encode_values(rng.standard_normal((10, 3)), params)
        assert np.all((h > -1) & (h < 1))
        assert np.any(h < 0)

    def test_gradients_wrt_all_params(self, rng):
        z = rng.standard_normal((4, 3))

        state = encoder_state(rng)

        def fn(t1, b1, t2, b2):
            return encode(ad.constant(z), replace(state, t1=t1, b1=b1, t2=t2, b2=b2))

        report = grad_check(
            fn,
            [rng.standard_normal((3, 4)), rng.standard_normal(4),
             rng.standard_normal((4, 2)), rng.standard_normal(2)],
            name="encode", rng=rng,
        )
        assert report.passed, report.max_relative_error

    def test_unknown_activation_is_refused_at_construction(self):
        # the model's config is the one place the activation is named
        with pytest.raises(ValueError, match="activation"):
            TrainConfig(activation="relu")

    def test_width_mismatch(self, rng):
        params = encoder_state(rng)
        with pytest.raises(ValueError):
            encode(ad.constant(np.zeros((2, 5))), params)


class TestCooccurrenceLoss:
    def test_single_node_graph_is_zero(self):
        assert cooc(np.array([[0.3, 0.7]]), np.zeros((1, 1))) == 0.0

    def test_two_nodes_identical_rows(self):
        h = np.array([[0.2, 0.4], [0.2, 0.4]])
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert cooc(h, a) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_complete_graph_equal_rows(self):
        n = 3
        h = np.tile([0.1, 0.5], (n, 1))
        a = np.ones((n, n)) - np.eye(n)
        assert cooc(h, a) == pytest.approx(6.0 * math.log(3.0), rel=1e-12)

    def test_matches_brute_force_reference(self, rng):
        for _ in range(5):
            g = random_graph(rng)
            h = rng.standard_normal((g.node_count, 3))
            assert cooc(h, adjacency_of(g)) == pytest.approx(
                cooccurrence_loss_reference(h, adjacency_of(g)), rel=1e-10
            )

    def test_loss_is_non_negative(self, rng):
        for _ in range(5):
            g = random_graph(rng)
            h = rng.standard_normal((g.node_count, 3))
            assert cooc(h, adjacency_of(g)) >= 0.0

    def test_permutation_invariance(self, rng):
        g = random_graph(rng)
        h = rng.standard_normal((g.node_count, 4))
        perm = rng.permutation(g.node_count)
        a_p = adjacency_of(g)[np.ix_(perm, perm)]
        v1 = cooc(h, adjacency_of(g))
        v2 = cooc(h[perm], a_p)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_raising_connected_score_lowers_loss(self):
        # directional check in score space at the symmetric point: the loss as
        # a function of the score matrix decreases when one connected pair's
        # inner product grows, everything else held fixed
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)

        def loss_from_scores(s):
            z = s - s.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return -float((logp * a).sum())

        base = np.zeros((3, 3))
        eps = 1e-6
        bumped = base.copy()
        bumped[0, 1] += eps
        assert loss_from_scores(bumped) < loss_from_scores(base)

    def test_gradient_wrt_embeddings(self, rng):
        g = random_graph(rng, n=5)
        report = grad_check(
            lambda h: cooccurrence_op(h, [(0, 5)], [g.edges]),
            [rng.standard_normal((5, 3))],
            name="cooccurrence", rng=rng,
        )
        assert report.passed, report.max_relative_error

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            cooccurrence_loss(np.zeros((2, 2)), np.zeros((3, 3)))
        # the op knows a graph's node count only from its rows: an edge list
        # that reaches past them is refused
        with pytest.raises(IndexError):
            cooc(np.zeros((2, 2)), np.eye(3, k=1) + np.eye(3, k=-1))


@st.composite
def cooccurrence_inputs(draw):
    """Embeddings and a symmetric 0/1 adjacency of one graph: single nodes,
    edgeless and complete graphs, and rows scaled up to 100."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0, 100.0]))
    p_edge = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < p_edge, 1)
    return rng.standard_normal((n, d)) * scale, (upper | upper.T).astype(float)


def assert_matches_direct_form(h, adjacency):
    loss, p = cooccurrence_loss(h, adjacency)
    want_loss, want_p = cooccurrence_loss_oracle(h, adjacency)
    np.testing.assert_array_equal(p, want_p)
    assert loss == pytest.approx(want_loss, rel=1e-13, abs=0.0)
    assert loss >= 0.0


class TestCooccurrenceKernelMatchesDirectForm:
    @settings(max_examples=150, deadline=None)
    @given(cooccurrence_inputs())
    @example((np.array([[0.3, -0.7]]), np.zeros((1, 1))))
    @example((np.full((4, 2), 100.0), np.zeros((4, 4))))
    def test_softmax_bit_identical_and_loss_close(self, case):
        assert_matches_direct_form(*case)

    @pytest.mark.parametrize("n", [300, 1000])
    def test_graph_sized_like_the_large_workload(self, n):
        rng = np.random.default_rng(n)
        upper = np.triu(rng.random((n, n)) < 1.25 / n, 1)
        assert_matches_direct_form(np.tanh(rng.standard_normal((n, 32)) * 3.0),
                                   (upper | upper.T).astype(float))


class TestCooccurrenceOpGradient:
    @settings(max_examples=100, deadline=None)
    @given(cooccurrence_inputs(), st.integers(0, 3), st.integers(0, 3))
    @example((np.array([[0.3, -0.7]]), np.zeros((1, 1))), 0, 0)
    @example((np.full((3, 2), 10.0), np.ones((3, 3)) - np.eye(3)), 1, 2)
    def test_edge_form_gradient_equals_the_dense_formula(self, case, before, after):
        # the graph sits between rows of other graphs, which get no gradient
        h, adjacency = case
        n, d = h.shape
        rows = np.vstack([np.ones((before, d)), h, np.ones((after, d))])
        t = Tensor(rows, requires_grad=True)
        cooccurrence_op(t, [(before, before + n)], [directed_edges(adjacency)]).backward()
        np.testing.assert_array_equal(t.grad[before:before + n],
                                      cooccurrence_grad_oracle(h, adjacency))
        assert not t.grad[:before].any() and not t.grad[before + n:].any()
