import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slim import autodiff as ad
from slim import embedding, landmarks
from slim.autodiff import Tensor, grad_check
from slim.embedding import cooccurrence_loss, cooccurrence_op, encode, encode_values
from slim.model import prepare_bundle
from slim.pooling import _neighbour_sums
from slim.synthetic import make_bundle
from slim.training import TrainConfig, train

from conftest import (adjacency_of, blocked_grad_oracle, blocked_loss_oracle,
                      cooccurrence_grad_oracle, cooccurrence_loss_oracle,
                      cooccurrence_loss_reference, csr_tree_with_chords, directed_edges,
                      encoder_model, random_graph)


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


# ---------------------------------------------------------------------------
# the blocked kernels of graphs above ROW_BLOCK rows, with the block made
# small so that small graphs cover every block layout


def assert_grad_close(got, want):
    """dH within 1e-10 of the dense formula, relative to its largest entry:
    P is exp(S - lse) rather than exp(S - max) / sum, so each entry moves by
    a few ulps of the scores."""
    np.testing.assert_allclose(got, want, rtol=1e-10,
                               atol=1e-10 * max(1.0, np.abs(want).max()))


def op_loss_and_grad(graphs, before=0, gap=0):
    """The op's loss and dH over ``graphs`` (pairs of embeddings and a dense
    adjacency) stacked with ``before`` rows ahead and ``gap`` rows between
    them, which belong to no graph; and the bounds."""
    d = graphs[0][0].shape[1]
    rows, bounds, at = [np.ones((before, d))], [], before
    for h, _ in graphs:
        rows += [h, np.ones((gap, d))]
        bounds.append((at, at + len(h)))
        at += len(h) + gap
    t = Tensor(np.vstack(rows), requires_grad=True)
    out = cooccurrence_op(t, bounds, [directed_edges(a) for _, a in graphs])
    out.backward()
    return out.value.item(), t.grad, bounds


@st.composite
def blocked_batches(draw):
    """A row block of 1 to 8 rows and a batch of 1 to 4 graphs of sizes
    around it: at most one block, one row past it, a multiple of it, and not
    a multiple; edgeless to complete, rows scaled up to 100."""
    block = draw(st.integers(1, 8))
    d = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0, 100.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = st.one_of(st.integers(1, block), st.just(block + 1),
                      st.integers(2, 4).map(lambda m: m * block),
                      st.integers(block + 1, 5 * block + 3))
    graphs = []
    for n in draw(st.lists(sizes, min_size=1, max_size=4)):
        upper = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])), 1)
        graphs.append((rng.standard_normal((n, d)) * scale, (upper | upper.T).astype(float)))
    return block, graphs, draw(st.integers(0, 2)), draw(st.integers(0, 2))


class TestBlockedCooccurrence:
    @settings(max_examples=150, deadline=None)
    @given(blocked_batches())
    @example((2, [(np.full((5, 2), 10.0), np.zeros((5, 5)))], 0, 0))
    def test_matches_the_oracles(self, case):
        block, graphs, before, gap = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embedding, "ROW_BLOCK", block)
            loss, grad, bounds = op_loss_and_grad(graphs, before, gap)
        want = sum(cooccurrence_loss_oracle(h, a)[0] for h, a in graphs)
        assert loss == pytest.approx(want, rel=1e-12, abs=0.0)
        assert loss >= 0.0
        owned = np.zeros(len(grad), dtype=bool)
        for (r0, r1), (h, a) in zip(bounds, graphs):
            assert_grad_close(grad[r0:r1], cooccurrence_grad_oracle(h, a))
            owned[r0:r1] = True
        assert not grad[~owned].any()

    def test_a_mixed_batch_keeps_the_small_graphs_bit_identical(self, monkeypatch):
        # graphs of at most ROW_BLOCK rows keep the exact path, whatever
        # else is in the batch; one row more takes the blocked kernels
        rng = np.random.default_rng(5)
        small = [(rng.standard_normal((n, 3)), adjacency_of(random_graph(rng, n=n)))
                 for n in (4, 3)]
        big = (rng.standard_normal((5, 3)), adjacency_of(random_graph(rng, n=5)))
        alone = [op_loss_and_grad([g]) for g in small]
        exact_rows = []

        def counted(h, adjacency):
            exact_rows.append(len(h))
            return cooccurrence_loss(h, adjacency)

        monkeypatch.setattr(embedding, "ROW_BLOCK", 4)
        monkeypatch.setattr(embedding, "cooccurrence_loss", counted)
        _, grad, bounds = op_loss_and_grad([small[0], big, small[1]])
        assert exact_rows == [4, 3]
        for (_, want, _), (r0, r1) in zip(alone, [bounds[0], bounds[2]]):
            np.testing.assert_array_equal(grad[r0:r1], want)

    def test_grad_check_through_the_blocked_path(self, rng, monkeypatch):
        monkeypatch.setattr(embedding, "ROW_BLOCK", 3)
        graphs = [random_graph(rng, n=n) for n in (7, 3, 6)]
        bounds = [(0, 7), (7, 10), (11, 17)]
        report = grad_check(lambda h: cooccurrence_op(h, bounds, [g.edges for g in graphs]),
                            [rng.standard_normal((17, 3))], name="cooccurrence_blocked",
                            rng=rng)
        assert report.passed, report.max_relative_error

    def test_an_edge_past_its_graph_is_refused(self, monkeypatch):
        monkeypatch.setattr(embedding, "ROW_BLOCK", 1)
        path = np.eye(3, k=1) + np.eye(3, k=-1)
        with pytest.raises(IndexError):
            cooc(np.zeros((2, 2)), path)
        before = threading.active_count()
        with pytest.raises(IndexError):
            cooccurrence_op(Tensor(np.zeros((5, 2))), [(0, 3), (3, 5)],
                            [directed_edges(path), directed_edges(path)])
        assert threading.active_count() == before

    def test_results_do_not_depend_on_the_cpu_count(self, monkeypatch):
        # 16 CPUs give a pool of one thread per blocked graph, more threads
        # than this host has cores, switching as often as the interpreter
        # allows: each graph must still write only its own rows of dH
        rng = np.random.default_rng(8)
        graphs = [(np.tanh(rng.standard_normal((n, 4)) * 2), adjacency_of(random_graph(rng, n=n)))
                  for n in (12, 9, 3, 17, 10, 40, 6, 25, 11, 30, 8, 19)]
        monkeypatch.setattr(embedding, "ROW_BLOCK", 4)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 16):
                monkeypatch.setattr(landmarks, "_usable_cpus", lambda: cpus)
                runs.append(op_loss_and_grad(graphs, 1, 1))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_no_thread_outlives_training_on_blocked_graphs(self, monkeypatch):
        monkeypatch.setattr(embedding, "ROW_BLOCK", 8)
        bundle = make_bundle(n_graphs=8, seed=4)
        cfg = TrainConfig(k=4, latent=3, hidden=4, classifier_hidden=5, epochs=1,
                          batch_size=4, seed=0)
        graphs = prepare_bundle(bundle, cfg.substructure())
        assert all(len(g.x) > 8 for g in graphs)
        before = threading.active_count()
        train(graphs, cfg, 2, bundle.node_label_count)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [300, 513, 800, 1200])
    def test_one_pass_matches_the_two_pass_oracle(self, n, monkeypatch):
        # the loss is formed by the oracle's ops, so it is bit-equal; dH takes
        # deg P as e deg / sums rather than exp(S - lse + log deg), a few ulps
        # apart. A constant h gives the same loss and forms no gradient.
        rng = np.random.default_rng(n)
        upper = np.triu(rng.random((n, n)) < 1.5 / n, 1)
        src, dst = edges = directed_edges(upper | upper.T)
        assert not np.bincount(src, minlength=n).all()
        hv = 1.0 / (1.0 + np.exp(-3.0 * rng.standard_normal((n, 32))))
        want_loss, lse = blocked_loss_oracle(hv, src, dst)
        want_grad = blocked_grad_oracle(hv, src, dst, lse)
        calls = []
        monkeypatch.setattr(embedding, "_neighbour_sums",
                            lambda *args: calls.append(1) or _neighbour_sums(*args))
        h = Tensor(hv, requires_grad=True)
        out = cooccurrence_op(h, [(0, n)], [edges])
        out.backward()
        assert out.value.item() == want_loss
        np.testing.assert_allclose(h.grad, want_grad, rtol=0.0,
                                   atol=1e-12 * np.abs(want_grad).max())
        const = cooccurrence_op(Tensor(hv), [(0, n)], [edges])
        assert const.value.item() == want_loss
        assert not const.requires_grad and calls == [1]

    def test_a_20000_node_graph_needs_no_n_by_n_array(self):
        # its softmax P alone would take 3 GiB; the blocked kernels hold a
        # ROW_BLOCK x n block of scores and a few n x d arrays
        rng = np.random.default_rng(20_000)
        n, d = 20_000, TrainConfig().latent
        edges = csr_tree_with_chords(rng, n, n // 4)
        h = Tensor(1.0 / (1.0 + np.exp(-rng.standard_normal((n, d)))), requires_grad=True)
        tracemalloc.start()
        try:
            loss = cooccurrence_op(h, [(0, n)], [edges])
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150 * 2**20
        # the loss, and a few rows of dH, from the dense formulas a chunk of
        # score rows at a time
        hv, (src, dst) = h.value, edges
        deg = np.bincount(src, minlength=n)
        lse = np.empty(n)
        for r in range(0, n, 1000):
            scores = hv[r:r + 1000] @ hv.T
            top = scores.max(axis=1)
            lse[r:r + 1000] = top + np.log(np.exp(scores - top[:, None]).sum(axis=1))
        want = deg @ lse - np.einsum("ij,ij->", hv[src], hv[dst])
        assert loss.value == pytest.approx(want, rel=1e-12)
        for i in rng.choice(n, 5, replace=False):
            scores = hv @ hv[i]
            row = np.exp(scores - lse[i])        # row i of P
            column = np.exp(scores - lse)        # column i of P
            grad = (deg[i] * row + deg * column) @ hv - 2.0 * hv[dst[src == i]].sum(axis=0)
            assert_grad_close(h.grad[i], grad)
