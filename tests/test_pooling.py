import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slim import autodiff as ad
from slim import model as M
from slim.autodiff import Tensor, grad_check
from slim.datasets import Graph, one_hot_features
from slim.embedding import encode, encode_values
from slim.landmarks import assign
from slim.pooling import (
    DENSITY_EPS,
    feature_width,
    graph_feature_op,
    pool_graph,
    upper_triangle,
)
from slim.synthetic import make_bundle
from slim.training import TrainConfig, init_state

from conftest import (adjacency_of, assign_values, directed_edges, encoder_model,
                      graph_feature, pooled_features, random_graph, unfold_triangle)

TRIANGLE = np.ones((3, 3)) - np.eye(3)
EDGE = TRIANGLE[:2, :2]


def pooled(x, w, adjacency):
    """p, M, C and C_norm from the shipped kernel, derived as ``slim inspect``
    derives them."""
    p, _, v, c_norm = pool_graph(w, *directed_edges(adjacency))
    return p, x.T @ v, c_norm * np.outer(p + DENSITY_EPS, p + DENSITY_EPS), c_norm


def pooled_c(w, adjacency):
    return pooled(np.ones((len(w), 1)), w, adjacency)[2]


class TestDensity:
    def test_single_landmark_counts_nodes(self):
        w = np.ones((7, 1))
        np.testing.assert_allclose(pool_graph(w, *directed_edges(np.zeros((7, 7))))[0],
                                   [7.0])

    def test_hard_assignments(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(pool_graph(w, *directed_edges(EDGE))[0],
                                   [1.0, 1.0])

    def test_total_mass_is_node_count(self, rng):
        g = random_graph(rng, n=9)
        w = assign_values(rng.standard_normal((9, 3)), rng.standard_normal((4, 3)))
        p = pool_graph(w, *g.edges)[0]
        assert p.sum() == pytest.approx(9.0, abs=1e-9)


class TestLandmarkMeans:
    def test_hard_one_type_cluster(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        w = np.array([[1.0, 0.0], [1.0, 0.0]])
        m = pooled(x, w, EDGE)[1]
        np.testing.assert_allclose(m[:, 0], [1.0, 0.0], atol=1e-7)

    def test_single_landmark_gives_column_means(self, rng):
        x = rng.random((6, 3))
        w = np.ones((6, 1))
        m = pooled(x, w, np.zeros((6, 6)))[1]
        np.testing.assert_allclose(m[:, 0], x.mean(axis=0), rtol=1e-6)

    def test_two_node_soft_case(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = np.array([[0.8, 0.2], [0.2, 0.8]])
        m = pooled(x, w, EDGE)[1]
        np.testing.assert_allclose(m, [[0.8, 0.2], [0.2, 0.8]], rtol=1e-6)


class TestInteraction:
    def test_edgeless_graph(self):
        w = np.array([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_array_equal(pooled_c(w, np.zeros((2, 2))), np.zeros((2, 2)))

    def test_single_edge_hard_assignment(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(pooled_c(w, EDGE), EDGE, rtol=1e-15)

    def test_triangle_single_landmark(self):
        np.testing.assert_allclose(pooled_c(np.ones((3, 1)), TRIANGLE), [[6.0]])

    def test_mass_conservation(self, rng):
        for _ in range(5):
            g = random_graph(rng)
            w = assign_values(rng.standard_normal((g.node_count, 3)),
                              rng.standard_normal((4, 3)))
            c = pooled_c(w, adjacency_of(g))
            assert c.sum() == pytest.approx(adjacency_of(g).sum(), abs=1e-6)

    def test_symmetry(self, rng):
        g = random_graph(rng)
        w = assign_values(rng.standard_normal((g.node_count, 3)),
                          rng.standard_normal((5, 3)))
        c_norm = pool_graph(w, *g.edges)[3]
        np.testing.assert_array_equal(c_norm, c_norm.T)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="node count"):
            graph_feature_op(Tensor(np.ones((3, 2))), [(0, 3)], [np.ones((4, 1))],
                             [directed_edges(np.zeros((4, 4)))])


class TestNormalizedInteraction:
    def test_triangle_value(self):
        c_norm = pool_graph(np.ones((3, 1)), *directed_edges(TRIANGLE))[3]
        np.testing.assert_allclose(c_norm, [[2.0 / 3.0]], rtol=1e-6)

    def test_zero_density_guarded(self):
        w = np.array([[1.0, 0.0], [1.0, 0.0]])
        c_norm = pool_graph(w, *directed_edges(EDGE))[3]
        assert np.all(np.isfinite(c_norm))
        np.testing.assert_allclose(c_norm, [[0.5, 0.0], [0.0, 0.0]])

    def test_homogeneity(self, rng):
        # C_norm is homogeneous of degree 0 in W: scaling W scales C by the
        # square and p by the same factor, so the normalization cancels it
        g = random_graph(rng)
        w = rng.uniform(0.5, 2.0, (g.node_count, 3))
        edges = g.edges
        base = pool_graph(w, *edges)[3]
        np.testing.assert_allclose(pool_graph(2.0 * w, *edges)[3], base, rtol=1e-6)
        np.testing.assert_allclose(pooled_c(2.0 * w, adjacency_of(g)),
                                   4.0 * pooled_c(w, adjacency_of(g)), rtol=1e-9)


def feature_row(x, w, adjacency, include_means=False):
    """The classifier row of one graph from the shipped batch op."""
    return graph_feature_op(Tensor(w), [(0, len(w))], [x], [directed_edges(adjacency)],
                            include_means).value[0]


class TestGraphFeature:
    def test_single_landmark_feature_length(self):
        v = feature_row(np.ones((3, 1)), np.ones((3, 1)), TRIANGLE)
        assert v.shape == (1,)
        assert v[0] == pytest.approx(2.0 / 3.0, rel=1e-6)

    @pytest.mark.parametrize("include_means", [False, True])
    def test_triangle_layout(self, rng, include_means):
        # the row holds the sqrt(2)-scaled upper triangle of C_norm, which
        # unfolds back to the symmetric matrix and keeps its Frobenius norm
        g = random_graph(rng)
        c = int(g.node_labels.max()) + 1
        x = one_hot_features(g, c)
        k = 5
        w = assign_values(rng.standard_normal((g.node_count, 3)),
                          rng.standard_normal((k, 3)))
        p, m, _, c_norm = pooled(x, w, adjacency_of(g))
        v = feature_row(x, w, adjacency_of(g), include_means)
        n_tri = k * (k + 1) // 2
        assert v.shape == (n_tri + (k + c * k if include_means else 0),)
        assert v.shape == (feature_width(k, c, include_means),)
        unfolded = unfold_triangle(v, k)
        np.testing.assert_allclose(unfolded[: k * k].reshape(k, k), c_norm,
                                   rtol=1e-12, atol=1e-15)
        assert np.linalg.norm(v[:n_tri]) == pytest.approx(np.linalg.norm(c_norm), rel=1e-12)
        if include_means:
            np.testing.assert_array_equal(v[n_tri:], np.concatenate([p, m.ravel()]))

    def test_include_means_width(self, rng):
        g = random_graph(rng)
        c = int(g.node_labels.max()) + 1
        x = one_hot_features(g, c)
        w = assign_values(rng.standard_normal((g.node_count, 3)),
                          rng.standard_normal((4, 3)))
        assert feature_row(x, w, adjacency_of(g), True).shape == (feature_width(4, c, True),)


class TestCenteredRows:
    @pytest.mark.parametrize("include_means", [False, True])
    @pytest.mark.parametrize("taped", [False, True])
    def test_rows_are_the_raw_rows_minus_the_center(self, rng, include_means, taped):
        # batch_forward pools raw rows before the centre is fitted and centred
        # rows after, bit for bit the raw ones minus the centre, with the
        # same gradient
        bundle = make_bundle(n_graphs=5, seed=3)
        cfg = TrainConfig(k=4, latent=3, hidden=5, classifier_hidden=3,
                          include_means=include_means)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        c = bundle.node_label_count
        state = init_state(cfg, graphs[0].z.shape[1], c, bundle.class_count, rng)
        state.u.value = rng.standard_normal(state.u.shape)
        center = rng.standard_normal(feature_width(cfg.k, c, include_means))
        seed = rng.standard_normal((len(graphs), len(center)))
        runs = []
        for fitted in (None, center):
            state.feature_center = fitted
            state.zero_grad()
            fwd = M.batch_forward(graphs, state if taped else state.frozen())
            assert fwd.features.requires_grad == taped
            if taped:
                fwd.features.backward(seed)
            runs.append((fwd.features.value,
                         [None if p.grad is None else p.grad.copy()
                          for p in state.parameters()]))
        (raw, raw_grads), (centred, centred_grads) = runs
        mask, scale = upper_triangle(cfg.k)
        for row, (r0, r1), data in zip(raw, fwd.bounds, graphs, strict=True):
            c_norm = pool_graph(fwd.w.value[r0:r1], *data.edges)[3]
            assert row[:len(scale)].tobytes() == (c_norm[mask] * scale).tobytes()
        assert centred.tobytes() == (raw - center).tobytes()
        for got, want in zip(centred_grads, raw_grads, strict=True):
            if want is None:
                assert got is None
            else:
                assert got.tobytes() == want.tobytes()
        assert any(g is not None for g in centred_grads) == taped


def _pipeline_features(g, x, encoder, u, include_means=False):
    """Differentiable substructure-to-feature pipeline used for grad checks."""
    h = encode(ad.constant(x), encoder)
    w = assign(h, u)
    return graph_feature_op(w, [(0, g.node_count)], [x], [g.edges],
                            include_means)


TYPES = 4


@st.composite
def relabelled_graphs(draw):
    """A random graph of 1-40 nodes, edgeless about one time in five, and the
    same graph with its nodes permuted."""
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.4, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, 1)
    a = (upper | upper.T).astype(float)
    labels = rng.integers(0, TYPES, n)
    perm = np.array(draw(st.permutations(range(n))))
    return (Graph.from_adjacency(a, labels, 0),
            Graph.from_adjacency(a[np.ix_(perm, perm)], labels[perm], 0))


SINGLE = Graph.from_adjacency(np.zeros((1, 1)), np.array([2]), 0)
EDGELESS = Graph.from_adjacency(np.zeros((5, 5)), np.array([0, 3, 3, 1, 0]), 0)


class TestPermutationInvariance:
    @settings(max_examples=80, deadline=None)
    @given(relabelled_graphs(), st.booleans())
    @example((SINGLE, SINGLE), True)
    @example((EDGELESS, Graph.from_adjacency(np.zeros((5, 5)), np.array([3, 0, 1, 0, 3]), 0)),
             False)
    def test_pooled_features_invariant(self, graphs, include_means):
        # p, C_norm and the feature row of a graph do not depend on the order
        # of its nodes; each is compared to within 1e-12 of its largest entry
        rng = np.random.default_rng(0)
        encoder = encoder_model(rng, TYPES, 5, 3)
        u = Tensor(rng.standard_normal((4, 3)))
        results = []
        for g in graphs:
            x = one_hot_features(g, TYPES)
            w = assign(Tensor(encode_values(x, encoder)), u).value
            p, _, _, c_norm = pool_graph(w, *g.edges)
            results.append((p, c_norm,
                            _pipeline_features(g, x, encoder, u, include_means).value[0]))
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestDifferentiablePath:
    def test_tape_matches_plain_arrays(self, rng):
        g = random_graph(rng, n_types=3)
        x = one_hot_features(g, 3)
        encoder = encoder_model(rng, 3, 4, 3)
        u = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        feat = _pipeline_features(g, x, encoder, u)
        h = encode_values(x, encoder)
        w = assign_values(h, u.value)
        expected = graph_feature(pooled_features(x, w, adjacency_of(g)))
        np.testing.assert_allclose(feat.value[0], expected, rtol=1e-12)

    @pytest.mark.parametrize("include_means", [False, True])
    def test_gradients_wrt_embeddings_and_landmarks(self, rng, include_means):
        g = random_graph(rng, n=6, n_types=3)
        x = one_hot_features(g, 3)

        def fn(h, u):
            w = assign(h, u)
            return graph_feature_op(w, [(0, g.node_count)], [x],
                                    [g.edges], include_means)

        report = grad_check(
            fn,
            [rng.standard_normal((6, 3)), rng.standard_normal((4, 3))],
            name="graph_feature", rng=rng,
        )
        assert report.passed, report.max_relative_error
