import numpy as np
import pytest

from slim import autodiff as ad
from slim.autodiff import Tensor, grad_check
from slim.datasets import one_hot_features
from slim.embedding import EncoderParams, encode, init_encoder
from slim.landmarks import LandmarkSet, assign, assign_values
from slim.pooling import (
    density,
    directed_edges,
    feature_width,
    graph_feature,
    graph_feature_op,
    interaction,
    landmark_means,
    normalized_interaction,
    pooled_features,
)

from conftest import random_graph, unfold_triangle

TRIANGLE = np.ones((3, 3)) - np.eye(3)


class TestDensity:
    def test_single_landmark_counts_nodes(self):
        w = np.ones((7, 1))
        np.testing.assert_allclose(density(w), [7.0])

    def test_hard_assignments(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(density(w), [1.0, 1.0])

    def test_total_mass_is_node_count(self, rng):
        w = assign_values(rng.standard_normal((9, 3)), rng.standard_normal((4, 3)))
        assert density(w).sum() == pytest.approx(9.0, abs=1e-9)


class TestLandmarkMeans:
    def test_hard_one_type_cluster(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        w = np.array([[1.0, 0.0], [1.0, 0.0]])
        m = landmark_means(x, w, density(w))
        np.testing.assert_allclose(m[:, 0], [1.0, 0.0], atol=1e-7)

    def test_single_landmark_gives_column_means(self, rng):
        x = rng.random((6, 3))
        w = np.ones((6, 1))
        m = landmark_means(x, w, density(w))
        np.testing.assert_allclose(m[:, 0], x.mean(axis=0), rtol=1e-6)

    def test_two_node_soft_case(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = np.array([[0.8, 0.2], [0.2, 0.8]])
        m = landmark_means(x, w, density(w))
        np.testing.assert_allclose(m, [[0.8, 0.2], [0.2, 0.8]], rtol=1e-6)


class TestInteraction:
    def test_edgeless_graph(self):
        w = np.array([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_array_equal(interaction(w, np.zeros((2, 2))), np.zeros((2, 2)))

    def test_single_edge_hard_assignment(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(interaction(w, a), expected)

    def test_triangle_single_landmark(self):
        c = interaction(np.ones((3, 1)), TRIANGLE)
        np.testing.assert_allclose(c, [[6.0]])

    def test_mass_conservation(self, rng):
        for _ in range(5):
            g = random_graph(rng)
            w = assign_values(rng.standard_normal((g.node_count, 3)),
                              rng.standard_normal((4, 3)))
            c = interaction(w, g.adjacency)
            assert c.sum() == pytest.approx(g.adjacency.sum(), abs=1e-6)

    def test_symmetry(self, rng):
        g = random_graph(rng)
        w = assign_values(rng.standard_normal((g.node_count, 3)),
                          rng.standard_normal((5, 3)))
        c = interaction(w, g.adjacency)
        np.testing.assert_allclose(c, c.T, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            interaction(np.ones((3, 2)), np.zeros((4, 4)))


class TestNormalizedInteraction:
    def test_triangle_value(self):
        c = interaction(np.ones((3, 1)), TRIANGLE)
        c_norm = normalized_interaction(c, np.array([3.0]))
        np.testing.assert_allclose(c_norm, [[2.0 / 3.0]], rtol=1e-6)

    def test_zero_density_guarded(self):
        c = np.zeros((2, 2))
        c[0, 0] = 4.0
        out = normalized_interaction(c, np.array([2.0, 0.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[1], [0.0, 0.0])

    def test_homogeneity(self, rng):
        c = rng.random((3, 3))
        p = rng.uniform(0.5, 2.0, 3)
        base = normalized_interaction(c, p)
        np.testing.assert_allclose(normalized_interaction(2.0 * c, p), 2.0 * base, rtol=1e-9)
        scaled = normalized_interaction(c, 2.0 * p)
        np.testing.assert_allclose(scaled, base / 4.0, rtol=1e-6)


class TestGraphFeature:
    def test_single_landmark_feature_length(self):
        pf = pooled_features(np.ones((3, 1)), np.ones((3, 1)), TRIANGLE)
        v = graph_feature(pf)
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
        pf = pooled_features(x, w, g.adjacency)
        v = graph_feature(pf, include_means)
        n_tri = k * (k + 1) // 2
        assert v.shape == (n_tri + (k + c * k if include_means else 0),)
        assert v.shape == (feature_width(k, c, include_means),)
        unfolded = unfold_triangle(v, k)
        np.testing.assert_allclose(unfolded[: k * k].reshape(k, k), pf.c_norm,
                                   rtol=1e-12, atol=1e-15)
        assert np.linalg.norm(v[:n_tri]) == pytest.approx(
            np.linalg.norm(pf.c_norm), rel=1e-12)
        if include_means:
            np.testing.assert_array_equal(v[n_tri:], np.concatenate([pf.p, pf.m.ravel()]))

    def test_include_means_width(self, rng):
        g = random_graph(rng)
        c = int(g.node_labels.max()) + 1
        x = one_hot_features(g, c)
        w = assign_values(rng.standard_normal((g.node_count, 3)),
                          rng.standard_normal((4, 3)))
        pf = pooled_features(x, w, g.adjacency)
        assert graph_feature(pf, include_means=True).shape == (feature_width(4, c, True),)


def _pipeline_features(g, x, encoder, u, include_means=False):
    """Differentiable substructure-to-feature pipeline used for grad checks."""
    h = encode(ad.constant(x), encoder)
    w = assign(h, LandmarkSet(u, dof=1.0))
    return graph_feature_op(w, [(0, g.node_count)], [x], [directed_edges(g.adjacency)],
                            include_means)


class TestPermutationInvariance:
    def test_pooled_features_invariant(self, rng):
        from slim.datasets import Graph

        encoder = init_encoder(4, 5, 3, rng)
        u = rng.standard_normal((4, 3))
        for _ in range(5):
            g = random_graph(rng, n_types=4)
            c = 4
            x = one_hot_features(g, c)
            from slim.embedding import encode_values

            h = encode_values(x, encoder)
            w = assign_values(h, u)
            pf = pooled_features(x, w, g.adjacency)

            perm = rng.permutation(g.node_count)
            gp = Graph(g.adjacency[np.ix_(perm, perm)], g.node_labels[perm], 0)
            xp = one_hot_features(gp, c)
            hp = encode_values(xp, encoder)
            wp = assign_values(hp, u)
            pfp = pooled_features(xp, wp, gp.adjacency)

            np.testing.assert_allclose(pfp.p, pf.p, atol=1e-6)
            np.testing.assert_allclose(pfp.m, pf.m, atol=1e-6)
            np.testing.assert_allclose(pfp.c, pf.c, atol=1e-6)
            np.testing.assert_allclose(pfp.c_norm, pf.c_norm, atol=1e-6)
            np.testing.assert_allclose(
                graph_feature(pfp), graph_feature(pf), atol=1e-6
            )


class TestDifferentiablePath:
    def test_tape_matches_plain_arrays(self, rng):
        g = random_graph(rng, n_types=3)
        x = one_hot_features(g, 3)
        encoder = init_encoder(3, 4, 3, rng)
        u = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        feat = _pipeline_features(g, x, encoder, u)
        from slim.embedding import encode_values

        h = encode_values(x, encoder)
        w = assign_values(h, u.value)
        expected = graph_feature(pooled_features(x, w, g.adjacency))
        np.testing.assert_allclose(feat.value[0], expected, rtol=1e-12)

    @pytest.mark.parametrize("include_means", [False, True])
    def test_gradients_wrt_embeddings_and_landmarks(self, rng, include_means):
        g = random_graph(rng, n=6, n_types=3)
        x = one_hot_features(g, 3)

        def fn(h, u):
            w = assign(h, LandmarkSet(u, dof=1.0))
            return graph_feature_op(w, [(0, g.node_count)], [x],
                                    [directed_edges(g.adjacency)], include_means)

        report = grad_check(
            fn,
            [rng.standard_normal((6, 3)), rng.standard_normal((4, 3))],
            name="graph_feature", rng=rng,
        )
        assert report.passed, report.max_relative_error
