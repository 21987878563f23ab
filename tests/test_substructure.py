import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slim import substructure
from slim.datasets import Graph, one_hot_features
from slim.substructure import (
    DENSE_SHELL_NODES,
    SubstructureConfig,
    Variant,
    build_substructures,
    hop_shells,
)
from slim.synthetic import make_bundle

from conftest import adjacency_of, directed_edges, random_graph

P3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
K3 = np.ones((3, 3)) - np.eye(3)


def shells_of(a, hops):
    """``hop_shells`` of the graph with the dense 0/1 adjacency ``a``."""
    return hop_shells(directed_edges(a), a.shape[0], hops)


def khop_ball(a, k):
    """I + S_1 + ... + S_k from ``hop_shells``: 1 iff the hop distance is <= k."""
    return np.eye(a.shape[0]) + sum(s.astype(float) for s in shells_of(a, k))


def exact_shell(a, j):
    """S_j from ``hop_shells``: 1 iff the hop distance is exactly j >= 1."""
    return shells_of(a, j)[-1].astype(float)


def reachability_oracle(a, k):
    """Independent distance-k reachability via boolean powers of (A + I)."""
    reach = np.eye(a.shape[0], dtype=bool)
    step = (a > 0) | np.eye(a.shape[0], dtype=bool)
    for _ in range(k):
        reach = reach @ step
    return reach.astype(float)


class TestKhopAdjacency:
    def test_k0_is_identity(self, rng):
        for _ in range(5):
            g = random_graph(rng)
            np.testing.assert_array_equal(
                khop_ball(adjacency_of(g), 0), np.eye(g.node_count)
            )

    def test_path_graph_k2_all_ones(self):
        np.testing.assert_array_equal(khop_ball(P3, 2), np.ones((3, 3)))

    def test_path_graph_k1(self):
        np.testing.assert_array_equal(khop_ball(P3, 1), np.eye(3) + P3)

    def test_matches_boolean_power_oracle(self, rng):
        for _ in range(10):
            a = adjacency_of(random_graph(rng))
            k = int(rng.integers(0, 4))
            np.testing.assert_array_equal(khop_ball(a, k), reachability_oracle(a, k))

    def test_symmetry(self, rng):
        g = random_graph(rng)
        a2 = khop_ball(adjacency_of(g), 2)
        np.testing.assert_array_equal(a2, a2.T)


class TestExactLayer:
    def test_j1_equals_adjacency(self, rng):
        for _ in range(5):
            g = random_graph(rng)
            np.testing.assert_array_equal(exact_shell(adjacency_of(g), 1), adjacency_of(g))

    def test_path_graph_layer2(self):
        expected = np.zeros((3, 3))
        expected[0, 2] = expected[2, 0] = 1.0
        np.testing.assert_array_equal(exact_shell(P3, 2), expected)

    def test_complete_graph_layer2_empty(self):
        np.testing.assert_array_equal(exact_shell(K3, 2), np.zeros((3, 3)))

    def test_layers_partition_the_ball(self, rng):
        for _ in range(5):
            g = random_graph(rng)
            k = 3
            total = sum(exact_shell(adjacency_of(g), j) for j in range(1, k + 1))
            np.testing.assert_array_equal(
                total, khop_ball(adjacency_of(g), k) - np.eye(g.node_count)
            )


def p3_graph():
    return Graph.from_adjacency(P3, np.array([0, 1, 0]), 0)


class TestBuildSubstructures:
    def test_p3_node_distribution_hand_case(self):
        g = p3_graph()
        x = one_hot_features(g, 2)
        z = build_substructures(g, x, SubstructureConfig(hops=1))
        np.testing.assert_array_equal(z, [[1, 1], [2, 1], [1, 1]])

    def test_single_node_any_variant(self):
        # no neighbors exist: Z is X (plus the self-reach copy for
        # center_emphasis) and every layer-indexed block is zero
        g = Graph.from_adjacency(np.zeros((1, 1)), np.array([1]), 0)
        x = one_hot_features(g, 3)
        expected = {
            Variant.NODE_DISTRIBUTION: x,
            Variant.CENTER_EMPHASIS: np.hstack([x, x]),
            Variant.LAYER_WISE: np.zeros((1, 6)),
            Variant.WEIGHTED_LAYER_SUM: x,
        }
        for variant in Variant:
            cfg = SubstructureConfig(hops=2, variant=variant)
            z = build_substructures(g, x, cfg)
            assert z.shape == (1, cfg.feature_width(3))
            np.testing.assert_array_equal(z, expected[variant])

    def test_node_distribution_row_sums_are_ball_sizes(self, rng):
        for _ in range(5):
            g = random_graph(rng)
            x = one_hot_features(g, int(g.node_labels.max()) + 1)
            z = build_substructures(g, x, SubstructureConfig(hops=2))
            balls = khop_ball(adjacency_of(g), 2).sum(axis=1)
            np.testing.assert_allclose(z.sum(axis=1), balls)

    def test_center_emphasis_layout(self):
        g = p3_graph()
        x = one_hot_features(g, 2)
        z = build_substructures(
            g, x, SubstructureConfig(hops=1, variant=Variant.CENTER_EMPHASIS)
        )
        assert z.shape == (3, 4)
        np.testing.assert_array_equal(z[:, :2], x)
        np.testing.assert_array_equal(z[:, 2:], [[1, 1], [2, 1], [1, 1]])

    def test_layer_wise_layout(self):
        g = p3_graph()
        x = one_hot_features(g, 2)
        z = build_substructures(
            g, x, SubstructureConfig(hops=2, variant=Variant.LAYER_WISE)
        )
        assert z.shape == (3, 4)
        np.testing.assert_array_equal(z[:, :2], P3 @ x)
        np.testing.assert_array_equal(z[:, 2:], exact_shell(P3, 2) @ x)

    def test_weighted_layer_sum(self):
        g = p3_graph()
        x = one_hot_features(g, 2)
        cfg = SubstructureConfig(hops=2, variant=Variant.WEIGHTED_LAYER_SUM, layer_decay=0.5)
        z = build_substructures(g, x, cfg)
        expected = x + 0.5 * (P3 @ x) + 0.25 * (exact_shell(P3, 2) @ x)
        np.testing.assert_allclose(z, expected)

    def test_layer_wise_rejects_zero_hops(self):
        # a configuration error, caught before any graph is built
        with pytest.raises(ValueError, match="hops"):
            SubstructureConfig(hops=0, variant=Variant.LAYER_WISE)

    def test_monotone_in_hops(self, rng):
        for _ in range(5):
            g = random_graph(rng)
            x = one_hot_features(g, int(g.node_labels.max()) + 1)
            z1 = build_substructures(g, x, SubstructureConfig(hops=1))
            z2 = build_substructures(g, x, SubstructureConfig(hops=2))
            assert np.all(z2 >= z1)

    def test_permutation_equivariance(self, rng):
        for _ in range(5):
            g = random_graph(rng)
            c = int(g.node_labels.max()) + 1
            x = one_hot_features(g, c)
            perm = rng.permutation(g.node_count)
            gp = Graph.from_adjacency(adjacency_of(g)[np.ix_(perm, perm)], g.node_labels[perm],
                                      g.class_label)
            xp = one_hot_features(gp, c)
            for variant in Variant:
                cfg = SubstructureConfig(hops=2, variant=variant)
                z = build_substructures(g, x, cfg)
                zp = build_substructures(gp, xp, cfg)
                np.testing.assert_array_equal(zp, z[perm])

    def test_hops_guard(self):
        with pytest.raises(ValueError, match="hops"):
            SubstructureConfig(hops=11)

    def test_all_entries_non_negative(self, rng):
        g = random_graph(rng)
        x = one_hot_features(g, int(g.node_labels.max()) + 1)
        for variant in Variant:
            z = build_substructures(g, x, SubstructureConfig(hops=3, variant=variant))
            assert np.all(z >= 0)


# ---------------------------------------------------------------------------
# parity with the per-source BFS that the shell recurrence replaced


def old_bfs_distances(adjacency, source, limit):
    """Hop distance from ``source`` to every node, -1 beyond ``limit``."""
    n = adjacency.shape[0]
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    depth = 0
    while frontier and depth < limit:
        depth += 1
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(adjacency[u]):
                if dist[v] < 0:
                    dist[v] = depth
                    nxt.append(int(v))
        frontier = nxt
    return dist


def old_all_distances(adjacency, limit):
    n = adjacency.shape[0]
    return np.stack([old_bfs_distances(adjacency, s, limit) for s in range(n)])


def old_build_substructures(adjacency, x, cfg, dist=None):
    """The BFS-distance layouts, kept as the oracle. ``dist`` may pass in
    ``old_all_distances(adjacency, max(cfg.hops, 1))`` when already known."""
    k, variant = cfg.hops, cfg.variant
    if dist is None:
        dist = old_all_distances(adjacency, max(k, 1))
    reach = ((dist >= 0) & (dist <= k)).astype(np.float64)
    if variant is Variant.NODE_DISTRIBUTION:
        return reach @ x
    if variant is Variant.CENTER_EMPHASIS:
        return np.hstack([x, reach @ x])
    if variant is Variant.LAYER_WISE:
        return np.hstack([(dist == j).astype(np.float64) @ x for j in range(1, k + 1)])
    z = x.copy()
    for j in range(1, k + 1):
        z += cfg.layer_decay**j * ((dist == j).astype(np.float64) @ x)
    return z


def assert_matches_oracle(g, c, hops, decay):
    x = one_hot_features(g, c)
    for variant in Variant:
        if variant is Variant.LAYER_WISE and hops == 0:
            continue
        cfg = SubstructureConfig(hops=hops, variant=variant, layer_decay=decay)
        np.testing.assert_array_equal(build_substructures(g, x, cfg),
                                      old_build_substructures(adjacency_of(g), x, cfg))


TYPES = 4


@st.composite
def graphs_strategy(draw):
    n = draw(st.integers(1, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    types = draw(st.lists(st.integers(0, TYPES - 1), min_size=n, max_size=n))
    return Graph.from_adjacency(a, np.array(types), 0)


def adjacency_from_edges(n, edges):
    a = np.zeros((n, n))
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a[edges[:, 0], edges[:, 1]] = a[edges[:, 1], edges[:, 0]] = 1.0
    np.fill_diagonal(a, 0.0)
    return a


def _graph(n, edges, types):
    return Graph.from_adjacency(adjacency_from_edges(n, edges), np.array(types), 0)


@settings(max_examples=60, deadline=None)
@given(graphs_strategy(), st.integers(0, 4), st.floats(0.01, 1.0))
@example(_graph(1, [], [2]), 3, 0.5)                                   # single node
@example(_graph(5, [], [0, 1, 2, 3, 0]), 4, 0.5)                       # edgeless
@example(_graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)], [0, 1, 2, 3, 0, 1, 2]), 4, 0.3)
def test_every_layout_equals_the_bfs_oracle(g, hops, decay):
    assert_matches_oracle(g, TYPES, hops, decay)
    dist = old_all_distances(adjacency_of(g), max(hops, 1))
    np.testing.assert_array_equal(khop_ball(adjacency_of(g), hops),
                                  ((dist >= 0) & (dist <= hops)).astype(float))
    if hops >= 1:
        np.testing.assert_array_equal(exact_shell(adjacency_of(g), hops),
                                      (dist == hops).astype(float))


def test_every_layout_equals_the_bfs_oracle_on_the_standin():
    bundle = make_bundle(seed=0)
    for g in bundle.graphs:
        for hops in range(5):
            assert_matches_oracle(g, bundle.node_label_count, hops, 0.5)


# ---------------------------------------------------------------------------
# above the dense crossover: shells walked along the edge list


def dense_hop_shells(adjacency, hops):
    """The float32-product recurrence at every hop, kept as the oracle."""
    a = adjacency > 0
    a32 = a.astype(np.float32)
    reach = np.eye(a.shape[0], dtype=bool)
    shells = []
    for j in range(hops):
        frontier = a if j == 0 else shells[-1].astype(np.float32) @ a32 > 0
        shell = frontier & ~reach
        reach |= shell
        shells.append(shell)
    return shells


def tree_with_chords(rng, n, chords, detach=0.0):
    """A random tree on n nodes (each node hangs off an earlier one) plus
    ``chords`` random edges; with ``detach`` > 0 that share of the nodes
    start a new component instead of hanging off the tree."""
    child = np.arange(1, n)
    child = child[rng.random(n - 1) >= detach]
    tree = np.column_stack([child, rng.integers(0, child)])
    return adjacency_from_edges(n, np.vstack([tree, rng.integers(0, n, (chords, 2))]))


def spider(legs, length):
    """A hub with ``legs`` paths of ``length`` nodes hanging off it."""
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges.append((0, first))
        edges += [(first + i, first + i + 1) for i in range(length - 1)]
    return adjacency_from_edges(1 + legs * length, edges)


def assert_shells_match_the_oracles(a, types, hops, decay=0.5):
    """Every layout against the BFS oracle, the ball of ``hop_shells``
    against the boolean-power oracle and its last shell against the BFS
    distances, all bit-exact."""
    g = Graph.from_adjacency(a, types, 0)
    x = one_hot_features(g, TYPES)
    dist = old_all_distances(a, max(hops, 1))
    for variant in Variant:
        cfg = SubstructureConfig(hops=hops, variant=variant, layer_decay=decay)
        np.testing.assert_array_equal(build_substructures(g, x, cfg),
                                      old_build_substructures(a, x, cfg, dist))
    np.testing.assert_array_equal(khop_ball(a, hops), reachability_oracle(a, hops))
    np.testing.assert_array_equal(exact_shell(a, hops), (dist == hops).astype(float))


@st.composite
def graphs_above_the_crossover(draw):
    """Sparse graphs (forests with n/4 chords, some nodes detached) and
    mid-density G(n, d/n) graphs with mean degree d in [3, 8]."""
    n = draw(st.integers(DENSE_SHELL_NODES + 1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = tree_with_chords(rng, n, n // 4, detach=draw(st.sampled_from([0.0, 0.02, 0.2])))
    else:
        upper = np.triu(rng.random((n, n)) < draw(st.floats(3.0, 8.0)) / n, 1)
        a = (upper | upper.T).astype(float)
    return a, rng.integers(0, TYPES, n)


@settings(max_examples=30, deadline=None)
@given(graphs_above_the_crossover(), st.integers(1, 4), st.floats(0.01, 1.0))
def test_walked_shells_equal_the_oracles_above_the_crossover(graph, hops, decay):
    a, types = graph
    assert_shells_match_the_oracles(a, types, hops, decay)


def walk_record(monkeypatch):
    """Record, per hop that may walk, whether ``hop_shells`` walked it."""
    taken = []
    walk = substructure._walked_frontier

    def spy(shell, *csr):
        frontier = walk(shell, *csr)
        taken.append(frontier is not None)
        return frontier

    monkeypatch.setattr(substructure, "_walked_frontier", spy)
    return taken


N = DENSE_SHELL_NODES + 40
# name -> (adjacency, hops, whether hops 2, 3, ... were walked); a graph at
# or below the crossover, or with more than n^2/8 directed edges, never
# tries the walk
WALK_CASES = {
    "edgeless": (np.zeros((N, N)), 3, [True, True]),
    # a path over the even nodes and one over every sixth odd node: the
    # other odd nodes are isolated
    "isolated_nodes_between_connected_ones": (
        adjacency_from_edges(N, [(i, i + 2) for i in range(0, N - 2, 2)]
                             + [(i, i + 6) for i in range(1, N - 6, 6)]), 4, [True] * 3),
    "disconnected_components": (tree_with_chords(np.random.default_rng(3), N, N // 4, 0.05),
                                3, [True, True]),
    "complete": (np.ones((N, N)) - np.eye(N), 3, []),
    "star": (spider(N - 1, 1), 3, [False, False]),
    # 241 nodes, bound 241^2 // 8 = 7260: hop 2 walks sum(deg^2) = 7120 steps;
    # hop 3 would walk 19440 steps from 6640 pairs, fewer than the bound, so
    # the step count, not the pair count, sends it to the product
    "walks_then_falls_back": (spider(80, 3), 4, [True, False, False]),
    "at_the_crossover": (tree_with_chords(np.random.default_rng(4), DENSE_SHELL_NODES,
                                          DENSE_SHELL_NODES // 4), 3, []),
}


@pytest.mark.parametrize("name", WALK_CASES)
def test_walked_shells_on_edge_cases(name, monkeypatch):
    a, hops, walked = WALK_CASES[name]
    types = np.arange(a.shape[0]) % TYPES
    taken = walk_record(monkeypatch)
    np.testing.assert_array_equal(shells_of(a, hops), dense_hop_shells(a, hops))
    assert taken == walked
    assert_shells_match_the_oracles(a, types, hops)


@pytest.mark.parametrize("name", ["complete", "star", "walks_then_falls_back"])
def test_a_refused_hop_never_lists_the_shells_pairs(name, monkeypatch):
    # the walk is counted from the degrees before any pair of the shell is
    # listed (np.flatnonzero), so a hop sent to the product lists nothing
    a, hops, walked = WALK_CASES[name]
    edges = directed_edges(a)
    listed = []
    flatnonzero = np.flatnonzero

    def spy(array):
        listed.append(array.shape)
        return flatnonzero(array)

    monkeypatch.setattr(substructure.np, "flatnonzero", spy)
    shells = hop_shells(edges, a.shape[0], hops)
    monkeypatch.undo()
    assert len(listed) == walked.count(True)
    np.testing.assert_array_equal(shells, dense_hop_shells(a, hops))


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make", [lambda: np.ones((600, 600)) - np.eye(600),
                                  lambda: spider(1999, 1)], ids=["complete_600", "star_2000"])
def test_walk_guard_keeps_peak_memory_at_the_dense_products(make):
    adjacency = make()
    edges = directed_edges(adjacency)
    # unguarded, the walk of hop 2 has n^3 steps on the complete graph and
    # n^2 on the star: gigabytes and about twice the product's peak
    assert (traced_peak(hop_shells, edges, len(adjacency), 3)
            <= traced_peak(dense_hop_shells, adjacency, 3))


def test_5000_node_sparse_graph_builds_three_hops_in_seconds():
    rng = np.random.default_rng(5000)
    n = 5000
    a = tree_with_chords(rng, n, n // 4)
    g = Graph.from_adjacency(a, rng.integers(0, TYPES, n), 0)
    x = one_hot_features(g, TYPES)
    start = time.perf_counter()
    z = build_substructures(g, x, SubstructureConfig(hops=3))
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    for source in rng.choice(n, 40, replace=False):
        dist = old_bfs_distances(a, source, 3)
        np.testing.assert_array_equal(z[source], x[dist >= 0].sum(axis=0))
