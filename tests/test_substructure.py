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
    walked_shells,
)
from slim.synthetic import make_bundle

from conftest import adjacency_of, csr_tree_with_chords, directed_edges, random_graph

P3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
K3 = np.ones((3, 3)) - np.eye(3)


def keys_to_bool(keys, n):
    """The n x n booleans of the pair keys p * n + q, which must be sorted
    and distinct."""
    assert keys.dtype == np.int64 and (np.diff(keys) > 0).all()
    out = np.zeros(n * n, dtype=bool)
    out[keys] = True
    return out.reshape(n, n)


def shells_of(a, hops):
    """(shells, ball) as booleans for the graph with the dense 0/1 adjacency
    ``a``, from the path ``build_substructures`` takes: the keys of
    ``walked_shells`` scattered, with their union and I as the ball, or
    ``hop_shells``."""
    n = a.shape[0]
    keyed = walked_shells(directed_edges(a), n, hops)
    if keyed is None:
        return hop_shells(directed_edges(a), n, hops)
    shells = [keys_to_bool(keys, n) for keys in keyed]
    return shells, np.logical_or.reduce([np.eye(n, dtype=bool)] + shells)


def khop_ball(a, k):
    """The ball of ``shells_of`` as 0/1 floats: 1 iff the hop distance is <= k."""
    return shells_of(a, k)[1].astype(float)


def exact_shell(a, j):
    """S_j from ``shells_of``: 1 iff the hop distance is exactly j >= 1."""
    return shells_of(a, j)[0][-1].astype(float)


def assert_ball_is_the_union_of_shells(a, hops, dist):
    """The boolean ball of ``shells_of`` is I + S_1 + ... + S_hops, the
    shells disjoint, and holds exactly the BFS distances ``dist`` <= hops."""
    shells, ball = shells_of(a, hops)
    assert ball.dtype == bool
    np.testing.assert_array_equal(
        ball.astype(float), np.eye(a.shape[0]) + sum(s.astype(float) for s in shells))
    np.testing.assert_array_equal(ball, (dist >= 0) & (dist <= hops))


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
        # c, 2c and hops * c columns, for c = 3 node types and 2 hops
        widths = {Variant.NODE_DISTRIBUTION: 3, Variant.CENTER_EMPHASIS: 6,
                  Variant.LAYER_WISE: 6, Variant.WEIGHTED_LAYER_SUM: 3}
        for variant in Variant:
            z = build_substructures(g, x, SubstructureConfig(hops=2, variant=variant))
            assert z.shape == (1, widths[variant])
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
    assert_ball_is_the_union_of_shells(adjacency_of(g), hops, dist)
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
    against the boolean-power oracle, its shells and the BFS distances, and
    its last shell against the BFS distances, all bit-exact."""
    g = Graph.from_adjacency(a, types, 0)
    x = one_hot_features(g, TYPES)
    dist = old_all_distances(a, max(hops, 1))
    for variant in Variant:
        cfg = SubstructureConfig(hops=hops, variant=variant, layer_decay=decay)
        np.testing.assert_array_equal(build_substructures(g, x, cfg),
                                      old_build_substructures(a, x, cfg, dist))
    np.testing.assert_array_equal(khop_ball(a, hops), reachability_oracle(a, hops))
    assert_ball_is_the_union_of_shells(a, hops, dist)
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
    """Record, per hop past S_1 that ``walked_shells`` tries, whether it was
    walked, and the node count of each ``hop_shells`` (product) call."""
    taken, products = [], []
    walk, product = substructure._walked_hop, substructure.hop_shells

    def walk_spy(*args):
        keys = walk(*args)
        taken.append(keys is not None)
        return keys

    def product_spy(*args):
        products.append(args[1])
        return product(*args)

    monkeypatch.setattr(substructure, "_walked_hop", walk_spy)
    monkeypatch.setattr(substructure, "hop_shells", product_spy)
    return taken, products


N = DENSE_SHELL_NODES + 40
# name -> (adjacency, hops, whether hops 2, 3, ... were walked, whether the
# product built Z); a graph at or below the crossover, or with more than
# n^2/8 directed edges, never tries the walk, and the first refused hop
# sends the whole graph to the product
WALK_CASES = {
    "edgeless": (np.zeros((N, N)), 3, [True, True], False),
    # a path over the even nodes and one over every sixth odd node: the
    # other odd nodes are isolated
    "isolated_nodes_between_connected_ones": (
        adjacency_from_edges(N, [(i, i + 2) for i in range(0, N - 2, 2)]
                             + [(i, i + 6) for i in range(1, N - 6, 6)]), 4, [True] * 3, False),
    "disconnected_components": (tree_with_chords(np.random.default_rng(3), N, N // 4, 0.05),
                                3, [True, True], False),
    "complete": (np.ones((N, N)) - np.eye(N), 3, [], True),
    "star": (spider(N - 1, 1), 3, [False], True),
    # 241 nodes, bound 241^2 // 8 = 7260: hop 2 walks sum(deg^2) = 7120 steps;
    # hop 3 would walk 19440 steps from 6640 pairs, fewer than the bound, so
    # the step count, not the pair count, refuses it; hop 4 is never tried,
    # and the product builds every hop
    "walks_then_falls_back": (spider(80, 3), 4, [True, False], True),
    "at_the_crossover": (tree_with_chords(np.random.default_rng(4), DENSE_SHELL_NODES,
                                          DENSE_SHELL_NODES // 4), 3, [], True),
}


@pytest.mark.parametrize("name", WALK_CASES)
def test_walked_shells_on_edge_cases(name, monkeypatch):
    a, hops, walked, product = WALK_CASES[name]
    n = a.shape[0]
    types = np.arange(n) % TYPES
    taken, products = walk_record(monkeypatch)
    keyed = walked_shells(directed_edges(a), n, hops)
    assert taken == walked
    assert (keyed is None) == product
    if keyed is not None:
        np.testing.assert_array_equal([keys_to_bool(keys, n) for keys in keyed],
                                      dense_hop_shells(a, hops))
    taken.clear()
    g = Graph.from_adjacency(a, types, 0)
    build_substructures(g, one_hot_features(g, TYPES), SubstructureConfig(hops=hops))
    assert taken == walked
    assert products == ([n] if product else [])
    monkeypatch.undo()
    assert_shells_match_the_oracles(a, types, hops)


@pytest.mark.parametrize("name", ["complete", "star", "walks_then_falls_back"])
def test_a_refused_hop_walks_no_step(name, monkeypatch):
    # a hop's walk is counted from the degrees before any step is listed,
    # so a hop sent to the product walks no chunk
    a, hops, walked, _ = WALK_CASES[name]
    chunks = []   # chunks walked by each hop tried, and whether it was walked
    walk, walk_hop = substructure._walk, substructure._walked_hop

    def walk_spy(*args):
        chunks[-1][0] += 1
        return walk(*args)

    def walk_hop_spy(*args):
        chunks.append([0, None])
        keys = walk_hop(*args)
        chunks[-1][1] = keys is not None
        return keys

    monkeypatch.setattr(substructure, "_walk", walk_spy)
    monkeypatch.setattr(substructure, "_walked_hop", walk_hop_spy)
    assert walked_shells(directed_edges(a), a.shape[0], hops) is None
    assert [accepted for _, accepted in chunks] == walked
    assert [count > 0 for count, _ in chunks] == walked


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def shell_stage(edges, n, hops):
    """The shells as ``build_substructures`` forms them: the walked keys, or
    the product's booleans when the walk is refused."""
    keyed = walked_shells(edges, n, hops)
    return keyed if keyed is not None else hop_shells(edges, n, hops)


@pytest.mark.parametrize("make", [lambda: np.ones((600, 600)) - np.eye(600),
                                  lambda: spider(1999, 1)], ids=["complete_600", "star_2000"])
def test_walk_guard_keeps_peak_memory_at_the_dense_products(make):
    adjacency = make()
    edges = directed_edges(adjacency)
    # unguarded, the walk of hop 2 has n^3 steps on the complete graph and
    # n^2 on the star: gigabytes and about twice the product's peak
    assert (traced_peak(shell_stage, edges, len(adjacency), 3)
            <= traced_peak(dense_hop_shells, adjacency, 3))


def product_substructures(graph, x, cfg):
    """Z from the booleans of ``hop_shells`` and their products with X,
    every layout: the dense path, kept as the oracle of the walked one."""
    shells, ball = hop_shells(graph.edges, graph.node_count, cfg.hops)
    if cfg.variant is Variant.LAYER_WISE:
        return np.hstack([s @ x for s in shells])
    if cfg.variant is Variant.WEIGHTED_LAYER_SUM:
        z = x.copy()
        for j, s in enumerate(shells, 1):
            z += cfg.layer_decay**j * (s @ x)
        return z
    if cfg.variant is Variant.CENTER_EMPHASIS:
        return np.hstack([x, ball @ x])
    return ball @ x


@pytest.mark.parametrize("hops", [1, 2, 3, 5])
def test_keyed_z_equals_the_product_z_bit_for_bit(hops):
    rng = np.random.default_rng(1000 + hops)
    a = tree_with_chords(rng, 1000, 250, detach=0.02)
    g = Graph.from_adjacency(a, rng.integers(0, TYPES, 1000), 0)
    x = one_hot_features(g, TYPES)
    assert walked_shells(g.edges, g.node_count, hops) is not None
    for variant in Variant:
        cfg = SubstructureConfig(hops=hops, variant=variant, layer_decay=0.3)
        z = build_substructures(g, x, cfg)
        assert z.dtype == x.dtype
        np.testing.assert_array_equal(z, product_substructures(g, x, cfg))


def test_a_walked_graph_with_shuffled_edges_is_refused():
    # the walk reads Graph.edges as a CSR: out of order, it would read the
    # wrong rows and give a wrong Z without a word
    rng = np.random.default_rng(300)
    a = tree_with_chords(rng, 300, 75)
    g = Graph.from_adjacency(a, rng.integers(0, TYPES, 300), 0)
    shuffled = Graph(g.edges[:, rng.permutation(g.edges.shape[1])], g.node_labels, 0)
    assert walked_shells(g.edges, 300, 3) is not None
    with pytest.raises(ValueError, match="CSR order"):
        walked_shells(shuffled.edges, 300, 3)
    with pytest.raises(ValueError, match="CSR order"):
        build_substructures(shuffled, one_hot_features(shuffled, TYPES), SubstructureConfig())


def csr_ball(edges, n, source, hops):
    """The nodes within ``hops`` of ``source``, by BFS over the CSR."""
    starts = np.searchsorted(edges[0], np.arange(n + 1))
    seen, frontier = {source}, [source]
    for _ in range(hops):
        frontier = [int(q) for p in frontier for q in edges[1][starts[p]:starts[p + 1]]
                    if q not in seen]
        seen.update(frontier)
    return np.array(sorted(seen))


def test_5000_node_sparse_graph_builds_three_hops_in_seconds():
    rng = np.random.default_rng(5000)
    n = 5000
    a = tree_with_chords(rng, n, n // 4)
    g = Graph.from_adjacency(a, rng.integers(0, TYPES, n), 0)
    x = one_hot_features(g, TYPES)
    cfg = SubstructureConfig(hops=3)
    start = time.perf_counter()
    z = build_substructures(g, x, cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    # every hop walks, so no n x n array is allocated: one would be n^2 bytes
    assert traced_peak(build_substructures, g, x, cfg) < n * n
    for source in rng.choice(n, 40, replace=False):
        dist = old_bfs_distances(a, source, 3)
        np.testing.assert_array_equal(z[source], x[dist >= 0].sum(axis=0))


def test_100000_node_sparse_graph_builds_three_hops_in_bounded_memory():
    rng = np.random.default_rng(100_000)
    n = 100_000
    edges = csr_tree_with_chords(rng, n, n // 4)
    g = Graph(edges, rng.integers(0, TYPES, n), 0)
    g.validate()
    x = one_hot_features(g, TYPES)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        z = build_substructures(g, x, SubstructureConfig(hops=3))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0
    assert peak < 100 * 2**20
    for source in rng.choice(n, 20, replace=False):
        ball = csr_ball(edges, n, source, 3)
        np.testing.assert_array_equal(z[source], x[ball].sum(axis=0))
