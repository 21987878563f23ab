"""The batched forward path against the per-graph tape it replaced.

``old_joint_loss`` below is the per-graph training tape as it stood before
batches were run as one disjoint union: one encoder, assignment and fused
pooling node per graph, the co-occurrence loss composed from elementary ops,
and the feature rows concatenated, with the assignment as the chain of three
generic ops (``old_assign`` of conftest). Its layers, loss sums and KL are the
general matmul, add, mul and kl_div ops of conftest. It also feeds the classifier the
full row-major K*K flattening of C_norm, not the scaled upper triangle. It is
kept here as the parity oracle, with the ops it needs that the pipeline no
longer has; ``unfolded`` gives it the full-layout copy of a model.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slim import autodiff as ad
from slim import embedding
from slim import model as M
from slim import training
from slim.autodiff import Tensor
from slim.datasets import Graph
from slim.landmarks import target_distribution
from slim.pooling import DENSITY_EPS, graph_feature_op
from slim.substructure import SubstructureConfig
from slim.synthetic import make_bundle
from slim.training import TrainConfig, init_state

from conftest import (adjacency_of, directed_edges, fold_triangle, graph_feature, old_add,
                      old_assign, old_dense, old_kl_div, old_matmul, old_mul, pooled_features,
                      unfold_triangle)


def old_graph_feature_op(w, x, adjacency, include_means=False):
    n, k = w.value.shape
    wv = w.value
    p = wv.sum(axis=0)
    s = 1.0 / (p + DENSITY_EPS)
    aw = adjacency @ wv
    c = wv.T @ aw
    c_norm = (c * s) * s[:, None]
    if include_means:
        m0 = x.T @ wv
        value = np.concatenate([c_norm.reshape(-1), p, (m0 * s).reshape(-1)])[None, :]
    else:
        value = c_norm.reshape(1, -1)

    def backward(g):
        row = g[0]
        g_tilde = row[: k * k].reshape(k, k)
        g_c = (g_tilde * s) * s[:, None]
        t = g_tilde * c
        ds = t @ s + t.T @ s
        dp = None
        if include_means:
            g_p = row[k * k : k * k + k]
            g_m = row[k * k + k :].reshape(-1, k)
            ds = ds + (g_m * m0).sum(axis=0)
            dp = g_p.copy()
        dq = -(s * s) * ds
        dp = dq if dp is None else dp + dq
        dw = aw @ (g_c + g_c.T) + dp[None, :]
        if include_means:
            dw = dw + x @ (g_m * s)
        w._accumulate(dw)

    return ad._make(value, (w,), backward)


def old_concat_rows(parts):
    offsets = np.concatenate([[0], np.cumsum([p.value.shape[0] for p in parts])])

    def backward(g):
        for p, r0, r1 in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accumulate(g[r0:r1])

    return ad._make(np.concatenate([p.value for p in parts], axis=0), parts, backward)


def old_transpose(a):
    def backward(g):
        a._accumulate(g.T)

    return ad._make(a.value.T, (a,), backward)


def old_log_softmax_rows(a):
    z = a.value - a.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    v = z - lse
    p = np.exp(v)

    def backward(g):
        a._accumulate(g - p * g.sum(axis=1, keepdims=True))

    return ad._make(v, (a,), backward)


def old_sum_all(a):
    shape = a.value.shape

    def backward(g):
        a._accumulate(np.broadcast_to(g, shape).copy())

    return ad._make(a.value.sum(), (a,), backward)


def old_cooccurrence_loss(h, adjacency):
    logp = old_log_softmax_rows(old_matmul(h, old_transpose(h)))
    return old_mul(old_sum_all(old_mul(logp, ad.constant(adjacency))), ad.constant(-1.0))


def old_encode(z, state):
    act = embedding.ACTIVATIONS[state.config.activation]
    return act(old_dense(act(old_dense(ad.constant(z), state.t1, state.b1)),
                         state.t2, state.b2))


def old_classifier_logits(features, state):
    return old_dense(ad.tanh(old_dense(features, state.w_hidden, state.b_hidden,
                                       state.feature_center)),
                     state.w_out, state.b_out)


def old_logits(batch, state):
    rows = [old_graph_feature_op(old_assign(old_encode(data.z, state), state.u),
                                 data.x, adjacency_of(data), state.config.include_means)
            for data in batch]
    return old_classifier_logits(old_concat_rows(rows), state).value


def old_joint_loss(batch, state, lambda_embed, lambda_cluster, targets_w=None,
                   labeled=None):
    labeled = [True] * len(batch) if labeled is None else labeled
    rows, labels, embed_terms, cluster_terms = [], [], [], []
    for i, data in enumerate(batch):
        h = old_encode(data.z, state)
        w = old_assign(h, state.u)
        if labeled[i]:
            rows.append(old_graph_feature_op(w, data.x, adjacency_of(data),
                                             state.config.include_means))
            labels.append(data.label)
        if lambda_embed > 0:
            embed_terms.append(old_cooccurrence_loss(h, adjacency_of(data)))
        if lambda_cluster > 0 and targets_w is not None:
            cluster_terms.append(old_kl_div(ad.constant(targets_w[i]), w))
    parts = []
    if rows:
        logits = old_classifier_logits(old_concat_rows(rows), state)
        parts.append(ad.cross_entropy(logits, np.asarray(labels)))
    for terms, lam in ((embed_terms, lambda_embed), (cluster_terms, lambda_cluster)):
        if terms:
            tot = terms[0]
            for t in terms[1:]:
                tot = old_add(tot, t)
            parts.append(old_mul(tot, ad.constant(lam)))
    total = parts[0]
    for t in parts[1:]:
        total = old_add(total, t)
    return total


def make_state(graphs, c, classes, rng, include_means=False, k=5, **options):
    cfg = TrainConfig(k=k, latent=4, hidden=6, classifier_hidden=7,
                      include_means=include_means, **options)
    state = init_state(cfg, graphs[0].z.shape[1], c, classes, rng)
    state.u.value = rng.standard_normal((cfg.k, cfg.latent)) * 0.4
    state.feature_center = rng.standard_normal(state.w_hidden.shape[0]) * 0.01
    return state


class FullLayoutState(M.ModelState):
    """A model whose classifier reads the full K*K layout, which
    ``parameter_shapes`` does not describe: it skips the shape check."""

    def __post_init__(self):
        pass


def unfolded(state):
    """An independent copy of ``state`` whose classifier reads the full K*K
    layout: W_ij = W_ji = v_ij / sqrt(2), W_ii = v_ii, and the same for the
    feature centre. Its logits equal those of ``state``."""
    k = state.u.shape[0]

    def copy(t, full=False):
        return Tensor(unfold_triangle(t.value, k) if full else t.value.copy(),
                      requires_grad=True)

    return FullLayoutState(
        config=state.config,
        **{name: copy(p, full=name == "w_hidden")
           for name, p in zip(M.PARAMETERS, state.parameters())},
        feature_center=unfold_triangle(state.feature_center, k),
    )


def grads_of(total, state):
    state.zero_grad()
    total.backward()
    return [p.grad for p in state.parameters()]


def frozen_targets(batch, state):
    fwd = M.batch_forward(batch, state.frozen(), [False] * len(batch))
    return [target_distribution(fwd.w.value[r0:r1]) for r0, r1 in fwd.bounds]


@pytest.fixture(scope="module")
def standin():
    bundle = make_bundle(n_graphs=30, seed=11)
    graphs = M.prepare_bundle(bundle, TrainConfig().substructure())
    return bundle, graphs


class TestParityWithPerGraphTape:
    @pytest.mark.parametrize("include_means", [False, True])
    @pytest.mark.parametrize("lambdas", [(0.01, 0.01), (0.0, 0.01), (0.01, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_loss_and_every_gradient(self, standin, include_means, lambdas, mixed):
        bundle, graphs = standin
        rng = np.random.default_rng(5)
        lam_e, lam_c = lambdas
        state = make_state(graphs, bundle.node_label_count, bundle.class_count, rng,
                           include_means, lambda_embed=lam_e, lambda_cluster=lam_c)
        for batch in (graphs[:10], graphs[10:20], graphs[20:]):
            targets = frozen_targets(batch, state)
            labeled = ([bool(b) for b in rng.integers(0, 2, len(batch))]
                       if mixed else None)
            if mixed:
                labeled[0] = True
            full = unfolded(state)
            old = old_joint_loss(batch, full, lam_e, lam_c, targets, labeled)
            old_grads = grads_of(old, full)
            old_grads[5] = fold_triangle(old_grads[5], state.u.shape[0])
            new, parts = M.joint_loss(batch, state, targets, labeled)
            assert new.value.item() == pytest.approx(old.value.item(), rel=0, abs=1e-10)
            assert parts.total == new.value.item()
            for name, g_new, g_old in zip("t1 b1 t2 b2 u wh bh wo bo".split(),
                                          grads_of(new, state), old_grads):
                np.testing.assert_allclose(g_new, g_old, rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("include_means", [False, True])
    def test_one_sgd_step_matches_the_full_layout(self, standin, include_means):
        # under SGD a classifier on the scaled triangle moves exactly like
        # one on the full symmetric flattening
        bundle, graphs = standin
        rng = np.random.default_rng(8)
        state = make_state(graphs, bundle.node_label_count, bundle.class_count, rng,
                           include_means)
        full = unfolded(state)
        batch, probe = graphs[:12], graphs[12:]

        def logits(s):
            return M.classifier_logits(M.batch_forward(probe, s.frozen()).features, s).value

        before = logits(state)
        np.testing.assert_allclose(before, old_logits(probe, full), rtol=0, atol=1e-10)
        targets = frozen_targets(batch, state)
        new, _ = M.joint_loss(batch, state, targets)
        grads_of(new, state)
        training.SGD(state.parameters(), lr=0.5).step()
        grads_of(old_joint_loss(batch, full, 0.01, 0.01, targets), full)
        training.SGD(full.parameters(), lr=0.5).step()
        after = logits(state)
        assert np.abs(after - before).max() > 1e-3
        np.testing.assert_allclose(after, old_logits(probe, full), rtol=0, atol=1e-10)

    def test_no_two_parameter_grads_share_memory(self, standin):
        # SGD.step scales p.grad in place, so a buffer handed to two leaves
        # would corrupt the second update
        bundle, graphs = standin
        rng = np.random.default_rng(6)
        state = make_state(graphs, bundle.node_label_count, bundle.class_count, rng,
                           include_means=True)
        batch = graphs[:8]
        total, _ = M.joint_loss(batch, state, frozen_targets(batch, state), [True, False] * 4)
        grads = grads_of(total, state)
        assert all(g is not None for g in grads)
        for a, b in itertools.combinations(grads, 2):
            assert not np.shares_memory(a, b)


def tree_plus_chords(rng, n):
    """Sparse graph: a random recursive tree plus n/4 random chords."""
    a = np.zeros((n, n))
    parents = (rng.random(n - 1) * np.arange(1, n)).astype(int)
    a[np.arange(1, n), parents] = 1.0
    u, v = rng.integers(0, n, (2, n // 4))
    a[u, v] = 1.0
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0.0)
    return a


@pytest.mark.parametrize("include_means", [False, True])
def test_edge_list_pooling_on_thousands_of_nodes(include_means):
    # the op sums over 2E edges, the oracles multiply by the dense n x n A
    rng = np.random.default_rng(21)
    n, k, c = 3000, 12, 4
    a = tree_plus_chords(rng, n)
    x = np.eye(c)[rng.integers(0, c, n)]
    w0 = rng.random((n, k)) ** 4
    w0 /= w0.sum(axis=1, keepdims=True)
    w = Tensor(w0, requires_grad=True)
    out = graph_feature_op(w, [(0, n)], [x], [directed_edges(a)], include_means)
    expected = graph_feature(pooled_features(x, w0, a), include_means)
    np.testing.assert_allclose(out.value[0], expected, rtol=1e-12, atol=0)

    seed = rng.standard_normal(out.value.shape)
    out.backward(seed)
    old_w = Tensor(w0, requires_grad=True)
    old_graph_feature_op(old_w, x, a, include_means).backward(
        unfold_triangle(seed[0], k)[None, :])
    np.testing.assert_allclose(w.grad, old_w.grad, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# properties of the disjoint union on random small graphs

SUB = SubstructureConfig(hops=2)
TYPES = 3


@st.composite
def graphs_strategy(draw):
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    types = draw(st.lists(st.integers(0, TYPES - 1), min_size=n, max_size=n))
    return Graph.from_adjacency(a, np.array(types), draw(st.integers(0, 1)))


# every batch also holds a single-node graph and an edgeless graph
FIXED = [Graph.from_adjacency(np.zeros((1, 1)), np.array([1]), 0),
         Graph.from_adjacency(np.zeros((3, 3)), np.array([0, 2, 2]), 1)]


@st.composite
def batches(draw):
    graphs = draw(st.lists(graphs_strategy(), min_size=1, max_size=5)) + FIXED
    labeled = draw(st.lists(st.booleans(), min_size=len(graphs), max_size=len(graphs)))
    order = draw(st.permutations(range(len(graphs))))
    return graphs, labeled, order, draw(st.booleans()), draw(st.integers(0, 2**31))


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(batches())
def test_batch_equals_per_graph_results_in_any_order(case):
    graphs, labeled, order, include_means, seed = case
    data = [M.prepare_graph(g, TYPES, SUB) for g in graphs]
    state = make_state(data, TYPES, 2, np.random.default_rng(seed), include_means, k=3)
    targets = frozen_targets(data, state)

    fwd = M.batch_forward(data, state, labeled)
    pooled = [i for i, lab in enumerate(labeled) if lab]
    for i, (r0, r1) in enumerate(fwd.bounds):
        alone = M.batch_forward([data[i]], state)
        close(fwd.w.value[r0:r1], alone.w.value)
        if labeled[i]:
            close(fwd.features.value[pooled.index(i)], alone.features.value[0])
    if not pooled:
        assert fwd.features is None

    def terms(idx):
        _, parts = M.joint_loss([data[i] for i in idx], state, [targets[i] for i in idx],
                                [labeled[i] for i in idx])
        return parts

    whole = terms(range(len(data)))
    singles = [terms([i]) for i in range(len(data))]
    close(whole.embed, sum(p.embed for p in singles))
    close(whole.cluster, sum(p.cluster for p in singles))
    if pooled:
        close(whole.cross_entropy, np.mean([singles[i].cross_entropy for i in pooled]))
    shuffled = terms(order)
    for name in ("total", "cross_entropy", "embed", "cluster"):
        close(getattr(shuffled, name), getattr(whole, name))
