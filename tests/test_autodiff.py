import numpy as np
import pytest

from slim import autodiff as ad
from slim import model as M
from slim.autodiff import (
    NumericError,
    Tensor,
    check_registered_ops,
    grad_check,
)
from slim.landmarks import assign, cluster_loss, pairwise_sq_distances, target_distribution
from slim.synthetic import make_bundle
from slim.training import TrainConfig, init_state

from conftest import (
    functional_gradients,
    old_add,
    old_dense,
    old_matmul,
    old_mul,
    old_weighted_sum,
)


def tape_ops(root):
    """The op of every node on the tape below ``root``: the name of the
    function whose closure is the node's backward."""
    return {node._backward.__qualname__.split(".")[0]
            for node in ad._topo_order(root) if node._backward is not None}


def pipeline_ops():
    """The ops on ``joint_loss`` tapes with all three terms, with and without
    the landmark means, under both encoder activations."""
    bundle = make_bundle(n_graphs=4, seed=3)
    ops = set()
    for activation in ("tanh", "sigmoid"):
        for include_means in (False, True):
            cfg = TrainConfig(k=4, latent=3, hidden=4, classifier_hidden=5,
                              activation=activation, include_means=include_means)
            graphs = M.prepare_bundle(bundle, cfg.substructure())
            rng = np.random.default_rng(1)
            state = init_state(cfg, graphs[0].z.shape[1], bundle.node_label_count,
                               bundle.class_count, rng)
            state.u.value = rng.standard_normal((cfg.k, cfg.latent))
            state.feature_center = np.zeros(state.w_hidden.shape[0])
            fwd = M.batch_forward(graphs, state.frozen(), [False] * len(graphs))
            targets = [target_distribution(fwd.w.value[r0:r1]) for r0, r1 in fwd.bounds]
            total, parts = M.joint_loss(graphs, state, targets)
            assert min(parts.cross_entropy, parts.embed, parts.cluster) > 0
            ops |= tape_ops(total)
    return ops


def registry_ops():
    ops = set()
    for build in ad.OP_REGISTRY.values():
        fn, inputs = build(np.random.default_rng(0))
        ops |= tape_ops(fn(*[Tensor(x, requires_grad=True) for x in inputs]))
    return ops


class TestRegisteredOps:
    def test_every_op_passes_finite_differences(self):
        reports = check_registered_ops(step=1e-5, tolerance=1e-4)
        failing = [r.op_name for r in reports if not r.passed]
        assert failing == [], f"ops failing gradient check: {failing}"

    def test_registry_covers_the_pipeline_ops(self):
        # an op that enters the pipeline without a finite-difference case, or
        # a registered op that leaves it, breaks the equality
        ops = pipeline_ops()
        assert {"dense", "weighted_sum", "assign", "cluster_loss", "graph_feature_op",
                "cooccurrence_op", "cross_entropy", "tanh", "sigmoid"} <= ops
        assert ops == registry_ops()
        unused = {"relu", "reciprocal", "column_sums", "reshape", "softmax_rows",
                  "concat_rows", "transpose", "log_softmax_rows", "sum_all", "sub",
                  "squared_distance_rows", "student_t_kernel", "row_normalize",
                  "matmul", "add", "mul", "kl_div", "_unbroadcast"}
        assert not unused & (set(ad.OP_REGISTRY) | set(vars(ad)))


class TestMatmul:
    """The general matmul of the conftest oracles, which the parity tests
    compose with ``old_add`` into the layers that ``dense`` replaced."""

    def test_identity_case(self):
        b = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = old_matmul(Tensor(np.eye(3)), b)
        np.testing.assert_array_equal(out.value, b.value)
        out.backward(np.ones_like(out.value))
        np.testing.assert_array_equal(b.grad, np.ones((3, 2)))

    def test_scalar_product_rule(self):
        a = Tensor([[2.0]], requires_grad=True)
        b = Tensor([[3.0]], requires_grad=True)
        out = old_matmul(a, b)
        assert out.value.item() == 6.0
        out.backward(np.ones((1, 1)))
        assert a.grad.item() == 3.0
        assert b.grad.item() == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            old_matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestDense:
    def test_identity_case(self):
        w = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        out = ad.dense(Tensor(np.eye(3)), w, b)
        np.testing.assert_array_equal(out.value, w.value)
        out.backward(np.ones_like(out.value))
        np.testing.assert_array_equal(w.grad, np.ones((3, 2)))
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])

    def test_scalar_case(self):
        x = Tensor([[2.0]], requires_grad=True)
        w = Tensor([[3.0]], requires_grad=True)
        b = Tensor([0.5], requires_grad=True)
        out = ad.dense(x, w, b)
        assert out.value.item() == 6.5
        out.backward(np.ones((1, 1)))
        assert (x.grad.item(), w.grad.item(), b.grad.item()) == (3.0, 2.0, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            ad.dense(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    @pytest.mark.parametrize("x_grad", [False, True])
    def test_bit_identical_to_matmul_and_add(self, rng, x_grad):
        arrays = [rng.standard_normal((9, 6)), rng.standard_normal((6, 4)),
                  rng.standard_normal(4)]
        seed = rng.standard_normal((9, 4))
        results = []
        for fn in (ad.dense, old_dense):
            x, w, b = (Tensor(a.copy(), requires_grad=grad)
                       for a, grad in zip(arrays, (x_grad, True, True)))
            out = fn(x, w, b)
            out.backward(seed)
            results.append((out.value, x.grad, w.grad, b.grad))
        for got, want in zip(*results):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)


class TestWeightedSum:
    @pytest.mark.parametrize("weights", [[1.0, 0.01, 0.01], [0.01, 0.03], [1.0, 0.02],
                                         [1.0], [0.5]])
    def test_bit_identical_to_adds_and_muls(self, rng, weights):
        values = rng.standard_normal(len(weights)) * 10.0
        results = []
        for fn in (ad.weighted_sum, old_weighted_sum):
            leaves = [Tensor(v, requires_grad=True) for v in values]
            # each term behind an op, as the losses are on the tape
            terms = [old_mul(t, ad.constant(1.5)) for t in leaves]
            out = fn(terms, weights)
            out.backward()
            results.append([out.value] + [t.grad for t in leaves])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_value_and_gradients(self):
        a, b = Tensor(2.0, requires_grad=True), Tensor(3.0, requires_grad=True)
        out = ad.weighted_sum([a, b], [1.0, 0.25])
        assert out.value.item() == 2.75
        out.backward()
        assert (a.grad, b.grad) == (1.0, 0.25)


class TestSigmoid:
    def test_at_zero(self):
        x = Tensor(np.zeros((1, 1)), requires_grad=True)
        y = ad.sigmoid(x)
        assert y.value.item() == 0.5
        y.backward(np.ones_like(y.value))
        assert x.grad.item() == pytest.approx(0.25)

    def test_saturation(self):
        x = Tensor(np.array([[1e3]]), requires_grad=True)
        y = ad.sigmoid(x)
        assert abs(y.value.item() - 1.0) < 1e-12
        y.backward(np.ones_like(y.value))
        assert abs(x.grad.item()) < 1e-12


class TestSoftmaxFamily:
    def test_uniform_row(self):
        m = 5
        out = ad.cross_entropy(Tensor(np.zeros((2, m))), np.array([0, 3]))
        assert out.value.item() == pytest.approx(np.log(m), rel=1e-15)

    def test_kl_of_identical_is_zero(self, rng):
        p = rng.uniform(0.1, 1.0, (4, 3))
        p /= p.sum(axis=1, keepdims=True)
        assert cluster_loss(Tensor(p), p).value.item() == pytest.approx(0.0, abs=1e-15)

    def test_cross_entropy_saturates_at_large_margin(self):
        logits = np.array([[30.0, 0.0], [0.0, 30.0]])
        out = ad.cross_entropy(Tensor(logits), np.array([0, 1]))
        assert out.value.item() == pytest.approx(0.0, abs=1e-12)

    def test_cross_entropy_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            ad.cross_entropy(Tensor(np.zeros((2, 2))), np.array([0, 5]))

    def test_non_finite_input_raises(self):
        bad = np.array([[0.0, np.nan]])
        with pytest.raises(NumericError, match="cross_entropy"):
            ad.cross_entropy(Tensor(bad), np.array([0]))


class TestGradCheckHarness:
    def test_linear_map_is_exact(self, rng):
        w = rng.standard_normal((4, 3))
        report = grad_check(
            lambda a: ad.dense(a, ad.constant(w), ad.constant(np.zeros(3))),
            [rng.standard_normal((2, 4))],
            name="linear",
        )
        assert report.passed
        assert report.max_relative_error <= 1e-9

    def test_corrupted_backward_is_caught(self, rng):
        def op(forward, backward):
            """An op of one input: ``forward(x)`` and a backward that
            accumulates ``g * backward(x, value)``."""

            def apply(a):
                v = forward(a.value)
                out = Tensor(v)
                out.requires_grad = True
                out._parents = (a,)
                out._backward = lambda g: a._accumulate(g * backward(a.value, v))
                return out

            return apply

        broken = {
            # sigmoid missing its (1 - v) factor
            "broken_sigmoid": op(lambda x: 1.0 / (1.0 + np.exp(-x)), lambda x, v: v),
            # tanh whose backward is NaN, and an op whose forward is
            "nan_backward": op(np.tanh, lambda x, v: (1.0 - v * v) * np.nan),
            "nan_forward": op(lambda x: x * np.nan, lambda x, v: np.ones_like(x)),
        }
        for name, fn in broken.items():
            report = grad_check(fn, [rng.standard_normal((3, 3))], name=name)
            assert not report.passed, name
            assert not report.max_relative_error <= report.tolerance, name

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            grad_check(ad.sigmoid, [np.zeros((1, 1))], step=0.0)

    def test_report_fields(self):
        report = grad_check(ad.sigmoid, [np.array([[0.3]])], name="sigmoid")
        assert report.op_name == "sigmoid"
        assert report.passed == (report.max_relative_error <= report.tolerance)
        d = report.as_dict()
        assert set(d) == {"op", "max_relative_error", "step", "tolerance", "passed"}


class TestTapeMechanics:
    def test_sum_rule_double_use(self):
        x = Tensor(np.array([[3.0]]), requires_grad=True)
        y = old_add(x, x)
        y.backward(np.ones((1, 1)))
        assert x.grad.item() == 2.0

    def test_gradients_accumulate_across_branches(self, rng):
        x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        out = old_add(old_mul(x, ad.constant(2.0)), old_mul(x, x))
        out.backward(np.ones_like(out.value))
        np.testing.assert_allclose(x.grad, 2.0 + 2.0 * x.value)

    def test_zero_grad_resets(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        old_mul(x, x).backward(np.ones_like(x.value))
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            old_mul(x, x).backward()

    def test_forward_is_deterministic(self, rng):
        x = rng.standard_normal((4, 4))
        a = ad.sigmoid(ad.dense(Tensor(x), Tensor(x), Tensor(x[0]))).value
        b = ad.sigmoid(ad.dense(Tensor(x), Tensor(x), Tensor(x[0]))).value
        assert np.array_equal(a, b)

    def test_constants_receive_no_grad(self):
        c = ad.constant(np.ones((2, 2)))
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        old_mul(c, x).backward(np.ones_like(x.value))
        assert c.grad is None
        assert x.grad is not None


def dense_case(rng):
    """Inputs, a weight, a bias and a seed for ``dense``: the weight and bias
    are leaves that require grad, the input a constant."""
    return (ad.constant(rng.standard_normal((5, 4))),
            Tensor(rng.standard_normal((4, 3)), requires_grad=True),
            Tensor(rng.standard_normal(3), requires_grad=True),
            rng.standard_normal((5, 3)))


class TestLeafGradientBuffers:
    def test_zero_grad_gives_a_leaf_a_buffer_and_no_gradient(self, rng):
        x, w, b, seed = dense_case(rng)
        ad.dense(x, w, b).backward(seed)
        assert w._buffer is None and b._buffer is None   # no buffer before zero_grad
        first = w.grad.copy()
        w.zero_grad()
        assert w.grad is None and w._buffer is not None and w._buffer.shape == w.shape
        ad.dense(x, w, b).backward(seed)
        assert w.grad is w._buffer
        assert w.grad.tobytes() == first.tobytes()

    @pytest.mark.parametrize("buffered", [False, True])
    def test_a_second_backward_without_zero_grad_still_sums(self, rng, buffered):
        x, w, b, seed = dense_case(rng)
        if buffered:
            w.zero_grad()
            b.zero_grad()
        ad.dense(x, w, b).backward(seed)
        once = (w.grad.copy(), b.grad.copy())
        ad.dense(x, w, b).backward(seed)
        for got, single in zip((w.grad, b.grad), once):
            assert got.tobytes() == (single + single).tobytes()
        assert (w.grad is w._buffer) == buffered

    def test_a_weight_used_twice_in_one_sweep(self, rng):
        # the first use writes the buffer, the second adds to it: the sum of
        # the functional accumulation, bit for bit
        x, w, b, seed = dense_case(rng)
        x2 = ad.constant(rng.standard_normal((5, 4)))

        def sweep():
            total = ad.weighted_sum([old_mul(ad.dense(x, w, b), ad.constant(seed)),
                                     old_mul(ad.dense(x2, w, b), ad.constant(seed))],
                                    [1.0, 0.5])
            old_add(total, ad.constant(0.0)).backward(np.ones_like(total.value))

        with functional_gradients():
            sweep()
        want = (w.grad.copy(), b.grad.copy())
        w.zero_grad()
        b.zero_grad()
        sweep()
        assert w.grad is w._buffer and b.grad is b._buffer
        assert (w.grad.tobytes(), b.grad.tobytes()) == tuple(a.tobytes() for a in want)

    def test_interior_nodes_get_no_buffer(self, rng):
        x, w, b, seed = dense_case(rng)
        w.zero_grad()
        hidden = ad.dense(x, w, b)
        out = ad.tanh(hidden)
        hidden.zero_grad()
        assert hidden._buffer is None
        out.backward(seed)
        assert hidden._buffer is None and w.grad is w._buffer

    def test_frozen_states_get_no_buffer(self):
        bundle = make_bundle(n_graphs=4, seed=3)
        cfg = TrainConfig(k=4, latent=3, hidden=4, classifier_hidden=5)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        state = init_state(cfg, graphs[0].z.shape[1], bundle.node_label_count,
                           bundle.class_count, np.random.default_rng(1))
        state.feature_center = np.zeros(state.w_hidden.shape[0])
        frozen = state.frozen()
        frozen.zero_grad()
        M.accuracy(graphs, state)
        M.batch_forward(graphs, frozen)
        assert all(p._buffer is None and p.grad is None for p in frozen.parameters())

    def test_grad_check_tensors_get_no_buffer(self, rng):
        seen = []

        def op(*tensors):
            seen.extend(tensors)
            return ad.dense(*tensors)

        report = grad_check(op, [rng.standard_normal((3, 4)), rng.standard_normal((4, 2)),
                                 rng.standard_normal(2)])
        assert report.passed and seen
        assert all(t._buffer is None for t in seen)


class TestKlDiv:
    """The KL op of the pipeline, ``landmarks.cluster_loss``: KL(target || W)
    with a constant target."""

    def test_zero_times_log_zero_convention(self):
        out = cluster_loss(Tensor(np.array([[0.5, 0.5]])), np.array([[1.0, 0.0]]))
        assert out.value.item() == pytest.approx(np.log(2.0))

    def test_rejects_non_positive_q(self):
        with pytest.raises(NumericError, match="cluster_loss"):
            cluster_loss(Tensor(np.array([[0.0]])), np.array([[1.0]]))

    def test_rejects_non_finite_input(self):
        with pytest.raises(NumericError, match="cluster_loss"):
            cluster_loss(Tensor(np.array([[1.0]])), np.array([[np.nan]]))


class TestSquaredDistance:
    def test_hand_case(self):
        # squared distances 0 and 25: the kernels are 1 and 1/26
        h = np.array([[0.0, 0.0], [3.0, 4.0]])
        np.testing.assert_allclose(pairwise_sq_distances(h, h), [[0.0, 25.0], [25.0, 0.0]])
        out = assign(Tensor(h), Tensor(h))
        np.testing.assert_allclose(out.value, [[26 / 27, 1 / 27], [1 / 27, 26 / 27]],
                                   rtol=1e-15)
