import numpy as np
import pytest

from slim import autodiff as ad
from slim.autodiff import (
    NumericError,
    Tensor,
    check_registered_ops,
    grad_check,
)
from slim.landmarks import LandmarkSet, assign, pairwise_sq_distances


class TestRegisteredOps:
    def test_every_op_passes_finite_differences(self):
        reports = check_registered_ops(step=1e-5, tolerance=1e-4)
        failing = [r.op_name for r in reports if not r.passed]
        assert failing == [], f"ops failing gradient check: {failing}"

    def test_registry_covers_the_pipeline_ops(self):
        needed = {
            "matmul", "add", "mul", "sigmoid", "tanh", "cross_entropy", "kl_div",
            "student_t_assign", "graph_feature", "graph_feature_with_means",
            "cooccurrence",
        }
        assert needed <= set(ad.OP_REGISTRY)
        unused = {"relu", "reciprocal", "column_sums", "reshape", "softmax_rows",
                  "concat_rows", "transpose", "log_softmax_rows", "sum_all", "sub",
                  "squared_distance_rows", "student_t_kernel", "row_normalize"}
        assert not unused & (set(ad.OP_REGISTRY) | set(vars(ad)))


class TestMatmul:
    def test_identity_case(self):
        b = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = ad.matmul(Tensor(np.eye(3)), b)
        np.testing.assert_array_equal(out.value, b.value)
        out.backward(np.ones_like(out.value))
        np.testing.assert_array_equal(b.grad, np.ones((3, 2)))

    def test_scalar_product_rule(self):
        a = Tensor([[2.0]], requires_grad=True)
        b = Tensor([[3.0]], requires_grad=True)
        out = ad.matmul(a, b)
        assert out.value.item() == 6.0
        out.backward(np.ones((1, 1)))
        assert a.grad.item() == 3.0
        assert b.grad.item() == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


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
        out = ad.kl_div(Tensor(p), Tensor(p))
        assert out.value.item() == pytest.approx(0.0, abs=1e-15)

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
            lambda a: ad.matmul(a, ad.constant(w)),
            [rng.standard_normal((2, 4))],
            name="linear",
        )
        assert report.passed
        assert report.max_relative_error <= 1e-9

    def test_corrupted_backward_is_caught(self, rng):
        def broken_sigmoid(a):
            x = a.value
            v = 1.0 / (1.0 + np.exp(-x))
            out = Tensor(v)
            out.requires_grad = True
            out._parents = (a,)
            out._backward = lambda g: a._accumulate(g * v)  # missing (1 - v) factor
            return out

        report = grad_check(broken_sigmoid, [rng.standard_normal((3, 3))], name="broken")
        assert not report.passed

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
        y = ad.add(x, x)
        y.backward(np.ones((1, 1)))
        assert x.grad.item() == 2.0

    def test_gradients_accumulate_across_branches(self, rng):
        x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        out = ad.add(ad.mul(x, ad.constant(2.0)), ad.mul(x, x))
        out.backward(np.ones_like(out.value))
        np.testing.assert_allclose(x.grad, 2.0 + 2.0 * x.value)

    def test_zero_grad_resets(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        ad.mul(x, x).backward(np.ones_like(x.value))
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            ad.mul(x, x).backward()

    def test_forward_is_deterministic(self, rng):
        x = rng.standard_normal((4, 4))
        a = ad.sigmoid(ad.matmul(Tensor(x), Tensor(x))).value
        b = ad.sigmoid(ad.matmul(Tensor(x), Tensor(x))).value
        assert np.array_equal(a, b)

    def test_constants_receive_no_grad(self):
        c = ad.constant(np.ones((2, 2)))
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        ad.mul(c, x).backward(np.ones_like(x.value))
        assert c.grad is None
        assert x.grad is not None


class TestKlDiv:
    def test_zero_times_log_zero_convention(self):
        p = np.array([[1.0, 0.0]])
        q = np.array([[0.5, 0.5]])
        out = ad.kl_div(Tensor(p), Tensor(q))
        assert out.value.item() == pytest.approx(np.log(2.0))

    def test_rejects_non_positive_q(self):
        with pytest.raises(NumericError):
            ad.kl_div(Tensor(np.array([[1.0]])), Tensor(np.array([[0.0]])))


class TestSquaredDistance:
    def test_hand_case(self):
        # squared distances 0 and 25; with dof 1 the kernels are 1 and 1/26
        h = np.array([[0.0, 0.0], [3.0, 4.0]])
        np.testing.assert_allclose(pairwise_sq_distances(h, h), [[0.0, 25.0], [25.0, 0.0]])
        out = assign(Tensor(h), LandmarkSet(Tensor(h), dof=1.0))
        np.testing.assert_allclose(out.value, [[26 / 27, 1 / 27], [1 / 27, 26 / 27]],
                                   rtol=1e-15)
