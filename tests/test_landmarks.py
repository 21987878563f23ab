import itertools
import os
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slim import autodiff as ad
from slim import landmarks
from slim.autodiff import Tensor, grad_check
from slim.landmarks import (
    _distinct_rows,
    _lloyd,
    assign,
    cluster_loss,
    hard_distortion,
    init_landmarks,
    pairwise_sq_distances,
    target_distribution,
)
from slim.model import TrainConfig, prepare_bundle
from slim.synthetic import make_bundle
from slim.training import train

from conftest import (
    assign_values,
    init_landmarks_oracle,
    kmeans_pp_seed_oracle,
    lloyd_oracle,
    old_assign,
    on_points,
    old_kl_div,
)


def exhaustive_two_means(points):
    """Globally optimal 2-means by enumerating every bipartition (n <= 12)."""
    n = len(points)
    best_cost, best_centers = np.inf, None
    for mask_bits in range(1, 2 ** (n - 1)):
        mask = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        if mask.all() or not mask.any():
            continue
        c0 = points[mask].mean(axis=0)
        c1 = points[~mask].mean(axis=0)
        cost = (((points[mask] - c0) ** 2).sum() + ((points[~mask] - c1) ** 2).sum())
        if cost < best_cost:
            best_cost, best_centers = cost, np.stack([c0, c1])
    return best_centers, best_cost


def assign_arrays(h, u):
    """The shipped assignment on plain arrays, without a tape."""
    return assign(Tensor(h), Tensor(u)).value


class TestAssign:
    def test_equidistant_pair(self):
        h = np.array([[0.0, 0.0]])
        u = np.array([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(assign_arrays(h, u), [[0.5, 0.5]])

    def test_student_t_hand_case(self):
        # distances^2 of 0 and 3: kernels 1 and 1/4
        h = np.array([[0.0]])
        u = np.array([[0.0], [np.sqrt(3.0)]])
        np.testing.assert_allclose(assign_arrays(h, u), [[0.8, 0.2]])

    def test_single_landmark(self, rng):
        h = rng.standard_normal((6, 3))
        u = rng.standard_normal((1, 3))
        np.testing.assert_allclose(assign_arrays(h, u), np.ones((6, 1)))

    def test_rows_are_stochastic(self, rng):
        w = assign_arrays(rng.standard_normal((30, 4)), rng.standard_normal((7, 4)))
        np.testing.assert_allclose(w.sum(axis=1), np.ones(30), atol=1e-9)
        assert np.all(w > 0)

    def test_tape_matches_values(self, rng):
        h = rng.standard_normal((5, 3))
        u = rng.standard_normal((4, 3))
        w = assign(Tensor(h), Tensor(u))
        np.testing.assert_allclose(w.value, assign_values(h, u), rtol=1e-12)

    def test_gradients_wrt_embeddings_and_landmarks(self, rng):
        def fn(h, u):
            return assign(h, u)

        report = grad_check(
            fn, [rng.standard_normal((5, 3)), rng.standard_normal((4, 3))],
            name="assign", rng=rng,
        )
        assert report.passed, report.max_relative_error


class TestClusterLoss:
    def test_bit_identical_to_kl_div_with_a_constant_target(self, rng):
        w0 = rng.uniform(0.05, 1.0, (30, 6))
        w0 /= w0.sum(axis=1, keepdims=True)
        target = target_distribution(w0)
        target[3, 2] = 0.0
        seed = np.array(0.7)
        results = []
        for fn in (cluster_loss, lambda w, t: old_kl_div(ad.constant(t), w)):
            w = Tensor(w0.copy(), requires_grad=True)
            out = fn(w, target)
            out.backward(seed)
            results.append((out.value, w.grad))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)


class TestTargetDistribution:
    def test_single_entry(self):
        np.testing.assert_allclose(target_distribution(np.array([[1.0]])), [[1.0]])

    def test_symmetric_fixed_point(self):
        w = np.full((2, 2), 0.5)
        np.testing.assert_allclose(target_distribution(w), w)

    def test_hand_case_single_row(self):
        w = np.array([[0.8, 0.2]])
        np.testing.assert_allclose(target_distribution(w), [[0.8, 0.2]])

    def test_hand_case_two_identical_rows(self):
        w = np.array([[0.8, 0.2], [0.8, 0.2]])
        # masses (1.6, 0.4); squares over mass (0.4, 0.1); renormalized rows
        np.testing.assert_allclose(target_distribution(w), [[0.8, 0.2], [0.8, 0.2]])

    def test_rows_stochastic(self, rng):
        w = rng.uniform(0.05, 1.0, (20, 6))
        w /= w.sum(axis=1, keepdims=True)
        t = target_distribution(w)
        np.testing.assert_allclose(t.sum(axis=1), np.ones(20), atol=1e-9)

    def test_sharpening_under_balanced_column_mass(self, rng):
        # with equal column masses the target is the renormalized square, so
        # every row keeps its argmax and its peak grows; with unbalanced
        # masses the mass division can legitimately move the argmax
        base = rng.uniform(0.05, 1.0, (30, 5))
        base /= base.sum(axis=1, keepdims=True)
        # stacking every cyclic column rotation equalizes the column masses
        w = np.vstack([np.roll(base, shift, axis=1) for shift in range(5)])
        np.testing.assert_allclose(w.sum(axis=0), np.full(5, w.sum() / 5), rtol=1e-9)
        t = target_distribution(w)
        np.testing.assert_array_equal(t.argmax(axis=1), w.argmax(axis=1))
        assert np.all(t.max(axis=1) >= w.max(axis=1) - 1e-12)

    def test_zero_column_guarded(self):
        w = np.array([[1.0, 0.0], [1.0, 0.0]])
        t = target_distribution(w)
        assert np.all(np.isfinite(t))
        np.testing.assert_allclose(t.sum(axis=1), [1.0, 1.0])


class TestClusterLoss:
    def test_zero_when_target_equals_assignment(self, rng):
        w = rng.uniform(0.1, 1.0, (5, 3))
        w /= w.sum(axis=1, keepdims=True)
        out = cluster_loss(Tensor(w), w.copy())
        assert out.value.item() == pytest.approx(0.0, abs=1e-14)

    def test_hand_value(self):
        w = np.array([[0.5, 0.5]])
        target = np.array([[1.0, 0.0]])
        out = cluster_loss(Tensor(w), target)
        assert out.value.item() == pytest.approx(np.log(2.0), rel=1e-12)

    def test_non_negative(self, rng):
        for _ in range(10):
            w = rng.uniform(0.05, 1.0, (6, 4))
            w /= w.sum(axis=1, keepdims=True)
            t = target_distribution(w)
            assert cluster_loss(Tensor(w), t).value.item() >= -1e-12

    def test_gradient_reaches_assignment_only(self, rng):
        w = rng.uniform(0.1, 1.0, (4, 3))
        w /= w.sum(axis=1, keepdims=True)
        target = target_distribution(w + rng.uniform(0, 0.1, w.shape))
        wt = Tensor(w, requires_grad=True)
        cluster_loss(wt, target).backward()
        assert wt.grad is not None


class TestInitLandmarks:
    def test_k_equals_row_count(self, rng):
        points = rng.standard_normal((5, 2))
        u = init_landmarks(points, 5, seed=0)
        assert hard_distortion(points, u) == pytest.approx(0.0, abs=1e-12)

    def test_single_landmark_is_global_mean(self, rng):
        points = rng.standard_normal((20, 3))
        u = init_landmarks(points, 1, seed=0)
        np.testing.assert_allclose(u[0], points.mean(axis=0), atol=1e-9)

    def test_two_separated_clouds(self, rng):
        a = rng.normal(0.0, 0.1, (6, 2))
        b = rng.normal(8.0, 0.1, (6, 2))
        points = np.vstack([a, b])
        u = init_landmarks(points, 2, seed=1)
        expected = np.stack([a.mean(axis=0), b.mean(axis=0)])
        d = np.abs(u[:, None, :] - expected[None, :, :]).sum(axis=2)
        assert min(d[0, 0] + d[1, 1], d[0, 1] + d[1, 0]) < 1e-6

    def test_matches_enumeration_oracle(self, rng):
        for trial in range(5):
            n = int(rng.integers(6, 13))
            centers = rng.standard_normal((2, 2)) * 4
            points = np.vstack([
                centers[0] + 0.3 * rng.standard_normal((n // 2, 2)),
                centers[1] + 0.3 * rng.standard_normal((n - n // 2, 2)),
            ])
            _, best_cost = exhaustive_two_means(points)
            u = init_landmarks(points, 2, seed=trial)
            assert hard_distortion(points, u) <= best_cost + 1e-6

    def test_duplicate_rows_warn_and_jitter(self):
        points = np.zeros((4, 2))
        with pytest.warns(UserWarning, match="distinct"):
            u = init_landmarks(points, 3, seed=0)
        assert len(np.unique(u, axis=0)) == 3

    def test_too_few_rows(self, rng):
        with pytest.raises(ValueError):
            init_landmarks(rng.standard_normal((2, 2)), 3, seed=0)

    def test_deterministic(self, rng):
        points = rng.standard_normal((30, 3))
        np.testing.assert_array_equal(
            init_landmarks(points, 4, seed=5), init_landmarks(points, 4, seed=5)
        )

    def test_lloyd_sums_bit_identical_to_add_at(self, rng):
        # the per-column bincount must add rows in the same order as
        # np.add.at, so the centroids stay bit-identical
        def lloyd_add_at(points, centers, tol, max_iter):
            pp = (points * points).sum(axis=1)
            for _ in range(max_iter):
                d2 = (pp[:, None] + (centers * centers).sum(axis=1)[None, :]
                      - 2.0 * points @ centers.T)
                nearest = d2.argmin(axis=1)
                new = centers.copy()
                sums = np.zeros_like(centers)
                np.add.at(sums, nearest, points)
                sizes = np.bincount(nearest, minlength=len(centers))
                occupied = sizes > 0
                new[occupied] = sums[occupied] / sizes[occupied, None]
                shift = np.linalg.norm(new - centers, axis=1).max()
                centers = new
                if shift < tol:
                    break
            return centers

        points = rng.standard_normal((2000, 8)) * rng.uniform(0.1, 100.0, 8)
        start = points[rng.choice(len(points), 40, replace=False)]
        for max_iter in (1, 5):
            np.testing.assert_array_equal(_lloyd(*_distinct_rows(points), start, 1e-6, max_iter),
                                          lloyd_add_at(points, start, 1e-6, max_iter))


class TestPairwiseSqDistances:
    def test_callers_bit_identical_to_their_inline_formulas(self, rng):
        from slim.coherence import distortion

        h = rng.standard_normal((300, 6)) * 10.0
        u = np.vstack([h[:3], rng.standard_normal((20, 6))])  # exact zeros clip
        raw = (h * h).sum(axis=1)[:, None] + (u * u).sum(axis=1)[None, :] - 2.0 * h @ u.T
        d2 = np.maximum(raw, 0.0)
        np.testing.assert_array_equal(pairwise_sq_distances(h, u), d2)
        kernel = 1.0 / (1.0 + d2)
        np.testing.assert_array_equal(assign_arrays(h, u),
                                      kernel / kernel.sum(axis=1, keepdims=True))
        assert hard_distortion(h, u) == float(d2.min(axis=1).sum())
        assert distortion(h, u) == float(np.sqrt(d2).min(axis=1).mean())

    def test_matches_direct_differences(self, rng):
        h, u = rng.standard_normal((7, 3)), rng.standard_normal((4, 3))
        direct = ((h[:, None, :] - u[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(pairwise_sq_distances(h, u), direct, rtol=1e-12)


@st.composite
def assign_inputs(draw):
    """(h, u, seed of the output gradient): normal rows, rows rounded to
    one decimal (ties and exact zero distances), or fewer rows than landmarks."""
    kind = draw(st.sampled_from(["normal", "rounded", "few_rows"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, k)) if kind == "few_rows" else draw(st.integers(1, 40))
    h = rng.standard_normal((n, d)) * rng.uniform(0.1, 5.0, d)
    u = rng.standard_normal((k, d)) * rng.uniform(0.1, 5.0, d)
    if kind == "rounded":
        h, u = np.round(h, 1), np.round(u, 1)
        u[: min(n, k) // 2] = h[: min(n, k) // 2]
    return h, u, seed


class TestStudentTAssignMatchesTheOpChain:
    @settings(max_examples=150, deadline=None)
    @given(assign_inputs())
    def test_values_and_both_gradients_bit_identical(self, case):
        h0, u0, seed = case
        g = np.random.default_rng(seed + 1).standard_normal((len(h0), len(u0)))
        results = []
        for fn in (assign, old_assign):
            h, u = Tensor(h0, requires_grad=True), Tensor(u0, requires_grad=True)
            w = fn(h, u)
            w.backward(g)
            results.append((w.value, h.grad, u.grad))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)


class TestSelfTrainingConsistency:
    def test_cluster_step_reduces_hard_distortion(self, rng):
        """One gradient step on the KL loss lowers the hard objective for most
        seeds on a synthetic mixture (statistical check, not per-seed)."""
        wins = 0
        for seed in range(10):
            r = np.random.default_rng(seed)
            points = np.vstack([
                r.normal(-2.0, 0.5, (15, 2)),
                r.normal(2.0, 0.5, (15, 2)),
            ])
            u0 = init_landmarks(points, 2, seed=seed) + r.normal(0, 0.5, (2, 2))
            before = hard_distortion(points, u0)
            h = Tensor(points)
            u = Tensor(u0.copy(), requires_grad=True)
            w = assign(h, u)
            target = target_distribution(w.value)
            cluster_loss(w, target).backward()
            u_after = u0 - 0.05 * u.grad
            if hard_distortion(points, u_after) < before:
                wins += 1
        assert wins >= 9


@st.composite
def kmeans_inputs(draw):
    """(points, k, seed): normal rows, rows rounded to one decimal (ties), or
    rows drawn from fewer distinct values than k, at any k from 1 to n."""
    kind = draw(st.sampled_from(["normal", "rounded", "duplicates"]))
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
    if kind == "rounded":
        return np.round(points, 1), draw(st.integers(1, n)), seed
    if kind == "duplicates" and n > 1:
        distinct = draw(st.integers(1, n - 1))
        return points[rng.integers(0, distinct, n)], draw(st.integers(distinct + 1, n)), seed
    return points, draw(st.integers(1, n)), seed


def init_shipped_and_oracle(points, k, seed):
    """``init_landmarks`` with the shipped ``_lloyd`` and with the oracle."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fewer distinct rows than k
        shipped = init_landmarks(points, k, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(landmarks, "_lloyd", on_points(lloyd_oracle))
            oracle = init_landmarks(points, k, seed)
    return shipped, oracle


class TestLloydMatchesDirectForm:
    @settings(max_examples=150, deadline=None)
    @given(kmeans_inputs())
    def test_init_landmarks_bit_identical(self, case):
        shipped, oracle = init_shipped_and_oracle(*case)
        np.testing.assert_array_equal(shipped, oracle)

    @pytest.mark.parametrize("kind", ["normal", "rounded", "duplicates"])
    @pytest.mark.parametrize("k_of_n", [lambda n: 1, lambda n: n], ids=["k=1", "k=n"])
    def test_extreme_k(self, kind, k_of_n):
        rng = np.random.default_rng(11)
        points = rng.standard_normal((40, 3)) * 4.0
        if kind == "rounded":
            points = np.round(points)
        elif kind == "duplicates":
            points = points[rng.integers(0, 5, len(points))]
        shipped, oracle = init_shipped_and_oracle(points, k_of_n(len(points)), seed=3)
        np.testing.assert_array_equal(shipped, oracle)

    @pytest.mark.parametrize("rounded", [False, True])
    def test_embeddings_sized_like_the_large_workload(self, rounded):
        # tanh embeddings in the shape the benchmark's k-means sees, so the
        # BLAS product runs its blocked kernels
        rng = np.random.default_rng(5)
        points = np.tanh(rng.standard_normal((4000, 32)) * 2.0)
        if rounded:
            points = np.round(points, 1)
        start = points[rng.choice(len(points), 100, replace=False)]
        np.testing.assert_array_equal(_lloyd(*_distinct_rows(points), start, 1e-6, 8),
                                      lloyd_oracle(points, start, 1e-6, 8))

    @pytest.mark.parametrize("block", [1, 7, 300])
    def test_row_blocks_of_any_size(self, block, monkeypatch):
        # blocks of one row, a ragged last block, and one block per call
        rng = np.random.default_rng(8)
        points = np.round(rng.standard_normal((50, 3)) * 3.0, 1)
        start = points[rng.choice(len(points), 6, replace=False)]
        monkeypatch.setattr(landmarks, "LLOYD_BLOCK", block)
        np.testing.assert_array_equal(_lloyd(*_distinct_rows(points), start, 1e-6, 20),
                                      lloyd_oracle(points, start, 1e-6, 20))


class TestSeedingMatchesFreshArrays:
    @pytest.mark.parametrize("kind", ["normal", "duplicates"])
    def test_seeds_and_generator_state(self, kind):
        rng = np.random.default_rng(21)
        points = rng.standard_normal((200, 4)) * 3.0
        if kind == "duplicates":   # the total reaches 0 and seeds redraw uniformly
            points = points[rng.integers(0, 3, len(points))]
        shipped_rng, oracle_rng = np.random.default_rng(4), np.random.default_rng(4)
        centers, drawn = landmarks._kmeans_pp_seed(*_distinct_rows(points), 8, shipped_rng)
        np.testing.assert_array_equal(centers, kmeans_pp_seed_oracle(points, 8, oracle_rng))
        assert shipped_rng.random() == oracle_rng.random()
        # the count of seeds drawn before every row lay on one: the rows'
        # distinct values when they are fewer than k, else k
        assert drawn == min(8, len(np.unique(points, axis=0)))


def repeated(rng, n, m, d):
    """n tanh rows drawn from m distinct ones, every distinct row present."""
    distinct = np.tanh(rng.standard_normal((m, d)) * 2.0)
    return distinct[rng.permutation(np.arange(n) % m)]


class TestDistinctRows:
    def test_rows_gather_back_to_the_points_byte_for_byte(self):
        rng = np.random.default_rng(3)
        points = repeated(rng, 200, 37, 4)
        points[:20, 0] = 0.0
        points[20:40, 0] = -0.0
        points[40, 1] = np.nan
        rows, inverse = _distinct_rows(points)
        assert points.tobytes() == rows[inverse].tobytes()
        assert len({row.tobytes() for row in rows}) == len(rows)
        assert len(rows) == len({row.tobytes() for row in points})


class TestCostsOnTheDistinctRows:
    @pytest.mark.parametrize("n, m, d, k", [(20000, 10000, 32, 100), (600, 300, 32, 4),
                                            (90, 15, 3, 4), (60, 60, 5, 6), (30, 1, 4, 3)])
    def test_equal_the_all_rows_form(self, n, m, d, k):
        # each point takes its distinct row's distances, summed over the
        # points in point order: the all-rows form bit for bit wherever BLAS
        # rounds a row's product with the landmarks alike among m rows and
        # among n. OpenBLAS does at K = 100 on thousands of rows, but not for
        # every shape (one row takes numpy's vector product, and a few
        # landmarks another kernel); there the sums differ in the last bits
        rng = np.random.default_rng(n + m)
        points = repeated(rng, n, m, d)
        rows, inverse = _distinct_rows(points)
        on_points = points[:k].copy()   # distances that clip to 0
        on_points[1::2] += rng.normal(scale=0.1, size=on_points[1::2].shape)
        for centers in (on_points, rng.standard_normal((k, d))):
            alike = np.array_equal(pairwise_sq_distances(rows, centers)[inverse],
                                   pairwise_sq_distances(points, centers))
            assert alike or k < 100
            want = hard_distortion(points, centers)
            assert hard_distortion(rows, centers, inverse) == (
                want if alike else pytest.approx(want, rel=1e-14, abs=0.0))

    def test_init_landmarks_scores_each_restart_on_the_distinct_rows(self, monkeypatch):
        seen = []

        def spy(h, u, inverse=None):
            seen.append((len(h), None if inverse is None else len(inverse)))
            return hard_distortion(h, u, inverse)

        monkeypatch.setattr(landmarks, "hard_distortion", spy)
        init_landmarks(repeated(np.random.default_rng(14), 90, 15, 3), 4, 0, restarts=3)
        assert seen == [(15, 90)] * 3


class TestInitLandmarksMatchesTheFullRowOracle:
    """``init_landmarks`` against ``init_landmarks_oracle``, which seeds and
    runs Lloyd's steps over every row, byte for byte."""

    def check(self, points, k, seed, restarts=4):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # fewer distinct rows than k
            shipped = init_landmarks(points, k, seed, restarts=restarts)
            oracle = init_landmarks_oracle(points, k, seed, restarts=restarts)
        assert shipped.tobytes() == oracle.tobytes()

    def test_rows_shaped_like_the_large_workload(self):
        # about half the rows repeat, and the product runs BLAS's blocked
        # kernels on the distinct rows
        points = repeated(np.random.default_rng(7), 20000, 10000, 32)
        self.check(points, 100, 1, restarts=1)

    def test_rows_holding_both_zeros(self):
        rng = np.random.default_rng(8)
        points = np.round(rng.standard_normal((120, 3)), 1)
        points[rng.random(points.shape) < 0.3] = 0.0
        points[rng.random(points.shape) < 0.3] = -0.0
        assert len(_distinct_rows(points)[0]) > len(np.unique(points, axis=0))
        for k in (3, 12):
            self.check(points, k, 2)

    def test_every_row_distinct(self):
        self.check(np.random.default_rng(9).standard_normal((80, 5)), 6, 3)

    @pytest.mark.parametrize("k", [1, 3])
    def test_one_distinct_row(self, k):
        self.check(np.tile(np.random.default_rng(10).standard_normal(4), (30, 1)), k, 4)

    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_k_at_and_above_the_distinct_row_count(self, extra):
        points = repeated(np.random.default_rng(11), 60, 9, 3)
        self.check(points, 9 + extra, 5)


class TestPassesRunOnTheDistinctRows:
    def test_seeding_and_lloyd_passes_take_the_distinct_rows(self, monkeypatch, cpus):
        # the seeding's n x d subtraction and Lloyd's product and norm blocks
        # see m rows; only the gathers and the centroid sums see all n
        n, m, d = 90, 15, 3
        points = repeated(np.random.default_rng(12), n, m, d)
        heights = []
        subtract, matmul = np.subtract, np.matmul

        def spy(fn):
            def wrapper(a, *args, **kwargs):
                heights.append((fn.__name__, np.shape(a)[0]))
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "subtract", spy(subtract))
        monkeypatch.setattr(np, "matmul", spy(matmul))
        init_landmarks(points, 4, 0, restarts=3)
        assert {name for name, _ in heights} == {"subtract", "matmul"}
        assert max(rows for _, rows in heights) == m


class TestDuplicateLandmarks:
    def test_one_distinct_row_scan_per_call(self, monkeypatch):
        # the rows are scanned once for their distinct values, whatever the
        # restart count; the only other np.unique is over the K landmarks
        rng = np.random.default_rng(4)
        scans = []
        unique = np.unique

        def spy(ar, *args, **kwargs):
            scans.append((len(ar), ar.dtype.kind))
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        for restarts in (1, 4):
            init_landmarks(rng.standard_normal((50, 3)), 5, 0, restarts=restarts)
            # three integer rows ten times over: their cluster means are
            # exact, so the landmarks hold duplicates and take the jitter
            with pytest.warns(UserWarning, match="only 3 distinct landmarks of 5"):
                init_landmarks(np.eye(3)[[0, 1, 2] * 10], 5, 0, restarts=restarts)
        assert scans == [(50, "V"), (5, "f"), (30, "V"), (5, "f")] * 2

    def test_identical_landmarks_from_distinct_rows_warn(self, monkeypatch, rng):
        # every row is distinct, but a Lloyd run that collapses the landmarks
        # still takes the jitter, and the run says so
        monkeypatch.setattr(landmarks, "_lloyd",
                            lambda rows, inverse, centers, tol, max_iter: np.zeros_like(centers))
        with pytest.warns(UserWarning, match="only 1 distinct landmarks of 4"):
            u = init_landmarks(rng.standard_normal((20, 2)), 4, 0)
        assert len(np.unique(u, axis=0)) == 4

    @settings(max_examples=100, deadline=None)
    @given(kmeans_inputs())
    def test_warns_exactly_when_it_jitters(self, case):
        points, k, seed = case
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            shipped = init_landmarks(points, k, seed)
        caught = [w for w in caught if issubclass(w.category, UserWarning)]
        candidates = []
        init_landmarks_oracle(points, k, seed, candidates=candidates)
        lowest = min(cost for _, cost in candidates)
        winner = next(centers for centers, cost in candidates if cost == lowest)
        jittered = not np.array_equal(shipped, winner)
        assert len(caught) == jittered
        if jittered:
            distinct = min(len(np.unique(winner, axis=0)), len(np.unique(points, axis=0)))
            assert f"only {distinct} distinct landmarks of {k}" in str(caught[0].message)

    def test_near_duplicate_landmarks_from_three_rows(self):
        # three rows ten times over: Lloyd's means of the repeated rows come
        # out distinct only by rounding (2.2e-16 apart); the seeding runs out
        # of distinct rows after three draws, so the landmarks take the jitter
        points = np.random.default_rng(4).standard_normal((3, 3))[[0, 1, 2] * 10]
        with pytest.warns(UserWarning, match="only 3 distinct landmarks of 5"):
            u = init_landmarks(points, 5, 0)
        assert min_landmark_gap(u) > 1e-6

    @pytest.mark.parametrize("bundle_seed, k, distinct", [(6, 99, 98), (3, 82, 81)])
    def test_near_duplicate_landmarks_in_training(self, bundle_seed, k, distinct):
        # make_bundle(n_graphs=8, seed=3) holds 81 distinct substructure rows
        # among 116: at K=82 Lloyd's means leave two landmarks 2.8e-17 apart,
        # bitwise distinct, so only the seeding's count of distinct rows
        # catches them. Seed 6 at K=99 is the same setting (98 of 134 rows)
        bundle = make_bundle(n_graphs=8, seed=bundle_seed)
        cfg = TrainConfig(k=k, latent=3, hidden=4, classifier_hidden=5, epochs=0,
                          batch_size=8, seed=0)
        graphs = prepare_bundle(bundle, cfg.substructure())
        z = np.vstack([g.z for g in graphs])
        assert len(np.unique(z, axis=0)) == distinct < k < len(z)
        with pytest.warns(UserWarning, match=f"only {distinct} distinct landmarks of {k}"):
            state, _ = train(graphs, cfg, 2, bundle.node_label_count)
        assert min_landmark_gap(state.u.value) > 1e-6


def min_landmark_gap(u):
    """The smallest distance between two of the landmarks ``u``."""
    gaps = np.linalg.norm(u[:, None, :] - u[None, :, :], axis=2)
    return gaps[np.triu_indices(len(u), 1)].min()


def four_symmetric_clouds():
    """Four clouds of the same shape at the corners of a square, in exact
    binary fractions: at K = 4 every restart finds the same clouds, in the
    order its seeds visit them, at the same cost to the last bit."""
    offsets = np.array([[0.0, 0.0], [0.25, 0.0], [0.0, 0.25], [-0.25, -0.25]])
    corners = np.array([[4.0, 4.0], [-4.0, 4.0], [4.0, -4.0], [-4.0, -4.0]])
    return (corners[:, None, :] + offsets[None, :, :]).reshape(-1, 2)


@pytest.fixture(params=[1, 16], ids=["one-cpu", "many-cpus"])
def cpus(request, monkeypatch):
    """The usable CPU count that ``init_landmarks`` sizes its pool by."""
    monkeypatch.setattr(landmarks, "_usable_cpus", lambda: request.param)
    return request.param


class TestRestartPoolMatchesTheSequentialLoop:
    @pytest.mark.parametrize("restarts", [1, 2, 3, 4, 5])
    def test_restarts(self, restarts, cpus):
        points = np.random.default_rng(restarts).standard_normal((120, 4)) * 2.0
        np.testing.assert_array_equal(init_landmarks(points, 7, 11, restarts=restarts),
                                      init_landmarks_oracle(points, 7, 11, restarts=restarts))

    def test_k_equal_to_the_row_count(self, cpus):
        points = np.random.default_rng(2).standard_normal((9, 3))
        np.testing.assert_array_equal(init_landmarks(points, 9, 5),
                                      init_landmarks_oracle(points, 9, 5))

    def test_duplicate_rows_take_the_jitter_path(self, cpus):
        points = np.random.default_rng(3).standard_normal((4, 2))[[0, 1, 2, 3] * 5]
        with pytest.warns(UserWarning, match="distinct"):
            shipped = init_landmarks(points, 6, 2)
        np.testing.assert_array_equal(shipped, init_landmarks_oracle(points, 6, 2))
        assert len(np.unique(shipped, axis=0)) == 6

    def test_a_cost_tie_keeps_the_first_restart(self, cpus):
        points = four_symmetric_clouds()
        candidates = []
        oracle = init_landmarks_oracle(points, 4, 0, restarts=5, candidates=candidates)
        lowest = min(cost for _, cost in candidates)
        tied = [centers for centers, cost in candidates if cost == lowest]
        assert len(tied) >= 2 and not np.array_equal(tied[0], tied[1])
        np.testing.assert_array_equal(oracle, tied[0])
        np.testing.assert_array_equal(init_landmarks(points, 4, 0, restarts=5), oracle)

    @settings(max_examples=60, deadline=None)
    @given(kmeans_inputs(), st.integers(1, 5), st.integers(1, 8))
    def test_random_inputs(self, case, restarts, cpu_count):
        points, k, seed = case
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # fewer distinct rows than k
            mp.setattr(landmarks, "_usable_cpus", lambda: cpu_count)
            np.testing.assert_array_equal(
                init_landmarks(points, k, seed, restarts=restarts),
                init_landmarks_oracle(points, k, seed, restarts=restarts))


class TestLandmarksOfTheDistinctRows:
    def test_a_function_of_the_distinct_rows_for_any_cpu_count(self, monkeypatch):
        # 300 distinct tanh rows, each repeated twice, against 4 centers: this
        # BLAS rounds many products of the 300 distinct rows with the centers
        # unlike the same rows' products within all 600, so the landmarks are
        # not always those of the all-rows steps. They are one function of the
        # distinct rows and their order, on every call and any CPU count
        rng = np.random.default_rng(0)
        points = np.repeat(np.tanh(rng.standard_normal((300, 32)) * 2.0), 2, axis=0)
        rows, inverse = _distinct_rows(points)
        centers = 2.0 * points[rng.choice(len(points), 4, replace=False)]
        assert (np.matmul(rows, centers.T)[inverse] != np.matmul(points, centers.T)).any()
        runs = []
        for cpu_count in (1, 4, 1, 4):
            monkeypatch.setattr(landmarks, "_usable_cpus", lambda n=cpu_count: n)
            runs.append(init_landmarks(points, 4, seed=7))
        for landmarks_of_run in runs[1:]:
            assert landmarks_of_run.tobytes() == runs[0].tobytes()


class TestRestartPool:
    @pytest.mark.parametrize("restarts,cpu_count,workers",
                             [(4, 1, 1), (4, 2, 2), (2, 16, 2), (0, 8, 1)])
    def test_pool_size(self, restarts, cpu_count, workers, monkeypatch):
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(landmarks, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(landmarks, "_usable_cpus", lambda: cpu_count)
        init_landmarks(np.random.default_rng(0).standard_normal((20, 2)), 3, 0,
                       restarts=restarts)
        assert sizes == [workers]

    def test_usable_cpus_reads_the_affinity_mask_then_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert landmarks._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert landmarks._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert landmarks._usable_cpus() == 1

    def test_lloyd_allocates_nothing_with_a_row_per_point(self):
        # the n x K and n x d arrays live in a memory map that is unmapped
        # at return; a pool thread's allocator would keep them otherwise
        rng = np.random.default_rng(6)
        points = np.tanh(rng.standard_normal((20000, 32)))
        rows, inverse = _distinct_rows(points)
        tracemalloc.start()
        try:
            _lloyd(rows, inverse, points[:100].copy(), 1e-6, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < points.nbytes / 4

    def test_no_thread_outlives_the_call(self, rng):
        before = threading.active_count()
        init_landmarks(rng.standard_normal((200, 3)), 5, 0, restarts=4)
        assert threading.active_count() == before

    def test_a_failed_restart_raises_after_every_thread_ended(self, monkeypatch):
        def failing(rows, inverse, centers, tol, max_iter):
            raise FloatingPointError("lloyd failed")

        before = threading.active_count()
        monkeypatch.setattr(landmarks, "_lloyd", failing)
        with pytest.raises(FloatingPointError, match="lloyd failed"):
            init_landmarks(np.random.default_rng(1).standard_normal((20, 2)), 3, 0)
        assert threading.active_count() == before
