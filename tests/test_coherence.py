import math
from dataclasses import astuple

import numpy as np
import pytest

from slim import cli
from slim.coherence import (
    BoundConfig,
    BoundParams,
    GaussianMixture,
    SweepConfig,
    bound_from_ratio,
    distortion,
    empirical_coherence_sweep,
    mutual_coherence,
    recovery_support_bound,
    spearman,
    sweep_summary,
    theorem_lower_bound,
    unit_ball_volume,
)

from conftest import old_write_coherence_csv


class TestMutualCoherence:
    def test_orthogonal_pair(self):
        assert mutual_coherence(np.eye(2)) == 0.0

    def test_duplicated_landmark(self):
        u = np.array([[1.0, 2.0], [2.0, 4.0]])  # parallel rows
        assert mutual_coherence(u) == pytest.approx(1.0)

    def test_three_vector_hand_case(self):
        u = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert mutual_coherence(u) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError):
            mutual_coherence(np.ones((1, 3)))

    def test_zero_norm_names_index(self):
        u = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ArithmeticError, match="landmark 1"):
            mutual_coherence(u)

    def test_rescaling_invariance(self, rng):
        u = rng.standard_normal((5, 3))
        scaled = u.copy()
        scaled[2] *= 37.0
        assert mutual_coherence(scaled) == pytest.approx(mutual_coherence(u), rel=1e-12)

    def test_orthogonal_transform_invariance(self, rng):
        u = rng.standard_normal((6, 4))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert mutual_coherence(u @ q) == pytest.approx(mutual_coherence(u), abs=1e-9)

    def test_range(self, rng):
        for _ in range(10):
            mu = mutual_coherence(rng.standard_normal((4, 3)))
            assert 0.0 <= mu <= 1.0


class TestRecoveryBound:
    def test_fully_coherent(self):
        assert recovery_support_bound(1.0) == 1.0

    def test_hand_cases(self):
        assert recovery_support_bound(0.2) == pytest.approx(3.0)
        assert recovery_support_bound(0.5) == pytest.approx(1.5)

    def test_zero_coherence_unbounded(self):
        assert recovery_support_bound(0.0) == math.inf

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            recovery_support_bound(1.5)


class TestUnitBallVolume:
    def test_d2_is_pi(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-12)

    def test_d3_sphere(self):
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)

    def test_d1_interval(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-12)

    def test_large_dimension_finite(self):
        # direct gamma overflows here; the lgamma fallback must still give the value
        assert unit_ball_volume(300) == pytest.approx(math.exp(
            math.log(2.0) + 150.0 * math.log(math.pi) - math.log(300.0) - math.lgamma(150.0)
        ))
        assert 0.0 < unit_ball_volume(300) < 1e-100

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestTheoremBound:
    def test_hand_case(self):
        # d=2, combined constant 1, K=8: 1 - (4/sqrt(8)) * (1/2 + 1)
        assert bound_from_ratio(2, 8, 1.0) == pytest.approx(-1.1213, abs=1e-3)

    def test_monotone_on_exact_floor_subsequence(self):
        values = [bound_from_ratio(2, 2 * m * m, 1.0) for m in range(1, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_monotone_in_k_generally(self):
        for d in (2, 3, 5):
            values = [bound_from_ratio(d, k, 0.7) for k in range(2, 600)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_limit_is_one(self):
        assert bound_from_ratio(2, 10**12, 1.0) == pytest.approx(1.0, abs=1e-4)

    def test_finite_at_the_smallest_k_in_every_dimension(self):
        # at K = 2 the floor term is (K/2)^(1/d) = 1 exactly, never 0
        for d in range(2, 65):
            assert bound_from_ratio(d, 2, 1.0) == pytest.approx(1.0 - 8.0 / 2.0 ** (1.0 / d))

    def test_requires_k_at_least_two(self):
        with pytest.raises(ValueError):
            bound_from_ratio(2, 1, 1.0)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -1.0])
    def test_requires_a_finite_non_negative_ratio(self, ratio):
        with pytest.raises(ValueError, match="cdcp_over_umax2"):
            bound_from_ratio(2, 8, ratio)
        with pytest.raises(ValueError, match="cdcp_over_umax2"):
            BoundConfig(cdcp_over_umax2=ratio)

    def test_bound_config_gives_the_bound_of_its_fields(self):
        assert BoundConfig(d=3, K=16, cdcp_over_umax2=0.5).bound() == bound_from_ratio(3, 16, 0.5)

    def test_bound_params_constants(self):
        bp = BoundParams(d=2, k=8, u_max=1.0, c_p=1.0)
        assert bp.v_d == pytest.approx(math.pi, abs=1e-12)
        assert bp.gamma_d == pytest.approx(1.0 + 2.0 * math.log(2.0 * math.log(2.0)))
        assert bp.c_d == pytest.approx(1.5 * (1.0 + math.log(2.0) / 2.0) * bp.gamma_d * bp.v_d)
        assert theorem_lower_bound(bp) == pytest.approx(bound_from_ratio(2, 8, bp.ratio))

    def test_bound_params_validation(self):
        with pytest.raises(ValueError):
            BoundParams(d=1, k=8, u_max=1.0, c_p=1.0)
        with pytest.raises(ValueError):
            BoundParams(d=2, k=1, u_max=1.0, c_p=1.0)
        with pytest.raises(ValueError):
            BoundParams(d=2, k=8, u_max=0.0, c_p=1.0)


class TestSweepConfig:
    def test_ks_is_read_from_a_comma_separated_list(self):
        assert SweepConfig(ks=" 8, 2,,32").ks == (8, 2, 32)
        assert SweepConfig(ks=(2, 8)) == SweepConfig(ks="2,8")

    @pytest.mark.parametrize("ks", [(), (2,), (2, 2, 1), (0, 2, 4), "2,x", ","])
    def test_a_sweep_without_two_distinct_ks_is_refused(self, ks):
        with pytest.raises(ValueError):
            SweepConfig(ks=ks)


class TestDistortion:
    def test_zero_when_points_are_landmarks(self, rng):
        pts = rng.standard_normal((6, 3))
        assert distortion(pts, pts) == pytest.approx(0.0, abs=1e-12)

    def test_arithmetic_mean_of_distances(self):
        h = np.array([[1.0, 0.0], [3.0, 0.0]])
        u = np.array([[0.0, 0.0]])
        assert distortion(h, u) == pytest.approx(2.0)

    def test_uses_distance_not_squared(self):
        h = np.array([[2.0, 0.0]])
        u = np.array([[0.0, 0.0]])
        assert distortion(h, u) == pytest.approx(2.0)  # squared would be 4


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_reversal(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_averaged(self):
        rho = spearman([1, 2, 3, 4], [1, 1, 2, 2])
        assert 0.0 < rho < 1.0

    def test_nonlinearity_does_not_matter(self):
        x = np.arange(1, 20)
        assert spearman(x, np.exp(x / 3.0)) == pytest.approx(1.0)


class TestEmpiricalSweep:
    def test_small_sweep_trends(self):
        gen = GaussianMixture.default_2d(points=256)
        cells = empirical_coherence_sweep(gen, [1, 2, 8, 32, 64], seeds=[0, 1, 2])
        summary = sweep_summary(cells)
        assert summary[0]["mean_coherence"] is None  # K=1 has no coherence
        dist = [row["mean_distortion"] for row in summary]
        assert all(b <= a + 1e-9 for a, b in zip(dist, dist[1:]))
        ks = [row["k"] for row in summary[1:]]
        cohs = [row["mean_coherence"] for row in summary[1:]]
        assert spearman(ks, cohs) > 0.5

    def test_cells_have_bounds_for_valid_k(self):
        gen = GaussianMixture.default_2d(points=128)
        cells = empirical_coherence_sweep(gen, [2, 16], seeds=[0])
        for cell in cells:
            assert cell.bound is not None
            assert cell.bound <= 1.0

    def test_rejects_generator_smaller_than_k(self):
        gen = GaussianMixture.default_2d(points=16)
        with pytest.raises(ValueError, match=r"points per draw \(16\) must be at least "
                                             r"the largest K \(32\)"):
            empirical_coherence_sweep(gen, [32], seeds=[0])

    def test_a_repeated_k_runs_once_in_ascending_order(self):
        gen = GaussianMixture.default_2d(points=32)
        with pytest.warns(UserWarning, match="duplicate K values removed from sweep"):
            cells = empirical_coherence_sweep(gen, [4, 2, 2], seeds=[0])
        assert [c.k for c in cells] == [2, 4]
        assert cells == empirical_coherence_sweep(gen, [2, 4], seeds=[0])

    def test_csv_row_format(self, tmp_path):
        gen = GaussianMixture.default_2d(points=64)
        cells = empirical_coherence_sweep(gen, [1, 2], seeds=[0])
        cli.write_csv(tmp_path / "coherence.csv", ("K", "seed", "coherence", "distortion",
                                                    "bound"), map(astuple, cells))
        old_write_coherence_csv(cells, tmp_path / "old.csv")
        assert (tmp_path / "coherence.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        header, row_k1, row_k2 = (tmp_path / "coherence.csv").read_text().splitlines()
        assert header == "K,seed,coherence,distortion,bound"
        assert row_k1.startswith("1,0,,")  # empty coherence and bound fields
        assert row_k1.endswith(",")
        assert len(row_k2.split(",")) == 5

    def test_c_p_estimate_positive(self):
        gen = GaussianMixture.default_2d()
        c_p = gen.estimate_c_p(grid_points=80)
        assert c_p > 0.0
