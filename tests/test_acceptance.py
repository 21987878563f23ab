"""Acceptance suite: one test per stated criterion, each printing a PASS line.

Criteria 1, 2 and the first clause of 7 require the MUTAG benchmark on disk
(SLIM_DATA_DIR or ./data). They run the full stated protocol when the data is
present and fail with a diagnostic otherwise; nothing is weakened or skipped.
"""
import math
import time

import numpy as np
import pytest

from slim import autodiff as ad
from slim import model as M
from slim.autodiff import Tensor, check_registered_ops
from slim.coherence import (
    GaussianMixture,
    bound_from_ratio,
    empirical_coherence_sweep,
    recovery_support_bound,
    spearman,
    sweep_summary,
    unit_ball_volume,
)
from slim.datasets import load_tu_dataset, make_folds, one_hot_features, save_tu_dataset
from slim.landmarks import assign, hard_distortion, init_landmarks
from slim.pooling import DENSITY_EPS, pool_graph
from slim.training import TrainConfig, cross_validate, sweep_k

from conftest import adjacency_of, directed_edges, random_graph, require_benchmark
from test_landmarks import exhaustive_two_means


def report(name, detail):
    print(f"\nACCEPTANCE PASS [{name}] {detail}")


class TestCriterion1MutagReproduction:
    def test_mutag_cv_accuracy_and_wall_clock(self):
        root = require_benchmark("MUTAG")
        bundle = load_tu_dataset(root, "MUTAG")
        cfg = TrainConfig(k=100, hops=3)
        plan = make_folds(bundle, 10, cfg.seed)
        start = time.time()
        result = cross_validate(bundle, cfg, plan)
        elapsed = time.time() - start
        assert elapsed < 900.0, f"10-fold CV took {elapsed:.0f}s (budget 900s)"
        assert result.mean >= 0.85, (
            f"MUTAG 10-fold mean accuracy {result.mean:.4f} below 0.85 "
            f"(per fold: {np.round(result.per_fold, 3)})"
        )
        report("criterion 1", f"MUTAG mean={result.mean:.4f}±{result.std:.4f} "
                              f"epoch={result.selected_epoch} time={elapsed:.0f}s")


class TestCriterion2BellCurve:
    def test_accuracy_peaks_at_moderate_k(self):
        root = require_benchmark("MUTAG")
        bundle = load_tu_dataset(root, "MUTAG")
        # the K=2000 endpoint forces the memory-lean SGD path; one shared
        # budget and seed for all three runs (expect ~1-2h wall clock on one
        # core, almost all of it in the K=2000 runs)
        cfg = TrainConfig(hops=3, optimizer="sgd", learning_rate=5e-2, epochs=25,
                          batch_size=16)
        plan = make_folds(bundle, 10, cfg.seed)
        rows = {r.k: r.mean_acc for r in sweep_k(bundle, cfg, [2, 100, 2000], plan)}
        assert rows[100] > rows[2], f"K=100 ({rows[100]:.3f}) <= K=2 ({rows[2]:.3f})"
        assert rows[100] > rows[2000], f"K=100 ({rows[100]:.3f}) <= K=2000 ({rows[2000]:.3f})"
        report("criterion 2", f"bell curve acc: K=2 {rows[2]:.3f} < "
                              f"K=100 {rows[100]:.3f} > K=2000 {rows[2000]:.3f}")


class TestCriterion3CoherenceTrend:
    def test_spearman_and_distortion_monotone(self):
        generator = GaussianMixture.default_2d(points=1024)
        k_values = [2 ** i for i in range(1, 10)]  # 2 .. 512
        cells = empirical_coherence_sweep(generator, k_values, seeds=list(range(10)))
        summary = sweep_summary(cells)
        ks = [row["k"] for row in summary]
        coherences = [row["mean_coherence"] for row in summary]
        distortions = [row["mean_distortion"] for row in summary]
        rho = spearman(ks, coherences)
        assert rho >= 0.9, f"spearman(K, coherence) = {rho:.3f} < 0.9"
        assert all(b <= a + 1e-9 for a, b in zip(distortions, distortions[1:])), (
            f"distortion not non-increasing: {np.round(distortions, 4)}"
        )
        report("criterion 3", f"spearman={rho:.3f}, distortion "
                              f"{distortions[0]:.3f} -> {distortions[-1]:.3f}")


class TestCriterion4GradientSuite:
    def test_all_ops_and_end_to_end_loss(self):
        reports = check_registered_ops(step=1e-5, tolerance=1e-4)
        from slim.cli import _end_to_end_report

        reports.append(_end_to_end_report(step=1e-5, tolerance=1e-4))
        failing = [(r.op_name, r.max_relative_error) for r in reports if not r.passed]
        assert not failing, f"gradient checks failing: {failing}"
        worst = max(r.max_relative_error for r in reports)
        report("criterion 4", f"{len(reports)} checks, worst rel err {worst:.2e}")


class TestCriterion5PoolingInvariants:
    def test_invariants_on_100_random_graphs(self):
        # the shipped assignment op and pooling kernel, with M and C derived
        # from the kernel's output as `slim inspect` derives them
        def pooled(x, h, u, adjacency):
            w = assign(Tensor(h), Tensor(u)).value
            p, _, v, c_norm = pool_graph(w, *directed_edges(adjacency))
            c = c_norm * np.outer(p + DENSITY_EPS, p + DENSITY_EPS)
            return w, (p, x.T @ v, c, c_norm)

        rng = np.random.default_rng(77)
        u = rng.standard_normal((6, 4))
        worst_perm = worst_mass = worst_edge = worst_row = 0.0
        for _ in range(100):
            g = random_graph(rng, n_types=5)
            n = g.node_count
            h = rng.standard_normal((n, 4))
            x = one_hot_features(g, 5)
            a = adjacency_of(g)
            w, parts = pooled(x, h, u, a)
            worst_row = max(worst_row, float(np.abs(w.sum(axis=1) - 1.0).max()))
            worst_mass = max(worst_mass, abs(parts[0].sum() - n))
            worst_edge = max(worst_edge, abs(parts[2].sum() - a.sum()))
            perm = rng.permutation(n)
            _, permuted = pooled(x[perm], h[perm], u, a[np.ix_(perm, perm)])
            worst_perm = max([worst_perm] + [float(np.abs(a - b).max())
                                             for a, b in zip(permuted, parts)])
        assert worst_row <= 1e-9
        assert worst_mass <= 1e-6
        assert worst_edge <= 1e-6
        assert worst_perm <= 1e-6
        report("criterion 5", f"100 graphs: perm err {worst_perm:.1e}, "
                              f"mass err {worst_mass:.1e}, edge err {worst_edge:.1e}, "
                              f"row err {worst_row:.1e}")


class TestCriterion6LandmarkOracle:
    def test_matches_exhaustive_two_means(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for trial in range(20):
            n = int(rng.integers(6, 13))
            centers = rng.standard_normal((2, 2)) * 3.0
            points = np.vstack([
                centers[0] + 0.25 * rng.standard_normal((n // 2, 2)),
                centers[1] + 0.25 * rng.standard_normal((n - n // 2, 2)),
            ])
            _, oracle_cost = exhaustive_two_means(points)
            got = hard_distortion(points, init_landmarks(points, 2, seed=trial))
            worst = max(worst, got - oracle_cost)
        assert worst <= 1e-6, f"distortion gap vs enumeration oracle: {worst:.2e}"
        report("criterion 6", f"20 instances, worst distortion gap {worst:.1e}")


class TestCriterion7ParserFidelity:
    def test_round_trip_and_mutag_counts(self, tmp_path):
        # lossless round-trip, checked on a freshly written copy
        from slim.synthetic import make_bundle

        synth = make_bundle(n_graphs=20, seed=3, name="RT")
        save_tu_dataset(synth, str(tmp_path))
        again = load_tu_dataset(str(tmp_path), "RT")
        for a, b in zip(synth.graphs, again.graphs):
            np.testing.assert_array_equal(a.edges, b.edges)
            np.testing.assert_array_equal(a.node_labels, b.node_labels)
            assert a.class_label == b.class_label

        root = require_benchmark("MUTAG")
        bundle = load_tu_dataset(root, "MUTAG")
        assert len(bundle) == 188, f"MUTAG graph count {len(bundle)} != 188"
        assert bundle.class_count == 2
        assert bundle.node_label_count == 7
        save_tu_dataset(bundle, str(tmp_path), name="MUTAG_RT")
        again = load_tu_dataset(str(tmp_path), "MUTAG_RT")
        for a, b in zip(bundle.graphs, again.graphs):
            np.testing.assert_array_equal(a.edges, b.edges)
            np.testing.assert_array_equal(a.node_labels, b.node_labels)
            assert a.class_label == b.class_label
        report("criterion 7", "MUTAG: 188 graphs, 2 classes, 7 node labels; "
                              "round-trip lossless")


class TestCriterion8AnalyticSpotChecks:
    def test_bound_values(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-12)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)
        assert bound_from_ratio(2, 8, 1.0) == pytest.approx(-1.1213, abs=1e-3)
        assert recovery_support_bound(0.2) == 3.0
        report("criterion 8", "V_2=pi, V_3=4pi/3, bound(d=2,K=8,ratio=1)=-1.1213, "
                              "support(0.2)=3")
