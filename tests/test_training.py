import json

import numpy as np
import pytest

from slim import embedding, landmarks, pooling
from slim import model as M
from slim import training
from slim.autodiff import Tensor
from slim.datasets import DatasetBundle, Graph, make_folds
from slim.synthetic import make_bundle
from slim.training import (
    SGD,
    Adagrad,
    CVResult,
    DivergenceError,
    TrainConfig,
    cross_validate,
    sweep_k,
    train,
    write_sweep_csv,
)

from conftest import cooccurrence_loss_oracle, lloyd_oracle, old_assign, pool_graph_oracle


class TestOptimizers:
    def test_sgd_step_is_exactly_lr_times_grad(self, rng):
        theta = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        start = theta.value.copy()
        # quadratic bowl: loss = 0.5 * sum(theta^2), gradient = theta
        theta.grad = start.copy()
        SGD([theta], lr=0.1).step()
        np.testing.assert_allclose(theta.value, start - 0.1 * start, rtol=1e-15)

    def test_adagrad_first_step_is_sign_scaled(self):
        theta = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        g = np.array([[2.0, -0.5]])
        theta.grad = g.copy()
        Adagrad([theta], lr=0.1).step()
        expected = np.array([[1.0, -2.0]]) - 0.1 * g / np.sqrt(g * g + 1e-8)
        np.testing.assert_allclose(theta.value, expected, rtol=1e-12)

    def test_optimizers_skip_missing_grads(self):
        theta = Tensor(np.ones((2, 2)), requires_grad=True)
        before = theta.value.copy()
        SGD([theta], lr=0.5).step()
        Adagrad([theta], lr=0.5).step()
        np.testing.assert_array_equal(theta.value, before)


def tiny_cfg(**kw):
    base = dict(k=4, latent=3, hidden=4, classifier_hidden=5, epochs=3,
                batch_size=8, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTrain:
    def test_zero_learning_rate_is_a_null_update(self):
        bundle = make_bundle(n_graphs=10, seed=4)
        cfg = tiny_cfg(learning_rate=0.0, optimizer="sgd")
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        state, _ = train(graphs, cfg, 2, bundle.node_label_count)
        cfg2 = tiny_cfg(learning_rate=0.0, optimizer="sgd", epochs=1)
        state2, _ = train(graphs, cfg2, 2, bundle.node_label_count)
        for a, b in zip(state.parameters(), state2.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_fixed_seed_reproduces_loss_curves(self):
        bundle = make_bundle(n_graphs=12, seed=4)
        cfg = tiny_cfg(epochs=4, seed=11)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        _, h1 = train(graphs, cfg, 2, bundle.node_label_count)
        _, h2 = train(graphs, cfg, 2, bundle.node_label_count)
        assert [m.train_loss for m in h1] == [m.train_loss for m in h2]

    def test_two_graph_separable_toy_set(self):
        # two graphs over disjoint node types: a type-0 triangle and a
        # type-1 path; the interaction features separate them immediately
        tri = Graph.from_adjacency(np.ones((3, 3)) - np.eye(3), np.zeros(3, dtype=int), 0)
        path = Graph.from_adjacency(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float),
                     np.ones(3, dtype=int), 1)
        bundle = DatasetBundle("toy", [tri, path], 2, 2)
        cfg = tiny_cfg(epochs=50, k=2, learning_rate=0.05, optimizer="adagrad",
                       batch_size=2)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        state, _ = train(graphs, cfg, 2, 2)
        assert M.accuracy(graphs, state) == 1.0

    def test_divergence_aborts_with_report(self, monkeypatch):
        bundle = make_bundle(n_graphs=8, seed=4)
        cfg = tiny_cfg()
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        monkeypatch.setattr(training, "DIVERGENCE_LIMIT", 1e-9)
        with pytest.raises(DivergenceError, match="epoch 0"):
            train(graphs, cfg, 2, bundle.node_label_count)

    def test_semi_supervised_never_reads_unlabeled_labels(self):
        bundle = make_bundle(n_graphs=14, seed=4)
        cfg = tiny_cfg(epochs=3, semi_supervised=True)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        labeled, unlabeled = graphs[:10], graphs[10:]
        corrupted = [
            M.GraphData(z=g.z, x=g.x, edges=g.edges, label=1 - g.label)
            for g in unlabeled
        ]
        state_a, _ = train(labeled, cfg, 2, bundle.node_label_count,
                           unlabeled_graphs=unlabeled)
        state_b, _ = train(labeled, cfg, 2, bundle.node_label_count,
                           unlabeled_graphs=corrupted)
        for a, b in zip(state_a.parameters(), state_b.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_unsupervised_terms_see_unlabeled_graphs(self):
        bundle = make_bundle(n_graphs=14, seed=4)
        cfg = tiny_cfg(epochs=2, semi_supervised=True)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        state_with, _ = train(graphs[:10], cfg, 2, bundle.node_label_count,
                              unlabeled_graphs=graphs[10:])
        state_without, _ = train(graphs[:10], cfg, 2, bundle.node_label_count)
        diffs = [
            np.abs(a.value - b.value).max()
            for a, b in zip(state_with.parameters(), state_without.parameters())
        ]
        assert max(diffs) > 0.0

    def test_grads_are_clear_after_training(self):
        bundle = make_bundle(n_graphs=8, seed=4)
        cfg = tiny_cfg(epochs=1)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        state, _ = train(graphs, cfg, 2, bundle.node_label_count)
        state.zero_grad()
        assert all(p.grad is None for p in state.parameters())

    def test_trajectory_bit_identical_with_the_direct_kernels(self):
        # the in-place co-occurrence softmax, the two-pass Lloyd step, the
        # fused Student-t assignment and the pooling kernel must leave every
        # parameter where the direct forms leave it
        bundle = make_bundle(n_graphs=24, seed=9)
        cfg = tiny_cfg(k=6, latent=4, epochs=4, batch_size=6, seed=3)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        shipped, shipped_history = train(graphs, cfg, 2, bundle.node_label_count)
        calls = {"lloyd": 0, "cooc": 0, "assign": 0, "pool": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(landmarks, "_lloyd", counted("lloyd", lloyd_oracle))
            mp.setattr(embedding, "cooccurrence_loss",
                       counted("cooc", cooccurrence_loss_oracle))
            mp.setattr(landmarks, "assign", counted("assign", old_assign))
            mp.setattr(pooling, "pool_graph", counted("pool", pool_graph_oracle))
            oracle, oracle_history = train(graphs, cfg, 2, bundle.node_label_count)
        assert calls["lloyd"] == cfg.kmeans_restarts and calls["cooc"] == 4 * len(graphs)
        assert calls["assign"] > 0 and calls["pool"] >= 4 * len(graphs)
        for a, b in zip(shipped.parameters(), oracle.parameters(), strict=True):
            np.testing.assert_array_equal(a.value, b.value)
        np.testing.assert_array_equal(shipped.feature_center, oracle.feature_center)
        for got, want in zip(shipped_history, oracle_history, strict=True):
            for field in ("train_loss", "loss_ce", "loss_embed", "loss_cluster"):
                assert getattr(got, field) == pytest.approx(getattr(want, field),
                                                            rel=1e-12, abs=0.0)

    def test_empty_training_split_rejected(self):
        cfg = tiny_cfg()
        with pytest.raises(ValueError):
            train([], cfg, 2, 7)


def constant_bundle(n=20):
    """Featureless coin-flip dataset: identical graphs, half each class."""
    graphs = [
        Graph.from_adjacency(np.zeros((1, 1)), np.array([0]), cls % 2) for cls in range(n)
    ]
    return DatasetBundle("const", graphs, 1, 2)


class TestCrossValidate:
    def test_constant_features_give_majority_accuracy(self):
        bundle = constant_bundle(20)
        cfg = tiny_cfg(epochs=2, k=1)
        plan = make_folds(bundle, 5, seed=0)
        result = cross_validate(bundle, cfg, plan)
        assert result.mean == pytest.approx(0.5)
        assert result.std == pytest.approx(0.0)

    def test_mean_std_consistent_with_fold_list(self):
        bundle = make_bundle(n_graphs=20, seed=5)
        cfg = tiny_cfg(epochs=2)
        plan = make_folds(bundle, 4, seed=1)
        result = cross_validate(bundle, cfg, plan)
        assert result.mean == pytest.approx(np.mean(result.per_fold), abs=1e-12)
        assert result.std == pytest.approx(np.std(result.per_fold), abs=1e-12)
        assert 0 <= result.selected_epoch < cfg.epochs
        assert len(result.epoch_curve) == cfg.epochs

    def test_selected_epoch_is_curve_argmax(self):
        bundle = make_bundle(n_graphs=20, seed=5)
        cfg = tiny_cfg(epochs=3)
        plan = make_folds(bundle, 4, seed=1)
        result = cross_validate(bundle, cfg, plan)
        assert result.selected_epoch == int(np.argmax(result.epoch_curve))
        assert result.epoch_curve[result.selected_epoch] == pytest.approx(result.mean)

    def test_reproducible_epoch_selection(self):
        bundle = make_bundle(n_graphs=20, seed=5)
        cfg = tiny_cfg(epochs=3, seed=9)
        plan = make_folds(bundle, 4, seed=1)
        a = cross_validate(bundle, cfg, plan)
        b = cross_validate(bundle, cfg, plan)
        assert a.selected_epoch == b.selected_epoch
        assert a.per_fold == b.per_fold

    def test_parallel_jobs_match_sequential(self):
        bundle = make_bundle(n_graphs=16, seed=5)
        cfg = tiny_cfg(epochs=2, seed=3)
        plan = make_folds(bundle, 4, seed=1)
        seq = cross_validate(bundle, cfg, plan, jobs=1)
        par = cross_validate(bundle, cfg, plan, jobs=2)
        assert seq.per_fold == par.per_fold

    def test_metrics_jsonl(self, tmp_path):
        bundle = make_bundle(n_graphs=16, seed=5)
        cfg = tiny_cfg(epochs=2)
        plan = make_folds(bundle, 4, seed=1)
        path = str(tmp_path / "epochs.jsonl")
        cross_validate(bundle, cfg, plan, metrics_path=path)
        lines = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert len(lines) == 4 * cfg.epochs
        assert {"fold", "epoch", "train_loss", "loss_ce", "loss_embed",
                "loss_cluster", "val_accuracy"} <= set(lines[0])


class TestSweep:
    def test_single_k_matches_cross_validate(self):
        bundle = make_bundle(n_graphs=16, seed=6)
        cfg = tiny_cfg(epochs=2, k=3)
        plan = make_folds(bundle, 4, seed=1)
        rows = sweep_k(bundle, cfg, [3], plan)
        direct = cross_validate(bundle, cfg, plan)
        assert len(rows) == 1
        assert rows[0].mean_acc == pytest.approx(direct.mean)

    def test_duplicates_removed_and_sorted(self, tmp_path):
        bundle = make_bundle(n_graphs=16, seed=6)
        cfg = tiny_cfg(epochs=1)
        plan = make_folds(bundle, 4, seed=1)
        with pytest.warns(UserWarning, match="duplicate"):
            rows = sweep_k(bundle, cfg, [4, 2, 4], plan)
        assert [r.k for r in rows] == [2, 4]
        path = str(tmp_path / "sweep.csv")
        write_sweep_csv(rows, path)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0] == "K,mean_acc,std_acc"
        assert len(lines) == 3


class TestConfig:
    def test_learning_rate_must_be_non_negative(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)

    def test_loss_weights_must_be_non_negative(self):
        with pytest.raises(ValueError):
            TrainConfig(lambda_embed=-1.0)

    def test_optimizer_name_checked(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="adam")

    def test_hidden_resolution(self):
        assert TrainConfig(hidden="D").resolve_hidden(14) == 14
        assert TrainConfig(hidden="D/2").resolve_hidden(14) == 7
        assert TrainConfig(hidden="2D").resolve_hidden(14) == 28
        assert TrainConfig(hidden=9).resolve_hidden(14) == 9
        with pytest.raises(ValueError):
            TrainConfig(hidden="3D").resolve_hidden(14)

    def test_k_reduced_when_too_few_rows_warns(self):
        bundle = make_bundle(n_graphs=4, seed=3)
        cfg = tiny_cfg(k=200, epochs=1)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        with pytest.warns(UserWarning, match="lowering K"):
            state, _ = train(graphs, cfg, 2, bundle.node_label_count)
        assert state.landmarks.u.value.shape[0] < 200

