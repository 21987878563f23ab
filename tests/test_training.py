import json
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slim import embedding, landmarks, pooling
from slim import model as M
from slim import training
from slim.autodiff import NumericError, Tensor
from slim.datasets import DatasetBundle, Graph, make_folds
from slim.substructure import Variant
from slim.synthetic import make_bundle
from slim.training import (
    SGD,
    Adagrad,
    CVResult,
    DivergenceError,
    TrainConfig,
    cross_validate,
    init_state,
    sweep_k,
    train,
    write_sweep_csv,
)

from conftest import (
    adagrad_step_oracle,
    cooccurrence_loss_oracle,
    functional_gradients,
    lloyd_oracle,
    old_assign,
    on_points,
    pool_graph_oracle,
)


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


@st.composite
def adagrad_cases(draw):
    """(values, grads per step, lr, block): parameters of mixed shapes with
    +0.0 and -0.0 entries, one of which never gets a gradient, a few steps
    of random gradients that hold signed zeros too, and a scratch block from
    one entry up to wider than any row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = draw(st.lists(st.sampled_from([(), (1,), (5,), (3, 4), (7, 2), (2, 9), (1, 13)]),
                           min_size=1, max_size=4))
    missing = draw(st.integers(0, len(shapes) - 1))

    def signed_zeros(a):
        a[rng.random(a.shape) < 0.2] = 0.0
        a[rng.random(a.shape) < 0.2] = -0.0
        return a

    values = [signed_zeros(np.array(rng.standard_normal(shape) * 3.0)) for shape in shapes]
    grads = [[None if i == missing else signed_zeros(np.array(rng.standard_normal(shape)))
              for i, shape in enumerate(shapes)]
             for _ in range(draw(st.integers(1, 3)))]
    lr = draw(st.sampled_from([0.0, 1e-2, 0.5, 3.0]))
    block = draw(st.sampled_from([1, 3, 8, training.STEP_BLOCK]))
    return values, grads, lr, block


def step_all(opt_class, values, grads, lr, step=None):
    """Parameters and accumulators after ``opt_class`` takes one step per
    entry of ``grads``, or ``step`` takes it in its place."""
    params = [Tensor(v.copy(), requires_grad=True) for v in values]
    opt = opt_class(params, lr)
    for step_grads in grads:
        for p, g in zip(params, step_grads):
            p.grad = None if g is None else g.copy()
        (step or opt_class.step)(opt)
    return [p.value for p in params], opt.accumulators


def tiny_cfg(**kw):
    base = dict(k=4, latent=3, hidden=4, classifier_hidden=5, epochs=3,
                batch_size=8, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestInPlaceSteps:
    @settings(max_examples=150, deadline=None)
    @given(adagrad_cases())
    def test_adagrad_bit_identical_to_the_direct_step(self, case):
        values, grads, lr, block = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "STEP_BLOCK", block)
            got_values, got_acc = step_all(Adagrad, values, grads, lr)
        want_values, want_acc = step_all(Adagrad, values, grads, lr, adagrad_step_oracle)
        for got, want in zip(got_values + got_acc, want_values + want_acc, strict=True):
            assert got.tobytes() == want.tobytes()
        # the parameter that never got a gradient is untouched
        for value, start, step_grads in zip(got_values, values, zip(*grads)):
            if step_grads[0] is None:
                assert value.tobytes() == start.tobytes()

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    @pytest.mark.parametrize("include_means", [False, True])
    def test_training_bit_identical_to_functional_gradients(self, optimizer, include_means):
        bundle = make_bundle(n_graphs=16, seed=4)
        cfg = tiny_cfg(optimizer=optimizer, include_means=include_means, epochs=3,
                       learning_rate=0.05, batch_size=6)
        assert_same_training(bundle, cfg)

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_training_bit_identical_at_a_lowered_k(self, optimizer):
        bundle = make_bundle(n_graphs=4, seed=3)
        cfg = tiny_cfg(k=200, optimizer=optimizer, epochs=3, batch_size=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # K lowered, landmarks jittered
            state = assert_same_training(bundle, cfg)
        assert state.config.k < 200

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_a_leaf_keeps_its_gradient_array_from_step_2_on(self, optimizer, monkeypatch):
        bundle = make_bundle(n_graphs=12, seed=4)
        cfg = tiny_cfg(optimizer=optimizer, epochs=2, batch_size=4)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        seen = []
        opt_class = SGD if optimizer == "sgd" else Adagrad
        step = opt_class.step

        def recording(opt):
            seen.append([p.grad for p in opt.params])
            step(opt)

        monkeypatch.setattr(opt_class, "step", recording)
        train(graphs, cfg, 2, bundle.node_label_count)
        assert len(seen) == 6
        for grads in seen[2:]:
            assert all(g is first for g, first in zip(grads, seen[1], strict=True))

    def test_step_2_allocates_less_than_the_first_layer_weight(self, monkeypatch):
        # at K=300 the classifier's first layer holds 45150 x 32 floats
        # (11.6 MB), far more than a batch of 4 graphs' features (1.4 MB):
        # a step that makes its gradient anew, or an optimizer temporary of
        # its size, allocates at least that much
        bundle = make_bundle(n_graphs=28, seed=4)
        cfg = tiny_cfg(k=300, classifier_hidden=32, epochs=1, batch_size=4)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        assert sum(g.z.shape[0] for g in graphs) >= cfg.k
        joint_loss = M.joint_loss
        peaks, base = [], []

        def measured(*args, **kwargs):
            if base:                            # the step before this one ends
                peaks.append(tracemalloc.get_traced_memory()[1] - base.pop())
            tracemalloc.reset_peak()
            base.append(tracemalloc.get_traced_memory()[0])
            return joint_loss(*args, **kwargs)

        monkeypatch.setattr(M, "joint_loss", measured)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # duplicate landmarks
                state, _ = train(graphs, cfg, 2, bundle.node_label_count)
        finally:
            tracemalloc.stop()
        assert state.config.k == 300 and len(peaks) >= 2
        assert peaks[1] < state.w_hidden.value.nbytes


def assert_same_training(bundle, cfg):
    """Train ``cfg`` on ``bundle`` with the shipped gradients and optimizer
    steps and with ``functional_gradients``; every parameter byte, the
    feature centre and every epoch loss must agree. Returns the state."""
    graphs = M.prepare_bundle(bundle, cfg.substructure())
    shipped, shipped_history = train(graphs, cfg, 2, bundle.node_label_count)
    with functional_gradients():
        oracle, oracle_history = train(graphs, cfg, 2, bundle.node_label_count)
    for name, a, b in zip(M.PARAMETERS, shipped.parameters(), oracle.parameters(), strict=True):
        assert a.value.tobytes() == b.value.tobytes(), name
    assert shipped.feature_center.tobytes() == oracle.feature_center.tobytes()
    assert shipped_history == oracle_history
    return shipped


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

    def test_the_config_records_whether_unlabeled_graphs_joined(self):
        bundle = make_bundle(n_graphs=14, seed=4)
        cfg = tiny_cfg(epochs=2)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        # the option alone adds no graph: the same run, recorded as not semi-supervised
        state_on, history_on = train(graphs[:10], replace(cfg, semi_supervised=True), 2,
                                     bundle.node_label_count)
        state_off, history_off = train(graphs[:10], cfg, 2, bundle.node_label_count)
        assert history_on == history_off
        assert state_on.config == state_off.config == cfg
        # unlabeled graphs given without the option still join, and say so
        state, _ = train(graphs[:10], cfg, 2, bundle.node_label_count,
                         unlabeled_graphs=graphs[10:])
        assert state.config == replace(cfg, semi_supervised=True)

    @pytest.mark.parametrize("poisoned, unlabeled", [(5, 0), (11, 4)])
    def test_a_non_finite_embedding_names_its_pool_graph(self, poisoned, unlabeled):
        bundle = make_bundle(n_graphs=12, seed=4)
        cfg = tiny_cfg()
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        graphs[poisoned].z[0, 0] = np.nan
        labeled = graphs[:len(graphs) - unlabeled]
        with pytest.raises(NumericError, match=rf"embeddings in pool graphs \[{poisoned}\]$"):
            train(labeled, cfg, 2, bundle.node_label_count,
                  unlabeled_graphs=graphs[len(labeled):] or None)

    def test_a_step_failure_names_the_epoch_the_batch_and_its_graphs(self, monkeypatch):
        # graph 7 turns non-finite after epoch 1's targets are refreshed, so
        # the first step whose batch holds it fails
        bundle = make_bundle(n_graphs=12, seed=4)
        cfg = tiny_cfg(batch_size=4)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        refresh, joint_loss = training.refresh_targets, M.joint_loss
        epoch_batches = []

        def poisoning_refresh(pool, state):
            targets = refresh(pool, state)
            epoch_batches.append([])
            if len(epoch_batches) == 2:
                graphs[7].z[0, 0] = np.nan
            return targets

        def recording_joint_loss(batch, *args):
            epoch_batches[-1].append([next(i for i, g in enumerate(graphs) if g is d)
                                      for d in batch])
            return joint_loss(batch, *args)

        monkeypatch.setattr(training, "refresh_targets", poisoning_refresh)
        monkeypatch.setattr(M, "joint_loss", recording_joint_loss)
        with pytest.raises(NumericError) as caught:
            train(graphs, cfg, 2, bundle.node_label_count)
        batches = epoch_batches[1]
        assert 7 in batches[-1] and not any(7 in seen for seen in batches[:-1])
        assert str(caught.value).endswith(
            f": non-finite input at epoch 1, batch {len(batches) - 1}, "
            f"pool graphs {batches[-1]}")

    def test_a_non_finite_validation_graph_names_it_and_the_epoch(self):
        bundle = make_bundle(n_graphs=12, seed=4)
        cfg = tiny_cfg()
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        graphs[10].z[0, 0] = np.nan
        with pytest.raises(NumericError, match=r"non-finite classifier logits for graphs \[2\] "
                                               r"of the validation split at epoch 0$"):
            train(graphs[:8], cfg, 2, bundle.node_label_count, val_graphs=graphs[8:])

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
            mp.setattr(landmarks, "_lloyd", counted("lloyd", on_points(lloyd_oracle)))
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

    def test_no_thread_outlives_training(self):
        bundle = make_bundle(n_graphs=8, seed=4)
        cfg = tiny_cfg(epochs=1)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        before = threading.active_count()
        train(graphs, cfg, 2, bundle.node_label_count)
        assert threading.active_count() == before

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

    def test_substructures_prepared_once(self, monkeypatch):
        bundle = make_bundle(n_graphs=16, seed=6)
        plan = make_folds(bundle, 4, seed=1)
        calls = []
        prepare = M.prepare_bundle
        monkeypatch.setattr(M, "prepare_bundle",
                            lambda *a, **kw: calls.append(1) or prepare(*a, **kw))
        rows = sweep_k(bundle, tiny_cfg(epochs=1), [2, 3], plan)
        assert [r.k for r in rows] == [2, 3]
        assert len(calls) == 1


class TestConfig:
    def test_learning_rate_must_be_non_negative(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)

    def test_loss_weights_must_be_non_negative(self):
        with pytest.raises(ValueError):
            TrainConfig(lambda_embed=-1.0)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            TrainConfig(seed=-1)

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

    def test_variant_string_becomes_the_enum(self):
        assert TrainConfig(variant="layer_wise").variant is Variant.LAYER_WISE
        with pytest.raises(ValueError):
            TrainConfig(variant="bogus")

    def test_digit_string_hidden_becomes_an_int(self):
        assert TrainConfig(hidden="12").hidden == 12
        assert TrainConfig(hidden="D/2").hidden == "D/2"

    def test_k_reduced_when_too_few_rows_warns(self, tmp_path):
        bundle = make_bundle(n_graphs=4, seed=3)
        cfg = tiny_cfg(k=200, epochs=1)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        with pytest.warns(UserWarning, match="lowering K"):
            state, _ = train(graphs, cfg, 2, bundle.node_label_count)
        assert state.u.value.shape[0] < 200
        # the record holds the K its arrays were built with, and keeps it
        assert state.config.k == state.u.value.shape[0]
        assert state.config == replace(cfg, k=state.config.k)
        path = str(tmp_path / "model.npz")
        M.save_model(path, state)
        assert M.load_model(path).config == state.config
        rebuilt = init_state(state.config, graphs[0].z.shape[1], bundle.node_label_count,
                             2, np.random.default_rng(0))
        assert ([p.value.shape for p in rebuilt.parameters()]
                == [p.value.shape for p in state.parameters()])

    def test_a_lowered_k_draws_the_model_once(self):
        # the parameters are drawn once, at the lowered K, from the first
        # spawn of the seed: no classifier is drawn for the requested K
        bundle = make_bundle(n_graphs=4, seed=3)
        cfg = tiny_cfg(k=200, epochs=0)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        rows = sum(g.z.shape[0] for g in graphs)
        with (pytest.warns(UserWarning, match=f"lowering K to {rows}"),
              pytest.warns(UserWarning, match="distinct landmarks")):
            state, _ = train(graphs, cfg, 2, bundle.node_label_count)
        init_seed = np.random.SeedSequence(cfg.seed).spawn(1)[0]
        drawn = init_state(replace(cfg, k=rows), graphs[0].z.shape[1],
                           bundle.node_label_count, 2, np.random.default_rng(init_seed))
        assert state.config == drawn.config
        assert state.u.value.shape == drawn.u.value.shape
        for name in M.PARAMETERS:
            if name != "u":   # the landmarks come from k-means
                np.testing.assert_array_equal(getattr(state, name).value,
                                              getattr(drawn, name).value, err_msg=name)

    def test_a_lowered_k_allocates_only_the_lowered_model(self):
        # 60 rows against K=3000: a classifier drawn at the requested K alone
        # would take feature_width(3000, ...) floats, about 36 MB
        bundle = make_bundle(n_graphs=4, seed=3)
        cfg = tiny_cfg(k=3000, classifier_hidden=1, epochs=0)
        graphs = M.prepare_bundle(bundle, cfg.substructure())
        assert sum(g.z.shape[0] for g in graphs) == 60
        tracemalloc.start()
        try:
            with (pytest.warns(UserWarning, match="lowering K to 60"),
                  pytest.warns(UserWarning, match="distinct landmarks")):
                state, _ = train(graphs, cfg, 2, bundle.node_label_count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.config.k == 60
        assert peak < 8 * 2**20
