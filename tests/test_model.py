import json
import re
import tracemalloc
import typing
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from slim import autodiff as ad
from slim import model as M
from slim.autodiff import NumericError, Tensor
from slim.datasets import Graph
from slim.embedding import encode_values
from slim.landmarks import target_distribution
from slim.substructure import SubstructureConfig
from slim.synthetic import make_bundle
from slim.training import TrainConfig, init_state

from conftest import (adjacency_of, assign_values, cooccurrence_loss_reference, graph_feature,
                      pooled_features)


@pytest.fixture
def small_setup(rng):
    bundle = make_bundle(n_graphs=8, seed=2)
    cfg = TrainConfig(k=5, latent=4, hidden=6, classifier_hidden=7, epochs=1, seed=2)
    graphs = M.prepare_bundle(bundle, cfg.substructure())
    state = init_state(cfg, graphs[0].z.shape[1], bundle.node_label_count,
                       bundle.class_count, rng)
    state.u.value = rng.standard_normal((cfg.k, cfg.latent)) * 0.4
    return bundle, cfg, graphs, state


def sharpened_targets(batch, state):
    """Per-graph clustering targets from the plain-array reference paths."""
    return [
        target_distribution(assign_values(encode_values(g.z, state),
                                          state.u.value))
        for g in batch
    ]


def tape_free_logits(graphs, state):
    feats = np.vstack([f.features.value for f in M.forward_chunks(graphs, state)])
    return M.classifier_logits(ad.constant(feats), state.frozen()).value


def manual_joint_loss(batch, state, lam_e, lam_c, targets):
    """Standalone recomputation of each term with the plain-array paths."""
    feats, labels = [], []
    embed = cluster = 0.0
    for data, target in zip(batch, targets):
        h = encode_values(data.z, state)
        w = assign_values(h, state.u.value)
        pf = pooled_features(data.x, w, adjacency_of(data))
        feats.append(graph_feature(pf, state.config.include_means))
        labels.append(data.label)
        embed += cooccurrence_loss_reference(h, adjacency_of(data))
        with np.errstate(divide="ignore", invalid="ignore"):
            cluster += float(np.where(target > 0, target * np.log(target / w), 0.0).sum())
    f = np.stack(feats)
    hidden = np.tanh(f @ state.w_hidden.value + state.b_hidden.value)
    logits = hidden @ state.w_out.value + state.b_out.value
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    ce = float((lse - z[np.arange(len(labels)), labels]).mean())
    return ce + lam_e * embed + lam_c * cluster, ce, embed, cluster


class TestJointLoss:
    def test_matches_standalone_term_evaluators(self, small_setup):
        bundle, cfg, graphs, state = small_setup
        batch = graphs[:4]
        targets = sharpened_targets(batch, state)
        total, parts = M.joint_loss(batch, state, targets)
        expected, ce, embed, cluster = manual_joint_loss(batch, state, 0.01, 0.01, targets)
        assert total.value.item() == pytest.approx(expected, abs=1e-10)
        assert parts.cross_entropy == pytest.approx(ce, abs=1e-10)
        assert parts.embed == pytest.approx(embed, abs=1e-8)
        assert parts.cluster == pytest.approx(cluster, abs=1e-10)

    def test_zero_weights_reduce_to_cross_entropy(self, small_setup):
        _, _, graphs, state = small_setup
        unweighted = replace(state.config, lambda_embed=0.0, lambda_cluster=0.0)
        total, parts = M.joint_loss(graphs[:3], replace(state, config=unweighted))
        assert total.value.item() == pytest.approx(parts.cross_entropy, abs=1e-12)
        assert parts.embed == 0.0 and parts.cluster == 0.0

    def test_all_terms_vanish_for_perfect_setup(self, rng):
        # single-node graphs: no edges so the co-occurrence term is an empty
        # sum; the target equals the assignment; a saturated output bias makes
        # the classification loss negligible
        g = Graph.from_adjacency(np.zeros((1, 1)), np.array([0]), 0)
        cfg = TrainConfig(k=2, latent=3, hidden=4, classifier_hidden=4, epochs=1)
        data = M.prepare_graph(g, 1, cfg.substructure())
        state = init_state(cfg, data.z.shape[1], 1, 2, rng)
        state.b_out.value = np.array([40.0, -40.0])
        w = M.batch_forward([data], state.frozen()).w.value
        total, _ = M.joint_loss([data, data], state, [w.copy(), w.copy()])
        assert total.value.item() == pytest.approx(0.0, abs=1e-12)

    def test_empty_batch_rejected(self, small_setup):
        _, _, _, state = small_setup
        with pytest.raises(ValueError):
            M.joint_loss([], state)

    def test_non_finite_loss_aborts_with_diagnostics(self, small_setup):
        _, _, graphs, state = small_setup
        state.t1.value = np.full_like(state.t1.value, np.nan)
        with pytest.raises(NumericError):
            M.joint_loss(graphs[:2], state)

    def test_unlabeled_graphs_skip_classification(self, small_setup):
        _, _, graphs, state = small_setup
        batch = graphs[:3]
        targets = sharpened_targets(batch, state)
        _, parts_all = M.joint_loss(batch, state, targets)
        _, parts_unl = M.joint_loss(batch, state, targets, labeled=[True, False, False])
        assert parts_unl.embed == pytest.approx(parts_all.embed)
        assert parts_unl.cluster == pytest.approx(parts_all.cluster)
        assert parts_unl.cross_entropy != parts_all.cross_entropy


class TestPredictPaths:
    def test_predict_matches_tape_logits(self, small_setup, rng):
        _, _, graphs, state = small_setup
        state.feature_center = rng.standard_normal(state.w_hidden.shape[0])
        fwd = M.batch_forward(graphs, state)
        assert fwd.features.requires_grad
        logits = M.classifier_logits(fwd.features, state)
        np.testing.assert_allclose(tape_free_logits(graphs, state), logits.value,
                                   rtol=1e-12)
        labels = np.array([g.label for g in graphs])
        assert M.accuracy(graphs, state) == (logits.value.argmax(axis=1) == labels).mean()

    def test_tape_free_pass_builds_no_tape(self, small_setup):
        _, _, graphs, state = small_setup
        for fwd in M.forward_chunks(graphs, state):
            assert not (fwd.h.requires_grad or fwd.w.requires_grad
                        or fwd.features.requires_grad)

    @pytest.mark.parametrize("rows", [M.CLASSIFY_ROWS, 1])
    def test_non_finite_logits_name_their_graphs(self, small_setup, monkeypatch, rows):
        # one classifier call for all 8 graphs, or one per graph
        monkeypatch.setattr(M, "CLASSIFY_ROWS", rows)
        _, _, graphs, state = small_setup
        state.feature_center = np.zeros(state.w_hidden.shape[0])
        poisoned = list(graphs)
        for i in (2, 6):
            z = graphs[i].z.copy()
            z[0, 0] = np.nan
            poisoned[i] = replace(graphs[i], z=z)
        with pytest.raises(NumericError, match=r"^non-finite classifier logits for graphs "
                                               r"\[2, 6\]$"):
            M.accuracy(poisoned, state)

    @pytest.mark.parametrize("taped", [False, True])
    def test_classifier_copies_no_feature_batch(self, rng, taped):
        # the centre is subtracted where the rows are pooled, so the head
        # reads the feature batch as it is
        cfg = TrainConfig(k=300, latent=2, hidden=2, classifier_hidden=4)
        state = init_state(cfg, 3, 1, 2, rng)
        state.feature_center = rng.standard_normal(state.w_hidden.shape[0])
        features = ad.constant(rng.standard_normal((M.CLASSIFY_ROWS, len(state.feature_center))))
        head = state if taped else state.frozen()
        tracemalloc.start()
        try:
            logits = M.classifier_logits(features, head)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert logits.shape == (M.CLASSIFY_ROWS, 2) and logits.requires_grad == taped
        assert peak < features.value.nbytes

    def test_accuracy_bounds(self, small_setup):
        _, _, graphs, state = small_setup
        acc = M.accuracy(graphs, state)
        assert 0.0 <= acc <= 1.0


class TestParameters:
    def test_with_parameters_inverts_parameters(self, small_setup, rng):
        bundle, cfg, graphs, _ = small_setup
        cfg = replace(cfg, activation="sigmoid", include_means=True)
        state = init_state(cfg, graphs[0].z.shape[1], bundle.node_label_count,
                           bundle.class_count, rng)
        state.feature_center = np.arange(float(state.w_hidden.shape[0]))
        state.meta["dataset"] = "unit-test"
        params = state.parameters()
        again = state.with_parameters(params)
        assert all(a is b for a, b in zip(again.parameters(), params, strict=True))
        assert again.feature_center is state.feature_center
        assert again.meta == {"dataset": "unit-test"}
        assert again.config is state.config

    def test_with_parameters_replaces_in_order(self, small_setup):
        _, _, _, state = small_setup
        fresh = [Tensor(np.full_like(p.value, i)) for i, p in enumerate(state.parameters())]
        swapped = state.with_parameters(fresh)
        assert all(a is b for a, b in zip(swapped.parameters(), fresh, strict=True))
        assert state.parameters()[0] is not fresh[0]
        with pytest.raises(ValueError, match="9 parameters"):
            state.with_parameters(fresh[:-1])

    @pytest.mark.parametrize("name", M.PARAMETERS + ("feature_center",))
    def test_a_misshapen_array_is_refused_when_made(self, small_setup, name):
        # the check a model file gets, for a model made in code; an extra
        # trailing axis disagrees with every table entry whatever the array
        _, _, _, state = small_setup
        arrays = {"feature_center": np.zeros(state.w_hidden.shape[0]),
                  **{n: getattr(state, n) for n in M.PARAMETERS}}
        M.ModelState(config=state.config, **arrays)
        wrong = arrays[name]
        wrong = wrong[..., None] if name == "feature_center" else Tensor(wrong.value[..., None])
        message = rf"^array {name} has shape {re.escape(str(wrong.shape))}, but "
        with pytest.raises(ValueError, match=message):
            M.ModelState(config=state.config, **{**arrays, name: wrong})
        if name in M.PARAMETERS:
            with pytest.raises(ValueError, match=message):
                state.with_parameters(wrong if p is arrays[name] else p
                                      for p in state.parameters())

    def test_frozen_shares_arrays_without_grad(self, small_setup):
        _, _, _, state = small_setup
        frozen = state.frozen()
        for a, b in zip(state.parameters(), frozen.parameters(), strict=True):
            assert b.value is a.value and not b.requires_grad and a.requires_grad


def format_2_file(small_setup, tmp_path, rng, with_config=True):
    """A model and its file, with the meta keys ``slim train`` wrote in
    format 2 spelled out. The top-level copies of two config entries
    disagree with the config, which is the one that is read."""
    bundle, cfg, graphs, _ = small_setup
    cfg = replace(cfg, activation="sigmoid", include_means=True)
    state = init_state(cfg, graphs[0].z.shape[1], bundle.node_label_count,
                       bundle.class_count, rng)
    state.u.value = rng.standard_normal(state.u.shape)
    state.feature_center = np.linspace(-1.0, 1.0, state.w_hidden.shape[0])
    meta = {"format_version": 2, "dataset": "unit-test", "config": asdict(cfg),
            "activation": "tanh", "include_means": False}
    if not with_config:
        del meta["config"]
    path = str(tmp_path / "v2.npz")
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             feature_center=state.feature_center,
             **{name: getattr(state, name).value for name in M.PARAMETERS})
    return state, path


class TestSerialization:
    def test_round_trip(self, small_setup, tmp_path):
        _, _, graphs, state = small_setup
        state.meta["dataset"] = "unit-test"
        path = str(tmp_path / "model.npz")
        M.save_model(path, state)
        loaded = M.load_model(path)
        for a, b in zip(state.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.value, b.value)
        assert loaded.config == state.config
        assert loaded.meta == {"dataset": "unit-test"}
        np.testing.assert_array_equal(tape_free_logits(graphs, state),
                                      tape_free_logits(graphs, loaded))

    def test_file_with_the_format_2_keys_loads(self, small_setup, tmp_path, rng):
        graphs = small_setup[2]
        state, path = format_2_file(small_setup, tmp_path, rng)
        cfg = state.config
        loaded = M.load_model(path)
        assert loaded.config == cfg and loaded.meta == {"dataset": "unit-test"}
        for a, b in zip(state.parameters(), loaded.parameters(), strict=True):
            np.testing.assert_array_equal(a.value, b.value)
        np.testing.assert_array_equal(loaded.feature_center, state.feature_center)
        np.testing.assert_array_equal(tape_free_logits(graphs, state),
                                      tape_free_logits(graphs, loaded))
        M.save_model(str(tmp_path / "again.npz"), loaded)
        with np.load(str(tmp_path / "again.npz")) as again, np.load(path) as first:
            assert sorted(again.files) == sorted(first.files)
            assert set(json.loads(bytes(again["meta"]).decode("utf-8"))) == {
                "dataset", "format_version", "config"}

    def test_format_2_file_without_a_config_is_refused(self, small_setup, tmp_path, rng):
        _, path = format_2_file(small_setup, tmp_path, rng, with_config=False)
        with pytest.raises(ValueError, match="v2.npz: the model file records no config"):
            M.load_model(path)

    def test_a_dof_other_than_one_is_refused(self, small_setup, tmp_path):
        _, _, _, state = small_setup
        path = str(tmp_path / "model.npz")
        M.save_model(path, state)
        blob = dict(np.load(path))
        meta = json.loads(bytes(blob["meta"]).decode("utf-8"))
        assert "dof" not in meta
        for dof, loads in ((1.0, True), (1, True), (2.5, False), (0.7, False)):
            blob["meta"] = np.frombuffer(json.dumps({**meta, "dof": dof}).encode(),
                                         dtype=np.uint8)
            np.savez(path, **blob)
            if loads:
                M.load_model(path)
            else:
                with pytest.raises(ValueError, match="dof"):
                    M.load_model(path)

    @pytest.mark.parametrize("name, reshape", [
        ("u", lambda a: np.zeros((a.shape[0], a.shape[1] + 2))),   # wider than latent
        ("t1", lambda a: a[:, 1:]),         # narrower than the hidden width
        ("b1", lambda a: a[1:]),            # disagrees with t1
        ("t2", lambda a: a.T),
        ("b2", lambda a: a[None]),
        ("w_hidden", lambda a: a[1:]),      # no feature width at k=5
        ("b_hidden", lambda a: np.zeros(a.shape[0] + 1)),
        ("w_out", lambda a: a[1:]),         # disagrees with b_hidden
        ("b_out", lambda a: np.zeros(a.shape[0] + 1)),   # disagrees with w_out
        ("b_out", lambda a: np.zeros(())),
        ("feature_center", lambda a: np.zeros(a.shape[0] - 1)),
        ("feature_center", lambda a: a[None]),
    ])
    def test_array_shapes_are_checked(self, small_setup, tmp_path, rng, name, reshape):
        _, _, _, state = small_setup
        state.feature_center = rng.standard_normal(state.w_hidden.shape[0])
        path = str(tmp_path / "model.npz")
        M.save_model(path, state)
        M.load_model(path)
        blob = dict(np.load(path))
        blob[name] = reshape(blob[name])
        np.savez(path, **blob)
        with pytest.raises(ValueError, match=rf"^{path}: array {name} has shape "):
            M.load_model(path)

    def test_version_check(self, small_setup, tmp_path):
        _, _, _, state = small_setup
        path = str(tmp_path / "model.npz")
        M.save_model(path, state)
        blob = dict(np.load(path))
        blob["meta"] = np.frombuffer(
            json.dumps({"format_version": 99}).encode(), dtype=np.uint8
        )
        np.savez(path, **blob)
        with pytest.raises(ValueError, match="format version"):
            M.load_model(path)


# a value other than the default for every TrainConfig field
EVERY_FIELD = {"hops": 2, "variant": "weighted_layer_sum", "layer_decay": 0.25, "k": 3,
               "latent": 3, "hidden": "D/2", "classifier_hidden": 6, "optimizer": "sgd",
               "learning_rate": 0.02, "epochs": 1, "batch_size": 7, "lambda_embed": 0.02,
               "lambda_cluster": 0.03, "seed": 9, "semi_supervised": True,
               "include_means": True, "activation": "sigmoid", "kmeans_restarts": 2}


def test_the_model_file_holds_every_parameter_and_option(tmp_path, rng):
    # a parameter or an option added without file support fails here
    hints = typing.get_type_hints(M.ModelState)
    assert tuple(name for name, hint in hints.items() if hint is Tensor) == M.PARAMETERS
    assert {f.name for f in fields(TrainConfig)} == set(EVERY_FIELD)
    cfg = TrainConfig(**EVERY_FIELD)
    for f in fields(TrainConfig):
        assert getattr(cfg, f.name) != f.default, f.name
    path = str(tmp_path / "model.npz")
    M.save_model(path, init_state(cfg, 8, 3, 2, rng))
    with np.load(path) as data:
        assert sorted(data.files) == sorted(M.PARAMETERS + ("feature_center", "meta"))
    loaded = M.load_model(path)
    for f in fields(TrainConfig):
        assert getattr(loaded.config, f.name) == getattr(cfg, f.name), f.name


def test_train_config_field_order():
    # the substructure options come first, inherited from SubstructureConfig;
    # asdict keys, manifests and model files follow this order
    assert [f.name for f in fields(TrainConfig)] == [
        "hops", "variant", "layer_decay", "k", "latent", "hidden", "classifier_hidden",
        "optimizer", "learning_rate", "epochs", "batch_size", "lambda_embed",
        "lambda_cluster", "seed", "semi_supervised", "include_means", "activation",
        "kmeans_restarts"]
    assert isinstance(TrainConfig(), SubstructureConfig)
