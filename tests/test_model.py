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
    state.landmarks.u.value = rng.standard_normal((cfg.k, cfg.latent)) * 0.4
    return bundle, cfg, graphs, state


def sharpened_targets(batch, state):
    """Per-graph clustering targets from the plain-array reference paths."""
    return [
        target_distribution(assign_values(encode_values(g.z, state.encoder),
                                          state.landmarks.u.value, state.landmarks.dof))
        for g in batch
    ]


def tape_free_logits(graphs, state):
    feats = np.vstack([f.features.value for f in M.forward_chunks(graphs, state)])
    return M.classifier_logits(ad.constant(feats), state.frozen().classifier,
                               state.feature_center).value


def manual_joint_loss(batch, state, lam_e, lam_c, targets):
    """Standalone recomputation of each term with the plain-array paths."""
    feats, labels = [], []
    embed = cluster = 0.0
    for data, target in zip(batch, targets):
        h = encode_values(data.z, state.encoder)
        w = assign_values(h, state.landmarks.u.value, state.landmarks.dof)
        pf = pooled_features(data.x, w, adjacency_of(data))
        feats.append(graph_feature(pf, state.include_means))
        labels.append(data.label)
        embed += cooccurrence_loss_reference(h, adjacency_of(data))
        with np.errstate(divide="ignore", invalid="ignore"):
            cluster += float(np.where(target > 0, target * np.log(target / w), 0.0).sum())
    f = np.stack(feats)
    cp = state.classifier
    hidden = np.tanh(f @ cp.w_hidden.value + cp.b_hidden.value)
    logits = hidden @ cp.w_out.value + cp.b_out.value
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    ce = float((lse - z[np.arange(len(labels)), labels]).mean())
    return ce + lam_e * embed + lam_c * cluster, ce, embed, cluster


class TestJointLoss:
    def test_matches_standalone_term_evaluators(self, small_setup):
        bundle, cfg, graphs, state = small_setup
        batch = graphs[:4]
        targets = sharpened_targets(batch, state)
        total, parts = M.joint_loss(batch, state, 0.01, 0.01, targets)
        expected, ce, embed, cluster = manual_joint_loss(batch, state, 0.01, 0.01, targets)
        assert total.value.item() == pytest.approx(expected, abs=1e-10)
        assert parts.cross_entropy == pytest.approx(ce, abs=1e-10)
        assert parts.embed == pytest.approx(embed, abs=1e-8)
        assert parts.cluster == pytest.approx(cluster, abs=1e-10)

    def test_zero_weights_reduce_to_cross_entropy(self, small_setup):
        _, _, graphs, state = small_setup
        total, parts = M.joint_loss(graphs[:3], state, 0.0, 0.0)
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
        state.classifier.b_out.value = np.array([40.0, -40.0])
        w = M.batch_forward([data], state.frozen()).w.value
        total, _ = M.joint_loss([data, data], state, 0.01, 0.01,
                                [w.copy(), w.copy()])
        assert total.value.item() == pytest.approx(0.0, abs=1e-12)

    def test_empty_batch_rejected(self, small_setup):
        _, _, _, state = small_setup
        with pytest.raises(ValueError):
            M.joint_loss([], state, 0.01, 0.01)

    def test_non_finite_loss_aborts_with_diagnostics(self, small_setup):
        _, _, graphs, state = small_setup
        state.encoder.t1.value = np.full_like(state.encoder.t1.value, np.nan)
        with pytest.raises(NumericError):
            M.joint_loss(graphs[:2], state, 0.01, 0.01)

    def test_unlabeled_graphs_skip_classification(self, small_setup):
        _, _, graphs, state = small_setup
        batch = graphs[:3]
        targets = sharpened_targets(batch, state)
        _, parts_all = M.joint_loss(batch, state, 0.01, 0.01, targets)
        _, parts_unl = M.joint_loss(batch, state, 0.01, 0.01, targets,
                                    labeled=[True, False, False])
        assert parts_unl.embed == pytest.approx(parts_all.embed)
        assert parts_unl.cluster == pytest.approx(parts_all.cluster)
        assert parts_unl.cross_entropy != parts_all.cross_entropy


class TestPredictPaths:
    def test_predict_matches_tape_logits(self, small_setup, rng):
        _, _, graphs, state = small_setup
        state.feature_center = rng.standard_normal(state.classifier.w_hidden.shape[0])
        fwd = M.batch_forward(graphs, state)
        assert fwd.features.requires_grad
        logits = M.classifier_logits(fwd.features, state.classifier, state.feature_center)
        np.testing.assert_allclose(tape_free_logits(graphs, state), logits.value,
                                   rtol=1e-12)
        labels = np.array([g.label for g in graphs])
        assert M.accuracy(graphs, state) == (logits.value.argmax(axis=1) == labels).mean()

    def test_tape_free_pass_builds_no_tape(self, small_setup):
        _, _, graphs, state = small_setup
        for fwd in M.forward_chunks(graphs, state):
            assert not (fwd.h.requires_grad or fwd.w.requires_grad
                        or fwd.features.requires_grad)

    def test_accuracy_bounds(self, small_setup):
        _, _, graphs, state = small_setup
        acc = M.accuracy(graphs, state)
        assert 0.0 <= acc <= 1.0


class TestSerialization:
    def test_round_trip(self, small_setup, tmp_path):
        _, _, graphs, state = small_setup
        state.meta["dataset"] = "unit-test"
        path = str(tmp_path / "model.npz")
        M.save_model(path, state)
        loaded = M.load_model(path)
        for a, b in zip(state.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.value, b.value)
        assert loaded.landmarks.dof == state.landmarks.dof
        assert loaded.meta["dataset"] == "unit-test"
        np.testing.assert_array_equal(tape_free_logits(graphs, state),
                                      tape_free_logits(graphs, loaded))

    def test_version_check(self, small_setup, tmp_path):
        import json

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
