"""Write ``tests/trajectory.json``: the pinned training trajectory.

A few small stand-in trainings, each recorded as the sha256 of its
substructure rows Z, every epoch's loss terms, the norm of each parameter
and of the feature centre after training, and the logits and predicted
class of every graph. ``test_trajectory.py`` re-runs the same cases and
compares them with the file: Z and the predictions exactly, every float to
1e-10 relative. Regenerate only when a change is meant to move the numbers,
and say so with the change:

    PYTHONPATH=src python tests/make_trajectory.py
"""
from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from slim import autodiff as ad
from slim import model as M
from slim.synthetic import make_bundle
from slim.training import TrainConfig, train

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trajectory.json")

# name -> (make_bundle graphs, make_bundle seed, TrainConfig keywords)
CASES = {
    "adagrad-defaults": (40, 3, dict(epochs=4, seed=1)),
    "sgd-include-means": (32, 4, dict(optimizer="sgd", learning_rate=5e-2, k=12,
                                      batch_size=8, epochs=4, seed=2, include_means=True)),
    "sgd-layer-wise": (32, 5, dict(optimizer="sgd", learning_rate=5e-2, k=12, batch_size=8,
                                   epochs=4, seed=3, variant="layer_wise", hops=2)),
}


def run_case(name: str) -> dict:
    """Train case ``name`` on its stand-in bundle; returns its record."""
    n_graphs, bundle_seed, keywords = CASES[name]
    bundle = make_bundle(n_graphs, seed=bundle_seed)
    cfg = TrainConfig(**keywords)
    graphs = M.prepare_bundle(bundle, cfg.substructure())
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(g.z.tobytes())
    state, history = train(graphs, cfg, bundle.class_count, bundle.node_label_count)
    frozen = state.frozen()
    logits = np.vstack([M.classifier_logits(ad.constant(fwd.features.value), frozen).value
                        for fwd in M.forward_chunks(graphs, state)])
    return {
        "z_sha256": digest.hexdigest(),
        "losses": [[m.train_loss, m.loss_ce, m.loss_embed, m.loss_cluster] for m in history],
        "parameter_norms": {name: float(np.linalg.norm(p.value))
                            for name, p in zip(M.PARAMETERS, state.parameters())},
        "feature_center_norm": float(np.linalg.norm(state.feature_center)),
        "logits": logits.tolist(),
        "predictions": logits.argmax(axis=1).tolist(),
    }


if __name__ == "__main__":
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump({name: run_case(name) for name in CASES}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {PATH}")
