"""From substructures to identity-preserving graph features.

Substructure rows are encoded into a latent space, landmarks are fitted by
k-means, and each graph is summarized by how its parts map onto landmarks
(densities p, type profiles M) and how those parts interconnect (interaction
C and its normalized form). Batches of graphs run through one forward pass
over their stacked rows; the per-graph matrices come from the same pooling
kernel over the graph's edge list, as in `slim inspect`.
"""
import numpy as np

from slim import model as M
from slim.landmarks import init_landmarks, target_distribution
from slim.pooling import DENSITY_EPS, pool_graph
from slim.synthetic import make_bundle
from slim.training import TrainConfig, init_state

bundle = make_bundle(n_graphs=40, seed=0)
cfg = TrainConfig(k=8, latent=8, epochs=1)
graphs = M.prepare_bundle(bundle, cfg.substructure())
state = init_state(cfg, graphs[0].z.shape[1], bundle.node_label_count,
                   bundle.class_count, np.random.default_rng(0))

# fit landmarks on the embeddings of every graph, encoded chunk by chunk
stacked = np.vstack([fwd.h.value for fwd in M.forward_chunks(graphs, state, pooled=False)])
state.u.value = init_landmarks(stacked, cfg.k, seed=0)
print(f"{stacked.shape[0]} substructure instances -> {cfg.k} landmarks")

batch = M.batch_forward(graphs[:4], state.frozen())
print(f"batch of 4 graphs: rows {batch.bounds}, feature rows {batch.features.shape}")

data = graphs[0]
w = batch.w.value[: data.z.shape[0]]
p, _, _, c_norm = pool_graph(w, *data.edges)
c = c_norm * np.outer(p + DENSITY_EPS, p + DENSITY_EPS)
print(f"\ngraph 0: {data.z.shape[0]} nodes, class {data.label}")
print("soft assignment row 0:", np.round(w[0], 3))
print("sharpened target row 0:", np.round(target_distribution(w)[0], 3))
print("\nlandmark densities p (sum = node count):", np.round(p, 2))
print("interaction matrix C (sum = 2|E| =", int(c.sum() + 0.5), "):")
print(np.round(c, 2))
print("normalized interaction:")
print(np.round(c_norm, 3))
print("\nclassifier feature vector length (upper triangle of C_norm, K(K+1)/2):",
      batch.features.shape[1])
