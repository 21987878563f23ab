"""Build per-node substructure descriptors for a toy molecule.

Each node of a graph contributes one substructure instance: the node-type
counts inside its k-hop ball, read off the exact-j-hop shells. The four
layouts trade off how much of the layer structure is kept.
"""
import numpy as np

from slim.datasets import Graph, one_hot_features
from slim.substructure import SubstructureConfig, Variant, build_substructures, hop_shells

# a 6-ring with two pendant atoms, three node types
ring = np.zeros((8, 8))
for i in range(6):
    ring[i, (i + 1) % 6] = ring[(i + 1) % 6, i] = 1
ring[0, 6] = ring[6, 0] = 1
ring[3, 7] = ring[7, 3] = 1
mol = Graph.from_adjacency(ring, np.array([0, 1, 0, 1, 0, 1, 2, 2]), 0)
mol.validate()
x = one_hot_features(mol, 3)

shells = hop_shells(mol.edges, mol.node_count, 2)
print("directed edge list (CSR order):\n", mol.edges)
print("\n2-hop ball (self included):\n", (np.eye(mol.node_count) + sum(shells)).astype(int))
print("\nexactly-2-hops shell:\n", shells[1].astype(int))

for variant in Variant:
    cfg = SubstructureConfig(hops=2, variant=variant)
    z = build_substructures(mol, x, cfg)
    print(f"\n{variant.value} (width {z.shape[1]}):")
    print(np.round(z, 2))
