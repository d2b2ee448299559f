"""Print one SHA-256 over the seed-0 outputs that a refactor must keep bit for bit.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/output_digest.py

It hashes the dtype, shape and bytes of every array of:
- ``train_backbone`` parameters and history (60 BA-2Motifs graphs, 3 epochs);
- ``frozen_forward`` logits and node states of those graphs;
- ``evaluate_accuracy`` over those graphs and ``predict``'s probabilities for
  each of them;
- ``train_explainer`` parameters and history;
- a top-K bag and a noise bag (m=10) of every graph: soft weights, hard bits,
  budgets, seeds and bag JSON;
- ``frozen_forward`` and ``train_explainer`` over 21 graphs that include a
  zero-node graph and an edgeless graph;
- ``write_tud_dataset``'s files, byte for byte, and every field of what
  ``load_tud_dataset`` returns under each feature spec, for the 60 graphs
  (with motifs), a copy with drawn node labels, a copy without node labels
  and an edgeless dataset.
Run it on two trees; equal digests mean equal outputs.
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from esgnn import explainer, gin, tud
from esgnn.ba2motifs import generate_ba2motifs
from esgnn.graphs import FeatureSpec, Graph, GraphDataset


def main() -> None:
    digest = hashlib.sha256()

    def feed(a) -> None:
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype}{a.shape}".encode() + a.tobytes())

    def feed_run(params, history) -> None:
        for _, t in sorted(params.named().items()):
            feed(t.data)
        digest.update(json.dumps(history, sort_keys=True).encode())

    def feed_forward(graphs, backbone) -> None:
        logits, states = gin.frozen_forward(graphs, backbone)
        feed(logits)
        for z in states:
            feed(z)

    graphs = list(generate_ba2motifs(60, seed=0).graphs)
    cfg = gin.TrainConfig(epochs=3, batch_size=16, hidden=16)
    backbone, history = gin.train_backbone(graphs, 2, cfg)
    feed_run(backbone, history)
    feed_forward(graphs, backbone)
    digest.update(repr(gin.evaluate_accuracy(graphs, backbone)).encode())
    for g in graphs:
        feed(gin.predict(g, backbone).probs)
    ecfg = explainer.ExplainerConfig(epochs=3, batch_size=16)
    params, history = explainer.train_explainer(graphs, backbone, ecfg, seed=0)
    feed_run(params, history)
    for gi, g in enumerate(graphs):
        for bag in (
            explainer.generate_bag_topk(g, backbone, params),
            explainer.generate_bag_noise(g, backbone, params, 10, 1.0, gi),
        ):
            for m in bag.masks:
                feed(m.soft)
                feed(m.hard)
                digest.update(repr((m.budget, m.seed)).encode())
            digest.update(json.dumps(explainer.bag_to_json(bag, gi), sort_keys=True).encode())

    zero_nodes = Graph(0, [], np.zeros((0, 1)), 0)
    edgeless = Graph(3, [], np.ones((3, 1)), 1)
    mixed = graphs[:5] + [zero_nodes] + graphs[5:9] + [edgeless] + graphs[9:20]
    feed_forward(mixed, backbone)
    ecfg = explainer.ExplainerConfig(epochs=2, batch_size=8)
    feed_run(*explainer.train_explainer(mixed, backbone, ecfg, seed=3))

    def feed_dataset(ds) -> None:
        digest.update(repr((ds.name, ds.num_classes, ds.feature_spec)).encode())
        for g in ds.graphs:
            feed(g.edges)
            feed(g.x)
            motif = g.ground_truth_motif_edges
            motif = None if motif is None else sorted(motif)
            digest.update(repr((g.num_nodes, g.y, g.node_labels, motif)).encode())

    rng = np.random.default_rng(0)
    labelled = [
        dataclasses.replace(g, node_labels=tuple(rng.integers(-1, 3, g.num_nodes).tolist()))
        for g in graphs
    ]
    unlabelled = [dataclasses.replace(g, node_labels=None) for g in graphs]
    no_edges = [Graph(n, [], np.ones((n, 1)), k % 2) for k, n in enumerate([0, 3, 1, 5])]
    sets = {"BA": graphs, "LABELLED": labelled, "PLAIN": unlabelled, "EDGELESS": no_edges}
    for name, members in sets.items():
        ds = GraphDataset(
            graphs=tuple(members), num_classes=2, name=name, feature_spec=FeatureSpec("constant")
        )
        specs = [None, FeatureSpec("degree", cap=3), FeatureSpec("constant")]
        if members[0].node_labels is not None:
            specs.append(FeatureSpec("node_labels"))
        with tempfile.TemporaryDirectory() as tmp:
            tud.write_tud_dataset(ds, tmp)
            for path in sorted(Path(tmp).iterdir()):
                digest.update(path.name.encode() + path.read_bytes())
            for spec in specs:
                feed_dataset(tud.load_tud_dataset(tmp, name, spec))
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
