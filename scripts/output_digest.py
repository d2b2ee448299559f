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
  zero-node graph and an edgeless graph.
Run it on two trees; equal digests mean equal outputs.
"""

import hashlib
import json

import numpy as np

from esgnn import explainer, gin
from esgnn.ba2motifs import generate_ba2motifs
from esgnn.graphs import Graph


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
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
