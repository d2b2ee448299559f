"""Print SHA-256 digests of the seed-0 outputs that a refactor must keep bit for bit.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/output_digest.py

It prints one ``section sha256`` line per output section, named in brackets
below, then the digest over all of them in this order as the last line.
A section computed from given parameters must keep its digest through a
change that touches only training; the sections of training, and of what
is computed from trained parameters, may move.  It hashes the dtype, shape
and bytes of every array of:
- [backbone_train] ``train_backbone`` parameters and history (60
  BA-2Motifs graphs, 3 epochs);
- [trained_forward] ``frozen_forward`` logits and node states of those
  graphs, ``evaluate_accuracy`` over them and ``predict``'s probabilities
  for each of them;
- [explainer_train] ``train_explainer`` parameters and history;
- [trained_bags] ``edge_scores`` of every graph, and of each again once its
  ``Graph.adjacency`` is built; a top-K bag, a noise bag (m=10), an
  edge-deleted and a node-deleted bag of every graph, ``sample_bag`` of its
  edge-deleted and node-deleted bags (fraction 0.3, the graph's index as
  seed), and of each the bag that ``bag_from_json`` reads back from its
  JSON: soft weights, hard bits, budgets, seeds, zeroed nodes, policy and
  bag JSON;
- [edgeless_bag] a node-deleted bag of an edgeless graph, the same way;
- [mixed_forward] ``frozen_forward`` over 21 graphs that include a
  zero-node graph and an edgeless graph, and [mixed_explainer_train]
  ``train_explainer`` over them;
- [tud] ``write_tud_dataset``'s files, byte for byte, and every field of
  what ``load_tud_dataset`` returns under each feature spec, for the 60
  graphs (with motifs), a copy with drawn node labels, a copy without node
  labels and an edgeless dataset;
- [ba2motifs] every field of every graph of ``generate_ba2motifs(1200, s)``
  for s = 0, 1 and 2, the datasets the benchmark trains on;
- [large_forward] ``frozen_forward`` logits and node states of 64 random
  graphs of 100-300 nodes with degree features (cap 10), under a fresh
  32-wide, 4-layer backbone, and ``evaluate_accuracy`` over each 32-graph
  half: batches of thousands of nodes, whose GIN layers run in several row
  blocks; and ``frozen_forward`` of the first 3 and the first 4 of those
  graphs (559 and 764 nodes): batches between one and two row blocks;
- [taped_layer] one taped ``apply_gin_layer`` (11 -> 32, random eps and
  biases) over the first 32 of those graphs, which span more than two row
  blocks: its output and the gradients of its seven inputs;
- batch forwards of graphs whose CSR is concatenated from each graph's
  sorted entries: [masked_batch] 16 of the 60 graphs with node-deleted and
  noise masks through ``build_graph_batch(graphs, masks)`` under the
  trained models, and [shuffled_batches] 8 of the large graphs with their
  edge rows shuffled out of key order, unmasked and with node-deleted
  masks: logits and node states.  Both run ``backbone_forward_batch`` with
  ``BackboneParams.frozen()``: the taped op with nothing taped, one kernel
  call over all of a batch's rows per layer, with no row blocks;
- a taped ``mask_values`` forward, [taped_mask_values_trained] over the 21
  graphs with a zero-node and an edgeless graph under the trained models,
  and [taped_mask_values_fresh] over the 8 shuffled and 4 more large graphs
  under the fresh ones: logits, node states and the gradients of the mask
  values and of every parameter, then ``edge_logits`` over those states
  (the trained explainer, and a fresh 32-wide one for the large graphs) and
  its gradient onto them;
- [assemble] the ``indptr``, ``indices`` and ``data`` of the test oracle
  ``tests.oracles.assemble`` (``sort_entries`` then ``from_layout``) for
  random simple graphs of 40 and 3000 nodes, each edge flipped at random
  and the edges shuffled, with 0.0, -0.0, NaN and +-inf among the weights;
- [large_bags] the bag path at the benchmark's large size: ``edge_scores``,
  a top-K bag and a noise bag (m=10) of 24 Barabasi-Albert graphs (two
  edges per new node) of 100-300 nodes with degree features (cap 10), under
  the fresh 32-wide backbone and a fresh edge scorer, and of a one-edge
  graph, each with its JSON and the bag read back from it;
- [one_graph_blocks] the row-block path of a graph scored alone:
  ``edge_scores``, a top-K bag and a noise bag (m=10) of one
  Barabasi-Albert graph of 600 nodes, more than ``ROW_BLOCK + 1``, each
  bag with its JSON and the bag read back from it, under the fresh 32-wide
  backbone and edge scorer; and ``edge_scores`` of a one-node graph;
- [sigmoid] ``sigmoid`` and its gradient at +-0, +-inf, NaN of either sign,
  the largest and smallest floats of either sign, and +-745 and +-710,
  where ``exp`` underflows and overflows;
- [leaf_grads] the leaf gradients of one tape: mask values that every
  layer of the trained backbone and a sparsity term take, as the
  explainer's training does, over 16 of the 60 graphs, a leaf whose first
  gradient holds -0.0, a leaf that no gradient reaches, and every backbone
  parameter.
Features hash with their dtype: those that ``load_tud_dataset``,
``generate_ba2motifs`` and ``constant_features`` build are uint8, so a tree
that built them as float64 prints another digest for the same values.
Run it on two trees; equal digests mean equal outputs.
"""

import dataclasses
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from esgnn import explainer, gin, tud
from esgnn.autodiff import (
    Tensor,
    add,
    cross_entropy_mean,
    custom_primitive,
    mul,
    sigmoid,
    sum_all,
)
from esgnn.ba2motifs import generate_ba2motifs
from esgnn.graphs import (
    FeatureSpec,
    Graph,
    GraphDataset,
    policy_edge_deleted,
    policy_node_deleted,
    sample_bag,
)

# the repo root, for the test oracle that builds an adjacency from bare edges
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles import assemble  # noqa: E402


class Digest:
    """One SHA-256 over everything fed and one over each section's share of it."""

    def __init__(self) -> None:
        self.overall = hashlib.sha256()
        self.sections = {}
        self.current = None

    def section(self, name: str) -> None:
        """Feed what follows to ``name``'s digest too, until the next section."""
        self.current = self.sections.setdefault(name, hashlib.sha256())

    def update(self, data: bytes) -> None:
        self.overall.update(data)
        self.current.update(data)

    def print(self) -> None:
        for name, h in self.sections.items():
            print(name, h.hexdigest())
        print(self.overall.hexdigest())


def main() -> None:
    digest = Digest()

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
    digest.section("backbone_train")
    backbone, history = gin.train_backbone(graphs, 2, cfg)
    feed_run(backbone, history)
    digest.section("trained_forward")
    feed_forward(graphs, backbone)
    digest.update(repr(gin.evaluate_accuracy(graphs, backbone)).encode())
    for g in graphs:
        feed(gin.predict(g, backbone).probs)
    ecfg = explainer.ExplainerConfig(epochs=3, batch_size=16)
    digest.section("explainer_train")
    params, history = explainer.train_explainer(graphs, backbone, ecfg, seed=0)
    feed_run(params, history)

    def feed_bag(bag, graph_id) -> None:
        digest.update(bag.policy_tag.encode())
        for m in bag.masks:
            feed(m.soft)
            feed(m.hard)
            digest.update(repr((m.budget, m.seed, m.zeroed_nodes)).encode())
        doc = explainer.bag_to_json(bag, graph_id)
        digest.update(json.dumps(doc, sort_keys=True).encode())
        loaded = explainer.bag_from_json(json.loads(json.dumps(doc)), bag.base)
        digest.update(loaded.policy_tag.encode())
        for m in loaded.masks:
            feed(m.soft)
            feed(m.hard)
            digest.update(repr((m.budget, m.seed, m.zeroed_nodes)).encode())

    digest.section("trained_bags")
    for gi, g in enumerate(graphs):
        feed(explainer.edge_scores(g, backbone, params))
        edge_deleted, node_deleted = policy_edge_deleted(g), policy_node_deleted(g)
        for bag in (
            explainer.generate_bag_topk(g, backbone, params),
            explainer.generate_bag_noise(g, backbone, params, 10, 1.0, gi),
            edge_deleted,
            node_deleted,
            sample_bag(edge_deleted, 0.3, gi),
            sample_bag(node_deleted, 0.3, gi),
        ):
            feed_bag(bag, gi)
    for g in graphs:
        feed(explainer.edge_scores(g, backbone, params))

    zero_nodes = Graph(0, [], np.zeros((0, 1)), 0)
    edgeless = Graph(3, [], np.ones((3, 1)), 1)
    digest.section("edgeless_bag")
    feed_bag(policy_node_deleted(edgeless), len(graphs))
    mixed = graphs[:5] + [zero_nodes] + graphs[5:9] + [edgeless] + graphs[9:20]
    digest.section("mixed_forward")
    feed_forward(mixed, backbone)
    ecfg = explainer.ExplainerConfig(epochs=2, batch_size=8)
    digest.section("mixed_explainer_train")
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
    digest.section("tud")
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
    digest.section("ba2motifs")
    for s in (0, 1, 2):
        feed_dataset(generate_ba2motifs(1200, seed=s))

    rng = np.random.default_rng(1)
    large = []
    for k in range(64):
        n = int(rng.integers(100, 301))
        # a random tree (each node joins an earlier one) and n random pairs on top
        tree = np.stack([rng.integers(0, np.arange(1, n)), np.arange(1, n)], axis=1)
        pairs = np.sort(np.concatenate([tree, rng.integers(0, n, (n, 2))]), axis=1)
        edges = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
        degree = np.minimum(np.bincount(edges.reshape(-1), minlength=n), 10)
        large.append(Graph(n, edges, np.eye(11)[degree], k % 2))
    wide = gin.init_backbone(np.random.default_rng(2), 11, 2)
    digest.section("large_forward")
    feed_forward(large, wide)
    for start in (0, 32):
        digest.update(repr(gin.evaluate_accuracy(large[start : start + 32], wide)).encode())
    for count in (3, 4):
        feed_forward(large[:count], wide)

    rng = np.random.default_rng(3)
    digest.section("taped_layer")
    batch = gin.build_graph_batch(large[:32])
    values = Tensor(rng.random(len(batch.edges)), requires_grad=True)
    h = Tensor(rng.standard_normal((len(batch.x), 11)), requires_grad=True)
    layer = gin.init_gin_layer(rng, 11, 32)
    layer.eps.data[...] = 0.37
    layer.b1.data[:] = rng.standard_normal(32) * 0.1
    layer.b2.data[:] = rng.standard_normal(32) * 0.1
    out = gin.apply_gin_layer(layer, h, assemble(len(batch.x), batch.edges, values))
    sum_all(mul(out, rng.standard_normal(out.data.shape))).backward()
    feed(out.data)
    for t in (values, h, layer.eps, layer.w1, layer.b1, layer.w2, layer.b2):
        feed(t.grad)

    # batches whose CSR comes from each graph's sorted entries: masked with
    # node-deleted and noise masks, with taped mask_values, and of graphs
    # whose edges are not in key order
    draw = np.random.default_rng(4)
    shuffled = [
        dataclasses.replace(g, edges=g.edges[draw.permutation(g.num_edges)]) for g in large[:8]
    ]
    small_masks = [
        policy_node_deleted(g).masks[k % g.num_nodes]
        if k % 2
        else explainer.generate_bag_noise(g, backbone, params, 4, 1.0, k).masks[k % 4]
        for k, g in enumerate(graphs[:16])
    ]
    large_masks = [policy_node_deleted(g).masks[3 * k] for k, g in enumerate(shuffled)]
    for section, members, masks, model in (
        ("masked_batch", graphs[:16], small_masks, backbone),
        ("shuffled_batches", shuffled, None, wide),
        ("shuffled_batches", shuffled, large_masks, wide),
    ):
        digest.section(section)
        batch = gin.build_graph_batch(members, masks)
        logits, h = gin.backbone_forward_batch(batch, model.frozen())
        feed(logits.data)
        feed(h.data)
    wide_scorer = explainer.init_explainer(np.random.default_rng(5), hidden=wide.hidden)
    for section, members, model, scorer in (
        ("taped_mask_values_trained", mixed, backbone, params),
        ("taped_mask_values_fresh", shuffled + large[8:12], wide, wide_scorer),
    ):
        digest.section(section)
        batch = gin.build_graph_batch(members)
        values = Tensor(draw.random(len(batch.edges)), requires_grad=True)
        logits, h = gin.backbone_forward_batch(batch, model, mask_values=values)
        cross_entropy_mean(logits, batch.labels).backward()
        for a in (logits.data, h.data, values.grad):
            feed(a)
        for _, t in sorted(model.named().items()):
            feed(t.grad)
        # the edge MLP's gradient onto the node states
        z = Tensor(h.data, requires_grad=True)
        omega = explainer.edge_logits(z, batch.edges, scorer)
        sum_all(mul(omega, draw.standard_normal(len(batch.edges)))).backward()
        feed(omega.data)
        feed(z.grad)

    digest.section("assemble")
    for n, draws in ((40, 300), (3000, 9000)):
        pairs = rng.integers(0, n, (draws, 2))
        edges = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        edges = edges[rng.permutation(len(edges))]
        w = rng.standard_normal(len(edges))
        special = rng.permutation(len(edges))[:50].reshape(5, 10)
        for value, picks in zip((0.0, -0.0, np.nan, np.inf, -np.inf), special):
            w[picks] = value
        csr = assemble(n, edges, w).csr
        for a in (csr.indptr, csr.indices, csr.data):
            feed(a)

    def ba_graph(n, seed, y) -> Graph:
        """Each new node joins two distinct nodes drawn by degree."""
        draw = random.Random(seed)
        edges, repeated = [(0, 1), (0, 2), (1, 2)], [0, 1, 0, 2, 1, 2]
        for v in range(3, n):
            targets = set()
            while len(targets) < 2:
                targets.add(draw.choice(repeated))
            for t in sorted(targets):
                edges.append((t, v))
                repeated += [t, v]
        degree = np.minimum(np.bincount(np.ravel(edges), minlength=n), 10)
        return Graph(n, sorted(edges), np.eye(11, dtype=np.uint8)[degree], y)

    rng = np.random.default_rng(6)
    ba = [ba_graph(int(rng.integers(100, 301)), k, k % 2) for k in range(24)]
    one_edge = Graph(2, [(0, 1)], np.eye(11, dtype=np.uint8)[[1, 1]], 0)
    bag_scorer = explainer.init_explainer(np.random.default_rng(7), hidden=wide.hidden)
    digest.section("large_bags")
    for gi, g in enumerate([*ba, one_edge]):
        feed(explainer.edge_scores(g, wide, bag_scorer))
        feed_bag(explainer.generate_bag_topk(g, wide, bag_scorer), gi)
        feed_bag(explainer.generate_bag_noise(g, wide, bag_scorer, 10, 1.0, 100 + gi), gi)

    digest.section("one_graph_blocks")
    big = ba_graph(600, 24, 1)
    assert big.num_nodes > gin.ROW_BLOCK + 1
    feed(explainer.edge_scores(big, wide, bag_scorer))
    feed_bag(explainer.generate_bag_topk(big, wide, bag_scorer), 0)
    feed_bag(explainer.generate_bag_noise(big, wide, bag_scorer, 10, 1.0, 200), 0)
    lone = Graph(1, [], np.eye(11, dtype=np.uint8)[[0]], 0)
    feed(explainer.edge_scores(lone, wide, bag_scorer))

    digest.section("sigmoid")
    big, tiny = np.finfo(np.float64).max, np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, np.inf, np.nan, big, tiny, 745.0, 710.0, 1.0])
    x = Tensor(np.concatenate([special, -special]), requires_grad=True)
    with np.errstate(invalid="ignore"):
        s = sigmoid(x)
        sum_all(mul(s, np.arange(1.0, 17.0))).backward()
    feed(s.data)
    feed(x.grad)

    digest.section("leaf_grads")
    batch = gin.build_graph_batch(graphs[:16])
    values = Tensor(draw.random(len(batch.edges)), requires_grad=True)
    logits, _ = gin.backbone_forward_batch(batch, backbone, mask_values=values)
    signed = Tensor(draw.standard_normal(4), requires_grad=True)
    unreached = Tensor(draw.standard_normal((2, 3)), requires_grad=True)
    loss = add(
        add(
            cross_entropy_mean(logits, batch.labels),
            mul(sum_all(mul(values, draw.random(len(batch.edges)))), 0.3),
        ),
        add(
            sum_all(mul(signed, [-0.0, 1.5, -0.0, -2.0])),
            custom_primitive(0.0, [unreached], lambda g: [None]),
        ),
    )
    loss.backward()
    for t in (values, signed, unreached):
        feed(t.grad)
    for _, t in sorted(backbone.named().items()):
        feed(t.grad)
    digest.print()


if __name__ == "__main__":
    main()
