"""Reader/writer for the TU-collection plain-text graph dataset format.

Files for dataset NAME inside a directory:
  NAME_A.txt               one edge per line "i, j", 1-based global node ids
  NAME_graph_indicator.txt line k holds the 1-based graph id of node k
  NAME_graph_labels.txt    one integer label per graph
  NAME_node_labels.txt     one integer per node (optional)
  NAME_motif_edges.json    ground-truth edge indices per graph (optional,
                           written for synthetic data)

Edge rows are expected directed-duplicated; the pair (i, j)/(j, i) is merged
into one undirected edge, and a row without its reverse is rejected.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .graphs import (
    FeatureSpec,
    Graph,
    GraphDataset,
    constant_features,
    degree_features,
    degrees,
)

__all__ = ["FormatError", "IngestionError", "load_tud_dataset", "write_tud_dataset"]


class IngestionError(RuntimeError):
    """A mandatory dataset file is missing or unreadable."""


class FormatError(ValueError):
    """A dataset file has malformed or inconsistent content."""


def _read_int_lines(path: Path) -> list[int]:
    out = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            out.append(int(line))
        except ValueError:
            raise FormatError(f"{path.name}:{lineno}: expected an integer, got '{line}'") from None
    return out


def _read_edge_lines(path: Path) -> list[tuple[int, int, int]]:
    out = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise FormatError(f"{path.name}:{lineno}: expected 'i, j', got '{line}'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"{path.name}:{lineno}: expected integers, got '{line}'") from None
        out.append((i, j, lineno))
    return out


def load_tud_dataset(
    root_dir: str | Path, name: str, feature_spec: FeatureSpec | None = None
) -> GraphDataset:
    """Load a TU-format dataset directory.

    With feature_spec=None, node-label one-hot features are used when the
    node-label file exists, otherwise degree one-hot capped at the maximum
    observed degree.
    """
    root = Path(root_dir)
    paths = {
        "A": root / f"{name}_A.txt",
        "indicator": root / f"{name}_graph_indicator.txt",
        "labels": root / f"{name}_graph_labels.txt",
    }
    for p in paths.values():
        if not p.exists():
            raise IngestionError(f"missing mandatory file {p.name} in {root}")

    indicator = _read_int_lines(paths["indicator"])
    graph_labels = _read_int_lines(paths["labels"])
    num_graphs = len(graph_labels)
    if indicator and (min(indicator) < 1 or max(indicator) > num_graphs):
        raise FormatError(f"{paths['indicator'].name}: graph id outside 1..{num_graphs}")

    # global 1-based node id -> (graph index, local 0-based node id)
    counts = [0] * num_graphs
    local_of = []
    for gid in indicator:
        local_of.append((gid - 1, counts[gid - 1]))
        counts[gid - 1] += 1

    edge_sets: list[set[tuple[int, int]]] = [set() for _ in range(num_graphs)]
    pending: dict[tuple[int, int, int], int] = {}
    for i, j, lineno in _read_edge_lines(paths["A"]):
        if not (1 <= i <= len(indicator)) or not (1 <= j <= len(indicator)):
            raise FormatError(f"{paths['A'].name}:{lineno}: node id outside 1..{len(indicator)}")
        gi, li = local_of[i - 1]
        gj, lj = local_of[j - 1]
        if gi != gj:
            raise FormatError(
                f"{paths['A'].name}:{lineno}: edge ({i}, {j}) crosses graphs {gi + 1} and {gj + 1}"
            )
        if li == lj:
            raise FormatError(f"{paths['A'].name}:{lineno}: self-loop at node {i}")
        key = (gi, min(li, lj), max(li, lj))
        if key in pending:
            del pending[key]
            edge_sets[gi].add((key[1], key[2]))
        elif (key[1], key[2]) in edge_sets[gi]:
            raise FormatError(f"{paths['A'].name}:{lineno}: edge ({i}, {j}) appears more than twice")
        else:
            pending[key] = lineno
    if pending:
        lineno = min(pending.values())
        raise FormatError(f"{paths['A'].name}:{lineno}: edge without its reverse-direction row")

    node_labels_path = root / f"{name}_node_labels.txt"
    node_labels = _read_int_lines(node_labels_path) if node_labels_path.exists() else None
    if node_labels is not None and len(node_labels) != len(indicator):
        raise FormatError(
            f"{node_labels_path.name}: {len(node_labels)} labels for {len(indicator)} nodes"
        )

    motif_path = root / f"{name}_motif_edges.json"
    motif_edges = json.loads(motif_path.read_text()) if motif_path.exists() else None

    label_map = {lab: k for k, lab in enumerate(sorted(set(graph_labels)))}

    per_graph_node_labels: list[list[int]] = [[] for _ in range(num_graphs)]
    if node_labels is not None:
        for (gid, _), lab in zip(local_of, node_labels):
            per_graph_node_labels[gid].append(lab)

    bare = []
    for gid in range(num_graphs):
        n = counts[gid]
        edges = tuple(sorted(edge_sets[gid]))
        motif = frozenset(motif_edges[gid]) if motif_edges and motif_edges[gid] else None
        if motif and not all(0 <= k < len(edges) for k in motif):
            raise FormatError(
                f"{motif_path.name}: graph {gid + 1} lists motif edges {sorted(motif)}"
                f" outside 0..{len(edges) - 1}"
            )
        nl = tuple(per_graph_node_labels[gid]) if node_labels is not None else None
        bare.append(
            Graph(
                num_nodes=n,
                edges=edges,
                x=constant_features(n),
                y=label_map[graph_labels[gid]],
                node_labels=nl,
                ground_truth_motif_edges=motif,
            )
        )

    if feature_spec is None:
        if node_labels is not None:
            feature_spec = FeatureSpec("node_labels")
        else:
            max_deg = max(
                (int(degrees(g).max()) if g.num_nodes else 0 for g in bare), default=0
            )
            feature_spec = FeatureSpec("degree", cap=max(1, max_deg))

    if feature_spec.kind == "node_labels":
        if node_labels is None:
            raise IngestionError(f"missing mandatory file {node_labels_path.name} in {root}")
        distinct = sorted(set(node_labels))
        index = {lab: k for k, lab in enumerate(distinct)}
        def features(g: Graph) -> np.ndarray:
            x = np.zeros((g.num_nodes, len(distinct)))
            for v, lab in enumerate(g.node_labels):
                x[v, index[lab]] = 1.0
            return x
    elif feature_spec.kind == "degree":
        def features(g: Graph) -> np.ndarray:
            return degree_features(g, feature_spec.cap)
    else:
        def features(g: Graph) -> np.ndarray:
            return constant_features(g.num_nodes)

    graphs = tuple(
        Graph(
            num_nodes=g.num_nodes,
            edges=g.edges,
            x=features(g),
            y=g.y,
            node_labels=g.node_labels,
            ground_truth_motif_edges=g.ground_truth_motif_edges,
        )
        for g in bare
    )
    return GraphDataset(
        graphs=graphs, num_classes=len(label_map), name=name, feature_spec=feature_spec
    )


def write_tud_dataset(ds: GraphDataset, root_dir: str | Path) -> None:
    """Emit a dataset in TU format (edges duplicated in both directions)."""
    root = Path(root_dir)
    root.mkdir(parents=True, exist_ok=True)
    a_lines, ind_lines, lab_lines, nl_lines = [], [], [], []
    has_node_labels = all(g.node_labels is not None for g in ds.graphs)
    offset = 0
    for gid, g in enumerate(ds.graphs, start=1):
        ind_lines.extend([str(gid)] * g.num_nodes)
        for i, j in g.edges:
            a_lines.append(f"{offset + i + 1}, {offset + j + 1}")
            a_lines.append(f"{offset + j + 1}, {offset + i + 1}")
        lab_lines.append(str(g.y))
        if has_node_labels:
            nl_lines.extend(str(lab) for lab in g.node_labels)
        offset += g.num_nodes

    (root / f"{ds.name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (root / f"{ds.name}_graph_indicator.txt").write_text("\n".join(ind_lines) + "\n")
    (root / f"{ds.name}_graph_labels.txt").write_text("\n".join(lab_lines) + "\n")
    if has_node_labels:
        (root / f"{ds.name}_node_labels.txt").write_text("\n".join(nl_lines) + "\n")
    if any(g.ground_truth_motif_edges for g in ds.graphs):
        motif = [
            sorted(g.ground_truth_motif_edges) if g.ground_truth_motif_edges else []
            for g in ds.graphs
        ]
        (root / f"{ds.name}_motif_edges.json").write_text(json.dumps(motif))
