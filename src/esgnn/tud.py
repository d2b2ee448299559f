"""Reader/writer for the TU-collection plain-text graph dataset format.

Files for dataset NAME inside a directory:
  NAME_A.txt               one edge per line "i, j", 1-based global node ids
  NAME_graph_indicator.txt line k holds the 1-based graph id of node k
  NAME_graph_labels.txt    one integer label per graph
  NAME_node_labels.txt     one integer per node (optional)
  NAME_motif_edges.json    ground-truth edge indices per graph (optional,
                           written for synthetic data)

Each integer file is read in one pass by numpy's C reader (``np.loadtxt``),
but only when every byte of it is a digit, comma, plus, minus, space, tab,
CR or LF: the C reader strips other whitespace (form feed, for one) inside a
field, where Python's line splitting breaks the line.  This byte guard reads
the file in fixed-size blocks.  A file that fails it, that the C reader
rejects or warns about, or whose column count is off is scanned line by line
instead.  That scan is the only code that words a malformed line, and it
alone counts physical lines: blank lines are skipped but counted, so every
line number in an error is the file's own.  Errors found after parsing
rescan the file for their line number.  The indicator need not be
contiguous: a graph's local node ids follow its nodes' global order.

Pairing rule for NAME_A.txt: every directed row (i, j) appears exactly once,
and so does its reverse (j, i).  Each such pair is one undirected edge, and
both of its nodes belong to the same graph.  The load decides the rule with
aggregate checks (the id range, one sorted key array per direction, the
graphs of each pair) over rows parsed as int32 while the ids fit; the per-row
pass that finds the first bad row runs only to word an error.  The writer streams each file graph by graph, so neither
pass holds more than a small multiple of the edge rows.
"""

from __future__ import annotations

import json
import warnings
from array import array
from itertools import accumulate, pairwise
from pathlib import Path
from typing import NoReturn

import numpy as np

from .graphs import FeatureSpec, Graph, GraphDataset

__all__ = ["FormatError", "IngestionError", "load_tud_dataset", "write_tud_dataset"]


class IngestionError(RuntimeError):
    """A mandatory dataset file is missing or unreadable."""


class FormatError(ValueError):
    """A dataset file has malformed or inconsistent content."""


# every byte the C reader parses the way the line scan does
_NUMERIC_BYTES = b"0123456789,+- \t\r\n"


# the byte guard reads a file in blocks of this size
_GUARD_BLOCK = 1 << 20


def _numeric_only(path: Path) -> bool:
    """Whether every byte of `path` is one of _NUMERIC_BYTES."""
    with open(path, "rb") as f:
        while block := f.read(_GUARD_BLOCK):
            if block.translate(None, _NUMERIC_BYTES):
                return False
    return True


def _read_rows(path: Path, width: int, dtype=np.int64) -> np.ndarray:
    """The non-blank lines of `path` as an (R, width) array of comma-separated
    integers: of `dtype` from the C reader, or int64 from the line scan, which
    also reads a file with a value that does not fit `dtype`."""
    if _numeric_only(path):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt only warns on a file without rows
                rows = np.loadtxt(path, delimiter=",", dtype=dtype, comments=None, ndmin=2)
        except (ValueError, OverflowError, Warning):
            pass
        else:
            if rows.shape[1] == width:
                return rows
    return _scan_rows(path, width)[0]


def _line_of(path: Path, row: int) -> int:
    """The 1-based physical line of edge row `row` in `path`."""
    return _scan_rows(path, 2)[1][row]


def _scan_rows(path: Path, width: int) -> tuple[np.ndarray, array]:
    """`_read_rows` one line at a time, plus each row's 1-based physical line
    number; raises the FormatError that names a malformed line."""
    shape, numbers = ("an integer",) * 2 if width == 1 else ("'i, j'", "integers")
    values, lines = array("q"), array("q")
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise FormatError(f"{path.name}:{lineno}: expected {shape}, got '{line}'")
        try:
            values.extend(map(int, parts))
        except ValueError:
            raise FormatError(f"{path.name}:{lineno}: expected {numbers}, got '{line}'") from None
        except OverflowError:
            raise FormatError(f"{path.name}:{lineno}: '{line}' does not fit in 64 bits") from None
        lines.append(lineno)
    return np.frombuffer(values, dtype=np.int64).reshape(-1, width), lines


def _pair_edges(path: Path, graph_of: np.ndarray) -> np.ndarray:
    """The undirected edges of `path` under the pairing rule, as an (E, 2)
    array of 0-based global node ids (i, j) with i < j, in file order."""
    # int32 rows halve every per-row array; a larger id is out of range anyway
    rows = _read_rows(path, 2, np.int32)
    n, num_rows = len(graph_of), len(rows)
    if num_rows and (rows.min() < 1 or rows.max() > n):
        _pairing_error(path, graph_of)
    # every row has its reverse and none repeats exactly when there is no
    # self-loop, half the rows have i < j, and the sorted keys (i, j) of those
    # equal the sorted keys (j, i) of the i > j rows without a repeat
    flipped = rows[rows[:, 0] > rows[:, 1]]
    backward = flipped[:, 1].astype(np.int64) * (n + 1) + flipped[:, 0]
    del flipped
    backward.sort()
    pairs = rows[rows[:, 0] < rows[:, 1]]
    del rows
    forward = pairs[:, 0].astype(np.int64) * (n + 1) + pairs[:, 1]
    forward.sort()
    paired = (
        2 * len(pairs) == num_rows
        and np.array_equal(forward, backward)
        and bool((forward[1:] > forward[:-1]).all())
    )
    del forward, backward
    pairs -= 1
    if not (paired and np.array_equal(graph_of[pairs[:, 0]], graph_of[pairs[:, 1]])):
        _pairing_error(path, graph_of)
    return pairs


def _pairing_error(path: Path, graph_of: np.ndarray) -> NoReturn:
    """Raise the FormatError for the first row of `path` that breaks the
    pairing rule, with its line; per-row arrays are built only here."""
    rows = _read_rows(path, 2)
    n = len(graph_of)
    bad = np.flatnonzero(((rows < 1) | (rows > n)).any(axis=1))
    if bad.size:
        raise FormatError(f"{path.name}:{_line_of(path, bad[0])}: node id outside 1..{n}")
    i, j = rows[:, 0] - 1, rows[:, 1] - 1
    bad = np.flatnonzero(graph_of[i] != graph_of[j])
    if bad.size:
        r = bad[0]
        raise FormatError(
            f"{path.name}:{_line_of(path, r)}: edge ({i[r] + 1}, {j[r] + 1}) crosses graphs"
            f" {graph_of[i[r]] + 1} and {graph_of[j[r]] + 1}"
        )
    bad = np.flatnonzero(i == j)
    if bad.size:
        r = bad[0]
        raise FormatError(f"{path.name}:{_line_of(path, r)}: self-loop at node {i[r] + 1}")
    key = i * n + j
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        r = repeats.min()
        first = np.flatnonzero(key == key[r])[0]
        raise FormatError(
            f"{path.name}:{_line_of(path, r)}: edge ({i[r] + 1}, {j[r] + 1}) repeats line"
            f" {_line_of(path, first)} instead of reversing it"
        )
    # keys and reverse keys are now each duplicate-free and equally many, so
    # the rows that break the rule are those whose reverse key is missing
    reverse = j * n + i
    found = np.searchsorted(ordered, reverse)
    r = np.flatnonzero(ordered[np.minimum(found, len(key) - 1)] != reverse)[0]
    raise FormatError(f"{path.name}:{_line_of(path, r)}: edge without its reverse-direction row")


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

    graph_of = _read_rows(paths["indicator"], 1)[:, 0] - 1
    graph_labels = _read_rows(paths["labels"], 1)[:, 0]
    num_graphs, num_nodes = len(graph_labels), len(graph_of)
    if num_nodes and (graph_of.min() < 0 or graph_of.max() >= num_graphs):
        raise FormatError(f"{paths['indicator'].name}: graph id outside 1..{num_graphs}")
    # by_graph lists the nodes graph by graph, each graph's in global order
    by_graph = np.argsort(graph_of, kind="stable")
    nodes_per_graph = np.bincount(graph_of, minlength=num_graphs)
    node_at = np.concatenate(([0], np.cumsum(nodes_per_graph)))
    local = np.empty(num_nodes, dtype=np.int64)
    local[by_graph] = np.arange(num_nodes) - np.repeat(node_at[:-1], nodes_per_graph)

    pairs = _pair_edges(paths["A"], graph_of)
    degrees = np.bincount(pairs.reshape(-1), minlength=num_nodes)
    edge_graph = graph_of[pairs[:, 0]]
    edges = local[pairs]
    del pairs, graph_of, local
    edge_at = np.concatenate(([0], np.cumsum(np.bincount(edge_graph, minlength=num_graphs))))
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0], edge_graph))].astype(np.intp, copy=False)
    del edge_graph
    # each graph's edges are a read-only view of this array, which Graph keeps as it is
    edges.flags.writeable = False

    node_labels_path = root / f"{name}_node_labels.txt"
    node_labels = None
    if node_labels_path.exists():
        node_labels = _read_rows(node_labels_path, 1)[:, 0]
        if len(node_labels) != num_nodes:
            raise FormatError(
                f"{node_labels_path.name}: {len(node_labels)} labels for {num_nodes} nodes"
            )

    motif_path = root / f"{name}_motif_edges.json"
    motifs = [None] * num_graphs
    if motif_path.exists():
        try:
            motifs = json.loads(motif_path.read_text())
        except json.JSONDecodeError as e:
            raise FormatError(f"{motif_path.name}:{e.lineno}: {e.msg}") from None
        if not (
            isinstance(motifs, list)
            and len(motifs) == num_graphs
            and all(isinstance(m, list) and all(type(k) is int for k in m) for m in motifs)
        ):
            raise FormatError(
                f"{motif_path.name}: expected a list of {num_graphs} edge-index lists,"
                " one per graph"
            )

    classes, y = np.unique(graph_labels, return_inverse=True)
    if feature_spec is None:
        if node_labels is not None:
            feature_spec = FeatureSpec("node_labels")
        else:
            feature_spec = FeatureSpec("degree", cap=max(1, int(degrees.max(initial=0))))

    if feature_spec.kind == "constant":
        x = np.ones((num_nodes, 1))
    else:
        if feature_spec.kind == "node_labels":
            if node_labels is None:
                raise IngestionError(f"missing mandatory file {node_labels_path.name} in {root}")
            distinct, column = np.unique(node_labels, return_inverse=True)
            width = len(distinct)
        else:
            column, width = np.minimum(degrees, feature_spec.cap), feature_spec.cap + 1
        # one block, filled in graph order
        x = np.zeros((num_nodes, width))
        x[np.arange(num_nodes), column[by_graph]] = 1.0
    if node_labels is not None:
        node_labels = node_labels[by_graph].tolist()

    graphs = []
    bounds = zip(pairwise(node_at.tolist()), pairwise(edge_at.tolist()))
    for gid, ((n0, n1), (e0, e1)) in enumerate(bounds):
        motif = frozenset(motifs[gid]) if motifs[gid] else None
        if motif and not all(0 <= k < e1 - e0 for k in motif):
            raise FormatError(
                f"{motif_path.name}: graph {gid + 1} lists motif edges {sorted(motif)}"
                f" outside 0..{e1 - e0 - 1}"
            )
        graphs.append(
            Graph(
                num_nodes=n1 - n0,
                edges=edges[e0:e1],
                x=x[n0:n1],
                y=int(y[gid]),
                node_labels=None if node_labels is None else tuple(node_labels[n0:n1]),
                ground_truth_motif_edges=motif,
            )
        )
    return GraphDataset(
        graphs=tuple(graphs), num_classes=len(classes), name=name, feature_spec=feature_spec
    )


def _write_lines(path: Path, chunks) -> None:
    """Write the text `chunks` to `path` one after another; a file that gets
    no line holds a single newline."""
    with open(path, "w") as f:
        f.writelines(chunks)
        if not f.tell():
            f.write("\n")


def _edge_rows(edges: np.ndarray) -> str:
    """The lines "i, j" and "j, i" of each row (i, j) of `edges`."""
    values = np.concatenate((edges, edges[:, ::-1]), axis=1).ravel().tolist()
    return ("{}, {}\n" * (2 * len(edges))).format(*values)


def write_tud_dataset(ds: GraphDataset, root_dir: str | Path) -> None:
    """Emit a dataset in TU format (edges duplicated in both directions),
    one graph at a time.  Either every graph has node labels or none has."""
    labelled = [g.node_labels is not None for g in ds.graphs]
    if any(labelled) and not all(labelled):
        raise ValueError(
            f"graph {labelled.index(False) + 1} has no node labels, but graph"
            f" {labelled.index(True) + 1} has them"
        )
    root = Path(root_dir)
    root.mkdir(parents=True, exist_ok=True)
    firsts = accumulate((g.num_nodes for g in ds.graphs), initial=1)
    _write_lines(
        root / f"{ds.name}_A.txt", (_edge_rows(g.edges + k) for g, k in zip(ds.graphs, firsts))
    )
    _write_lines(
        root / f"{ds.name}_graph_indicator.txt",
        (f"{gid}\n" * g.num_nodes for gid, g in enumerate(ds.graphs, start=1)),
    )
    _write_lines(root / f"{ds.name}_graph_labels.txt", (f"{g.y}\n" for g in ds.graphs))
    if all(labelled):
        _write_lines(
            root / f"{ds.name}_node_labels.txt",
            ("".join(f"{lab}\n" for lab in g.node_labels) for g in ds.graphs),
        )
    if any(g.ground_truth_motif_edges for g in ds.graphs):
        motif = [sorted(g.ground_truth_motif_edges or ()) for g in ds.graphs]
        (root / f"{ds.name}_motif_edges.json").write_text(json.dumps(motif))
