import dataclasses
import json
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esgnn import explainer, gin, tud
from esgnn.ba2motifs import generate_ba2motifs
from esgnn.graphs import FeatureSpec, Graph, GraphDataset, constant_features, policy_node_deleted
from esgnn.tud import FormatError, IngestionError, load_tud_dataset, write_tud_dataset
from tests.conftest import same_bits


def write_fixture(root, name="FIX", node_labels=True):
    """Triangle (label 1) plus a single edge (label 0), TU conventions."""
    root.mkdir(parents=True, exist_ok=True)
    (root / f"{name}_A.txt").write_text(
        "1, 2\n2, 1\n2, 3\n3, 2\n1, 3\n3, 1\n4, 5\n5, 4\n"
    )
    (root / f"{name}_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n")
    (root / f"{name}_graph_labels.txt").write_text("1\n-1\n")
    if node_labels:
        (root / f"{name}_node_labels.txt").write_text("0\n1\n0\n2\n2\n")
    return root


class TestLoader:
    def test_fixture_shapes(self, tmp_path):
        ds = load_tud_dataset(write_fixture(tmp_path), "FIX")
        assert len(ds) == 2
        assert [g.num_nodes for g in ds.graphs] == [3, 2]
        assert ds.graphs[0].edges.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert ds.graphs[1].edges.tolist() == [[0, 1]]

    def test_labels_remapped_contiguous(self, tmp_path):
        ds = load_tud_dataset(write_fixture(tmp_path), "FIX")
        # file labels 1 and -1 -> sorted distinct (-1, 1) -> (0, 1)
        assert ds.graphs[0].y == 1
        assert ds.graphs[1].y == 0
        assert ds.num_classes == 2

    def test_node_label_onehot_dimension(self, tmp_path):
        ds = load_tud_dataset(write_fixture(tmp_path), "FIX")
        assert ds.feature_spec.kind == "node_labels"
        assert ds.feature_dim == 3  # labels {0, 1, 2}
        assert np.array_equal(ds.graphs[0].x[1], [0.0, 1.0, 0.0])

    def test_degree_features_when_no_node_labels(self, tmp_path):
        ds = load_tud_dataset(write_fixture(tmp_path, node_labels=False), "FIX")
        assert ds.feature_spec.kind == "degree"
        assert ds.feature_spec.cap == 2  # triangle nodes have degree 2
        assert ds.feature_dim == 3

    def test_missing_mandatory_file_named(self, tmp_path):
        write_fixture(tmp_path)
        (tmp_path / "FIX_graph_labels.txt").unlink()
        with pytest.raises(IngestionError, match="FIX_graph_labels.txt"):
            load_tud_dataset(tmp_path, "FIX")

    def test_cross_graph_edge_reports_line(self, tmp_path):
        write_fixture(tmp_path)
        (tmp_path / "FIX_A.txt").write_text("1, 2\n2, 1\n3, 4\n4, 3\n")
        with pytest.raises(FormatError, match="FIX_A.txt:3"):
            load_tud_dataset(tmp_path, "FIX")

    def test_one_directional_row_rejected(self, tmp_path):
        write_fixture(tmp_path)
        (tmp_path / "FIX_A.txt").write_text("1, 2\n2, 1\n2, 3\n")
        with pytest.raises(FormatError, match="reverse"):
            load_tud_dataset(tmp_path, "FIX")

    def test_same_direction_row_twice_rejected_at_its_second_line(self, tmp_path):
        write_fixture(tmp_path)
        (tmp_path / "FIX_A.txt").write_text("1, 2\n2, 1\n2, 3\n2, 3\n")
        with pytest.raises(FormatError, match="FIX_A.txt:4: edge \\(2, 3\\) repeats line 3"):
            load_tud_dataset(tmp_path, "FIX")

    def test_out_of_range_node_reports_line(self, tmp_path):
        write_fixture(tmp_path)
        (tmp_path / "FIX_A.txt").write_text("1, 9\n")
        with pytest.raises(FormatError, match="FIX_A.txt:1"):
            load_tud_dataset(tmp_path, "FIX")

    def test_motif_edge_out_of_range_names_file_and_graph(self, tmp_path):
        write_fixture(tmp_path)
        (tmp_path / "FIX_motif_edges.json").write_text("[[0, 2], [1]]")
        with pytest.raises(FormatError, match=r"FIX_motif_edges.json: graph 2 .*\[1\]"):
            load_tud_dataset(tmp_path, "FIX")

    def test_explicit_constant_features(self, tmp_path):
        ds = load_tud_dataset(write_fixture(tmp_path), "FIX", FeatureSpec("constant"))
        assert ds.feature_dim == 1
        assert np.array_equal(ds.graphs[0].x, np.ones((3, 1)))


class TestUint8Features:
    """Every feature matrix the package builds holds 0s and 1s as uint8."""

    @pytest.mark.parametrize(
        "spec", [FeatureSpec("node_labels"), FeatureSpec("degree", cap=1), FeatureSpec("constant")]
    )
    def test_loaded_features_take_one_byte_per_entry(self, tmp_path, spec):
        ds = load_tud_dataset(write_fixture(tmp_path), "FIX", spec)
        width = ds.feature_dim
        for g in ds.graphs:
            assert g.x.dtype == np.uint8 and g.x.nbytes == g.num_nodes * width
            assert np.isin(g.x, (0, 1)).all() and (g.x.sum(axis=1) == 1).all()
        # the graphs' rows are views of one block, itself one byte per entry
        (block,) = {id(g.x.base): g.x.base for g in ds.graphs}.values()
        assert block.dtype == np.uint8 and block.nbytes == 5 * width

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_constant_features_take_one_byte_per_node(self, n):
        x = constant_features(n)
        assert x.dtype == np.uint8 and x.nbytes == n and (x == 1).all()

    def test_give_the_outputs_of_float64_features_bit_for_bit(self, tmp_path):
        write_tud_dataset(generate_ba2motifs(24, seed=0), tmp_path)
        ds = load_tud_dataset(tmp_path, "BA-2Motifs", FeatureSpec("degree", cap=4))
        graphs = list(ds.graphs)
        wide = [dataclasses.replace(g, x=g.x.astype(np.float64)) for g in graphs]
        rng = np.random.default_rng(0)
        backbone = gin.init_backbone(rng, ds.feature_dim, ds.num_classes)
        params = explainer.init_explainer(rng, hidden=backbone.hidden)
        (logits, states), (wide_logits, wide_states) = (
            gin.frozen_forward(gs, backbone) for gs in (graphs, wide)
        )
        assert same_bits(logits, wide_logits)
        assert all(same_bits(a, b) for a, b in zip(states, wide_states, strict=True))
        assert gin.evaluate_accuracy(graphs, backbone) == gin.evaluate_accuracy(wide, backbone)
        for g, w in zip(graphs, wide):
            scores = (explainer.edge_scores(h, backbone, params) for h in (g, w))
            assert same_bits(*scores)
        # node deletion zeroes rows of the float64 batch copy, not of g.x
        masks = list(policy_node_deleted(graphs[0]).masks)
        batch = gin.build_graph_batch(graphs[:1] * len(masks), masks)
        assert same_bits(batch.x, gin.build_graph_batch(wide[:1] * len(masks), masks).x)
        assert graphs[0].x.dtype == np.uint8 and (graphs[0].x.sum(axis=1) == 1).all()


class TestRoundTrip:
    def test_fixture_round_trip(self, tmp_path):
        ds = load_tud_dataset(write_fixture(tmp_path / "a"), "FIX")
        out = tmp_path / "b"
        write_tud_dataset(ds, out)
        back = load_tud_dataset(out, "FIX")
        assert len(back) == len(ds)
        for g1, g2 in zip(ds.graphs, back.graphs):
            assert g1.num_nodes == g2.num_nodes
            assert g1.edges.tolist() == g2.edges.tolist()
            assert g1.y == g2.y
            assert np.array_equal(g1.x, g2.x)

    def test_ba2motifs_round_trip_with_motifs(self, tmp_path):
        ds = generate_ba2motifs(4, seed=7)
        write_tud_dataset(ds, tmp_path)
        back = load_tud_dataset(tmp_path, "BA-2Motifs", FeatureSpec("constant"))
        for g1, g2 in zip(ds.graphs, back.graphs):
            assert g1.edges.tolist() == g2.edges.tolist()
            assert g1.y == g2.y
            assert g1.ground_truth_motif_edges == g2.ground_truth_motif_edges


def load_with(tmp_path, **files):
    """Load the fixture with some of its files replaced (key = file suffix)."""
    write_fixture(tmp_path)
    for suffix, text in files.items():
        (tmp_path / f"FIX_{suffix}").write_text(text)
    return load_tud_dataset(tmp_path, "FIX")


class TestBoundary:
    """Each single-fault input fails with the file and, where there is one, the line."""

    @pytest.mark.parametrize(
        "suffix, text, message",
        [
            ("A.txt", "1, 2\n2, 1\n2, x\n", "FIX_A.txt:3: expected integers, got '2, x'"),
            ("A.txt", "1, 2\n2, 1\n2 3\n", "FIX_A.txt:3: expected 'i, j', got '2 3'"),
            ("A.txt", "1, 2\n2, 1\n2, 3, 4\n", "FIX_A.txt:3: expected 'i, j', got '2, 3, 4'"),
            (
                "graph_indicator.txt",
                "1\n1\none\n2\n2\n",
                "FIX_graph_indicator.txt:3: expected an integer, got 'one'",
            ),
            (
                "graph_labels.txt",
                "1\n1.5\n",
                "FIX_graph_labels.txt:2: expected an integer, got '1.5'",
            ),
            (
                "node_labels.txt",
                "0\n1\n0\n2\n2, 0\n",
                "FIX_node_labels.txt:5: expected an integer, got '2, 0'",
            ),
        ],
    )
    def test_malformed_line(self, tmp_path, suffix, text, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            load_with(tmp_path, **{suffix: text})

    def test_integer_beyond_64_bits_names_its_line(self, tmp_path):
        message = "FIX_graph_labels.txt:2: '18446744073709551616' does not fit in 64 bits"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_with(tmp_path, **{"graph_labels.txt": "1\n18446744073709551616\n"})

    def test_self_loop_row(self, tmp_path):
        with pytest.raises(FormatError, match=re.escape("FIX_A.txt:3: self-loop at node 3")):
            load_with(tmp_path, **{"A.txt": "1, 2\n2, 1\n3, 3\n"})

    @pytest.mark.parametrize(
        "text, where",
        [
            ("1, 2\n2, 1\n1, 2\n", "FIX_A.txt:3: edge (1, 2) "),  # the pair plus a third row
            ("4, 5\n4, 5\n4, 5\n", "FIX_A.txt:2: edge (4, 5) repeats line 1"),  # one row, thrice
        ],
    )
    def test_row_seen_three_times(self, tmp_path, text, where):
        with pytest.raises(FormatError, match=re.escape(where)):
            load_with(tmp_path, **{"A.txt": text})

    @pytest.mark.parametrize("text", ["1\n1\n1\n2\n3\n", "0\n1\n1\n2\n2\n"])
    def test_indicator_graph_id_out_of_range(self, tmp_path, text):
        message = "FIX_graph_indicator.txt: graph id outside 1..2"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_with(tmp_path, **{"graph_indicator.txt": text})

    def test_node_label_count_mismatch(self, tmp_path):
        message = "FIX_node_labels.txt: 4 labels for 5 nodes"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_with(tmp_path, **{"node_labels.txt": "0\n1\n0\n2\n"})

    def test_node_label_features_need_the_node_label_file(self, tmp_path):
        write_fixture(tmp_path, node_labels=False)
        with pytest.raises(IngestionError, match="missing mandatory file FIX_node_labels.txt"):
            load_tud_dataset(tmp_path, "FIX", FeatureSpec("node_labels"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1, 2\n\n2, 1\n\n2, x\n", "FIX_A.txt:5: expected integers, got '2, x'"),
            ("\n1, 2\n2, 1\n\n2, 3\n", "FIX_A.txt:5: edge without its reverse-direction row"),
            ("\n\n1, 4\n4, 1\n", "FIX_A.txt:3: edge (1, 4) crosses graphs 1 and 2"),
            ("1, 2\n\n\n1, 9\n", "FIX_A.txt:4: node id outside 1..5"),
            ("\n2, 3\n\n2, 3\n", "FIX_A.txt:4: edge (2, 3) repeats line 2"),
        ],
    )
    def test_errors_after_blank_lines_name_the_physical_line(self, tmp_path, text, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            load_with(tmp_path, **{"A.txt": text})

    @pytest.mark.parametrize(
        "text, message",
        [
            # the range check covers every row before any other check
            ("1, 2\n2, 1\n1, 4\n4, 1\n2, 9\n", "FIX_A.txt:5: node id outside 1..5"),
            ("1, 2\n2, 1\n2, 3\n1, 2\n", "FIX_A.txt:4: edge (1, 2) repeats line 1"),
            ("1, 2\n2, 3\n2, 1\n1, 2\n", "FIX_A.txt:4: edge (1, 2) repeats line 1"),
            ("1, 2\n2, 1\n3, 3\n1, 2\n", "FIX_A.txt:3: self-loop at node 3"),
            ("1, 2\n1, 2\n3, 3\n", "FIX_A.txt:3: self-loop at node 3"),
        ],
    )
    def test_a_file_with_two_faults_reports_the_first_check_that_fails(
        self, tmp_path, text, message
    ):
        with pytest.raises(FormatError, match=re.escape(message)):
            load_with(tmp_path, **{"A.txt": text})

    def test_a_node_id_beyond_32_bits_names_its_line(self, tmp_path):
        with pytest.raises(FormatError, match=re.escape("FIX_A.txt:3: node id outside 1..5")):
            load_with(tmp_path, **{"A.txt": f"1, 2\n2, 1\n3, {2**40}\n{2**40}, 3\n"})

    def test_blank_lines_are_skipped(self, tmp_path):
        ds = load_with(
            tmp_path,
            **{
                "A.txt": "\n1, 2\n2, 1\n\n2, 3\n3, 2\n1, 3\n3, 1\n4, 5\n5, 4\n\n",
                "graph_indicator.txt": "1\n1\n\n1\n2\n2\n\n",
            },
        )
        assert [g.edges.tolist() for g in ds.graphs] == [[[0, 1], [0, 2], [1, 2]], [[0, 1]]]

    def test_interleaved_indicator_loads_the_contiguous_graphs(self, tmp_path):
        contiguous = load_tud_dataset(write_fixture(tmp_path / "a"), "FIX")
        # graph 1 holds global nodes 1, 3, 5 and graph 2 nodes 2, 4; local order is kept
        interleaved = load_with(
            tmp_path / "b",
            **{
                "A.txt": "1, 3\n3, 1\n3, 5\n5, 3\n1, 5\n5, 1\n2, 4\n4, 2\n",
                "graph_indicator.txt": "1\n2\n1\n2\n1\n",
                "node_labels.txt": "0\n2\n1\n2\n0\n",
            },
        )
        assert interleaved.feature_spec == contiguous.feature_spec
        for g1, g2 in zip(contiguous.graphs, interleaved.graphs, strict=True):
            assert (g1.num_nodes, g1.edges.tolist(), g1.y, g1.node_labels) == (
                g2.num_nodes,
                g2.edges.tolist(),
                g2.y,
                g2.node_labels,
            )
            assert np.array_equal(g1.x, g2.x)

    def test_empty_edge_file_gives_edgeless_graphs(self, tmp_path):
        write_fixture(tmp_path, node_labels=False)
        (tmp_path / "FIX_A.txt").write_text("")
        ds = load_tud_dataset(tmp_path, "FIX")
        assert [(g.num_nodes, g.edges.shape) for g in ds.graphs] == [(3, (0, 2)), (2, (0, 2))]
        assert ds.feature_spec == FeatureSpec("degree", cap=1)
        assert all(np.array_equal(g.x, np.eye(2)[[0] * g.num_nodes]) for g in ds.graphs)

    @pytest.mark.parametrize("text", ["[[0]]", '{"1": [0], "2": []}', "[1, 2]", '[["0"], []]'])
    def test_motif_file_must_list_one_entry_per_graph(self, tmp_path, text):
        with pytest.raises(FormatError, match="FIX_motif_edges.json: expected a list of 2"):
            load_with(tmp_path, **{"motif_edges.json": text})

    def test_motif_file_that_is_not_json_names_its_line(self, tmp_path):
        with pytest.raises(FormatError, match="FIX_motif_edges.json:2: "):
            load_with(tmp_path, **{"motif_edges.json": "[[0],\n []"})


def load_quietly(root):
    """Load FIX from `root`, failing if any warning escapes the load."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = load_tud_dataset(root, "FIX")
    assert caught == []
    return ds


class TestOnePassRead:
    def test_a_clean_file_never_reaches_the_line_scan(self, tmp_path, monkeypatch):
        write_fixture(tmp_path)

        def no_scan(path, width):
            raise AssertionError(f"{path.name} was scanned line by line")

        monkeypatch.setattr(tud, "_scan_rows", no_scan)
        ds = load_tud_dataset(tmp_path, "FIX")
        assert [g.edges.tolist() for g in ds.graphs] == [[[0, 1], [0, 2], [1, 2]], [[0, 1]]]

    @pytest.mark.parametrize("blank", ["", " \t "])  # the C reader skips only empty lines
    def test_crlf_blank_lines_and_trailing_blanks_load_the_lf_graphs(self, tmp_path, blank):
        lf = load_quietly(write_fixture(tmp_path / "lf"))
        crlf = write_fixture(tmp_path / "crlf")
        for path in crlf.iterdir():
            lines = path.read_text().splitlines()
            lines.insert(1, blank)
            path.write_bytes(("\r\n".join(lines) + f"\r\n\r\n{blank}\r\n\r\n").encode())
        assert load_quietly(crlf).graphs == lf.graphs

    def test_an_empty_edge_file_loads_the_lf_graphs_without_edges(self, tmp_path):
        lf = load_quietly(write_fixture(tmp_path / "lf"))
        root = write_fixture(tmp_path / "empty")
        (root / "FIX_A.txt").write_text("")
        edgeless = tuple(dataclasses.replace(g, edges=()) for g in lf.graphs)
        assert load_quietly(root).graphs == edgeless


# splitlines also breaks lines at the ODD_SEPARATORS, which loadtxt strips inside a field
NUMERIC_TOKENS = [*"0123456789", ",", "+", "-", " ", "\t", "\r", "\n", "\r\n"]
ODD_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
OTHER_TOKENS = ["\ufeff", "_", ".", "#", '"', "'", "\u0663"]  # U+0663 is an Arabic-Indic 3


@st.composite
def integer_files(draw, width):
    """Rows of padded integers, `width` in each row in two files of three and
    some near the 64-bit limits, with tokens inserted anywhere or next to a
    comma; or free text over the same alphabet."""
    token = st.sampled_from(NUMERIC_TOKENS + ODD_SEPARATORS + OTHER_TOKENS)
    if draw(st.booleans()):
        return "".join(draw(st.lists(token, max_size=40)))
    columns = draw(st.sampled_from([width, width, 3 - width]))
    field = st.sampled_from([*range(-20, 21), 2**63 - 1, -(2**63), 2**63])
    pad = st.sampled_from(["", " ", "\t"])
    row = st.lists(st.tuples(pad, field, pad), min_size=columns, max_size=columns).map(
        lambda fields: ",".join(f"{a}{v}{b}" for a, v, b in fields)
    )
    newline = st.sampled_from(["\n", "\n", "\r\n", "\r", "\n\n", "\n \n"])
    text = "".join(r + draw(newline) for r in draw(st.lists(row, max_size=6)))
    for _ in range(draw(st.integers(0, 2))):
        beside_comma = [k + d for k, c in enumerate(text) if c == "," for d in (0, 1)]
        at = draw(st.integers(0, len(text)) | st.sampled_from(beside_comma or [0]))
        text = text[:at] + draw(token | st.sampled_from(ODD_SEPARATORS)) + text[at:]
    return text


@pytest.mark.parametrize("odd", ODD_SEPARATORS)
def test_a_line_break_beside_a_comma_is_not_read_as_padding(tmp_path, odd):
    path = tmp_path / "X_A.txt"
    path.write_bytes(f"1, 2\n9,{odd}6\n".encode())
    with pytest.raises(FormatError, match=re.escape("X_A.txt:2: expected integers, got '9,'")):
        tud._read_rows(path, 2)


def test_an_odd_byte_past_the_first_guard_block_sends_the_file_to_the_line_scan(
    tmp_path, monkeypatch
):
    clean = "1, 2\n" * (tud._GUARD_BLOCK // 5 + 1)  # more than one block
    path = tmp_path / "X_A.txt"
    path.write_bytes(f"{clean}3,\x0c4\n".encode())  # the C reader reads "3,\f4" as (3, 4)
    scanned, scan = [], tud._scan_rows
    monkeypatch.setattr(tud, "_scan_rows", lambda p, w: scanned.append(p.name) or scan(p, w))
    line = clean.count("\n") + 1
    with pytest.raises(FormatError, match=re.escape(f"X_A.txt:{line}: expected integers")):
        tud._read_rows(path, 2)
    assert scanned == ["X_A.txt"]


def read_or_error(read, path, width):
    try:
        rows = read(path, width)
    except FormatError as e:
        return str(e)
    return rows.shape, rows.dtype, rows.tolist()


@settings(max_examples=400, deadline=None)
@given(width=st.sampled_from([1, 2]), data=st.data())
def test_one_pass_read_matches_the_line_scan(width, data):
    text = data.draw(integer_files(width))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "X_A.txt"
        path.write_bytes(text.encode())
        scanned = read_or_error(lambda p, w: tud._scan_rows(p, w)[0], path, width)
        assert read_or_error(tud._read_rows, path, width) == scanned


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_an_int32_read_holds_the_int64_values(data):
    """Values beyond 32 bits send the read to the line scan, which gives int64."""
    text = data.draw(integer_files(2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "X_A.txt"
        path.write_bytes(text.encode())
        wide = read_or_error(tud._read_rows, path, 2)
        narrow = read_or_error(lambda p, w: tud._read_rows(p, w, np.int32), path, 2)
    if isinstance(wide, str):
        assert narrow == wide
    else:
        assert narrow[1] in (np.int32, np.int64)
        assert (narrow[0], narrow[2]) == (wide[0], wide[2])


@st.composite
def edge_files(draw):
    """(graph_of, rows): up to six nodes in up to three graphs, and the rows of
    some edges in both directions, shuffled, then some rows dropped, repeated
    or added (ids 0 and n + 1 included)."""
    n = draw(st.integers(1, 6))
    graph_of = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    edges = draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, n))))
    rows = [r for i, j in edges if i < j for r in ((i, j), (j, i))]
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows)))
        fault = draw(st.sampled_from(["drop", "repeat", "add"]))
        if fault == "drop" and at < len(rows):
            del rows[at]
        elif fault == "repeat" and at < len(rows):
            rows.insert(draw(st.integers(0, len(rows))), rows[at])
        elif fault == "add":
            rows.insert(at, draw(st.tuples(st.integers(0, n + 1), st.integers(0, n + 1))))
    return np.array(graph_of), rows


def follows_the_pairing_rule(graph_of, rows):
    n = len(graph_of)
    if not all(1 <= v <= n for row in rows for v in row):
        return False
    return (
        len(set(rows)) == len(rows)
        and all(i != j and graph_of[i - 1] == graph_of[j - 1] for i, j in rows)
        and all((j, i) in set(rows) for i, j in rows)
    )


@settings(max_examples=300, deadline=None)
@given(case=edge_files())
def test_the_aggregate_checks_accept_exactly_the_files_that_follow_the_pairing_rule(case):
    graph_of, rows = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "X_A.txt"
        path.write_text("".join(f"{i}, {j}\n" for i, j in rows))
        if follows_the_pairing_rule(graph_of, rows):
            pairs = tud._pair_edges(path, graph_of)
            assert pairs.tolist() == [[i - 1, j - 1] for i, j in rows if i < j]
        else:
            with pytest.raises(FormatError):
                tud._pair_edges(path, graph_of)


@st.composite
def datasets(draw):
    """Up to five graphs of 0-6 nodes, some edgeless, with node labels on all,
    none or each drawn graph, and optional, possibly empty, motifs."""
    presence = draw(st.sampled_from(["all", "none", "each"]))
    graphs = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 6))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = tuple(e for e, k in zip(pairs, keep) if k)
        motif = None
        if draw(st.booleans()):
            motif = draw(st.frozensets(st.integers(0, len(edges) - 1))) if edges else frozenset()
        labelled = presence == "all" or (presence == "each" and draw(st.booleans()))
        labels = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        graphs.append(
            Graph(
                num_nodes=n,
                edges=edges,
                x=constant_features(n),
                y=draw(st.integers(0, 2)),
                node_labels=tuple(draw(labels)) if labelled else None,
                ground_truth_motif_edges=motif,
            )
        )
    return GraphDataset(
        graphs=tuple(graphs), num_classes=3, name="H", feature_spec=FeatureSpec("constant")
    )


def shuffle_nodes(root, name, order, row_order):
    """Interleave the graphs' nodes in the indicator (keeping each graph's node
    order) and reorder the edge rows; the files then describe the same graphs."""
    indicator = (root / f"{name}_graph_indicator.txt").read_text().split()
    shuffled = [indicator[k] for k in order]
    old_ids = {g: [v for v, h in enumerate(indicator) if h == g] for g in set(indicator)}
    new_ids = {g: [v for v, h in enumerate(shuffled) if h == g] for g in set(indicator)}
    new_of = {}
    for g in old_ids:
        new_of.update(zip(old_ids[g], new_ids[g]))
    (root / f"{name}_graph_indicator.txt").write_text("\n".join(shuffled) + "\n")
    rows = (root / f"{name}_A.txt").read_text().split("\n")[:-1]
    rows = [rows[k] for k in row_order]
    moved = [", ".join(str(new_of[int(v) - 1] + 1) for v in row.split(",")) for row in rows]
    (root / f"{name}_A.txt").write_text("\n".join(moved) + "\n")
    labels_path = root / f"{name}_node_labels.txt"
    if labels_path.exists():
        labels = labels_path.read_text().split()
        new_labels = [None] * len(labels)
        for v, label in enumerate(labels):
            new_labels[new_of[v]] = label
        labels_path.write_text("\n".join(new_labels) + "\n")


def expected_x(g, spec, distinct_labels):
    """Per-node reference features, built with loops."""
    if spec.kind == "constant":
        return np.ones((g.num_nodes, 1))
    if spec.kind == "node_labels":
        x = np.zeros((g.num_nodes, len(distinct_labels)))
        for v, label in enumerate(g.node_labels):
            x[v, distinct_labels.index(label)] = 1.0
        return x
    x = np.zeros((g.num_nodes, spec.cap + 1))
    for v in range(g.num_nodes):
        x[v, min(sum(v in e for e in g.edges), spec.cap)] = 1.0
    return x


@settings(max_examples=40, deadline=None)
@given(ds=datasets(), cap=st.integers(1, 4), data=st.data())
def test_round_trip_with_a_shuffled_indicator(ds, cap, data):
    total = sum(g.num_nodes for g in ds.graphs)
    order = data.draw(st.permutations(range(total)))
    row_order = data.draw(st.permutations(range(2 * sum(g.num_edges for g in ds.graphs))))
    labelled = [g.node_labels is not None for g in ds.graphs]
    if any(labelled) and not all(labelled):
        with tempfile.TemporaryDirectory() as tmp:
            message = f"graph {labelled.index(False) + 1} has no node labels"
            with pytest.raises(ValueError, match=message):
                write_tud_dataset(ds, tmp)
            assert list(Path(tmp).iterdir()) == []
        return
    with_node_labels = all(labelled)
    degrees = [sum(v in e for e in g.edges) for g in ds.graphs for v in range(g.num_nodes)]
    if with_node_labels:
        default = FeatureSpec("node_labels")
    else:
        default = FeatureSpec("degree", max(1, max(degrees, default=0)))
    specs = [(None, default), (FeatureSpec("constant"),) * 2, (FeatureSpec("degree", cap),) * 2]
    if with_node_labels:
        specs.append((FeatureSpec("node_labels"),) * 2)
    distinct_labels = sorted({label for g in ds.graphs for label in g.node_labels or ()})
    classes = sorted({g.y for g in ds.graphs})
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_tud_dataset(ds, root)
        shuffle_nodes(root, ds.name, order, row_order)
        for asked, spec in specs:
            back = load_tud_dataset(root, ds.name, asked)
            assert back.feature_spec == spec and back.num_classes == len(classes)
            for g1, g2 in zip(ds.graphs, back.graphs, strict=True):
                assert g2.num_nodes == g1.num_nodes and g2.edges.tolist() == g1.edges.tolist()
                assert g2.node_labels == g1.node_labels
                assert g2.ground_truth_motif_edges == g1.ground_truth_motif_edges
                assert g2.y == classes.index(g1.y)
                want = expected_x(g1, spec, distinct_labels)
                assert g2.x.shape == want.shape and np.array_equal(g2.x, want)


def joined_files(ds):
    """The files of `ds` as a writer that joins every line of a file builds them."""
    a_lines, ind_lines, lab_lines, nl_lines = [], [], [], []
    offset = 0
    for gid, g in enumerate(ds.graphs, start=1):
        ind_lines += [str(gid)] * g.num_nodes
        for i, j in (g.edges + (offset + 1)).tolist():
            a_lines += [f"{i}, {j}", f"{j}, {i}"]
        lab_lines.append(str(g.y))
        nl_lines += [str(label) for label in g.node_labels or ()]
        offset += g.num_nodes
    lines = {"A.txt": a_lines, "graph_indicator.txt": ind_lines, "graph_labels.txt": lab_lines}
    if all(g.node_labels is not None for g in ds.graphs):
        lines["node_labels.txt"] = nl_lines
    files = {f"{ds.name}_{k}": ("\n".join(v) + "\n").encode() for k, v in lines.items()}
    if any(g.ground_truth_motif_edges for g in ds.graphs):
        motifs = [sorted(g.ground_truth_motif_edges or ()) for g in ds.graphs]
        files[f"{ds.name}_motif_edges.json"] = json.dumps(motifs).encode()
    return files


@settings(max_examples=60, deadline=None)
@given(ds=datasets())
def test_the_streamed_files_are_the_joined_lines(ds):
    labelled = {g.node_labels is not None for g in ds.graphs}
    if len(labelled) > 1:
        return
    with tempfile.TemporaryDirectory() as tmp:
        write_tud_dataset(ds, tmp)
        assert {p.name: p.read_bytes() for p in Path(tmp).iterdir()} == joined_files(ds)


def test_an_edgeless_dataset_writes_one_newline_per_empty_file(tmp_path):
    ds = GraphDataset(
        graphs=(
            Graph(0, (), np.zeros((0, 1)), 0, node_labels=()),
            Graph(2, (), np.ones((2, 1)), 1, node_labels=(4, 5)),
        ),
        num_classes=2,
        name="E",
        feature_spec=FeatureSpec("constant"),
    )
    write_tud_dataset(ds, tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
        "E_A.txt": b"\n",
        "E_graph_indicator.txt": b"2\n2\n",
        "E_graph_labels.txt": b"0\n1\n",
        "E_node_labels.txt": b"4\n5\n",
    }


@pytest.fixture(scope="module")
def ba_dataset():
    """300 Barabasi-Albert graphs of 100-300 nodes, built as the infer_large
    benchmark builds its 1000."""
    rng = np.random.default_rng(0)
    graphs = []
    for i in range(300):
        n = int(rng.integers(100, 301))
        nxg = nx.barabasi_albert_graph(n, 2, seed=int(rng.integers(0, 2**31 - 1)))
        edges = tuple(sorted((min(a, b), max(a, b)) for a, b in nxg.edges()))
        graphs.append(Graph(num_nodes=n, edges=edges, x=constant_features(n), y=i % 2))
    return GraphDataset(
        graphs=tuple(graphs), num_classes=2, name="BA", feature_spec=FeatureSpec("constant")
    )


def traced_peak(call):
    """The peak memory that tracemalloc traces while `call()` runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """Each pass holds a small multiple of the edge rows: the writer less than
    the edge file, the loader its result plus a few per-row arrays."""

    def test_the_writer_holds_less_than_the_edge_file(self, ba_dataset, tmp_path):
        peak = traced_peak(lambda: write_tud_dataset(ba_dataset, tmp_path))
        assert peak < (tmp_path / "BA_A.txt").stat().st_size

    def test_the_loader_holds_a_few_copies_of_the_edge_file(self, ba_dataset, tmp_path):
        write_tud_dataset(ba_dataset, tmp_path)
        spec = FeatureSpec("degree", cap=10)
        peak = traced_peak(lambda: load_tud_dataset(tmp_path, "BA", spec))
        assert peak < 4.5 * (tmp_path / "BA_A.txt").stat().st_size
