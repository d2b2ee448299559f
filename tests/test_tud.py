import numpy as np
import pytest

from esgnn.ba2motifs import generate_ba2motifs
from esgnn.graphs import FeatureSpec
from esgnn.tud import FormatError, IngestionError, load_tud_dataset, write_tud_dataset


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
        assert ds.graphs[0].edges == ((0, 1), (0, 2), (1, 2))
        assert ds.graphs[1].edges == ((0, 1),)

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


class TestRoundTrip:
    def test_fixture_round_trip(self, tmp_path):
        ds = load_tud_dataset(write_fixture(tmp_path / "a"), "FIX")
        out = tmp_path / "b"
        write_tud_dataset(ds, out)
        back = load_tud_dataset(out, "FIX")
        assert len(back) == len(ds)
        for g1, g2 in zip(ds.graphs, back.graphs):
            assert g1.num_nodes == g2.num_nodes
            assert g1.edges == g2.edges
            assert g1.y == g2.y
            assert np.array_equal(g1.x, g2.x)

    def test_ba2motifs_round_trip_with_motifs(self, tmp_path):
        ds = generate_ba2motifs(4, seed=7)
        write_tud_dataset(ds, tmp_path)
        back = load_tud_dataset(tmp_path, "BA-2Motifs", FeatureSpec("constant"))
        for g1, g2 in zip(ds.graphs, back.graphs):
            assert g1.edges == g2.edges
            assert g1.y == g2.y
            assert g1.ground_truth_motif_edges == g2.ground_truth_motif_edges
