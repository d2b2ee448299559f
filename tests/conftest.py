import numpy as np
import pytest

from esgnn.graphs import Graph, constant_features


def make_graph(n, edges, y=0, x=None):
    edges = tuple(sorted((min(i, j), max(i, j)) for i, j in edges))
    return Graph(
        num_nodes=n,
        edges=edges,
        x=constant_features(n) if x is None else np.asarray(x, dtype=np.float64),
        y=y,
    )


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture
def triangle():
    return make_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path4():
    return make_graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def single_edge():
    return make_graph(2, [(0, 1)])


@pytest.fixture
def star_k13():
    # node 0 is the center
    return make_graph(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def cycle6():
    return make_graph(6, [(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def two_triangles():
    return make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
