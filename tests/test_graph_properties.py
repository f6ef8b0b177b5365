"""Property tests of GeneGraph's edge store against plain-Python pair sets."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from coexpress.graph import GeneGraph, subgraph  # noqa: E402


@st.composite
def node_pairs(draw):
    """(n, pairs): index pairs over n nodes in any order, orientation and multiplicity."""
    n = draw(st.integers(1, 12))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=40))
    return n, [(u, v) for u, v in pairs if u != v]


def names(n):
    return tuple(f"g{i}" for i in range(n))


@given(node_pairs(), st.booleans())
def test_edges_are_the_sorted_set_of_ordered_pairs(case, as_array):
    n, pairs = case
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs
    g = GeneGraph(names(n), edges)
    assert g.edges.tolist() == [list(e) for e in sorted({(min(e), max(e)) for e in pairs})]
    assert g.edges.dtype == np.int64 and g.edges.shape == (g.n_edges, 2)
    assert not g.edges.flags.writeable


@given(node_pairs(), st.data())
def test_subgraph_is_the_filtered_relabelled_pairs(case, data):
    n, pairs = case
    keep = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    sub = subgraph(GeneGraph(names(n), pairs), keep)
    idx = sorted(set(keep))
    pos = {old: new for new, old in enumerate(idx)}
    want = sorted({(pos[min(e)], pos[max(e)]) for e in pairs if e[0] in pos and e[1] in pos})
    assert sub.nodes == tuple(f"g{i}" for i in idx)
    assert sub.edges.tolist() == [list(e) for e in want]
