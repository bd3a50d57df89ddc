"""The column layer under both subset profiles: the cached top boundary
columns, their block components, and the series-reduced columns that
flow counts sweep."""

from itertools import combinations

import pytest

from simflow import homology
from simflow.complexes import (
    boundary_matrix,
    build_complex,
    column_components,
    facet_components,
    top_columns,
)
from simflow.fixtures import rp2
from simflow.flows import count_nz_flows

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    max_examples=80, deadline=None, database=None, derandomize=True
)


@st.composite
def complexes(draw, max_vertices=6, max_facets=8):
    """Points, graphs or 2-complexes: up to three pieces on disjoint
    vertex sets, each a random set of at most `max_facets` facets on at
    most `max_vertices` vertices."""
    d = draw(st.integers(0, 2))
    facets = []
    for piece in range(draw(st.integers(1, 3))):
        pool = list(combinations(range(draw(st.integers(d + 1, max_vertices))), d + 1))
        chosen = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=max_facets, unique=True)
        )
        facets += [[v + 10 * piece for v in f] for f in chosen]
    return build_complex(facets)


def ridge_classes(delta):
    """Facet indices grouped by breadth-first search over shared ridges.
    A vertex's ridge is the empty face, so all points form one class."""
    d = delta.dimension
    by_ridge = {}
    for i, f in enumerate(delta.facets):
        for ridge in combinations(f, d):
            by_ridge.setdefault(ridge, []).append(i)
    seen, classes = set(), []
    for start in range(len(delta.facets)):
        if start in seen:
            continue
        seen.add(start)
        queue, members = [start], []
        while queue:
            i = queue.pop()
            members.append(i)
            for ridge in combinations(delta.facets[i], d):
                for j in by_ridge[ridge]:
                    if j not in seen:
                        seen.add(j)
                        queue.append(j)
        classes.append(tuple(sorted(members)))
    return classes


@SETTINGS
@hypothesis.given(complexes())
def test_facet_components_are_the_ridge_adjacency_classes(delta):
    assert facet_components(delta) == ridge_classes(delta)


def test_top_columns_are_cached_tuples():
    delta = rp2()
    cols = top_columns(delta)
    assert top_columns(delta) is cols
    assert isinstance(cols, tuple) and all(isinstance(col, tuple) for col in cols)
    top = boundary_matrix(delta, 2).matrix
    assert [list(col) for col in cols] == [top.column(j) for j in range(top.cols)]


def test_column_components_examples():
    # a zero column is a component of its own; sharing is transitive
    assert column_components([[1, 0, 0], [0, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 2]]) == [
        (0, 2, 3),
        (1,),
        (4,),
    ]
    assert column_components([]) == []


def _moebius_ladder(n):
    return [[i, (i + 1) % n] for i in range(n)] + [[i, i + n // 2] for i in range(n // 2)]


def test_series_reduction_runs_once_per_complex(monkeypatch):
    # 27 edges and no series ridge: the cap refuses the sweep, so every
    # auto call enumerates and caches no profile
    calls = []
    reduce = homology.series_reduce
    monkeypatch.setattr(homology, "series_reduce", lambda cols: calls.append(1) or reduce(cols))
    ladder = build_complex(_moebius_ladder(18))
    assert count_nz_flows(ladder, 2) == 0
    assert count_nz_flows(ladder, 3) == 2
    assert "flow_profile" not in ladder._cache
    assert len(calls) == 1
