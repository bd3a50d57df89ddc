"""The column layer under both subset profiles: the cached top boundary
columns, their block components, and the series-reduced columns that
flow counts sweep."""

from itertools import combinations

import pytest

from simflow import cli, homology
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


def test_facet_components_run_once_per_complex(monkeypatch, capsys):
    # K_4 plus a triangle: two blocks; flows sweep the series-reduced
    # columns, colorings the facets, and analyze and construct read the
    # facets' block record that the colorings built
    calls = []
    split = homology.facet_components
    monkeypatch.setattr(homology, "facet_components", lambda d: calls.append(1) or split(d))
    delta = build_complex([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [4, 5], [5, 6], [4, 6]])
    monkeypatch.setattr(cli, "_read_complex", lambda args: delta)
    for argv in ["flows", "--q", "3"], ["colorings", "--k", "4"], ["analyze"], ["construct", "--jaeger"]:
        assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("0\n576\n") and "connectivity: 2\n" in out and "modulus: 8\n" in out
    assert len(calls) == 1


def test_sweep_size_reads_the_block_sizes_only(monkeypatch):
    # pricing a sweep needs only the split into blocks: no record, no
    # Smith form, no rank fold
    from simflow.fixtures import mod3_moore_space, standard_corpus

    corpus = [delta.facets for _, delta in standard_corpus()] + [mod3_moore_space().facets]
    want = [
        [homology.sweep_size(build_complex(facets), flows=flows) for flows in (False, True)]
        for facets in corpus
    ]

    def never(*args):
        raise AssertionError("sweep_size took a Smith form or folded a rank")

    for name in ("smith_normal_form", "span_rank", "snf_diagonal", "fold_vector"):
        monkeypatch.setattr(homology, name, never, raising=False)
    for facets, sizes in zip(corpus, want):
        delta = build_complex(facets)
        assert [homology.sweep_size(delta, flows=flows) for flows in (False, True)] == sizes
        assert not any(key[0] == "blocks" for key in delta._cache if isinstance(key, tuple))
    assert all(size > 0 for sizes in want for size in sizes)


def test_one_smith_form_per_block_and_none_of_the_whole_map(monkeypatch, capsys):
    # every command on a complex of several blocks: each block of the
    # facets, and of the series-reduced columns where flows sweep them,
    # gets one Smith form with transform, and the whole top map none
    from simflow import linalg
    from simflow.fixtures import mod3_moore_space

    shapes = []
    for module in (homology, linalg):
        form = module.smith_normal_form
        monkeypatch.setattr(
            module, "smith_normal_form", lambda mat, form=form: shapes.append(mat.cols) or form(mat)
        )
    k4_triangle = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [4, 5], [5, 6], [4, 6]]
    moore = [[v + 6 for v in f] for f in mod3_moore_space().facets]
    reduced_blocks = []
    for facets in k4_triangle, [list(f) for f in rp2().facets] + moore:
        delta = build_complex(facets)
        monkeypatch.setattr(cli, "_read_complex", lambda args: delta)
        shapes.clear()
        for argv in (
            ["analyze"],
            ["flows", "--q", "3", "--method", "kernel_enum"],
            ["flows", "--q", "4", "--force"],
            ["min-q", "--max", "4", "--force"],
            ["quasi", "--force"],
            ["tensions", "--k", "3", "--force"],
            ["colorings", "--k", "2", "--force"],
            ["construct", "--jaeger"],
        ):
            assert cli.main(argv) in (0, 2)
        records = [delta._cache.get(("blocks", reduced), []) for reduced in (False, True)]
        assert sorted(shapes) == sorted(len(block.columns) for record in records for block in record)
        assert len(records[0]) > 1 and len(delta.facets) not in shapes
        reduced_blocks.append(len(records[1]))
    assert reduced_blocks[0] == 2
    capsys.readouterr()
