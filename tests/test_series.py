"""Series reduction of the top boundary columns: it keeps every mod-q
kernel size and every nowhere-zero count, and the flow folds that read
the reduced profile agree with kernel enumeration on the unreduced
complex."""

from itertools import combinations

import pytest

from simflow import homology, verify
from simflow.complexes import boundary_matrix, build_complex, subdivide_facet
from simflow.fixtures import _RP2_FACES, cycle, rp2
from simflow.flows import count_nz_flows, flow_quasipolynomial
from simflow.homology import flow_profile, series_reduce, subset_profile
from simflow.linalg import IntMatrix, enumerate_kernel_mod_q, kernel_count_mod_q, snf_diagonal

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    max_examples=60, deadline=None, database=None, derandomize=True
)


def _matrix(columns):
    return IntMatrix([list(row) for row in zip(*columns)], cols=len(columns))


def _top_columns(delta):
    top = boundary_matrix(delta, delta.dimension).matrix
    return [top.column(j) for j in range(top.cols)]


def _is_series_row(row):
    entries = [v for v in row if v]
    return len(entries) == 2 and all(v in (1, -1) for v in entries)


def test_series_reduce_examples():
    # a cycle is one series class: a single zero column over no rows
    assert series_reduce(_top_columns(cycle(5))) == [[]]
    # RP^2 is one class too; what is left is its Z_2
    reduced = series_reduce(_top_columns(rp2()))
    assert len(reduced) == 1 and snf_diagonal(_matrix(reduced).data) == [2]
    # no row lies in exactly two columns, so nothing changes
    cols = [[1, 1], [1, -1], [1, 2]]
    assert series_reduce(cols) == cols
    # a row with entries 2 and 1 is not a series row
    assert series_reduce([[2, 1], [1, 3]]) == [[2, 1], [1, 3]]
    assert series_reduce([]) == []


ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 1, -1, 2, -3])


@SETTINGS
@hypothesis.given(
    st.integers(1, 6).flatmap(
        lambda nrows: st.lists(
            st.lists(ENTRIES, min_size=nrows, max_size=nrows), min_size=1, max_size=7
        )
    )
)
def test_series_reduce_keeps_kernels_on_integer_matrices(cols):
    reduced = series_reduce(cols)
    before, after = _matrix(cols), _matrix(reduced)
    for q in range(2, 13):
        assert kernel_count_mod_q(after, q) == kernel_count_mod_q(before, q)
    diag_before, diag_after = snf_diagonal(before.data), snf_diagonal(after.data)
    assert [m for m in diag_after if m > 1] == [m for m in diag_before if m > 1]
    assert len(diag_before) - len(diag_after) == len(cols) - len(reduced)
    assert not any(_is_series_row(row) for row in after.data)
    assert all(any(row) for row in after.data)
    for q in (2, 3, 4):
        assert sum(1 for v in enumerate_kernel_mod_q(after, q) if all(v)) == sum(
            1 for v in enumerate_kernel_mod_q(before, q) if all(v)
        )


@st.composite
def subdivided_graphs(draw):
    """One or two random cycles on six vertices (their union is
    bridgeless: every edge lies on a cycle), with up to four edges
    subdivided."""
    edges = set()
    for _ in range(draw(st.integers(1, 2))):
        cyc = draw(st.lists(st.integers(0, 5), min_size=3, max_size=5, unique=True))
        edges |= {tuple(sorted((cyc[i - 1], cyc[i]))) for i in range(len(cyc))}
    edges = sorted(edges)
    for w in range(6, 6 + draw(st.integers(0, 4))):
        u, v = edges.pop(draw(st.integers(0, len(edges) - 1)))
        edges += [(u, w), (v, w)]
    return build_complex(edges)


OCTAHEDRON = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
SURFACES = [list(combinations(range(4), 3)), OCTAHEDRON, list(_RP2_FACES)]


@st.composite
def pseudo_surfaces(draw):
    """One or two closed surfaces (tetrahedron or octahedron boundary,
    RP^2), the second possibly pinched to the first at a vertex, with up
    to three facets refined by stellar subdivision."""
    facets = []
    top = 0
    for i in range(draw(st.integers(1, 2))):
        piece = draw(st.sampled_from(SURFACES))
        shift = top - 1 if i and draw(st.booleans()) else top
        facets += [tuple(v + shift for v in f) for f in piece]
        top = max(v for f in facets for v in f) + 1
    delta = build_complex(facets)
    for _ in range(draw(st.integers(0, 3))):
        delta = subdivide_facet(delta, draw(st.integers(0, len(delta.facets) - 1)))
    return delta


def _assert_folds_match_enumeration(delta):
    quasi = flow_quasipolynomial(delta)
    for q in range(2, 7):
        want = count_nz_flows(delta, q, method="kernel_enum")
        assert count_nz_flows(delta, q, method="subset_expansion") == want, q
        assert quasi.evaluate(q) == want, q


@SETTINGS
@hypothesis.given(subdivided_graphs())
def test_reduced_folds_on_subdivided_graphs(delta):
    _assert_folds_match_enumeration(delta)


@SETTINGS
@hypothesis.given(pseudo_surfaces())
def test_reduced_folds_on_pseudo_surfaces(delta):
    _assert_folds_match_enumeration(delta)


def test_flow_profile_is_the_subset_profile_when_nothing_reduces():
    k4 = build_complex([[a, b] for a in range(4) for b in range(a + 1, 4)])
    assert flow_profile(k4) is subset_profile(k4)
    wheel = build_complex([[0, i] for i in range(1, 5)] + [[i, i % 4 + 1] for i in range(1, 5)])
    subdivided = subdivide_facet(wheel, 0)
    profile = flow_profile(subdivided)
    assert profile.column_count == len(wheel.facets)
    assert profile is not subset_profile(subdivided)


def _wrong_sign_reduce(columns):
    """`series_reduce` with the fold's sign flipped: column b goes into
    column a with +s_a*s_b, which leaves +-2 in the series row."""
    cols = [list(col) for col in columns]
    nrows = len(cols[0]) if cols else 0
    folded = True
    while folded:
        folded = False
        for r in range(nrows):
            hits = [j for j, col in enumerate(cols) if col[r]]
            if len(hits) == 2 and all(cols[j][r] in (1, -1) for j in hits):
                a, b = hits
                factor = cols[a][r] * cols[b][r]
                cols[a] = [x + factor * y for x, y in zip(cols[a], cols[b])]
                del cols[b]
                folded = True
                break
    rows = [i for i in range(nrows) if any(col[i] for col in cols)]
    return [[col[i] for i in rows] for col in cols]


def test_verify_catches_a_wrong_sign_fold(monkeypatch):
    # criterion 3 alone would not show it: the wrong-sign reduction of
    # RP^2 still leaves Z_2 and no free part
    monkeypatch.setattr(homology, "series_reduce", _wrong_sign_reduce)
    result = verify.check_invariance()
    assert not result.passed
    assert "subdivide" in result.detail or "suspension" in result.detail
