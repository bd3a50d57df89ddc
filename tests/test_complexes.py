import pytest

from simflow import (
    BadParamsError,
    CapExceededError,
    EmptyInputError,
    IndexOutOfRangeError,
    NotPureError,
    boundary_matrix,
    build_complex,
    complete_complex,
    restrict_columns,
    subdivide_facet,
    suspension,
)
from simflow.fixtures import cycle, complete, simplex_boundary, standard_corpus
from simflow.linalg import snf_diagonal


def test_build_single_triangle_canonicalizes():
    delta = build_complex([[2, 1, 0]])
    assert delta.dimension == 2
    assert delta.facets == ((0, 1, 2),)
    assert delta.faces(1) == ((0, 1), (0, 2), (1, 2))


def test_build_cycle_downward_closure():
    delta = build_complex([[0, 1], [1, 2], [0, 2]])
    assert delta.dimension == 1
    assert len(delta.facets) == 3
    assert len(delta.faces(0)) == 3


def test_build_rejects_mixed_dimensions():
    with pytest.raises(NotPureError):
        build_complex([[0, 1, 2], [0, 1]])


def test_build_rejects_empty():
    with pytest.raises(EmptyInputError):
        build_complex([])
    with pytest.raises(EmptyInputError):
        build_complex([[0, 1], []])


def test_build_rejects_bad_vertices():
    with pytest.raises(BadParamsError):
        build_complex([[0, 0, 1]])
    with pytest.raises(BadParamsError):
        build_complex([[-1, 2]])


def test_build_relabels_densely():
    delta = build_complex([[10, 30], [30, 50]])
    assert delta.facets == ((0, 1), (1, 2))
    assert delta.vertex_map == {10: 0, 30: 1, 50: 2}


def test_build_deduplicates_facets():
    delta = build_complex([[0, 1], [1, 0]])
    assert delta.facets == ((0, 1),)


@pytest.mark.parametrize(
    "n,k,facets,ridges",
    [(4, 2, 6, 4), (5, 3, 10, 10), (4, 3, 4, 6)],
)
def test_complete_complex_counts(n, k, facets, ridges):
    delta = complete_complex(n, k)
    assert len(delta.facets) == facets
    assert delta.dimension == k - 1
    if k >= 2:
        assert len(delta.faces(k - 2)) == ridges


def test_complete_complex_refuses_before_listing_facets():
    # C(40, 20) is some 1.4e11 facets
    with pytest.raises(CapExceededError, match="faces"):
        complete_complex(40, 20)


def test_complete_complex_bad_params():
    with pytest.raises(BadParamsError):
        complete_complex(3, 4)
    with pytest.raises(BadParamsError):
        complete_complex(3, 0)


def test_boundary_single_triangle_signs():
    delta = build_complex([[0, 1, 2]])
    bm = boundary_matrix(delta, 2)
    assert bm.row_faces == ((0, 1), (0, 2), (1, 2))
    assert bm.matrix.column(0) == [1, -1, 1]


def test_boundary_augmentation_row():
    delta = cycle(3)
    aug = boundary_matrix(delta, 0)
    assert aug.matrix.data == [[1, 1, 1]]


def test_boundary_composition_vanishes_everywhere():
    for _, delta in standard_corpus():
        for n in range(1, delta.dimension + 1):
            upper = boundary_matrix(delta, n).matrix
            lower = boundary_matrix(delta, n - 1).matrix
            assert not any(any(lower.mat_vec(upper.column(j))) for j in range(upper.cols))


def test_boundary_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        boundary_matrix(cycle(3), 2)


def test_restrict_columns_cases():
    delta = cycle(3)
    empty = restrict_columns(delta, 0)
    assert empty.matrix.rows == 3 and empty.matrix.cols == 0
    full = restrict_columns(delta, delta.full_mask)
    assert full.matrix == boundary_matrix(delta, 1).matrix
    two = restrict_columns(delta, 0b011)
    assert two.matrix.cols == 2
    assert len(snf_diagonal(two.matrix.data)) == 2


def test_suspension_of_cycle_is_sphere():
    suspended, relabel = suspension(cycle(3))
    assert suspended.dimension == 2
    assert len(suspended.facets) == 6
    assert suspended.vertex_count == 5
    assert len(suspended.faces(1)) == 9
    euler = 5 - 9 + 6
    assert euler == 2
    assert relabel == {0: 1, 1: 2, 2: 3}


def test_suspension_of_edge():
    suspended, _ = suspension(build_complex([[0, 1]]))
    assert suspended.facets == ((0, 1, 2), (1, 2, 3))


def test_suspension_facet_count_doubles():
    for _, delta in standard_corpus():
        if len(delta.facets) > 10:
            continue
        suspended, _ = suspension(delta)
        assert len(suspended.facets) == 2 * len(delta.facets)


def test_subdivide_triangle():
    delta = build_complex([[0, 1, 2]])
    refined = subdivide_facet(delta, 0)
    assert refined.facets == ((0, 1, 3), (0, 2, 3), (1, 2, 3))


def test_subdivide_cycle_edge():
    refined = subdivide_facet(cycle(3), 0)
    assert len(refined.facets) == 4
    assert refined.dimension == 1
    # a 4-cycle: every vertex has degree two
    degree = {}
    for a, b in refined.facets:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    assert set(degree.values()) == {2}


def test_subdivide_facet_count():
    for _, delta in standard_corpus():
        if len(delta.facets) > 6:
            continue
        refined = subdivide_facet(delta, 0)
        assert len(refined.facets) == len(delta.facets) + delta.dimension


def test_subdivide_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        subdivide_facet(cycle(3), 3)


def _blocks_of_suspension(delta):
    """Rows/columns of the suspended boundary map regrouped by apex
    membership, in the base complex's facet order."""
    suspended, _ = suspension(delta)
    top = suspended.vertex_count - 1
    bm = boundary_matrix(suspended, suspended.dimension)
    shifted = [tuple(v + 1 for v in f) for f in delta.facets]
    t_cols = [bm.col_faces.index((0,) + f) for f in shifted]
    b_cols = [bm.col_faces.index(f + (top,)) for f in shifted]
    mid_rows = [bm.row_faces.index(f) for f in shifted]
    shifted_ridges = [tuple(v + 1 for v in r) for r in delta.faces(delta.dimension - 1)] if delta.dimension >= 1 else []
    t_rows = [bm.row_faces.index((0,) + r) for r in shifted_ridges]
    b_rows = [bm.row_faces.index(r + (top,)) for r in shifted_ridges]
    data = bm.matrix.data
    pick = lambda rows, cols: [[data[i][j] for j in cols] for i in rows]
    return {
        "TT": pick(t_rows, t_cols),
        "TB": pick(t_rows, b_cols),
        "MT": pick(mid_rows, t_cols),
        "MB": pick(mid_rows, b_cols),
        "BT": pick(b_rows, t_cols),
        "BB": pick(b_rows, b_cols),
    }


def test_suspension_block_form():
    """With the bottom apex below every original label, the suspended
    boundary splits into [-d, 0 / +-I, +-I / 0, d] blocks."""
    for delta in (cycle(3), complete(4, 2), simplex_boundary(2)):
        blocks = _blocks_of_suspension(delta)
        base = boundary_matrix(delta, delta.dimension).matrix.data
        n = len(delta.facets)
        assert blocks["TT"] == [[-v for v in row] for row in base]
        assert blocks["BB"] == base
        assert all(v == 0 for row in blocks["TB"] for v in row)
        assert all(v == 0 for row in blocks["BT"] for v in row)
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert blocks["MT"] == ident
        sign = -1 if delta.dimension % 2 == 0 else 1
        assert blocks["MB"] == [[sign * v for v in row] for row in ident]


def test_two_nonzeros_per_row_on_sphere_boundaries():
    """Every ridge of the simplex boundary lies in exactly two facets."""
    for n in range(4, 8):
        bm = boundary_matrix(complete_complex(n, n - 1), n - 2)
        for row in bm.matrix.data:
            assert sum(1 for v in row if v) == 2


def test_complete_complex_rank_formula():
    from math import comb

    for n in range(3, 8):
        for k in range(2, n):
            bm = boundary_matrix(complete_complex(n, k), k - 1)
            assert len(snf_diagonal(bm.matrix.data)) == comb(n - 1, k - 1)
