"""The incremental subset sweep against the per-mask reference sweep in
sweep_oracle.py, on random pure complexes and on torsion-bearing ones,
on both sides a component can be swept on: its columns (primal) or the
rows of an integer kernel basis (dual)."""

import functools
import gc
from collections import Counter
from itertools import combinations

import pytest

from simflow import homology
from simflow.complexes import (
    build_complex,
    facet_components,
    restrict_columns,
    subdivide_facet,
    top_columns,
)
from simflow.fixtures import (
    _RP2_FACES,
    complete,
    mod3_moore_space,
    petersen,
    rp2,
    rp2_odd_triangle,
)
from simflow.homology import (
    _component_columns,
    _component_sweep,
    _lower_rank_sweep,
    subset_profile,
)
from simflow.linalg import snf_diagonal
from sweep_oracle import oracle_profile, per_mask_sweep, watch_sides

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    max_examples=60, deadline=None, database=None, derandomize=True
)


def _per_mask_histogram(cols):
    ranks, torsions = per_mask_sweep(cols)
    return Counter(
        (mask.bit_count(), ranks[mask], torsions.get(mask, ())) for mask in range(len(ranks))
    )


def _component_side(delta):
    """The one block component's columns, its swept histogram and the
    side it was swept on."""
    (comp,) = facet_components(delta)
    cols = _component_columns(top_columns(delta), comp)
    with watch_sides() as sides:
        histogram = homology._lower_rank_sweep(cols)
    return cols, histogram, sides


def _assert_matches_oracle(delta):
    profile = subset_profile(delta)
    assert profile.histogram == oracle_profile(delta)
    if len(delta.facets) <= 10:
        direct = Counter()
        for mask in range(1 << len(delta.facets)):
            rows = [list(r) for r in restrict_columns(delta, mask).matrix.data]
            diag = snf_diagonal(rows)
            direct[mask.bit_count(), len(diag), tuple(m for m in diag if m > 1)] += 1
        assert profile.histogram == direct


@st.composite
def pure_complexes(draw):
    """One to three blocks of random facets of one dimension on disjoint
    vertex sets, at most 12 facets in all."""
    d = draw(st.integers(0, 3))
    facets = []
    offset = 0
    for _ in range(draw(st.integers(1, 3))):
        room = 12 - len(facets)
        if room <= 0:
            break
        nverts = draw(st.integers(d + 1, d + 4))
        pool = list(combinations(range(offset, offset + nverts), d + 1))
        facets += draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=room, unique=True)
        )
        offset += nverts
    return build_complex(facets)


RP2_EXTRAS = [f for f in combinations(range(6), 3) if f not in _RP2_FACES]


@st.composite
def torsion_complexes(draw):
    """RP^2 (six vertices, ten triangles), possibly with one facet refined
    by a stellar subdivision, plus a few of the ten triangles it lacks,
    and possibly a disjoint second block."""
    triangles = st.sampled_from(RP2_EXTRAS)
    refine = draw(st.one_of(st.none(), st.integers(0, 9)))
    extras = draw(st.lists(triangles, max_size=2 - (refine is not None), unique=True))
    delta = build_complex(list(_RP2_FACES) + extras)
    if refine is not None:
        delta = subdivide_facet(delta, refine)
    if draw(st.booleans()):
        block = draw(st.lists(triangles, min_size=1, max_size=4, unique=True))
        shifted = [tuple(v + 10 for v in f) for f in block]
        delta = build_complex(list(delta.facets) + shifted)
    return delta


@st.composite
def integer_columns(draw):
    """Up to 8 random integer columns over 1 to 5 rows, plus up to 3
    repeats and integer multiples of them, shuffled: dependent columns,
    often more of them than rows, whose subsets span one lattice in
    several ways, torsion included."""
    nrows = draw(st.integers(1, 5))
    column = st.lists(st.integers(-4, 4), min_size=nrows, max_size=nrows)
    cols = draw(st.lists(column, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        factor = draw(st.sampled_from([1, -1, 2, -3]))
        cols.append([factor * x for x in draw(st.sampled_from(cols))])
    return draw(st.permutations(cols))


@SETTINGS
@hypothesis.given(integer_columns())
def test_component_sweep_on_integer_columns(cols):
    """Entries beyond +-1 drive the gcd steps and the non-unit pivots that
    boundary maps of small complexes rarely reach; on the dual side they
    give subsets torsion inside a saturated lattice. Repeated and parallel
    columns make the memo answer subtrees whose lattice has torsion."""
    want = _per_mask_histogram(cols)
    assert _component_sweep(cols) == want
    assert _lower_rank_sweep(cols) == want


@st.composite
def independent_torsion_columns(draw):
    """1 to 8 independent integer columns over up to two more rows: an
    upper triangular matrix with diagonal entries from {1, 2, 3, 6} and
    entries up to 3 above it, mixed by random unimodular row operations,
    its columns shuffled. The full lattice and many of its sublattices
    carry torsion, while the saturated ones can close whole subtrees."""
    k = draw(st.integers(1, 8))
    nrows = k + draw(st.integers(0, 2))
    rows = [[0] * k for _ in range(nrows)]
    for i in range(k):
        rows[i][i] = draw(st.sampled_from([1, 2, 3, 6]))
        for j in range(i + 1, k):
            rows[i][j] = draw(st.integers(-3, 3))
    for _ in range(draw(st.integers(0, 2 * nrows))):
        a, b = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        if a != b:
            c = draw(st.sampled_from([1, -1, 2, -2]))
            rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return draw(st.permutations([list(col) for col in zip(*rows)]))


@SETTINGS
@hypothesis.given(independent_torsion_columns())
def test_component_sweep_on_independent_columns_with_torsion(cols):
    """Independent columns get no memo: their sweep closes each child
    whose columns, with every column it can still select, span a
    saturated lattice, counting its subsets by size with binomials."""
    want = _per_mask_histogram(cols)
    assert _component_sweep(cols) == want
    assert _lower_rank_sweep(cols) == want


def _sides_of_oracle_run(strategy, settings, check):
    """Run `check` on every complex `strategy` draws and return the sides
    their components were swept on."""
    seen = set()

    @settings
    @hypothesis.given(strategy)
    def run(delta):
        with watch_sides() as sides:
            check(delta)
        seen.update(sides)

    run()
    return seen


def test_sweep_matches_per_mask_oracle():
    sides = _sides_of_oracle_run(pure_complexes(), SETTINGS, _assert_matches_oracle)
    assert sides == {"primal", "dual"}


def _assert_torsion_matches_oracle(delta):
    assert subset_profile(delta).torsion_period() > 1
    _assert_matches_oracle(delta)


def test_sweep_matches_per_mask_oracle_with_torsion():
    sides = _sides_of_oracle_run(
        torsion_complexes(),
        hypothesis.settings(SETTINGS, max_examples=15),
        _assert_torsion_matches_oracle,
    )
    assert sides == {"primal", "dual"}


def test_rp2_stays_primal():
    """RP^2's ten columns are independent (n - r = 0), but their full
    lattice has Z_2 torsion, which an empty kernel basis cannot carry."""
    cols, histogram, sides = _component_side(rp2())
    assert sides == ["primal"]
    assert histogram == _per_mask_histogram(cols)
    assert histogram[10, 10, (2,)] == 1


def test_saturated_rp2_extension_goes_dual_with_torsion():
    """One more triangle makes the full lattice saturated (11 columns of
    rank 10), while subsets that miss it keep RP^2's Z_2."""
    delta = build_complex(list(_RP2_FACES) + [(0, 1, 2)])
    assert snf_diagonal(top_columns(delta)) == [1] * 10
    cols, histogram, sides = _component_side(delta)
    assert sides == ["dual"]
    assert histogram == _per_mask_histogram(cols)
    assert any(tors == (2,) for _, _, tors in histogram)


def test_independent_saturated_columns_sweep_an_empty_kernel_basis():
    """A path's edges are independent and unimodular: n = r, so the dual
    side sweeps rows of length zero."""
    cols, histogram, sides = _component_side(build_complex([(0, 1), (1, 2), (2, 3), (3, 4)]))
    assert sides == ["dual"]
    assert histogram == _per_mask_histogram(cols)
    assert histogram == Counter({(s, s, ()): c for s, c in enumerate([1, 4, 6, 4, 1])})


def test_tie_stays_primal():
    """K_4: 6 edges of rank 3, so n - r = r."""
    cols, histogram, sides = _component_side(complete(4, 2))
    assert sides == ["primal"]
    assert histogram == _per_mask_histogram(cols)


def test_dual_sweep_folds_at_most_two_vectors_per_facet(monkeypatch):
    """The suspension of a hexagon is a 2-sphere of 12 triangles and rank
    11. Its kernel basis has one column, so the dual sweep closes each
    subtree after one row: 12 folds, where the column sweep folds 4,094."""
    calls = _count_folds(monkeypatch)
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    sphere = build_complex([edge + (apex,) for edge in hexagon for apex in (6, 7)])
    n = len(sphere.facets)
    assert n == 12
    assert subset_profile(sphere).histogram == oracle_profile(sphere)
    assert len(calls) <= 2 * n


def _count_folds(monkeypatch):
    """Every vector the sweep folds, on either side and with or without
    its memo: its reduced fold folds through `fold_vector` too."""
    calls = []
    fold = homology.fold_vector
    monkeypatch.setattr(
        homology, "fold_vector", lambda *args: calls.append(1) or fold(*args)
    )
    return calls


def test_memo_shares_subtrees_only_where_columns_are_dependent(monkeypatch):
    """Petersen's dual side holds 15 rows of rank 6: subsets that span one
    lattice share one subtree, so the sweep folds 2,763 vectors, where
    one fold per node took 16,503. RP^2's ten columns are independent: no
    two subsets span one lattice, so the sweep keeps no memo and reduces
    no basis. Every proper subset of them is saturated, so a node that
    selects k of the top columns closes all its children but the one
    adding the next column: 9 - k scratch folds and that child's fold,
    55 in all, where one fold per nonempty subset took 1,023. The mod-3
    Moore space's 17 independent columns fold 153 vectors, not 131,071."""
    calls = _count_folds(monkeypatch)
    reduced = []
    reduce = homology._reduced_fold
    monkeypatch.setattr(
        homology, "_reduced_fold", lambda *args: reduced.append(1) or reduce(*args)
    )
    subset_profile(petersen())
    assert 0 < len(reduced) <= len(calls) < 16503 // 2
    calls.clear()
    reduced.clear()
    subset_profile(rp2())
    assert (len(calls), len(reduced)) == (55, 0)
    calls.clear()
    subset_profile(mod3_moore_space())
    assert len(calls) < (2**17 - 1) // 100
    assert not reduced


def test_sweep_frees_its_memo_on_return():
    """The memo is freed by reference counting as the sweep returns, not
    left in a reference cycle for the garbage collector."""
    delta = complete(6, 2)
    (comp,) = facet_components(delta)
    cols = _component_columns(top_columns(delta), comp)
    gc.collect()
    gc.disable()
    try:
        _component_sweep(cols)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("budget", [0, 1])
@pytest.mark.parametrize(
    "make",
    [petersen, lambda: complete(6, 2), rp2_odd_triangle, mod3_moore_space],
    ids=["petersen", "K6_2", "rp2_odd_triangle", "mod3_moore_space"],
)
def test_memo_budget_keeps_the_histogram(monkeypatch, make, budget):
    """With no memo entry, or with one, every subtree past the budget is
    swept again and the histogram is unchanged."""
    monkeypatch.setattr(homology, "SWEEP_MEMO_CAP", budget)
    delta = make()
    columns = top_columns(delta)
    for comp in facet_components(delta):
        cols = _component_columns(columns, comp)
        assert _lower_rank_sweep(cols) == _oracle_histogram(tuple(map(tuple, cols)))


@functools.cache
def _oracle_histogram(cols):
    """The per-mask histogram, taken once for both budgets."""
    return _per_mask_histogram([list(col) for col in cols])
