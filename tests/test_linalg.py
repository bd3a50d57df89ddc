import gc
import random
from itertools import product
from math import gcd, prod

import pytest

from simflow import (
    BadModulusError,
    CapExceededError,
    IntMatrix,
    count_nowhere_zero_kernel_mod_q,
    count_proper_colorings,
    enumerate_kernel_mod_q,
    kernel_count_mod_q,
    smith_normal_form,
)
from simflow import linalg
from simflow.complexes import boundary_matrix
from simflow.fixtures import complete, cycle, petersen, rp2, simplex_boundary
from simflow.linalg import row_lattice_reduce, snf_diagonal

from box_oracle import gray_count_nowhere_zero


def _product(a, b):
    """The integer matrix product a b."""
    return IntMatrix(
        [[sum(x * y for x, y in zip(row, col)) for col in zip(*b.data)] for row in a.data],
        cols=b.cols,
    )


def determinant(mat):
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    n = mat.rows
    if n == 0:
        return 1
    M = [list(row) for row in mat.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = M[k][k]
        for i in range(k + 1, n):
            Mi, Mk = M[i], M[k]
            mik = Mi[k]
            for j in range(k + 1, n):
                Mi[j] = (Mi[j] * pkk - mik * Mk[j]) // prev
            Mi[k] = 0
        prev = pkk
    return sign * M[n - 1][n - 1]


def brute_kernel(mat, q):
    vectors = []
    for v in product(range(q), repeat=mat.cols):
        if all(sum(c * x for c, x in zip(row, v)) % q == 0 for row in mat.data):
            vectors.append(v)
    return vectors


def _check_transform(mat, res):
    """V is unimodular, mat V is zero past the rank, and column k of
    mat V is diagonal[k] times a primitive vector (it is U^-1 D)."""
    assert abs(determinant(res.V)) == 1
    reduced = _product(mat, res.V)
    for j in range(res.rank, mat.cols):
        assert not any(reduced.column(j))
    for k, d in enumerate(res.diagonal):
        assert gcd(*reduced.column(k)) == d, (k, d)


def test_snf_diag_examples():
    assert smith_normal_form(IntMatrix([[6, 0], [0, 4]])).diagonal == (2, 12)
    assert smith_normal_form(IntMatrix([[1, 2], [3, 4]])).diagonal == (1, 2)
    assert smith_normal_form(IntMatrix.zeros(3, 4)).diagonal == ()
    # diagonals out of the divisibility chain, and a negative pivot
    for data, want in [
        ([[4, 0], [0, 6]], (2, 12)),
        ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], (1, 1, 30)),
        ([[-4, 0, 0], [0, 6, 0]], (2, 12)),
        ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], (1, 30, 30)),
    ]:
        mat = IntMatrix(data)
        res = smith_normal_form(mat)
        assert res.diagonal == want and snf_diagonal(data) == list(want), data
        _check_transform(mat, res)


def test_snf_divisibility_chain_random():
    rng = random.Random(7)
    for _ in range(150):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        mat = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        diag = smith_normal_form(mat).diagonal
        assert all(d >= 1 for d in diag)
        assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))
        assert len(diag) <= min(rows, cols)


def test_snf_matches_sympy_invariant_factors():
    """Both SNF routines against sympy on random matrices, sparse +-1
    ones (like boundary maps) and dense ones with larger entries."""
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(17)
    for trial in range(300):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        span = (-1, 0, 0, 1) if trial % 2 else range(-12, 13)
        data = [[rng.choice(span) for _ in range(cols)] for _ in range(rows)]
        want = [abs(int(f)) for f in invariant_factors(Matrix(data), domain=ZZ) if f]
        before = [list(r) for r in data]
        assert snf_diagonal(data) == want, data
        assert data == before  # the rows are read, not reduced in place
        mat = IntMatrix(data)
        assert list(smith_normal_form(mat).diagonal) == want, data
        assert mat.data == before  # smith_normal_form works on a copy too


def test_snf_transforms_random():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = IntMatrix([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        res = smith_normal_form(mat)
        _check_transform(mat, res)
        assert tuple(snf_diagonal((_product(mat, res.V)).data)) == res.diagonal


def test_row_lattice_reduce_random():
    """At most ncols rows, in echelon form, with the kernel mod every k
    unchanged."""
    rng = random.Random(19)
    for _ in range(120):
        nrows = rng.randint(0, 9)
        ncols = rng.randint(1, 5)
        rows = [[rng.randint(-7, 7) for _ in range(ncols)] for _ in range(nrows)]
        reduced = row_lattice_reduce(rows, ncols)
        assert len(reduced) <= ncols
        # echelon: every row is nonzero and leads strictly to the right of the last
        leads = [next(j for j, v in enumerate(row) if v) for row in reduced]
        assert leads == sorted(set(leads))
        before = IntMatrix(rows, cols=ncols)
        after = IntMatrix(reduced, cols=ncols)
        for k in range(2, 7):
            assert kernel_count_mod_q(after, k) == kernel_count_mod_q(before, k)


def test_kernel_basis_matches_the_smith_kernel():
    """The fold's relations among a matrix's columns: as many as the Smith
    form's nullity, each in the kernel, and together a saturated lattice
    (every invariant factor 1), so they span the whole integer kernel."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.one_of(st.just(0), st.integers(-3, 3))

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 7))
        row = st.lists(entries, min_size=cols, max_size=cols)
        mat = IntMatrix(data.draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)
        basis = linalg.kernel_basis([mat.column(j) for j in range(cols)])
        assert len(basis) == cols - smith_normal_form(mat).rank
        for vec in basis:
            assert len(vec) == cols and not any(mat.mat_vec(vec))
        assert snf_diagonal(basis) == [1] * len(basis)

    check()


def test_snf_product_is_determinant():
    rng = random.Random(13)
    seen_nonsingular = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        mat = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        det = determinant(mat)
        if det == 0:
            continue
        seen_nonsingular += 1
        assert prod(smith_normal_form(mat).diagonal) == abs(det)
    assert seen_nonsingular > 30


def test_rational_rank_examples():
    # the rank over the rationals is the length of the Smith diagonal
    assert len(snf_diagonal(boundary_matrix(complete(5, 3), 2).matrix.data)) == 6
    assert len(snf_diagonal(boundary_matrix(cycle(3), 1).matrix.data)) == 2
    assert len(snf_diagonal(IntMatrix.identity(5).data)) == 5


def test_kernel_count_examples():
    rp2_top = boundary_matrix(rp2(), 2).matrix
    assert kernel_count_mod_q(rp2_top, 2) == 2
    assert kernel_count_mod_q(rp2_top, 3) == 1
    assert kernel_count_mod_q(IntMatrix([[3, 1], [0, 2]]), 1) == 1
    with pytest.raises(BadModulusError):
        kernel_count_mod_q(rp2_top, 0)


def test_kernel_count_vs_brute_random():
    rng = random.Random(17)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        q = rng.randint(1, 6)
        mat = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        assert kernel_count_mod_q(mat, q) == len(brute_kernel(mat, q))


def test_enumerate_kernel_cycle():
    mat = boundary_matrix(cycle(3), 1).matrix
    got = sorted(enumerate_kernel_mod_q(mat, 3))
    assert got == [(0, 0, 0), (1, 2, 1), (2, 1, 2)]


def test_enumerate_kernel_sphere():
    mat = boundary_matrix(simplex_boundary(2), 2).matrix
    got = sorted(enumerate_kernel_mod_q(mat, 5))
    assert got == sorted(brute_kernel(mat, 5))
    assert len(got) == 5


def test_enumerate_kernel_zero_matrix():
    got = sorted(enumerate_kernel_mod_q(IntMatrix.zeros(2, 2), 2))
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_kernel_matches_brute_random():
    rng = random.Random(19)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        q = rng.randint(2, 5)
        mat = IntMatrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        got = sorted(enumerate_kernel_mod_q(mat, q))
        assert got == sorted(set(got)), "duplicates"
        assert got == sorted(brute_kernel(mat, q))


def test_enumerate_kernel_cap():
    with pytest.raises(CapExceededError) as info:
        list(enumerate_kernel_mod_q(IntMatrix.zeros(1, 10), 10))
    assert info.value.needed == 10**10


def _nowhere_zero_by_enumeration(mat, q):
    return sum(all(v) for v in enumerate_kernel_mod_q(mat, q))


def _scrambled_diagonal(draw, st):
    """A matrix with a chosen Smith diagonal, scrambled by unimodular row
    and column operations, so its invariant factors need not be units."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    diag = draw(
        st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]), min_size=1, max_size=min(rows, cols))
    )
    M = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(diag):
        M[i][i] = d
    for _ in range(draw(st.integers(0, 6))):
        if rows > 1:
            i, k = draw(st.sampled_from([(i, k) for i in range(rows) for k in range(rows) if i != k]))
            c = draw(st.integers(-2, 2))
            M[i] = [a + c * b for a, b in zip(M[i], M[k])]
        if cols > 1:
            j, k = draw(st.sampled_from([(j, k) for j in range(cols) for k in range(cols) if j != k]))
            c = draw(st.integers(-2, 2))
            for row in M:
                row[j] += c * row[k]
    return IntMatrix(M, cols=cols), diag


def _box(draw, st):
    """A mixed-radix box of at most 4096 points: (size, modulus, digits,
    features). Coloring-shaped digits have +-1 steps on a few entries
    and mostly radix q (a shorter radix does not reach every residue).
    Kernel-shaped digits have a radix g dividing q (g < q is a non-unit
    radix) and a dense step scaled by q / g. Some digits have radix 1 or
    a step that is zero mod q, and some entries no digit touches."""
    q = draw(st.integers(2, 7))
    size = draw(st.integers(0, 6))
    shape = draw(st.sampled_from(["coloring", "kernel"]))
    digits = []
    features = set()
    points = 1
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["live"] * 4 + ["radix 1", "zero step"]))
        if shape == "coloring":
            radix = draw(st.sampled_from([q] * 3 + list(range(2, q))))
            if radix < q:
                features.add("short radix")
            touched = draw(st.lists(st.integers(0, size - 1), max_size=3, unique=True)) if size else []
            step = [(i, draw(st.sampled_from([1, -1]))) for i in touched]
        else:
            radix = draw(st.sampled_from([g for g in range(1, q + 1) if q % g == 0]))
            step = [(i, q // radix * draw(st.integers(-q, q))) for i in range(size)]
            if 1 < radix < q:
                features.add("non-unit radix")
        if kind == "radix 1":
            radix = 1
        elif kind == "zero step":
            step = [(i, q * draw(st.integers(-2, 2))) for i, _ in step]
        if points * radix > 4096:
            break
        points *= radix
        features.add(kind)
        digits.append((radix, step))
    touched = {i for radix, step in digits if radix > 1 for i, d in step if d % q}
    if len(touched) < size:
        features.add("untouched entry")
    if size == 0:
        features.add("size 0")
    return size, q, digits, features | {shape}


def test_box_count_matches_the_gray_walk():
    """The pruned box count against the unpruned Gray walk of
    tests/box_oracle.py, on random boxes with moduli 2..7."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    settings = hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
    seen = []
    nonzero = []

    @settings
    @hypothesis.given(st.composite(_box)(st))
    def check(case):
        size, q, digits, features = case
        want = gray_count_nowhere_zero(size, q, digits)
        assert linalg.count_nowhere_zero_box(size, q, digits) == want
        seen.extend(features)
        if want and len(digits) > 1:
            nonzero.append(features)

    check()
    for feature in (
        "coloring", "kernel", "non-unit radix", "short radix", "radix 1", "zero step",
        "untouched entry", "size 0",
    ):
        assert seen.count(feature) >= 5, feature
    assert sum("coloring" in f for f in nonzero) >= 20
    assert sum("kernel" in f for f in nonzero) >= 20


def test_nowhere_zero_kernel_count_matches_enumeration():
    """The box count against filtering every enumerated kernel vector, on
    matrices with non-unit invariant factors and q = 2..7. The cases that
    count are those where q shares a factor with the torsion without
    dividing it, next to some other digit: only there does the torsion
    step (q / g) . V_i differ from V_i in effect."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    settings = hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    partial = []

    @settings
    @hypothesis.given(st.composite(_scrambled_diagonal)(st), st.integers(2, 7))
    def check(case, q):
        mat, diag = case
        radices = [gcd(d, q) for d in diag] + [q] * (mat.cols - len(diag))
        if any(1 < g < q for g in radices) and sum(g > 1 for g in radices) > 1:
            partial.append(q)
        assert count_nowhere_zero_kernel_mod_q(mat, q) == _nowhere_zero_by_enumeration(mat, q)

    check()
    assert len(partial) >= 10


@pytest.mark.parametrize(
    "mat",
    [IntMatrix.zeros(2, 3), IntMatrix.zeros(3, 0), IntMatrix([], cols=3), IntMatrix([[0, 2, 0], [0, 3, 0]])],
    ids=["zero", "no-columns", "no-rows", "zero-columns"],
)
def test_nowhere_zero_kernel_count_degenerate(mat):
    for q in range(1, 7):
        assert count_nowhere_zero_kernel_mod_q(mat, q) == _nowhere_zero_by_enumeration(mat, q), q


def test_nowhere_zero_kernel_count_rp2():
    top = boundary_matrix(rp2(), 2).matrix
    got = {q: count_nowhere_zero_kernel_mod_q(top, q) for q in range(2, 7)}
    assert got == {q: _nowhere_zero_by_enumeration(top, q) for q in range(2, 7)}
    assert got[2] == 1 and got[3] == 0


def test_nowhere_zero_kernel_count_refuses_before_the_smith_form(monkeypatch):
    def never(*args):
        raise AssertionError("walked past the cap")

    monkeypatch.setattr(linalg, "smith_normal_form", never)
    with pytest.raises(CapExceededError) as info:
        count_nowhere_zero_kernel_mod_q(IntMatrix.zeros(1, 10), 10)
    assert info.value.needed == 10**10


def test_snf_torsion_of_moore_space():
    diag = snf_diagonal([list(r) for r in boundary_matrix(rp2(), 2).matrix.data])
    assert [d for d in diag if d > 1] == [2]


def test_box_count_frees_its_search_on_return():
    """The recursive search is freed by reference counting as the count
    returns, not left in a reference cycle for the garbage collector."""
    delta = petersen()
    gc.collect()
    gc.disable()
    try:
        assert count_proper_colorings(delta, 3, method="brute") == 120
        assert gc.collect() == 0
    finally:
        gc.enable()
