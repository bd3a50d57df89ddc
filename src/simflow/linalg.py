"""Arbitrary-precision integer matrices, Smith normal form and the
integer echelon fold.

Everything here is exact: entries are Python ints, elimination uses
minimal-absolute-value pivoting (no modular shortcuts, no floats).
Matrices in this problem are small (tens of rows/columns), so dense
row-major storage wins over anything clever.

Two eliminations reduce integer vectors. One Smith elimination
(`_eliminate`) lies under both Smith forms: `snf_diagonal` keeps only
the invariant factors, and `smith_normal_form` also applies every
column operation to the transform V, whose columns past the rank span
the kernel. `fold_vector` adds one vector to an echelon basis by gcd
elimination and can be undone; every rank question that names a set of
vectors (`span_rank`), the relations among them (`kernel_basis`), the
subset sweep and `row_lattice_reduce` are folds.

`count_nowhere_zero_box` counts the points of a mixed-radix box where a
vector kept in step has no zero entry, by a depth-first search that
skips every value that would zero an entry no later digit touches; it
counts nowhere-zero kernel vectors mod q here and proper colorings in
`flows`.
"""

from dataclasses import dataclass
from itertools import product
from math import gcd, prod

from .caps import check_enum_cap
from .errors import BadModulusError


class IntMatrix:
    """Dense integer matrix. Rows are lists; entries are exact ints."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            if any(len(r) != self.cols for r in self.data):
                raise ValueError("ragged rows")
        else:
            self.cols = 0 if cols is None else cols

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    def transpose(self):
        return IntMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def column(self, j):
        return [row[j] for row in self.data]

    def is_zero(self):
        return all(v == 0 for row in self.data for v in row)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = other.transpose().data
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.data],
            cols=other.cols,
        )

    def mat_vec(self, vec):
        return [sum(a * b for a, b in zip(row, vec)) for row in self.data]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"IntMatrix({self.data!r})"


@dataclass
class SNFResult:
    """Smith form of a matrix A: the invariant factors d1 | d2 | ... | dr
    (positive) as `diagonal`, the rank r, and a unimodular column
    transform V. Column k < r of A V is d_k times a primitive vector; the
    columns of V past r are an integer basis of the kernel, so A V is
    zero there. V is one such transform among many: read only what every
    one of them shares (the rank, the diagonal and the kernel lattice)."""

    diagonal: tuple
    rank: int
    V: IntMatrix

    def kernel_count(self, q):
        """Number of kernel vectors of the matrix over Z_q."""
        return _kernel_size(self.diagonal, self.V.cols, q)


def _eliminate(rows, transform):
    """Smith diagonal of the matrix given as a list of row lists, which is
    left as it was (the elimination works on copies of its nonzero rows),
    with every column operation also applied to the rows of `transform`.

    Each step takes a nonzero entry of least magnitude as the pivot,
    clears its column with row operations and its row with column
    operations, moving to any smaller remainder. Before a pivot other
    than +-1 is retired it must divide every entry left; a row where it
    does not is added to the pivot row, and the step goes on. So every
    later entry is a multiple of each retired pivot, and the pivots come
    out as the divisibility chain. A retired pivot's row is dropped and
    its column swapped with the last live one and dropped. In
    `transform` that column is swapped the same way but kept, so the
    rows of `transform` end with the r columns the pivots retired, the
    last retired first, after the columns that span the kernel.
    """
    pivots = []
    rows = [list(r) for r in rows if any(r)]
    while rows:
        ncols = len(rows[0])
        # locate a minimal-magnitude nonzero pivot
        best = 0
        for i, row in enumerate(rows):
            for j in range(ncols):
                v = row[j]
                if v:
                    a = v if v > 0 else -v
                    if best == 0 or a < best:
                        best, pi, pj = a, i, j
                        if a == 1:
                            break
            if best == 1:
                break
        # reduce until the pivot row and column are clear and the pivot
        # divides what is left
        while True:
            prow = rows[pi]
            p = prow[pj]
            moved = False
            for i, row in enumerate(rows):
                if i == pi:
                    continue
                v = row[pj]
                if v:
                    q = v // p
                    if q:
                        rows[i] = row = [a - q * b for a, b in zip(row, prow)]
                    if row[pj]:
                        pi = i  # remainder is strictly smaller; make it the pivot
                        moved = True
                        break
            if moved:
                continue
            # column is clear: clearing the pivot row only touches the pivot row
            for j in range(ncols):
                if j == pj:
                    continue
                v = prow[j]
                if v:
                    q = v // p
                    if q:
                        prow[j] = v - q * p
                        for t in transform:
                            t[j] -= q * t[pj]
                    if prow[j]:
                        pj = j
                        moved = True
                        break
            if moved:
                continue
            # row and column are clear; add to the pivot row a row holding
            # an entry the pivot does not divide
            if p != 1 and p != -1:
                for i, row in enumerate(rows):
                    if i != pi and any(v % p for v in row):
                        rows[pi] = [a + b for a, b in zip(prow, row)]
                        moved = True
                        break
                if moved:
                    continue
            break
        pivots.append(p if p > 0 else -p)
        # drop pivot row; swap pivot column with the last and drop it
        last = len(rows) - 1
        rows[pi] = rows[last]
        rows.pop()
        lastc = ncols - 1
        for row in rows:
            row[pj] = row[lastc]
            row.pop()
        for t in transform:
            t[pj], t[lastc] = t[lastc], t[pj]
        rows = [r for r in rows if any(r)]
    return pivots


def snf_diagonal(rows):
    """Invariant factors of the matrix given as a list of row lists, in
    divisibility order; `rows` is left as it was and no transform is
    kept."""
    return _eliminate(rows, [])


def smith_normal_form(mat):
    """Smith normal form of an IntMatrix, leaving `mat` as it was.

    Returns SNFResult with the column transform V: a unimodular matrix
    whose first `rank` columns are the ones the pivots retired, in
    divisibility order, and whose remaining columns are an integer basis
    of the kernel, so mat @ V is zero past the first `rank` columns. The
    row transform is not kept.
    """
    V = IntMatrix.identity(mat.cols)
    diagonal = _eliminate(mat.data, V.data)
    free = mat.cols - len(diagonal)
    for row in V.data:
        row[:] = row[free:][::-1] + row[:free]
    return SNFResult(diagonal=tuple(diagonal), rank=len(diagonal), V=V)


def rational_rank(mat):
    """Rank over the rationals (equals the SNF rank)."""
    return len(snf_diagonal(mat.data))


def _kernel_size(diagonal, cols, q):
    """Kernel vectors mod q of a matrix with `cols` columns and Smith
    diagonal `diagonal`: q per column past the rank, gcd(d, q) per d."""
    return q ** (cols - len(diagonal)) * prod(gcd(d, q) for d in diagonal)


def kernel_count_mod_q(mat, q):
    """Exact number of v in (Z_q)^cols with mat . v == 0 (mod q)."""
    if q < 1:
        raise BadModulusError(f"modulus must be >= 1, got {q}")
    return _kernel_size(snf_diagonal(mat.data), mat.cols, q)


def kernel_basis(vectors):
    """Integer basis of the relations t (sum t_i v_i = 0) among equal-length
    integer vectors v_i: each v_i is folded with the unit tag e_i appended
    (Cohen 1993, 2.4.3), and the echelon rows zero on the vectors carry a
    basis in their tags. The relations are saturated: a lone one is primitive."""
    m = len(vectors)
    width = len(vectors[0]) if vectors else 0
    tagged = [[*v] + [0] * i + [1] + [0] * (m - 1 - i) for i, v in enumerate(vectors)]
    return [row[width:] for row in row_lattice_reduce(tagged, width + m) if not any(row[:width])]


def count_nowhere_zero_box(size, modulus, digits):
    """Count the points of a mixed-radix box at which a live vector of
    `size` entries mod `modulus` has no zero entry.

    Each digit is a (radix, step) pair: `step` lists (index, delta)
    pairs, each index at most once, the change one unit of that digit
    makes to the live vector, which is zero at the origin. A digit of
    radix 1, or whose step is zero mod `modulus`, never moves the
    vector: it multiplies the count by its radix and is dropped. An
    entry no digit touches stays zero, so then the count is 0.

    The rest is a depth-first search over the digits, ordered so that
    entries close early: an entry closes at the last digit that touches
    it, and each step takes next the digit that closes most entries,
    then the one that opens fewest. A value that would leave a closing
    entry zero is skipped with its whole subtree, and at the last digit
    the values left are counted with no further search. A digit that
    closes every entry it touches leaves the rest of the search alone,
    so its subtree is searched once and counted once per allowed value.
    The cost is the search nodes, at most one per point of the box.
    """
    scale = 1
    steps = []
    for radix, step in digits:
        vec = [(i, d % modulus) for i, d in step if d % modulus]
        if radix > 1 and vec:
            steps.append((radix, vec))
        else:
            scale *= radix
    remaining = [0] * size  # digits not yet placed that touch each entry
    for _, vec in steps:
        for i, _ in vec:
            remaining[i] += 1
    if 0 in remaining:
        return 0
    opened = [False] * size
    plan = []
    while steps:
        best = None
        for j, (_, vec) in enumerate(steps):
            key = (
                -sum(remaining[i] == 1 for i, _ in vec),
                sum(not opened[i] for i, _ in vec),
            )
            if best is None or key < best:
                best, pick = key, j
        radix, vec = steps.pop(pick)
        closing, moving = [], []
        for i, d in vec:
            remaining[i] -= 1
            opened[i] = True
            (moving if remaining[i] else closing).append((i, d))
        plan.append((radix, closing, moving))
    live = [0] * size
    last = len(plan) - 1

    def search(t):
        radix, closing, moving = plan[t]
        values = []
        for a in range(radix):
            for i, d in closing:
                if not (live[i] + a * d) % modulus:
                    break
            else:
                values.append(a)
        if t == last:
            return len(values)
        if not moving:
            return len(values) * search(t + 1) if values else 0
        saved = [(i, d, live[i]) for i, d in moving]
        total = 0
        for a in values:
            for i, d, b in saved:
                live[i] = (b + a * d) % modulus
            total += search(t + 1)
        for i, _, b in saved:
            live[i] = b
        return total

    count = scale * search(0) if plan else scale
    # `search` refers to itself: without this its state would wait for the
    # cyclic garbage collector
    del search
    return count


def count_nowhere_zero_kernel_mod_q(mat, q, snf=None):
    """Number of kernel vectors of mat over Z_q with no zero entry.

    The kernel is V . y for y in the diagonal system's solution box, as
    in `enumerate_kernel_mod_q`. Box coordinate i, with diagonal entry
    d (0 past the rank) and g = gcd(d, q), is a digit of radix g whose
    unit step is (q / g) . V_i, and `count_nowhere_zero_box` searches
    the box, pruning each partial vector with a zero entry that no later
    digit touches. The cost is its search nodes, at most one per kernel
    vector. `snf` is mat's Smith form when the caller holds one. Raises
    CapExceededError (with the exact count) before the search if the
    kernel is larger than the enumeration cap; without `snf`, before the
    Smith form too.
    """
    check_enum_cap(kernel_count_mod_q(mat, q) if snf is None else snf.kernel_count(q))
    res = smith_normal_form(mat) if snf is None else snf
    n = mat.cols
    V = res.V.data
    digits = []
    for i in range(n):
        g = gcd(res.diagonal[i] if i < res.rank else 0, q)
        digits.append((g, [(k, q // g * V[k][i]) for k in range(n)]))
    return count_nowhere_zero_box(n, q, digits)


def enumerate_kernel_mod_q(mat, q):
    """Yield each kernel vector of mat over Z_q exactly once.

    Solutions are V . y for y ranging over the diagonal system's solution
    box; distinct y give distinct vectors because V is invertible mod q.
    Raises CapExceededError (with the exact count) if the kernel is larger
    than the enumeration cap.
    """
    total = kernel_count_mod_q(mat, q)
    check_enum_cap(total)
    n = mat.cols
    if n == 0:
        yield ()
        return
    res = smith_normal_form(mat)
    vcols = [res.V.column(j) for j in range(n)]
    choices = []
    for i, d in enumerate(res.diagonal):
        g = gcd(d, q)
        if g > 1:
            choices.append((i, range(0, q, q // g)))
    for i in range(res.rank, n):
        choices.append((i, range(q)))
    if not choices:
        yield (0,) * n
        return
    idxs = [i for i, _ in choices]
    for ys in product(*(r for _, r in choices)):
        v = [0] * n
        for i, y in zip(idxs, ys):
            if y:
                col = vcols[i]
                for k in range(n):
                    v[k] += col[k] * y
        yield tuple(x % q for x in v)


def fold_vector(table, vec, log):
    """Add the integer vector `vec` to the echelon basis `table`.

    `table[p]` is the basis row whose leading entry sits at position p, or
    None. Rows are never mutated in place: a row that the gcd reduction
    replaces is appended to `log` as (p, old row), so the caller can undo
    the fold. Every step is a unimodular row operation, so the rows of
    `table` always span the lattice of the vectors folded in. Returns
    (rank increase, change in the number of pivots other than +-1).
    """
    nonunit = 0
    pos = 0
    size = len(vec)
    row = vec
    while True:
        while pos < size and not row[pos]:
            pos += 1
        if pos == size:
            return 0, nonunit
        pivot = table[pos]
        if pivot is None:
            log.append((pos, None))
            table[pos] = row
            return 1, nonunit + (row[pos] not in (1, -1))
        a = pivot[pos]
        b = row[pos]
        if b % a == 0:
            q = b // a
            row = [x - q * y for x, y in zip(row, pivot)]
        else:
            # Euclid on the leading entries
            p, r = pivot, row
            while r[pos]:
                q = p[pos] // r[pos]
                if q:
                    p = [x - q * y for x, y in zip(p, r)]
                p, r = r, p
            log.append((pos, pivot))
            table[pos] = p
            nonunit += (p[pos] not in (1, -1)) - (a not in (1, -1))
            row = r
        pos += 1


def span_rank(vectors):
    """Rank of a list of equal-length integer vectors, folded into one
    echelon basis."""
    return len(row_lattice_reduce(vectors, len(vectors[0]) if vectors else 0))


def row_lattice_reduce(rows, ncols):
    """Reduce a list of integer rows to at most ncols rows spanning the
    same row lattice (unimodular row operations only), so kernels mod any
    modulus are unchanged. The rows come back in echelon form, ordered by
    leading position; rows that reduce to zero are dropped."""
    table = [None] * ncols
    log = []
    for row in rows:
        fold_vector(table, row, log)
    return [row for row in table if row is not None]
