"""Reduced homology of facet subsets, plus the subset sweep that powers
every 2^|F| expansion downstream.

A facet subset X is always read as X together with the full codimension-1
skeleton, so only the top boundary map changes between subsets. Everything
a subset expansion needs (both Betti numbers and the torsion of the
codimension-1 homology) is a function of the rank and the torsion of the
lattice spanned by the restricted columns of the top boundary map. The
sweep walks the subsets of each block component of that map depth first
and grows an integer echelon basis one column at a time. It takes a Smith
diagonal only of a basis with a pivot other than +-1, and counts a subtree
in closed form once its lattice is saturated and of full rank. A component
of n columns and rank r whose column lattice is saturated and whose
nullity n - r is below r is swept on its dual side instead: the rows of an
integer kernel basis, which reach full rank after n - r of them, with each
key mapped to that of the complement (`_lower_rank_sweep`). The
per-component histograms keyed by (subset size, rank, torsion invariant
factors) are convolved into one, the torsion of a union taken as the
invariant factors of the direct sum. The basis is grown with
`linalg.fold_vector`, the one integer echelon routine. Nothing per
subset is kept: a rank question that names one subset folds its vectors
into a fresh basis (`linalg.span_rank`). The Smith form of the whole top
map is taken once per complex (`top_smith_form`), and the sweep of a
complex that is one block component reads it to choose its side.

`_sweep_columns` is the one admission rule: it names the columns a
sweep visits and refuses more of them than the subset cap. They are the
facets (`complexes.top_columns`) for `subset_profile`, and for
`flow_profile` the series-reduced columns (`series_reduce`, run once
per complex) when some column reduces. `sweep_size`, which tells
`method="auto"` what a fresh sweep would cost, and `flows.circuits` ask
it too. A ridge in exactly two facets, both with coefficient +-1, ties
their flow values together, so the pair carries one degree of freedom.
The reduction keeps every mod-q kernel size and every nowhere-zero
count, but not the matroid, so colorings, tensions and the Tutte
polynomials stay on `subset_profile`. Flow counts fold whichever
profile is cached, since both give every mod-q kernel size; the
reduced columns are swept only when neither is.
"""

from collections import Counter
from dataclasses import dataclass
from math import comb, gcd, prod

from .caps import check_matrix_cap, check_subset_cap
from .complexes import boundary_matrix, column_components, facet_components, top_columns
from .errors import BadModulusError, CapExceededError
from .linalg import (
    IntMatrix,
    fold_vector,
    invariant_factors,
    smith_normal_form,
    snf_diagonal,
    span_rank,
)


@dataclass
class HomologySummary:
    """Reduced Betti numbers for 0..d and torsion invariant factors for
    0..d-1 (top homology is free)."""

    betti: dict
    torsion: dict


def _skeleton_snfs(delta, dims):
    """Smith diagonals of the boundary maps in dimensions `dims`, each
    below the top (whose diagonal depends on the facet subset), cached
    one per dimension. Refuses before any Smith form when one of the
    maps still to be eliminated is over the matrix cap."""
    snfs = delta._cache.setdefault("skeleton_snfs", {})
    todo = [n for n in dims if n not in snfs]
    for n in todo:
        rows = len(delta.faces(n - 1)) if n else 1
        check_matrix_cap(rows, len(delta.faces(n)), f"boundary map in dimension {n}")
    for n in todo:
        snfs[n] = tuple(snf_diagonal(boundary_matrix(delta, n).matrix.data))
    return snfs


def top_smith_form(delta):
    """Smith normal form of the top boundary map, taken once per complex
    and cached. `method="auto"` reads mod-q kernel sizes off its
    diagonal, the kernel search and `matroid._dual_rows` read its
    transform V, `homology_summary` its diagonal for the full facet set,
    and the sweep of a complex that is one block component reads both."""
    snf = delta._cache.get("top_snf")
    if snf is None:
        top = boundary_matrix(delta, delta.dimension).matrix
        snf = delta._cache["top_snf"] = smith_normal_form(top)
    return snf


def codim1_cycle_rank(delta):
    """Nullity of the boundary map one dimension below the top, the only
    map of the lower skeleton it eliminates.

    For d = 0 the chain complex bottoms out at the augmentation target Z,
    whose (zero) boundary map has nullity 1.
    """
    d = delta.dimension
    if d == 0:
        return 1
    return len(delta.faces(d - 1)) - len(_skeleton_snfs(delta, [d - 1])[d - 1])


def _restricted_diagonal(delta, mask):
    """Smith diagonal of the top boundary map restricted to `mask`."""
    cols = top_columns(delta)
    # the transpose has the same diagonal
    return snf_diagonal([cols[j] for j in delta.facets_of_mask(mask)])


def homology_summary(delta, mask=None):
    """Betti numbers and torsion of X u (full lower skeleton)."""
    d = delta.dimension
    if mask is None:
        mask = delta.full_mask
    snfs = _skeleton_snfs(delta, range(d))
    if mask == delta.full_mask:
        top_diag = top_smith_form(delta).diagonal
    else:
        top_diag = _restricted_diagonal(delta, mask)
    top_rank = len(top_diag)
    size = mask.bit_count()

    betti = {}
    torsion = {}
    betti[d] = size - top_rank
    if d >= 1:
        betti[d - 1] = codim1_cycle_rank(delta) - top_rank
        torsion[d - 1] = [m for m in top_diag if m > 1]
    for n in range(d - 1):
        nullity_n = len(delta.faces(n)) - len(snfs[n])
        betti[n] = nullity_n - len(snfs[n + 1])
        torsion[n] = [m for m in snfs[n + 1] if m > 1]
    return HomologySummary(betti=betti, torsion=torsion)


def torsion_weight(delta, mask, q):
    """|Tor(H_{d-1}(X), Z_q)| = product of gcd(m, q) over the invariant
    factors m of the codimension-1 torsion; 1 when torsion is trivial."""
    if q < 1:
        raise BadModulusError(f"modulus must be >= 1, got {q}")
    diag = _restricted_diagonal(delta, mask)
    return prod(gcd(m, q) for m in diag if m > 1)


def t_q_of(torsion_tuple, q):
    return prod(gcd(m, q) for m in torsion_tuple)


# ---------------------------------------------------------------------------
# subset sweep


def _component_sweep(cols):
    """Histogram of one block component's column subsets, keyed by
    (size, rank, torsion).

    `cols` holds each column as a dense list of ints. A depth-first search
    decides facets from the highest index down and keeps an echelon basis
    of the selected columns, adding one column per step and undoing it on
    the way back. A basis whose pivots are all +-1 spans a saturated
    lattice (no torsion); any other basis gets a Smith diagonal of its own
    few rows. Once the lattice is saturated and of full rank, no further
    column changes it, so the whole subtree is counted with binomials.
    """
    n = len(cols)
    nrows = len(cols[0]) if cols else 0
    full_rank = span_rank(cols)
    table = [None] * nrows
    log = []
    histogram = Counter()
    width = full_rank + 1
    free = [0] * ((n + 1) * width)  # torsion-free counts at size * width + rank
    binomials = [[comb(k, i) for i in range(k + 1)] for k in range(n + 1)]

    def visit(open_bits, size, rank, nonunit):
        tors = ()
        if nonunit:
            diag = snf_diagonal([r for r in table if r is not None])
            if diag[-1] > 1:
                tors = tuple(m for m in diag if m > 1)
        if rank == full_rank and not tors:
            at = size * width + rank
            for c in binomials[open_bits]:
                free[at] += c
                at += width
            return
        if tors:
            histogram[size, rank, tors] += 1
        else:
            free[size * width + rank] += 1
        for j in range(open_bits - 1, -1, -1):
            mark = len(log)
            grew, moved = fold_vector(table, cols[j], log)
            visit(j, size + 1, rank + grew, nonunit + moved)
            while len(log) > mark:
                pos, old = log.pop()
                table[pos] = old

    visit(n, 0, 0, 0)
    for at, c in enumerate(free):
        if c:
            histogram[divmod(at, width) + ((),)] += c
    return histogram


def _join_torsion(t1, t2):
    """Invariant factors of the direct sum of two torsion groups."""
    if not (t1 and t2):
        return t1 or t2
    return tuple(m for m in invariant_factors(t1 + t2) if m > 1)


def _lower_rank_sweep(cols, snf=None):
    """`_component_sweep(cols)`, swept on whichever side has the lower
    rank.

    One Smith form of the n columns gives their rank r and a kernel basis
    K (the columns of V past the rank), an n x (n - r) integer matrix
    whose rows represent the dual matroid. When n - r < r and every
    invariant factor is 1 (the column lattice is saturated), the n rows
    of K are swept instead, and each dual key (s, r*, t) of a row set Y
    is the primal key (n - s, r* - s + r, t) of its complement X:
    rank(X) = r - |Y| + rank(K_Y) by matroid duality, and since
    Z^m / A Z^n is free, the torsion of Z^m / A Z^X is that of
    A Z^n / A Z^X = Z^Y / K_Y Z^(n-r), read off the Smith diagonal of
    K_Y. The dual sweep closes a subtree at rank n - r instead of r.
    `snf` is that Smith form when the caller holds one.
    """
    n = len(cols)
    if snf is None:
        snf = smith_normal_form(IntMatrix(list(zip(*cols)), cols=n))
    r = snf.rank
    if n - r >= r or any(m != 1 for m in snf.diagonal):
        return _component_sweep(cols)
    dual = _component_sweep([row[r:] for row in snf.V.data])
    return Counter({(n - s, rank - s + r, tors): c for (s, rank, tors), c in dual.items()})


class SubsetProfile:
    """The histogram that counts subsets of `columns` by (size, rank,
    torsion invariant factors): what every expansion consumes. Each block
    component in `components` is swept on its own, on its lower-rank
    side: its columns, or, when its column lattice is saturated and its
    nullity is below its rank, the rows of an integer kernel basis
    (`_lower_rank_sweep`). `rank_full` is the rank of all `column_count`
    columns together. `snf` is the Smith form of the matrix whose columns
    are `columns`, passed only when that matrix is one component: its
    sweep then reuses it.
    """

    def __init__(self, columns, components, snf=None):
        self.components = components
        self.histogram = self._assemble_histogram(
            _lower_rank_sweep(_component_columns(columns, comp), snf) for comp in components
        )
        self.rank_full = max(rank for _, rank, _ in self.histogram)
        self.column_count = sum(len(comp) for comp in components)

    @staticmethod
    def _assemble_histogram(comp_histograms):
        """Convolve the per-component histograms into the global one."""
        hist = Counter({(0, 0, ()): 1})
        for local in comp_histograms:
            merged = Counter()
            for (s1, r1, t1), c1 in hist.items():
                for (s2, r2, t2), c2 in local.items():
                    merged[(s1 + s2, r1 + r2, _join_torsion(t1, t2))] += c1 * c2
            hist = merged
        return hist

    def torsion_period(self):
        """lcm of every torsion invariant factor seen across all subsets."""
        period = 1
        for (_, _, tors) in self.histogram:
            for m in tors:
                period = period * m // gcd(period, m)
        return period


def _component_columns(columns, comp):
    """Dense columns of one block component over the rows it touches."""
    rows = range(len(columns[comp[0]]))
    touched = [i for i in rows if any(columns[j][i] for j in comp)]
    return [[columns[j][i] for i in touched] for j in comp]


def _sweep_columns(delta, flows=False, force=False):
    """The columns a fresh sweep for `flow_profile` (`flows`) or for
    `subset_profile` visits, with their block components: the
    series-reduced columns (reduced once per complex) when flows are
    asked for and some column reduces, else the facets. Every sweep is
    admitted here: more of these columns than the subset cap raise
    CapExceededError unless forced."""
    if flows:
        reduced = delta._cache.get("reduced_columns")
        if reduced is None:
            columns = series_reduce(top_columns(delta))
            reduced = delta._cache["reduced_columns"] = columns, column_components(columns)
        if len(reduced[0]) < len(delta.facets):
            check_subset_cap(len(reduced[0]), force=force, what="series-reduced columns")
            return reduced
    check_subset_cap(len(delta.facets), force=force)
    return top_columns(delta), facet_components(delta)


def subset_profile(delta, force=False, jobs=None):
    """Compute (cached) the SubsetProfile of a complex's facets.

    Refuses complexes with more facets than the subset cap unless forced.
    `jobs` is ignored; it stays because perfbench/run.py still passes it.
    """
    profile = delta._cache.get("subset_profile")
    if profile is None:
        columns, components = _sweep_columns(delta, force=force)
        profile = delta._cache["subset_profile"] = _facet_profile(delta, columns, components)
    return profile


def _facet_profile(delta, columns, components):
    """The SubsetProfile of the facets. When they are one component, its
    sweep reuses the top Smith form: that component is the whole top map,
    every row of which is nonzero."""
    snf = top_smith_form(delta) if len(components) == 1 else None
    return SubsetProfile(columns, components, snf)


def series_reduce(columns):
    """Series-reduce integer columns, each a dense list over one row set.

    While some row has exactly two nonzero entries, both +-1, in columns
    a < b with signs s_a and s_b: add -s_a*s_b times column b to column a,
    drop column b, and drop the rows that are now zero. That row forces
    x_b = -s_a*s_b*x_a on every kernel vector mod every q. The step is a
    unimodular column operation followed by splitting off a unit block,
    so the Smith diagonal loses one 1 and is otherwise unchanged, every
    mod-q kernel keeps its size, and a kernel vector is nowhere zero
    exactly when its reduction is. Returns the surviving columns in
    their original order, dense over the surviving rows in theirs.
    """
    cols = [{i: v for i, v in enumerate(col) if v} for col in columns]
    nrows = len(columns[0]) if columns else 0
    support = [set() for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i in col:
            support[i].add(j)
    todo = [i for i in range(nrows) if len(support[i]) == 2]
    while todo:
        r = todo.pop()
        if len(support[r]) != 2:
            continue
        a, b = sorted(support[r])
        col_a, col_b = cols[a], cols[b]
        if col_a[r] not in (1, -1) or col_b[r] not in (1, -1):
            continue
        factor = -col_a[r] * col_b[r]
        for i, v in col_b.items():
            support[i].discard(b)
            w = col_a.get(i, 0) + factor * v
            if w:
                col_a[i] = w
                support[i].add(a)
            else:
                col_a.pop(i, None)
                support[i].discard(a)
            if len(support[i]) == 2:
                todo.append(i)
        cols[b] = None
    rows = [i for i in range(nrows) if support[i]]
    return [[col.get(i, 0) for i in rows] for col in cols if col is not None]


def sweep_size(delta, flows=False, force=False):
    """Subsets that a fresh sweep for `flow_profile` (`flows`) or for
    `subset_profile` would visit at most: the sum of 2^|component| over
    the block components of `_sweep_columns`. 0 when a profile it can
    fold is cached (for flows, either one), None when the subset cap
    refuses the sweep. A component swept on its dual side closes its
    subtrees after n - r rows and may visit far fewer subsets, so this
    is an upper bound."""
    if "subset_profile" in delta._cache or flows and "flow_profile" in delta._cache:
        return 0
    try:
        components = _sweep_columns(delta, flows=flows, force=force)[1]
    except CapExceededError:
        return None
    return sum(1 << len(comp) for comp in components)


def flow_profile(delta, force=False):
    """The SubsetProfile that flow counts fold: any cached profile of the
    top boundary columns, else a fresh sweep of `_sweep_columns(delta,
    flows=True)`, cached as the subset profile when nothing reduces.

    Both histograms give every mod-q kernel size, so flow counts fold
    either one exactly: series reduction keeps each kernel's size and
    nowhere-zero count, and only merges facets whose flow values are tied.
    """
    profile = delta._cache.get("flow_profile") or delta._cache.get("subset_profile")
    if profile is None:
        columns, components = _sweep_columns(delta, flows=True, force=force)
        if columns is top_columns(delta):
            profile = delta._cache["subset_profile"] = _facet_profile(delta, columns, components)
        else:
            profile = delta._cache["flow_profile"] = SubsetProfile(columns, components)
    return profile
