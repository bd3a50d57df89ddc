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
in closed form once its lattice is saturated and of full rank. The
per-component histograms keyed by (subset size, rank, torsion multiset)
are convolved into one.
"""

from collections import Counter
from dataclasses import dataclass
from math import comb, gcd, prod

from .caps import check_subset_cap
from .complexes import boundary_matrix, facet_components, restrict_columns
from .errors import BadModulusError
from .linalg import snf_diagonal


@dataclass
class HomologySummary:
    """Reduced Betti numbers for 0..d and torsion invariant factors for
    0..d-1 (top homology is free)."""

    betti: dict
    torsion: dict


def _skeleton_snfs(delta):
    """Smith diagonals of the boundary maps in dimensions 0..d, cached."""
    snfs = delta._cache.get("skeleton_snfs")
    if snfs is None:
        snfs = {
            n: tuple(snf_diagonal([list(r) for r in boundary_matrix(delta, n).matrix.data]))
            for n in range(delta.dimension + 1)
        }
        delta._cache["skeleton_snfs"] = snfs
    return snfs


def codim1_cycle_rank(delta):
    """Nullity of the boundary map one dimension below the top.

    For d = 0 the chain complex bottoms out at the augmentation target Z,
    whose (zero) boundary map has nullity 1.
    """
    d = delta.dimension
    if d == 0:
        return 1
    snfs = _skeleton_snfs(delta)
    return len(delta.faces(d - 1)) - len(snfs[d - 1])


def _restricted_diagonal(delta, mask):
    """Smith diagonal of the top boundary map restricted to `mask`."""
    bm = restrict_columns(delta, mask)
    return snf_diagonal([list(r) for r in bm.matrix.data])


def homology_summary(delta, mask=None):
    """Betti numbers and torsion of X u (full lower skeleton)."""
    d = delta.dimension
    if mask is None:
        mask = delta.full_mask
    snfs = _skeleton_snfs(delta)
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


def _fold_column(table, vec, log):
    """Add the integer vector `vec` to the echelon basis `table`.

    `table[p]` is the basis row whose leading entry sits at position p, or
    None. Rows are never mutated in place: a row that the gcd reduction
    replaces is appended to `log` as (p, old row), so the caller can undo
    the fold. Returns (rank increase, change in the number of pivots
    other than +-1).
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
            # Euclid on the leading entries, as in linalg.row_lattice_reduce
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


def _component_sweep(cols):
    """Rank of every column subset of one block component, and the
    component's histogram.

    `cols` holds each column as a dense list of ints. A depth-first search
    decides facets from the highest index down, so every subtree covers a
    contiguous mask range, and keeps an echelon basis of the selected
    columns, adding one column per step. A basis whose pivots are all +-1
    spans a saturated lattice (no torsion); any other basis gets a Smith
    diagonal of its own few rows. Once the lattice is saturated and of
    full rank, no further column changes it, so the whole subtree is
    counted with binomials and left at the full rank every mask starts
    with.

    Returns a bytearray of ranks and the component's Counter keyed by
    (size, rank, torsion).
    """
    n = len(cols)
    nrows = len(cols[0]) if cols else 0
    table = [None] * nrows
    full_rank = sum(_fold_column(table, col, [])[0] for col in cols)
    table = [None] * nrows
    log = []
    ranks = bytearray([full_rank]) * (1 << n)
    histogram = Counter()
    width = full_rank + 1
    free = [0] * ((n + 1) * width)  # torsion-free counts at size * width + rank
    binomials = [[comb(k, i) for i in range(k + 1)] for k in range(n + 1)]

    def visit(mask, open_bits, size, rank, nonunit):
        tors = ()
        if nonunit:
            diag = snf_diagonal([list(r) for r in table if r is not None])
            if diag[-1] > 1:
                tors = tuple(m for m in diag if m > 1)
        if rank == full_rank and not tors:
            at = size * width + rank
            for c in binomials[open_bits]:
                free[at] += c
                at += width
            return
        ranks[mask] = rank
        if tors:
            histogram[size, rank, tors] += 1
        else:
            free[size * width + rank] += 1
        for j in range(open_bits - 1, -1, -1):
            mark = len(log)
            grew, moved = _fold_column(table, cols[j], log)
            visit(mask | 1 << j, j, size + 1, rank + grew, nonunit + moved)
            while len(log) > mark:
                pos, old = log.pop()
                table[pos] = old

    visit(0, n, 0, 0, 0)
    for at, c in enumerate(free):
        if c:
            histogram[divmod(at, width) + ((),)] += c
    return ranks, histogram


class SubsetProfile:
    """Per-subset rank of the restricted top boundary map, stored per
    block component, and the global histogram that counts subsets by
    (size, rank, torsion multiset): what every expansion consumes.
    """

    def __init__(self, components, comp_ranks, comp_histograms):
        self.components = components
        self.comp_ranks = comp_ranks
        self.rank_full = sum(int(r[-1]) for r in comp_ranks) if components else 0
        self.histogram = self._assemble_histogram(comp_histograms)

    @staticmethod
    def _assemble_histogram(comp_histograms):
        """Convolve the per-component histograms into the global one."""
        hist = Counter({(0, 0, ()): 1})
        for local in comp_histograms:
            merged = Counter()
            for (s1, r1, t1), c1 in hist.items():
                for (s2, r2, t2), c2 in local.items():
                    t = tuple(sorted(t1 + t2)) if (t1 or t2) else ()
                    merged[(s1 + s2, r1 + r2, t)] += c1 * c2
            hist = merged
        return hist

    def _local_mask(self, comp, mask):
        local = 0
        for k, fi in enumerate(comp):
            if mask >> fi & 1:
                local |= 1 << k
        return local

    def rank(self, mask):
        if len(self.components) == 1:
            return self.comp_ranks[0][mask]
        total = 0
        for comp, ranks in zip(self.components, self.comp_ranks):
            total += ranks[self._local_mask(comp, mask)]
        return total

    def torsion_period(self):
        """lcm of every torsion invariant factor seen across all subsets."""
        period = 1
        for (_, _, tors) in self.histogram:
            for m in tors:
                period = period * m // gcd(period, m)
        return period


def _component_columns(top, comp):
    """Dense columns of one block component over the rows it touches."""
    touched = [i for i, row in enumerate(top.data) if any(row[j] for j in comp)]
    return [[top.data[i][j] for i in touched] for j in comp]


def subset_profile(delta, force=False, jobs=None):
    """Compute (cached) the SubsetProfile of a complex.

    Refuses complexes with more facets than the subset cap unless forced.
    `jobs` is ignored; it stays because perfbench/run.py still passes it.
    """
    profile = delta._cache.get("subset_profile")
    if profile is not None:
        return profile
    check_subset_cap(len(delta.facets), force=force)

    top = boundary_matrix(delta, delta.dimension).matrix
    components = facet_components(delta)
    sweeps = [_component_sweep(_component_columns(top, comp)) for comp in components]
    profile = SubsetProfile(
        components,
        [ranks for ranks, _ in sweeps],
        [histogram for _, histogram in sweeps],
    )
    delta._cache["subset_profile"] = profile
    return profile
