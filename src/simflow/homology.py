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
in closed form once its lattice is saturated and of full rank. What lies
below a node depends only on the columns still open and the lattice its
basis spans, so where a component's columns are dependent the sweep keeps
its basis reduced and memoises each subtree's counts under (open columns,
basis): subsets that span one lattice share one subtree. Where they are
independent, every subset spans a lattice of its own, but part of a
basis of a saturated lattice spans a saturated lattice, so a node closes,
with binomials by size, each child whose columns plus all the columns it
can still select span a saturated lattice (`_saturated_prefix`). A
component of n columns and rank r whose column lattice is saturated
and whose nullity n - r is below r is swept on its dual side instead:
the rows of an integer kernel basis, which reach full rank after n - r
of them, with each key mapped to that of the complement
(`_lower_rank_sweep`). Each component keeps its histogram keyed by (subset size, rank, torsion
invariant factors); the matroid is their direct sum, so every fold
is a product, a max or a min over them. The basis is grown with
`linalg.fold_vector`, the one integer echelon routine, which
`_reduced_fold` wraps where the memo keys on the basis. The memo lives
for one component's sweep, under the cap `caps.SWEEP_MEMO_CAP`; nothing
else per subset is kept: a rank question that names one subset folds its
vectors into a fresh basis (`linalg.span_rank`). The Smith form of the
whole top map is taken once per complex (`top_smith_form`), and the sweep
of a complex that is one block component reads it to choose its side.

`_sweep_columns` is the one admission rule: it names the columns a
sweep visits and refuses more of them than the subset cap. They are the
facets (`complexes.top_columns`) for `subset_profile`, and for
`flow_profile` the series-reduced columns (`series_reduce`, run once
per complex) when some column reduces. `sweep_size`, which tells
`method="auto"` what a fresh sweep would cost, and `flows.circuits` ask
it too. A ridge in exactly two facets, both with coefficient +-1, ties
their flow values together, so the pair carries one degree of freedom.
The reduction keeps every mod-q kernel size and every nowhere-zero
count, but not the matroid, so colorings and the Tutte polynomials
stay on `subset_profile`. Flow counts fold whichever
profile is cached, since both give every mod-q kernel size; the
reduced columns are swept only when neither is.
"""

from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass
from itertools import product
from math import comb, gcd, lcm, prod
from operator import add

from .caps import SWEEP_MEMO_CAP, check_matrix_cap, check_subset_cap
from .complexes import boundary_matrix, column_components, facet_components, top_columns
from .errors import BadModulusError, CapExceededError
from .linalg import (
    IntMatrix,
    fold_vector,
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


def check_skeleton_caps(delta, dims):
    """Refuse, before any Smith form, when the boundary map of `delta` in
    one of `dims` is over the matrix cap."""
    for n in dims:
        rows = len(delta.faces(n - 1)) if n else 1
        check_matrix_cap(rows, len(delta.faces(n)), f"boundary map in dimension {n}")


def _skeleton_snfs(delta, dims):
    """Smith diagonals of the boundary maps in dimensions `dims`, each
    below the top (whose diagonal depends on the facet subset), cached
    one per dimension. Refuses before any Smith form when one of the
    maps still to be eliminated is over the matrix cap."""
    snfs = delta._cache.setdefault("skeleton_snfs", {})
    todo = [n for n in dims if n not in snfs]
    check_skeleton_caps(delta, todo)
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


def _reduced_fold(table, vec, log):
    """`fold_vector` on a unit-reduced `table`, keeping it unit-reduced:
    every +-1 pivot is +1 and its column is zero in the other rows.

    `vec` is first cleared in the columns of the +1 pivots (each is zero
    in the others' columns, so one pass reads every coefficient off
    `vec`), and what is left is folded. Each pivot the fold sets is then
    made positive, and a +1 pivot's column is cleared in the rows above
    it, last pivot first. Every step is a unimodular row operation logged
    for undo like the fold's own, so the table spans the same lattice, and
    two subsets that span one lattice mostly leave one table, which is
    what the sweep's memo keys on. Rows the fold sets are stored as
    tuples."""
    row = vec
    for q, c in enumerate(vec):
        if c:
            pivot = table[q]
            if pivot is not None and pivot[q] == 1:
                row = [x - c * y for x, y in zip(row, pivot)]
    mark = len(log)
    grew, moved = fold_vector(table, row, log)
    # the fold logs each position it sets once, in increasing order
    for p, _ in reversed(log[mark:]):
        row = table[p]
        log.append((p, row))
        table[p] = row = tuple(row) if row[p] > 0 else tuple([-x for x in row])
        if row[p] == 1:
            for k in range(p):
                other = table[k]
                if other is not None and other[p]:
                    c = other[p]
                    log.append((k, other))
                    table[k] = tuple([x - c * y for x, y in zip(other, row)])
    return grew, moved


def _subtree_counts(free, free_before, torsion, torsion_before, unit):
    """A subtree's counts relative to its root, out of the sweep's counts
    after and before it, `unit` being the root's size digit: the
    torsion-free ones by rank from the root's rank up (`free` and
    `free_before` start there), and (key, count) for each torsion key that
    grew. Kept out of `visit`, where a comprehension would make its
    arguments cells that every node allocates."""
    grown = [(k, c - torsion_before[k]) for k, c in torsion.items()]
    return (
        tuple([(c - b) // unit for c, b in zip(free, free_before)]),
        tuple([(k, c // unit) for k, c in grown if c]),
    )


def _saturated_prefix(table, cols, open_bits, nonunit):
    """How many children of a node of independent columns close at once:
    the largest s below `open_bits` such that the node's basis `table`
    (with `nonunit` pivots other than +-1) plus columns 0, ..., s - 1
    spans a saturated lattice.

    The columns are folded in increasing order into a copy of the table,
    so after column j it spans the node's basis plus every column its
    child that adds column j can still select. A lattice spanned by part
    of a basis of a saturated lattice is saturated, so the first prefix
    with torsion ends the pass. The highest open column is left out: the
    child that adds it can select everything its parent can, and the
    parent was not closed."""
    scratch = table[:]
    log = []
    for j in range(open_bits - 1):
        nonunit += fold_vector(scratch, cols[j], log)[1]
        if nonunit and snf_diagonal([r for r in scratch if r is not None])[-1] > 1:
            return j
    return open_bits - 1


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

    Counts are kept per (rank, torsion) as one integer whose digits in
    base 2^(n+1) are the counts by subset size, so a subtree's counts move
    to another root size by a shift. The subtree below a node depends
    only on its open columns and the lattice its basis spans. When the
    columns are dependent (more of them than the rank), two subsets can
    span one lattice, so the basis is kept unit-reduced (`_reduced_fold`)
    and each subtree's counts, relative to its root, are memoised under
    (open columns, basis), up to SWEEP_MEMO_CAP entries; past that the
    memo is still read but no longer grows. It lives for this one call.

    Independent columns span a new lattice with every subset, so they are
    swept without memo or reduction, and close subtrees below full rank
    instead. A node's child that adds column j can select its parent's
    columns, j and any of columns 0, ..., j - 1. When those span a
    saturated lattice, so does every subset of them, with rank equal to
    its size: the child and its subtree are counted with binomials by
    size and not visited. These children are the ones that add columns
    0, ..., s - 1 for the s that one pass of `_saturated_prefix` finds.
    """
    n = len(cols)
    nrows = len(cols[0]) if cols else 0
    full_rank = span_rank(cols)
    table = [None] * nrows
    log = []
    width = n + 1  # bits per size digit: no count reaches 2^(n+1)
    free = [0] * (full_rank + 1)  # torsion-free counts by rank
    torsion = defaultdict(int)  # and the others by (rank, torsion)
    closed = [(1 + (1 << width)) ** o for o in range(n + 1)]  # binomials by size
    memo = {} if n > full_rank else None
    # each node's children, highest column first, with the fold that adds
    # that column: a leaf's basis is no memo key, so it need not be reduced
    folds = [fold_vector] + [fold_vector if memo is None else _reduced_fold] * n
    children = [[(j, folds[j], cols[j]) for j in range(o - 1, -1, -1)] for o in range(n + 1)]

    def visit(open_bits, unit, rank, nonunit):
        # `unit` is 1 in the size digit of this node's subsets
        key = None
        # a leaf is cheaper to count than to look up, and a closed subtree
        # needs no key
        if memo is not None and open_bits:
            if rank == full_rank and not nonunit:
                free[rank] += closed[open_bits] * unit
                return
            here = open_bits, tuple(table)
            hit = memo.get(here)
            if hit is not None:
                hit_free, hit_torsion = hit
                for r, c in enumerate(hit_free, rank):
                    if c:
                        free[r] += c * unit
                for k, c in hit_torsion:
                    torsion[k] += c * unit
                return
            if len(memo) < SWEEP_MEMO_CAP:
                key, free_before, torsion_before = here, free[rank:], torsion.copy()
        tors = ()
        if nonunit:
            diag = snf_diagonal([r for r in table if r is not None])
            if diag[-1] > 1:
                tors = tuple(m for m in diag if m > 1)
        if rank == full_rank and not tors:
            free[rank] += closed[open_bits] * unit
            return
        if tors:
            torsion[rank, tors] += unit
        else:
            free[rank] += unit
        kids = children[open_bits]
        if memo is None and not tors and open_bits > 1:
            shut = _saturated_prefix(table, cols, open_bits, nonunit)
            if shut:
                # the children that add columns 0, ..., shut - 1 select this
                # node's columns plus a nonempty subset of those, each
                # saturated and of rank equal to its size
                shifted = unit
                for m in range(1, shut + 1):
                    shifted <<= width
                    free[rank + m] += comb(shut, m) * shifted
                kids = kids[: open_bits - shut]
        for j, fold, col in kids:
            mark = len(log)
            grew, moved = fold(table, col, log)
            visit(j, unit << width, rank + grew, nonunit + moved)
            while len(log) > mark:
                pos, old = log.pop()
                table[pos] = old
        if key is not None and len(memo) < SWEEP_MEMO_CAP:
            memo[key] = _subtree_counts(free[rank:], free_before, torsion, torsion_before, unit)

    visit(n, 1, 0, 0)
    # `visit` refers to itself: without this the memo would wait for the
    # cyclic garbage collector
    del visit
    histogram = Counter()
    digit = (1 << width) - 1
    keyed = [((r, ()), c) for r, c in enumerate(free)] + list(torsion.items())
    for (rank, tors), packed in keyed:
        # no subset has fewer columns than its rank
        size, packed = rank, packed >> rank * width
        while packed:
            if packed & digit:
                histogram[size, rank, tors] = packed & digit
            size, packed = size + 1, packed >> width
    return histogram


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


# A block component's histogram keyed by (subset size, rank, torsion
# invariant factors), with its column count and rank.
Block = namedtuple("Block", "histogram column_count rank")


def _join_keys(key1, key2):
    """The key of a union of subsets of two blocks: its torsion is the
    Smith diagonal of both factor lists set on one diagonal."""
    (s1, r1, t1), (s2, r2, t2) = key1, key2
    tors = t1 + t2
    if t1 and t2:
        diag = [[m * (i == j) for j in range(len(tors))] for i, m in enumerate(tors)]
        tors = tuple(m for m in snf_diagonal(diag) if m > 1)
    return s1 + s2, r1 + r2, tors


class SubsetProfile:
    """What every expansion consumes: one `Block` per block component in
    `components`, each swept on its own, on its lower-rank side: its
    columns, or, when its column lattice is saturated and its nullity is
    below its rank, the rows of an integer kernel basis
    (`_lower_rank_sweep`). Folds are products (`expand`), maxima and
    minima over blocks. `rank_full` is the rank of all `column_count`
    columns together. `snf` is the Smith form of the matrix whose columns
    are `columns`, passed only when that matrix is one component: its
    sweep then reuses it.
    """

    def __init__(self, columns, components, snf=None):
        self.components = components
        sweeps = [_lower_rank_sweep(_component_columns(columns, c), snf) for c in components]
        self.blocks = [Block(h, len(c), max(r for _, r, _ in h)) for h, c in zip(sweeps, components)]
        self.rank_full = sum(block.rank for block in self.blocks)
        self.column_count = sum(block.column_count for block in self.blocks)

    def expand(self, term, join=lambda e1, e2: tuple(map(add, e1, e2))):
        """{exponents: weight} summed over column subsets, where
        `term(block, size, rank, tors)` gives each block's keys exponents
        and a weight, and a subset's exponents add (or `join`) and its
        weights multiply over the blocks it meets."""
        total = None
        for block in self.blocks:
            local = Counter()
            for (size, rank, tors), count in block.histogram.items():
                exponents, weight = term(block, size, rank, tors)
                local[exponents] += count * weight
            if total is not None:
                merged = Counter()
                for (e1, w1), (e2, w2) in product(total.items(), local.items()):
                    merged[join(e1, e2)] += w1 * w2
                local = merged
            total = local
        return total

    @property
    def histogram(self):
        """The joint histogram of all columns, convolved from the blocks
        on every read. No fold reads it; the benchmark's traced run and
        `verify`'s comparison with per-subset Smith forms do."""
        return self.expand(lambda block, *key: (key, 1), _join_keys)

    def torsion_period(self):
        """lcm of every torsion invariant factor seen across all subsets."""
        return lcm(*(m for block in self.blocks for _, _, tors in block.histogram for m in tors))


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
    subtrees after n - r rows, one of dependent columns shares subtrees
    through its memo, and one of independent columns with torsion closes
    each subtree whose columns span a saturated lattice, so each may
    visit far fewer subsets and this is an upper bound. `auto` prices
    each subset it counts at one unit cost all the same."""
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

    Both profiles give every mod-q kernel size, so flow counts fold
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
