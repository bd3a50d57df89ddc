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
in closed form once its lattice is saturated and of full rank. Each
node returns its subtree's counts relative to itself, and a parent adds
its children's. What lies below a node depends only on the columns still
open and the lattice its basis spans, so where a component's columns are
dependent the sweep keeps its basis reduced and memoises what each node
returns under (open columns, basis): subsets that span one lattice share
one subtree. Where they are independent, every subset spans a lattice of
its own, but part of a basis of a saturated lattice spans a saturated
lattice, so a node closes, with binomials by size, each child whose
columns plus all the columns it can still select span a saturated
lattice (`_saturated_prefix`). A component of n columns and rank r whose
column lattice is saturated and whose nullity n - r is below r is swept
on its dual side instead: the rows of an integer kernel basis, which
reach full rank after n - r of them, with each key mapped to that of the
complement (`_lower_rank_sweep`). Each component keeps its histogram
keyed by (subset size, rank, torsion invariant factors); the matroid is
their direct sum, so every fold is a product, a max or a min over them.
The basis is grown with `linalg.fold_vector`, the one integer echelon
routine, which `_reduced_fold` wraps where the memo keys on the basis.
The memo lives for one component's sweep, under the cap
`caps.SWEEP_MEMO_CAP`; nothing else per subset is kept.

The block record of a complex, built on first read, holds per block
component its column indices, its columns dense over the rows it
touches, and their Smith form with transform (`ColumnBlock`). The top
map is block-diagonal, so its rank, torsion and mod-q kernels are read
off the blocks' forms, and no Smith form of the whole map is taken.
`_admit_sweep` is the one admission rule: past the subset cap it
refuses, else it says whether a sweep visits the facets' record
(`facet_blocks`) or, for `flow_profile` when some column reduces, that
of the series-reduced columns (`series_reduce`). `sweep_size` reads
only their cached split into blocks. A ridge in exactly two facets,
both with coefficient +-1, ties their flow values together, so the
pair carries one degree of freedom. The reduction keeps every mod-q
kernel size and every nowhere-zero count, but not the matroid, so
colorings and the Tutte polynomials stay on `subset_profile`. Flow
counts fold whichever profile is cached, since both give every mod-q
kernel size; the reduced columns are swept only when neither is.
"""

from collections import Counter, namedtuple
from dataclasses import dataclass
from itertools import product
from math import comb, gcd, lcm, prod
from operator import add

from .caps import SWEEP_MEMO_CAP, check_matrix_cap, check_subset_cap
from .complexes import boundary_matrix, column_components, facet_components, top_columns
from .errors import CapExceededError
from .linalg import IntMatrix, fold_vector, smith_normal_form, snf_diagonal


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


def homology_summary(delta):
    """Reduced Betti numbers and torsion of the complex."""
    d = delta.dimension
    snfs = _skeleton_snfs(delta, range(d))
    blocks = facet_blocks(delta)
    top_rank = sum(block.form.rank for block in blocks)
    betti, torsion = {d: len(delta.facets) - top_rank}, {}
    if d >= 1:
        betti[d - 1] = codim1_cycle_rank(delta) - top_rank
        torsion[d - 1] = list(_smith_chain([m for b in blocks for m in b.form.diagonal if m > 1]))
    for n in range(d - 1):
        nullity_n = len(delta.faces(n)) - len(snfs[n])
        betti[n] = nullity_n - len(snfs[n + 1])
        torsion[n] = [m for m in snfs[n + 1] if m > 1]
    return HomologySummary(betti=betti, torsion=torsion)


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


def _component_sweep(cols, full_rank):
    """Histogram of one block component's column subsets, keyed by
    (size, rank, torsion).

    `cols` holds each column as a dense sequence of ints; `full_rank` is
    their rank. A depth-first search decides facets from the highest index
    down and keeps an echelon basis of the selected columns, adding one
    column per step and undoing it on the way back. A basis whose pivots
    are all +-1 spans a saturated lattice (no torsion); any other basis
    gets a Smith diagonal of its own few rows. Once the lattice is
    saturated and of full rank, no further column changes it, so the whole
    subtree is counted with binomials.

    Each node returns its subtree's counts relative to itself, as a pair
    (free, torsion). `free` is one integer of the torsion-free counts:
    its digit k (n + 1) + m in base 2^(n+1) counts the subsets k above
    the node's rank and m above its size. A child's counts move to its
    parent by a shift of one size digit, plus n + 1 digits when the
    child's column grew the rank. `torsion` is None or {(rank, torsion):
    counts by size}, the size digits again relative to the node.

    The subtree below a node depends only on its open columns and the
    lattice its basis spans. When the columns are dependent (more of them
    than the rank), two subsets can span one lattice, so the basis is
    kept unit-reduced (`_reduced_fold`) and what each node returns is
    memoised under (open columns, basis), up to SWEEP_MEMO_CAP entries;
    past that the memo is still read but no longer grows. It lives for
    this one call.

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
    table = [None] * nrows
    log = []
    width = n + 1  # bits per digit: no count reaches 2^(n+1)
    # a child's shift by whether its column grew the rank: one size digit,
    # or that and one rank's n + 1 digits
    shifts = (width, (width + 1) * width)
    closed = [(1 + (1 << width)) ** o for o in range(n + 1)]  # binomials by size
    memo = {} if n > full_rank else None
    # each node's children, highest column first, with the fold that adds
    # that column: a leaf's basis is no memo key, so it need not be reduced
    folds = [fold_vector] + [fold_vector if memo is None else _reduced_fold] * n
    children = [[(j, folds[j], cols[j]) for j in range(o - 1, -1, -1)] for o in range(n + 1)]

    def visit(open_bits, rank, nonunit):
        key = None
        # a leaf is cheaper to count than to look up, and a closed subtree
        # needs no key
        if memo is not None and open_bits:
            if rank == full_rank and not nonunit:
                return closed[open_bits], None
            key = open_bits, tuple(table)
            hit = memo.get(key)
            if hit is not None:
                return hit
        tors = ()
        if nonunit:
            diag = snf_diagonal([r for r in table if r is not None])
            if diag[-1] > 1:
                tors = tuple(m for m in diag if m > 1)
        if rank == full_rank and not tors:
            return closed[open_bits], None
        if tors:
            free, torsion = 0, {(rank, tors): 1}
        else:
            free, torsion = 1, None
        kids = children[open_bits]
        if memo is None and not tors and open_bits > 1:
            shut = _saturated_prefix(table, cols, open_bits, nonunit)
            if shut:
                # the children that add columns 0, ..., shut - 1 select this
                # node's columns plus a nonempty subset of those, each
                # saturated and of rank equal to its size
                for m in range(1, shut + 1):
                    free += comb(shut, m) << m * shifts[1]
                kids = kids[: open_bits - shut]
        for j, fold, col in kids:
            mark = len(log)
            grew, moved = fold(table, col, log)
            sub_free, sub_torsion = visit(j, rank + grew, nonunit + moved)
            while len(log) > mark:
                pos, old = log.pop()
                table[pos] = old
            free += sub_free << shifts[grew]
            if sub_torsion is not None:
                if torsion is None:
                    torsion = {}
                for k, c in sub_torsion.items():
                    torsion[k] = torsion.get(k, 0) + (c << width)
        if key is not None and len(memo) < SWEEP_MEMO_CAP:
            memo[key] = free, torsion
        return free, torsion

    free, torsion = visit(n, 0, 0)
    # `visit` refers to itself: without this the memo would wait for the
    # cyclic garbage collector
    del visit
    histogram = Counter()
    digit = (1 << width) - 1
    one_rank = (1 << width * width) - 1  # the digits of one rank
    keyed = [((r, ()), (free >> r * width * width) & one_rank) for r in range(full_rank + 1)]
    keyed += (torsion or {}).items()
    for (rank, tors), packed in keyed:
        # no subset has fewer columns than its rank
        size, packed = rank, packed >> rank * width
        while packed:
            if packed & digit:
                histogram[size, rank, tors] = packed & digit
            size, packed = size + 1, packed >> width
    return histogram


def _lower_rank_sweep(cols, snf):
    """`_component_sweep` of `cols`, swept on whichever side has the
    lower rank.

    `snf`, the Smith form of the n columns, gives their rank r and a
    kernel basis K (the columns of V past the rank), an n x (n - r) matrix
    whose rows represent the dual matroid. When n - r < r and every
    invariant factor is 1 (the column lattice is saturated), the n rows
    of K are swept instead, and each dual key (s, r*, t) of a row set Y
    is the primal key (n - s, r* - s + r, t) of its complement X:
    rank(X) = r - |Y| + rank(K_Y) by matroid duality, and since
    Z^m / A Z^n is free, the torsion of Z^m / A Z^X is that of
    A Z^n / A Z^X = Z^Y / K_Y Z^(n-r), read off the Smith diagonal of
    K_Y. The dual sweep closes a subtree at rank n - r instead of r.
    """
    n = len(cols)
    r = snf.rank
    if n - r >= r or any(m != 1 for m in snf.diagonal):
        return _component_sweep(cols, r)
    dual = _component_sweep([row[r:] for row in snf.V.data], n - r)
    return Counter({(n - s, rank - s + r, tors): c for (s, rank, tors), c in dual.items()})


# A block component's histogram keyed by (subset size, rank, torsion
# invariant factors), with its column count and rank.
Block = namedtuple("Block", "histogram column_count rank")


def _smith_chain(factors):
    """The invariant factors of a sum of cyclic groups of the orders
    `factors`, each above 1: already these when each divides the next."""
    if all(b % a == 0 for a, b in zip(factors, factors[1:])):
        return tuple(factors)
    diag = [[m * (i == j) for j in range(len(factors))] for i, m in enumerate(factors)]
    return tuple(m for m in snf_diagonal(diag) if m > 1)


def _join_keys(key1, key2):
    """The key of a union of subsets of two blocks."""
    (s1, r1, t1), (s2, r2, t2) = key1, key2
    return s1 + s2, r1 + r2, _smith_chain(t1 + t2)


class SubsetProfile:
    """What every expansion consumes: one `Block` per block of a block
    record, each swept on its own, on its lower-rank side: its columns,
    or, when its column lattice is saturated and its nullity is below its
    rank, the rows of an integer kernel basis (`_lower_rank_sweep`).
    Folds are products (`expand`), maxima and minima over blocks.
    `rank_full` is the rank of all `column_count` columns together.
    """

    def __init__(self, record):
        self.components = [comp for comp, _, _ in record]
        self.blocks = [Block(_lower_rank_sweep(c, f), len(c), f.rank) for _, c, f in record]
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


# A record's block: its column indices, columns dense over its rows, Smith form.
ColumnBlock = namedtuple("ColumnBlock", "indices columns form")


def _block_split(delta, reduced):
    """The facets' or the series-reduced (`reduced`) columns and their blocks, cached."""
    split = delta._cache.get(("split", reduced))
    if split is None:
        cols = delta._cache["reduced_columns"] if reduced else top_columns(delta)
        comps = column_components(cols) if reduced else facet_components(delta)
        split = delta._cache["split", reduced] = cols, comps
    return split


def facet_blocks(delta, reduced=False):
    """The block record of the facets, or of the series-reduced columns
    (`reduced`), cached. A lone block keeps its zero rows: they change nothing."""
    record = delta._cache.get(("blocks", reduced))
    if record is None:
        columns, comps = _block_split(delta, reduced)
        record = []
        for comp in comps:
            cols = columns
            if len(comps) > 1:
                touched = sorted({i for j in comp for i, v in enumerate(columns[j]) if v})
                # lists: freed small tuples wait on free lists, raising peak RSS
                cols = [[columns[j][i] for i in touched] for j in comp]
            form = smith_normal_form(IntMatrix(list(zip(*cols)), cols=len(cols)))
            record.append(ColumnBlock(comp, cols, form))
        delta._cache["blocks", reduced] = record
    return record


def _admit_sweep(delta, flows=False, force=False):
    """Whether a fresh sweep for `flow_profile` (`flows`) or for
    `subset_profile` visits the series-reduced columns (flows, and some
    column reduces) or the facets. Refuses past the subset cap unless forced."""
    if flows:
        cols = delta._cache.get("reduced_columns")
        if cols is None:
            cols = delta._cache["reduced_columns"] = series_reduce(top_columns(delta))
        if len(cols) < len(delta.facets):
            check_subset_cap(len(cols), force=force, what="series-reduced columns")
            return True
    check_subset_cap(len(delta.facets), force=force)
    return False


def subset_profile(delta, force=False, jobs=None):
    """Compute (cached) the SubsetProfile of a complex's facets.

    Refuses complexes with more facets than the subset cap unless forced.
    `jobs` is ignored; it stays because perfbench/run.py still passes it.
    """
    profile = delta._cache.get("subset_profile")
    if profile is None:
        _admit_sweep(delta, force=force)
        profile = delta._cache["subset_profile"] = SubsetProfile(facet_blocks(delta))
    return profile


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
    `subset_profile` would visit at most: the sum of 2^|block| over the
    cached split (`_block_split`) of what `_admit_sweep` names. 0 when a
    profile it can fold is cached (for flows, either one), None when the
    subset cap refuses. An upper bound: the dual side, the memo and the
    closed saturated subtrees may visit far fewer subsets."""
    if "subset_profile" in delta._cache or flows and "flow_profile" in delta._cache:
        return 0
    try:
        reduced = _admit_sweep(delta, flows=flows, force=force)
    except CapExceededError:
        return None
    return sum(1 << len(comp) for comp in _block_split(delta, reduced)[1])


def flow_profile(delta, force=False):
    """The SubsetProfile that flow counts fold: any cached profile of the
    top boundary columns, else a fresh sweep of the series-reduced
    columns' block record, or the subset profile when nothing reduces."""
    profile = delta._cache.get("flow_profile") or delta._cache.get("subset_profile")
    if profile is None:
        if not _admit_sweep(delta, flows=True, force=force):
            return subset_profile(delta, force=force)
        profile = delta._cache["flow_profile"] = SubsetProfile(facet_blocks(delta, reduced=True))
    return profile
