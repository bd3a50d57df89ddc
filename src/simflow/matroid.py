"""The simplicial matroid (column matroid of the top boundary map) and
the covering machinery behind the flow-construction pipeline: bridges,
facet cuts, forests, fundamental circuits, the coarboricity (folded off
the subset histogram), and exact coforest covers.

Every rank question about one facet set folds vectors into an echelon
basis (`linalg.fold_vector`, `linalg.span_rank`). The rank of X folds
its columns of `complexes.top_columns`. The corank folds X's rows of
an integer kernel basis K of the boundary map, read off the one Smith
form of that map per complex (`homology.top_smith_form`): K represents
the dual matroid, so X is coindependent exactly when its rows of K are
independent, and a bridge is a zero row. `RankOracle` takes one Smith
diagonal per query; only `verify` calls it (criterion 10), as the
oracle that it and the tests hold the folds to.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .caps import DEFAULT_ENUM_CAP, check_enum_cap
from .complexes import restrict_columns, top_columns
from .errors import (
    CapExceededError,
    FacetInBaseError,
    IndexOutOfRangeError,
    InfeasibleError,
    InternalError,
    NotABaseError,
)
from .homology import codim1_cycle_rank, subset_profile, top_smith_form
from .linalg import fold_vector, kernel_basis, snf_diagonal, span_rank


class RankOracle:
    """Matroid rank by facet bitmask.

    rank(X) is the rational rank of the boundary columns of X, i.e.
    |X| - beta_d(X), from one Smith diagonal of the restricted columns
    per query. The full rank is taken once.
    """

    def __init__(self, delta):
        self.delta = delta
        self.full_rank = self.rank(delta.full_mask)

    def rank(self, mask):
        return len(snf_diagonal(restrict_columns(self.delta, mask).matrix.data))


def _dual_rows(delta):
    """Row f holds facet f's entries in an integer kernel basis K of the
    top boundary map (cached): row f of the transform V of
    `homology.top_smith_form`, past the rank. Every row has the nullity
    as its length."""
    rows = delta._cache.get("dual_rows")
    if rows is None:
        snf = top_smith_form(delta)
        rows = delta._cache["dual_rows"] = [row[snf.rank :] for row in snf.V.data]
    return rows


def matroid_rank(delta, mask):
    """Rank of the boundary columns of `mask`."""
    cols = top_columns(delta)
    return span_rank([cols[f] for f in delta.facets_of_mask(mask)])


def matroid_corank(delta, mask):
    """Dual rank |X| + r(F \\ X) - r(F), equivalently
    |X| + beta_{d-1}(full) - beta_{d-1}(complement): the rank of X's rows
    of K."""
    rows = _dual_rows(delta)
    return span_rank([rows[f] for f in delta.facets_of_mask(mask)])


def is_bridge(delta, facet_index):
    """A facet whose removal raises the codimension-1 Betti number."""
    n = len(delta.facets)
    if not 0 <= facet_index < n:
        raise IndexOutOfRangeError(f"facet index {facet_index} out of range")
    return not any(_dual_rows(delta)[facet_index])


def bridges(delta):
    return [f for f, row in enumerate(_dual_rows(delta)) if not any(row)]


@dataclass
class FacetConnectivity:
    """Least cut size found; `exact` is False when the search bound was
    exhausted (value is then k_max + 1, a lower bound)."""

    value: int
    witness: int
    exact: bool


def facet_connectivity(delta, k_max=None):
    """Smallest k admitting a k-facet-cut, with its first witness.

    Witnesses are searched in size order, ties broken by ascending bitmask
    value. Cuts are sets whose removal raises beta_{d-1}, i.e. whose
    complement has deficient rank: the sets whose rows of K are dependent.
    The histogram names the least cut size. Past the subset cap every
    size from 1 up is tried, and that search refuses more masks than the
    enumeration cap before it folds any.
    """
    n = len(delta.facets)
    if k_max is None:
        k_max = n

    bound = min(k_max, n)
    try:
        profile = subset_profile(delta)
        deficient_sizes = [
            size
            for (size, rank, _) in profile.histogram
            if rank < profile.rank_full
        ]
        least = n - max(deficient_sizes) if deficient_sizes else None
        if least is None or least > k_max:
            return FacetConnectivity(value=k_max + 1, witness=0, exact=False)
        sizes = [least]
    except CapExceededError:
        # without the histogram, every mask up to the bound is a candidate
        check_enum_cap(
            sum(comb(n, k) for k in range(1, bound + 1)), what="candidate cuts"
        )
        sizes = range(1, bound + 1)

    rows = _dual_rows(delta)
    for k in sizes:
        masks = sorted(
            sum(1 << i for i in combo) for combo in combinations(range(n), k)
        )
        for mask in masks:
            if span_rank([rows[f] for f in delta.facets_of_mask(mask)]) < k:
                return FacetConnectivity(value=k, witness=mask, exact=True)
    return FacetConnectivity(value=k_max + 1, witness=0, exact=False)


@dataclass
class ForestFlags:
    forest: bool
    maximal: bool
    tree: bool
    spanning_tree: bool


def classify_forest(delta, mask):
    """Forest/maximal/tree/spanning flags from rank data.

    forest: beta_d(X) = 0; maximal: beta_{d-1}(X) = beta_{d-1}(full);
    tree: beta_{d-1}(X) = 0; spanning tree: tree with beta_{d-1}(full) = 0.
    """
    r = matroid_rank(delta, mask)
    size = mask.bit_count()
    z = codim1_cycle_rank(delta)
    full_rank = len(delta.facets) - len(_dual_rows(delta)[0])
    forest = r == size
    maximal = r == full_rank
    tree = r == z
    return ForestFlags(
        forest=forest,
        maximal=maximal,
        tree=tree,
        spanning_tree=tree and z == full_rank,
    )


def circuit_kernel_vector(delta, mask):
    """Primitive integer kernel vector of the boundary columns of `mask`;
    requires nullity exactly 1. Returned dense over the selected facets."""
    bm = restrict_columns(delta, mask)
    basis = kernel_basis(bm.matrix)
    if len(basis) != 1:
        raise InternalError(f"expected nullity 1, got {len(basis)}")
    return basis[0]


def fundamental_circuit(delta, base_mask, facet_index):
    """Support of the unique rational dependency in base + one facet."""
    n = len(delta.facets)
    if not 0 <= facet_index < n:
        raise IndexOutOfRangeError(f"facet index {facet_index} out of range")
    if base_mask >> facet_index & 1:
        raise FacetInBaseError(f"facet {facet_index} already in the base")
    flags = classify_forest(delta, base_mask)
    if not (flags.forest and flags.maximal):
        raise NotABaseError("base must be a maximal forest")
    ext = base_mask | 1 << facet_index
    vec = circuit_kernel_vector(delta, ext)
    selected = delta.facets_of_mask(ext)
    circuit = 0
    for coeff, fi in zip(vec, selected):
        if coeff:
            circuit |= 1 << fi
    return circuit


def coarboricity(delta, force=False):
    """Least c with c * r*(X) >= |X| for every subset X, r* the corank:
    the least number of coforests that cover the facets (Edmonds).

    Folds the subset histogram: a key (s, r, .) with s < n stands for the
    complements X of size n - s, of corank n - s + r - r(F). Raises
    Infeasible when some nonempty X has corank zero (a bridge).
    """
    profile = subset_profile(delta, force=force)
    n = len(delta.facets)
    c = 1
    for size, rank, _ in profile.histogram:
        if size == n:
            continue
        part = n - size
        corank = part + rank - profile.rank_full
        if corank <= 0:
            raise InfeasibleError(
                "ground set contains a loop; no independent-set cover exists"
            )
        c = max(c, -(-part // corank))
    return c


@dataclass
class CoforestCover:
    """Facet subsets, each coindependent, jointly covering all facets."""

    parts: list


def coforest_cover(delta, c, force=False):
    """Exact backtracking cover of the facets by c coforests.

    A part B stays coindependent iff its rows of the kernel basis K stay
    independent; each part keeps an echelon basis of its rows, folding a
    facet's row in and undoing the fold on backtrack. Facets are assigned
    in index order; parts are tried least-filled first (ties by part
    index) with the dual-Edmonds bound and a part-capacity bound as
    pruning. Raises Infeasible when no c-part cover exists. The search is
    exponential in the facets, so it refuses to visit more than
    DEFAULT_ENUM_CAP search nodes.
    """
    n = len(delta.facets)
    rows = _dual_rows(delta)
    max_part = len(rows[0])  # coindependent sets never exceed the corank
    if c >= 1:
        try:
            bound = coarboricity(delta, force=force)
        except InfeasibleError:
            raise InfeasibleError(
                "a bridge lies in no coforest; no cover of any size exists"
            )
        if c < bound:
            raise InfeasibleError(
                f"dual Edmonds bound {bound} exceeds requested parts {c}"
            )
    parts = [0] * c
    tables = [[None] * max_part for _ in range(c)]
    logs = [[] for _ in range(c)]
    nodes = 0

    def assign(facet):
        nonlocal nodes
        nodes += 1
        if nodes > DEFAULT_ENUM_CAP:
            raise CapExceededError(
                f"cover by {c} coforests visits more than {DEFAULT_ENUM_CAP} search nodes"
            )
        if facet == n:
            return True
        remaining = n - facet
        capacity = sum(max_part - p.bit_count() for p in parts)
        if remaining > capacity:
            return False
        order = sorted(range(c), key=lambda i: (parts[i].bit_count(), i))
        tried = set()
        for i in order:
            key = parts[i]
            if key in tried:  # identical parts are interchangeable
                continue
            tried.add(key)
            if key.bit_count() >= max_part:
                continue
            table, log = tables[i], logs[i]
            mark = len(log)
            if fold_vector(table, rows[facet], log)[0]:
                parts[i] = key | 1 << facet
                if assign(facet + 1):
                    return True
                parts[i] = key
            while len(log) > mark:
                pos, old = log.pop()
                table[pos] = old
        return False

    if not assign(0):
        raise InfeasibleError(f"no cover with {c} coforests exists")
    return CoforestCover(parts=list(parts))
