"""The simplicial matroid (column matroid of the top boundary map) and
the covering machinery behind the flow-construction pipeline: bridges,
facet cuts, fundamental circuits, and the coarboricity with a least
coforest cover, both from one matroid partition in the dual matroid
(`coforest_cover`).

Every question about one facet set folds vectors into an echelon basis
(`linalg.fold_vector`). A fundamental circuit is the one relation among
its columns of `complexes.top_columns`, found by folding them with unit
tags appended (`linalg.kernel_basis`). Cuts and covers fold rows of an
integer kernel basis K of the boundary map, read off the one Smith form
of that map per complex (`homology.top_smith_form`): K represents the
dual matroid, so X is coindependent exactly when its rows of K are
independent, and a bridge is a zero row. `RankOracle` takes one Smith
diagonal per query. Nothing here calls it: `verify` (criterion 10) and
the tests hold the folds to it, and perfbench/spans.py traces it.
"""

from dataclasses import dataclass
from math import comb

from .caps import check_enum_cap
from .complexes import restrict_columns, top_columns
from .errors import (
    CapExceededError,
    FacetInBaseError,
    IndexOutOfRangeError,
    InfeasibleError,
    NotABaseError,
)
from .homology import subset_profile, top_smith_form
from .linalg import kernel_basis, snf_diagonal, span_rank


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
    The least cut size is the least over the swept blocks of the facets,
    as a least cut lies in one block. Past the subset cap every
    size from 1 up is tried, and that search refuses more masks than the
    enumeration cap before it folds any.
    """
    n = len(delta.facets)
    if k_max is None:
        k_max = n

    bound = min(k_max, n)
    try:
        blocks = subset_profile(delta).blocks
        cuts = [b.column_count - s for b in blocks for s, r, _ in b.histogram if r < b.rank]
        least = min(cuts, default=None)
        if least is None or least > k_max:
            return FacetConnectivity(value=k_max + 1, witness=0, exact=False)
        sizes = [least]
    except CapExceededError:
        # without a profile, every mask up to the bound is a candidate
        check_enum_cap(
            sum(comb(n, k) for k in range(1, bound + 1)), what="candidate cuts"
        )
        sizes = range(1, bound + 1)

    rows = _dual_rows(delta)
    for k in sizes:
        mask = (1 << k) - 1
        while not mask >> n:
            if span_rank([rows[f] for f in delta.facets_of_mask(mask)]) < k:
                return FacetConnectivity(value=k, witness=mask, exact=True)
            # the next larger mask with k bits: carry the lowest run of ones
            low = mask & -mask
            up = mask + low
            mask = up | ((up ^ mask) >> 2) // low
    return FacetConnectivity(value=k_max + 1, witness=0, exact=False)


def fundamental_circuit(delta, base_mask, facet_index):
    """Support of the unique rational dependency in base + one facet. The
    base is a maximal forest exactly when it has rank-many facets and one
    relation with the facet, which takes the facet (else the base has one)."""
    n = len(delta.facets)
    if not 0 <= facet_index < n:
        raise IndexOutOfRangeError(f"facet index {facet_index} out of range")
    if base_mask >> facet_index & 1:
        raise FacetInBaseError(f"facet {facet_index} already in the base")
    cols = top_columns(delta)
    selected = delta.facets_of_mask(base_mask | 1 << facet_index)
    basis = kernel_basis([cols[f] for f in selected])
    sized = base_mask.bit_count() == len(selected) - 1 == top_smith_form(delta).rank
    if not sized or len(basis) != 1 or not basis[0][selected.index(facet_index)]:
        raise NotABaseError("base must be a maximal forest")
    return sum(1 << f for t, f in zip(basis[0], selected) if t)


def coarboricity(delta):
    """Least number of coforests that cover the facets: the part count of
    a least cover (`coforest_cover`). Raises Infeasible on a bridge."""
    return len(coforest_cover(delta).parts)


@dataclass
class CoforestCover:
    """Facet subsets, each coindependent, jointly covering all facets."""

    parts: list


def coforest_cover(delta):
    """Least cover of the facets by coforests.

    Matroid partition in the dual matroid (Edmonds 1965; Knuth 1973),
    where a facet set is a coforest exactly when its rows of K are
    independent. It opens ceil(|F| / nullity) parts and inserts the
    facets in index order, each along a shortest augmenting path found
    breadth first: a facet that a part does not fit may replace any
    member of its circuit there (the one relation of the part's rows and
    its own, `linalg.kernel_basis`), and the path ends at a facet that
    fits a part directly. A facet that no path places opens a new part:
    the facets the search reached need more parts than are open, so the
    cover is least. A bridge, a zero row of K, lies in no coforest and
    raises Infeasible.
    """
    rows = _dual_rows(delta)
    if not all(map(any, rows)):
        raise InfeasibleError("a bridge lies in no coforest; no cover of any size exists")
    parts = [[] for _ in range(-(-len(rows) // len(rows[0])))]
    where = {}  # the part of each placed facet
    for x in range(len(rows)):
        parent, queue, sink = {x: None}, [x], None
        for y in queue:
            # least-filled parts first: they fit most often, at least cost
            for j, part in sorted(enumerate(parts), key=lambda jp: len(jp[1])):
                if where.get(y) == j:
                    continue
                relations = kernel_basis([rows[f] for f in part] + [rows[y]])
                if not relations:
                    sink = y, j
                    break
                for z, t in zip(part, relations[0]):
                    if t and z not in parent:
                        parent[z] = y
                        queue.append(z)
            if sink:
                break
        if not sink:
            sink = x, len(parts)
            parts.append([])
        y, j = sink
        while y is not None:
            # y moves to part j, and the facet before it on the path takes
            # its place in its old part
            old = where.get(y)
            if old is not None:
                parts[old].remove(y)
            parts[j].append(y)
            where[y] = j
            y, j = parent[y], old
    return CoforestCover(parts=[sum(1 << f for f in p) for p in parts])
