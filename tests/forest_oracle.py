"""Forest references: the ones that `matroid.fundamental_circuit`, the
spanning-tree census and the coforest cover are held to.

`fundamental_circuit` folds the columns of base + facet and reads the
base as a maximal forest when they carry exactly one relation, which
takes the facet. `classify_forest` instead compares Betti numbers: the
rank of the mask against its size, the full rank, and the rank of the
cycles in dimension d-1.

`matroid.coforest_cover` partitions the facets along augmenting paths.
`backtracking_cover` searches the assignments of facets to parts
instead; `simflow.verify.profile_coarboricity`, which verify criterion 7
reads too, folds the corank bound of Edmonds' theorem over the subset
profile.
"""

from dataclasses import dataclass

from simflow.homology import codim1_cycle_rank, top_smith_form
from simflow.matroid import matroid_corank, matroid_rank


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
    z = codim1_cycle_rank(delta)
    full_rank = top_smith_form(delta).rank
    return ForestFlags(
        forest=r == mask.bit_count(),
        maximal=r == full_rank,
        tree=r == z,
        spanning_tree=r == z == full_rank,
    )


def backtracking_cover(delta, c):
    """A cover of the facets by `c` coforests, as `c` bitmasks, or None
    when there is none, by exhaustive search.

    Facets are assigned in index order. Each goes to a part, tried
    least-filled first, that stays coindependent (`matroid_corank` equal
    to its size, from a fresh fold); parts with the same facets are tried
    once, as they are interchangeable. Exponential: keep inputs small.
    """
    n = len(delta.facets)
    parts = [0] * c

    def assign(facet):
        if facet == n:
            return True
        tried = set()
        for i in sorted(range(c), key=lambda i: (parts[i].bit_count(), i)):
            if parts[i] in tried:
                continue
            tried.add(parts[i])
            grown = parts[i] | 1 << facet
            if matroid_corank(delta, grown) == grown.bit_count():
                parts[i] = grown
                if assign(facet + 1):
                    return True
                parts[i] ^= 1 << facet
        return False

    return list(parts) if assign(0) else None
