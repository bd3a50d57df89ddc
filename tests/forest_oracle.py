"""Forest flags from Betti numbers: the reference that
`matroid.fundamental_circuit` and the spanning-tree census are held to.

`fundamental_circuit` folds the columns of base + facet and reads the
base as a maximal forest when they carry exactly one relation, which
takes the facet. These flags instead compare Betti numbers: the rank of
the mask against its size, the full rank, and the rank of the cycles in
dimension d-1.
"""

from dataclasses import dataclass

from simflow.homology import codim1_cycle_rank, top_smith_form
from simflow.matroid import matroid_rank


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
