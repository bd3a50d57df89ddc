"""The simplicial matroid (column matroid of the top boundary map) and
the covering machinery behind the flow-construction pipeline: bridges,
the least facet cut, fundamental circuits, and the coarboricity with a
least coforest cover, both from one matroid partition in the dual
matroid (`coforest_cover`).

Every question about one facet set folds vectors into an echelon basis
(`linalg.fold_vector`), each block's columns and rank read off the
facets' block record (`homology.facet_blocks`). A fundamental circuit is
the one relation among its columns in the facet's block, found by
folding them with unit tags appended (`linalg.kernel_basis`). Covers
fold rows of an integer kernel basis K of the boundary map, assembled
from the kernel bases in the blocks' Smith forms (`_dual_rows`): K
represents the dual matroid, so X is coindependent exactly when its rows
of K are independent, and a bridge is a zero row. The least cut is a
search over bases of each block's columns that sweeps no subsets
(`facet_connectivity`). `RankOracle` takes one Smith diagonal per query.
Nothing here calls it: `verify` (criteria 7 and 10) and the tests hold
the folds to it, and perfbench/spans.py traces it.
"""

from dataclasses import dataclass
from itertools import count

from .caps import check_cut_search_nodes
from .complexes import restrict_columns
from .errors import FacetInBaseError, IndexOutOfRangeError, InfeasibleError, NotABaseError
from .homology import (
    facet_blocks,
    subset_profile,  # not called here; perfbench/spans.py traces this name
)
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
    top boundary map (cached): its row of its block's V past the block's
    rank, at the block's offset, zero elsewhere; as long as the nullity."""
    rows = delta._cache.get("dual_rows")
    if rows is None:
        rows = delta._cache["dual_rows"] = [None] * len(delta.facets)
        width = 0
        for comp, _, form in facet_blocks(delta):
            for f, row in zip(comp, form.V.data):
                rows[f] = [0] * width + row[form.rank :]
            width += len(comp) - form.rank
        for row in rows:
            row += [0] * (width - len(row))
    return rows


def bridges(delta):
    return [f for f, row in enumerate(_dual_rows(delta)) if not any(row)]


@dataclass
class FacetConnectivity:
    """The least cut size, and the first cut of that size as a mask."""

    value: int
    witness: int


def facet_connectivity(delta):
    """Least k admitting a k-facet cut, with its first witness in
    ascending mask order.

    A cut is a facet set whose removal raises beta_{d-1}, i.e. whose
    complement has deficient rank. A least cut is a least cocircuit, and
    a cocircuit lies in one block component, so each block is searched
    on its own columns and rank for k = 2, 3, ... (`_has_cut`). A bridge
    (a zero row of K) is a cut of size 1, and any nullity + 1 facets of
    a block are a cut of it, so neither needs a search; a block that
    packs t disjoint bases has no cut below t, so it is not searched
    there. The witness is the least mask of the found size that is a cut
    (`_first_cut`). Both searches together visit at most
    `caps.CUT_SEARCH_NODE_CAP` nodes; past that they refuse with
    CapExceededError.
    """
    found = bridges(delta)
    if found:
        return FacetConnectivity(value=1, witness=1 << found[0])
    blocks = []
    for comp, cols, form in facet_blocks(delta):
        empty = [None] * len(cols[0])
        packed = len(cols) // form.rank
        while packed > 1 and not _fills(cols, range(len(cols)), empty, 0, form.rank, packed):
            packed -= 1
        blocks.append((comp, cols, form.rank, packed))
    nodes = [0]
    for k in count(2):
        hits = [
            (comp, cols, rank)
            for comp, cols, rank, packed in blocks
            if len(cols) - rank < k or packed <= k and _has_cut(cols, rank, k, nodes)
        ]
        if hits:
            masks = []
            for comp, cols, rank in hits:
                local = _first_cut(cols, rank, k, nodes)
                masks.append(sum(1 << f for i, f in enumerate(comp) if local >> i & 1))
            return FacetConnectivity(value=k, witness=min(masks))


def _tick(nodes):
    nodes[0] += 1
    check_cut_search_nodes(nodes[0])


def _undo(table, log, mark):
    """Undo the folds into `table` logged past `mark`."""
    while len(log) > mark:
        pos, old = log.pop()
        table[pos] = old


def _fills(cols, order, base, base_rank, rank, bins):
    """Whether `bins` disjoint sets of the columns `order` each extend the
    echelon table `base` (of rank `base_rank`) to rank `rank`, filled
    first fit, least filled bin first. A cut that avoids the columns of
    `base` meets each such set (Edmonds 1965), so it then has at least
    `bins` of the columns `order`."""
    tables, ranks = [base[:] for _ in range(bins)], [base_rank] * bins
    deficit, left = bins * (rank - base_rank), len(order)
    for j in order:
        if left < deficit:
            return False
        left -= 1
        for b in sorted(range(bins), key=ranks.__getitem__):
            if ranks[b] < rank and fold_vector(tables[b], cols[j], [])[0]:
                ranks[b] += 1
                deficit -= 1
                break
    return not deficit


def _has_cut(cols, rank, k, nodes):
    """Whether removing at most k of `cols` (one block, of rank `rank`)
    lowers its rank.

    A depth-first search over the cut so far, C, and the forbidden
    columns, F, that no cut below the node may take. A node takes a
    basis of the columns outside C, folded from F's echelon table first,
    so it holds a basis of F. When the columns outside C reach no full
    rank, C is a cut. Otherwise every cut that extends C and avoids F
    meets the basis outside F, so the node branches on each of those
    columns and forbids it for the later branches. It prunes when F
    alone spans, and when it packs more disjoint extensions of F to a
    basis than the columns it may still add: a cut meets each of them
    (Edmonds 1965). F's table grows by one fold per forbidden column and
    is undone through its log; the search keeps its frames on a stack,
    so its depth is not bounded by Python's.
    """
    n = len(cols)
    state = bytearray(n)  # 1 in the cut, 2 forbidden
    forbidden, log = [None] * len(cols[0]), []
    frank = 0

    def expand(budget):
        """The basis to branch on at this node, True when the cut so far
        is a cut, or None when the node is pruned."""
        _tick(nodes)
        if frank == rank:
            return None
        table, grown, basis = forbidden[:], frank, []
        for j in range(n):
            if not state[j] and fold_vector(table, cols[j], [])[0]:
                basis.append(j)
                grown += 1
                if grown == rank:
                    break
        if grown < rank:
            return True
        if not budget:
            return None
        taken = set(basis)
        rest = [j for j in range(n) if not state[j] and j not in taken]
        if _fills(cols, rest, forbidden, frank, rank, budget):
            return None
        return basis

    basis = expand(k)
    if basis is True:
        return True
    # each frame: a node's basis, the next branch, and F's log mark and
    # rank on entry
    stack = [[basis, 0, 0, 0]] if basis else []
    while stack:
        frame = stack[-1]
        basis, i, mark, entry_rank = frame
        if i:
            # the branch that took basis[i - 1] is done: forbid that column
            b = basis[i - 1]
            state[b] = 2
            fold_vector(forbidden, cols[b], log)
            frank += 1
        if i == len(basis):
            _undo(forbidden, log, mark)
            frank = entry_rank
            for b in basis:
                state[b] = 0
            stack.pop()
            continue
        frame[1] = i + 1
        state[basis[i]] = 1
        child = expand(k - len(stack))
        if child is True:
            return True
        if child:
            stack.append([child, 0, len(log), frank])
    return False


def _first_cut(cols, rank, k, nodes):
    """The least bitmask of k of `cols` (one block, of rank `rank`) whose
    removal lowers the rank, when k is the least size of such a set.

    Columns are decided from the highest index down, leaving each out of
    the cut before putting it in, so the first cut reached is the least
    mask. A branch is pruned when the columns left out already span. The
    columns left out are folded into one echelon table, undone through
    its log; the decisions are kept on a stack."""
    table, log = [None] * len(cols[0]), []
    path = []  # per decided column: (log mark, rank it added) if left out, else None
    chosen, out_rank, j = 0, 0, len(cols)  # columns below j are undecided
    while True:
        _tick(nodes)
        need = k - chosen.bit_count()
        if need == j:
            return chosen | (1 << j) - 1
        if need:
            mark = len(log)
            grew = fold_vector(table, cols[j - 1], log)[0]
            if out_rank + grew < rank:
                path.append((mark, grew))
                out_rank += grew
                j -= 1
                continue
            _undo(table, log, mark)
            path.append(None)
            chosen |= 1 << j - 1
            j -= 1
            continue
        # the cut is full: it is one when the rest, left out, do not span
        mark, grown = len(log), out_rank
        for col in cols[:j]:
            grown += fold_vector(table, col, log)[0]
            if grown == rank:
                break
        _undo(table, log, mark)
        if grown < rank:
            return chosen
        # backtrack to the last column left out, and put it in the cut
        while True:
            step = path.pop()
            j += 1
            if step is None:
                chosen &= ~(1 << j - 1)
                continue
            mark, grew = step
            _undo(table, log, mark)
            out_rank -= grew
            path.append(None)
            chosen |= 1 << j - 1
            j -= 1
            break


def fundamental_circuit(delta, base_mask, facet_index):
    """Support of the unique rational dependency in base + one facet. The
    base is a maximal forest exactly when each block holds rank-many of
    its facets, independent; in the facet's block that is one relation
    with the facet, which takes the facet (else the base has one)."""
    n = len(delta.facets)
    if not 0 <= facet_index < n:
        raise IndexOutOfRangeError(f"facet index {facet_index} out of range")
    if base_mask >> facet_index & 1:
        raise FacetInBaseError(f"facet {facet_index} already in the base")
    circuit = None
    for comp, cols, form in facet_blocks(delta):
        picked = [i for i, f in enumerate(comp) if base_mask >> f & 1]
        if facet_index in comp:
            picked.append(comp.index(facet_index))
            relations = kernel_basis([cols[i] for i in picked])
            if len(picked) - 1 != form.rank or len(relations) != 1 or not relations[0][-1]:
                break
            circuit = sum(1 << comp[i] for i, t in zip(picked, relations[0]) if t)
        elif not len(picked) == form.rank == span_rank([cols[i] for i in picked]):
            break
    else:
        if not base_mask >> n:  # bits past the facets name no facet set
            return circuit
    raise NotABaseError("base must be a maximal forest")


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
