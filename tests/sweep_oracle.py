"""Reference subset sweep: one Smith normal form per facet subset.

This is the sweep simflow used before the incremental lattice sweep in
`homology._component_sweep`. It rebuilds the restricted matrix and runs
`snf_diagonal` from scratch for every mask, so it shares nothing with the
incremental basis, its unit reduction, the saturation test, the subtree
pruning or the memo of subtrees by (open columns, basis); the tests
compare the histograms the two build. `watch_sides` records which side
of each block component the sweep took.
"""

from collections import Counter
from contextlib import contextmanager
from unittest import mock

from simflow import homology
from simflow.homology import facet_blocks
from simflow.linalg import snf_diagonal


def per_mask_sweep(cols):
    """(ranks, torsions) of every column subset, given dense columns."""
    nrows = len(cols[0]) if cols else 0
    ranks = bytearray(1 << len(cols))
    torsions = {}
    for mask in range(len(ranks)):
        sel = [col for k, col in enumerate(cols) if mask >> k & 1]
        rows = [[col[i] for col in sel] for i in range(nrows)]
        diag = snf_diagonal(rows)
        ranks[mask] = len(diag)
        if diag and diag[-1] > 1:
            torsions[mask] = tuple(m for m in diag if m > 1)
    return ranks, torsions


def _join(t1, t2):
    """Invariant factors of the direct sum: the Smith diagonal of the
    diagonal matrix of both factor lists."""
    factors = t1 + t2
    rows = [[m if i == j else 0 for j in range(len(factors))] for i, m in enumerate(factors)]
    return tuple(m for m in snf_diagonal(rows) if m > 1)


def oracle_profile(delta):
    """The global histogram, built by visiting every mask of every block
    of the facets' block record."""
    sweeps = [per_mask_sweep(block.columns) for block in facet_blocks(delta)]
    hist = Counter({(0, 0, ()): 1})
    for ranks, tors in sweeps:
        local = Counter(
            (mask.bit_count(), ranks[mask], tors.get(mask, ()))
            for mask in range(len(ranks))
        )
        merged = Counter()
        for (s1, r1, t1), c1 in hist.items():
            for (s2, r2, t2), c2 in local.items():
                merged[(s1 + s2, r1 + r2, _join(t1, t2))] += c1 * c2
        hist = merged
    return hist


@contextmanager
def watch_sides():
    """Record, for each `_lower_rank_sweep` call, whether it swept the
    columns it was given ("primal") or other vectors ("dual")."""
    sides = []
    given = []
    lower, sweep = homology._lower_rank_sweep, homology._component_sweep

    def watched_lower(cols, *shared):
        given.append(cols)
        return lower(cols, *shared)

    def watched_sweep(vectors, rank):
        sides.append("primal" if vectors is given[-1] else "dual")
        return sweep(vectors, rank)

    with mock.patch.object(homology, "_lower_rank_sweep", watched_lower), mock.patch.object(
        homology, "_component_sweep", watched_sweep
    ):
        yield sides
