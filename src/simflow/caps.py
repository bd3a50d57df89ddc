"""Work caps for exponential-cost operations.

Subset expansions sweep all 2^n subsets of n columns: the facets, or for
flow counts the series-reduced columns. The cap refuses more than
SIMFLOW_SUBSET_CAP columns (default 24) unless the caller forces; a
value that is not a non-negative integer raises SettingError.
`homology._admit_sweep` is its one caller: every sweep, the sweep
size that `method="auto"` compares and the circuit scan are admitted
there. Kernel enumeration and the face list of a new complex refuse
more items than the enumeration cap. The least-cut search
(`matroid.facet_connectivity`) sweeps nothing: it refuses once it has
visited more than CUT_SEARCH_NODE_CAP nodes, a bound no option or
variable changes. The coforest cover (a matroid partition) and the lift
of a Z_2^r flow (an elimination) search nothing and take no cap.
A dense Smith form of a lower boundary map refuses more entries than
the matrix cap; `analyze` and `construct` hold the top map to it too.
The sweep of one block component memoises at most SWEEP_MEMO_CAP
subtrees; past that it still reads its memo but adds nothing to it, so
the cap bounds the memo's memory, and a subtree it could not keep is
swept again.
"""

import os

from .errors import CapExceededError, SettingError

DEFAULT_SUBSET_CAP = 24
DEFAULT_ENUM_CAP = 10**7
# rows x cols; the 11-simplex's largest map (924 x 792) still answers
DEFAULT_MATRIX_CAP = 10**6
# subtrees one component sweep memoises, at about 0.6 kB each (keys and
# counts); K_6^3's 20-column block keeps 43,333
SWEEP_MEMO_CAP = 2**16
# nodes of one least-cut search, both of its passes; K_8^3 takes 13,034
CUT_SEARCH_NODE_CAP = 2 * 10**4

_ENV_VAR = "SIMFLOW_SUBSET_CAP"


def subset_cap():
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_SUBSET_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise SettingError(f"{_ENV_VAR} must be a non-negative integer, got {raw!r}")
    return cap


def check_subset_cap(count, force=False, what="facets"):
    """Refuse a sweep over `count` columns, which the refusal calls
    `what`, when they are more than the cap and the caller does not force."""
    cap = subset_cap()
    if not force and count > cap:
        raise CapExceededError(
            f"subset expansion over {count} {what} exceeds the cap of {cap} "
            f"(set {_ENV_VAR} or pass force=True / --force)",
            needed=count,
        )


def check_enum_cap(count, what="vectors"):
    """Refuse enumerating `count` items, which the refusal calls `what`,
    when they are more than DEFAULT_ENUM_CAP."""
    if count > DEFAULT_ENUM_CAP:
        raise CapExceededError(
            f"enumeration of {count} {what} exceeds the cap of {DEFAULT_ENUM_CAP}",
            needed=count,
        )


def check_matrix_cap(rows, cols, what):
    """Refuse a dense Smith form of a `rows` x `cols` matrix, which the
    refusal calls `what`, when it has more than DEFAULT_MATRIX_CAP entries."""
    entries = rows * cols
    if entries > DEFAULT_MATRIX_CAP:
        raise CapExceededError(
            f"Smith normal form of a {rows} x {cols} {what} ({entries} entries) "
            f"exceeds the cap of {DEFAULT_MATRIX_CAP} entries",
            needed=entries,
        )


def check_cut_search_nodes(nodes):
    """Refuse the least-cut search once it has visited more than
    CUT_SEARCH_NODE_CAP nodes."""
    if nodes > CUT_SEARCH_NODE_CAP:
        raise CapExceededError(
            f"the least-cut search visited more than its node bound of "
            f"{CUT_SEARCH_NODE_CAP} nodes",
            needed=nodes,
        )
