"""Work caps for exponential-cost operations.

Subset expansions sweep all 2^|F| facet subsets; the cap refuses complexes
with more than SIMFLOW_SUBSET_CAP facets (default 24) unless the caller
forces; a value that is not a non-negative integer raises SettingError.
Kernel enumeration refuses streams longer than the enumeration cap.
"""

import os

from .errors import CapExceededError, SettingError

DEFAULT_SUBSET_CAP = 24
DEFAULT_ENUM_CAP = 10**7

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


def check_subset_cap(n_facets, force=False):
    cap = subset_cap()
    if not force and n_facets > cap:
        raise CapExceededError(
            f"subset expansion over {n_facets} facets exceeds the cap of {cap} "
            f"(set {_ENV_VAR} or pass force=True / --force)",
            needed=n_facets,
        )


def check_enum_cap(count, cap=None):
    limit = DEFAULT_ENUM_CAP if cap is None else cap
    if count > limit:
        raise CapExceededError(
            f"enumeration of {count} vectors exceeds the cap of {limit}",
            needed=count,
        )
