"""Nowhere-zero flow and coloring counts, tension counts, the flow
quasipolynomial, Z_2^r group flows, and the explicit 2^c-flow
construction through coforest covers.

Counting never scans (q-1)^|F| assignments. Flows and colorings fold the
inclusion-exclusion expansion over a cached subset histogram, or
enumerate: the mod-q kernel of the top boundary map (size q^beta times
the torsion weight) for flows, all k^|ridges| colorings for colorings.
Both enumerations run `linalg.count_nowhere_zero_box`, a depth-first
search that drops each partial assignment which zeroes a closed entry.
Flows fold `homology.flow_profile`: whichever histogram is cached, else
that of the series-reduced columns. Colorings fold
`homology.subset_profile`, the histogram of the facets.
`method="auto"` folds whenever such a histogram is cached, or the
subset cap admits the columns it would sweep and the sweep, priced at
`SUBSET_US` per subset, costs no more than the enumeration, priced at
`ENUM_SETUP_US` plus `KERNEL_VECTOR_US` per kernel vector or
`COLORING_US` per coloring. The kernel size and the kernel search read
the one Smith form of the top boundary map per complex
(`homology.top_smith_form`). `method="kernel_enum"` enumerates the
unreduced kernel: it is the oracle the folds are held to. Tension
counts come from the facet histogram through the chromatic relation;
`_tensions_by_circuits` filters the circuit system directly and is the
oracle that `verify` compares them with. The flow quasipolynomial is
read off the flow profile, one constituent per residue class, and so is
the count of nowhere-zero Z_2^r flows: the r-th power of each subset's
mod-2 flow count, folded by inclusion-exclusion.
"""

from dataclasses import dataclass
from itertools import combinations

from .caps import DEFAULT_ENUM_CAP, check_enum_cap
from .complexes import boundary_matrix, top_columns
from .errors import (
    BadModulusError,
    BadParamsError,
    CapExceededError,
    HasBridgeError,
    InternalError,
    LiftFailedError,
    NotAFlowError,
    RelationMismatchError,
)
from .homology import (
    _sweep_columns,
    flow_profile,
    subset_profile,
    sweep_size,
    t_q_of,
    top_smith_form,
)
from .linalg import (
    IntMatrix,
    count_nowhere_zero_box,
    count_nowhere_zero_kernel_mod_q,
    enumerate_kernel_mod_q,  # not called here; perfbench/spans.py traces this name
    fold_vector,
    kernel_count_mod_q,  # not called here; perfbench/spans.py traces this name
    row_lattice_reduce,
    span_rank,
)
from .matroid import (
    bridges,
    circuit_kernel_vector,
    coarboricity,
    coforest_cover,
    fundamental_circuit,
)
from .poly import eval_univariate, trim_univariate


@dataclass
class ModularFlow:
    """Facet weights in {0..q-1} lying in the kernel of the top boundary
    map mod q."""

    q: int
    values: tuple

    @property
    def nowhere_zero(self):
        return all(v % self.q for v in self.values)


@dataclass
class GroupFlow2r:
    """Z_2^r flow: one r-bit word per facet, each bit layer a mod-2 flow."""

    r: int
    words: tuple

    @property
    def nowhere_zero(self):
        return all(self.words)


@dataclass
class Quasipolynomial:
    """One exact-integer constituent polynomial per residue class mod the
    period; evaluation picks constituent q % period."""

    period: int
    constituents: tuple
    degree: int

    def evaluate(self, q):
        return eval_univariate(self.constituents[q % self.period], q)


def ridge_count(delta):
    """Rows of the top boundary map (the augmentation row when d = 0)."""
    return boundary_matrix(delta, delta.dimension).matrix.rows


def is_modular_flow(delta, flow):
    top = boundary_matrix(delta, delta.dimension).matrix
    if len(flow.values) != top.cols:
        return False
    return all(v % flow.q == 0 for v in top.mat_vec(flow.values))


def is_group_flow_2r(delta, gf):
    top = boundary_matrix(delta, delta.dimension).matrix
    if len(gf.words) != top.cols:
        return False
    for k in range(gf.r):
        layer = [w >> k & 1 for w in gf.words]
        if any(v % 2 for v in top.mat_vec(layer)):
            return False
    return True


# ---------------------------------------------------------------------------
# counting


# Unit costs, in µs, that `method="auto"` prices its routes by: each
# route timed whole on fresh complexes and divided by its size bound
# (medians of 3-7 runs, 2 CPUs, Python 3.11.7; the fixture corpus and
# the seed-3 benchmark inputs).
# A swept subset, on sweeps of 1,024 or more: 0.8-0.9 on K_5^3,
# 1.1-1.3 on Petersen, 1.2-1.8 on the `sweep` and `enum` graphs, 2.3-3.1
# on RP^2 and the torsion inputs; 0.02-0.25 where a component is swept
# on its dual side.
SUBSET_US = 1.5
# A kernel vector, on kernels of 4,096 or more: 0.05-0.11 on Petersen
# and the `sweep` and `enum` graphs at q = 4, 5 and 7, 0.11-0.23 on the
# 12-edge `enum` graphs at q = 7, at most 0.06 on the wedges of spheres.
KERNEL_VECTOR_US = 0.1
# A coloring, on boxes of 4,096 or more: 0.02 on Petersen at k = 3,
# 0.03-0.12 on the other graphs and K_5^3, 0.30-0.38 on the boundaries
# of the tetrahedron and the 4-simplex, where fewer facets close early.
# Priced at the top of that range.
COLORING_US = 0.4
# What an enumeration costs before its first item, the Smith form of
# the top map included: 0.05-0.08 ms on a triangle, the tetrahedron
# boundary and the 4-facet `small` 2-complex, 0.15-0.28 ms on RP^2, the
# `small` torsion and 2-complex inputs, against 0.07-0.23 ms for
# sweeping their 2 or 4 reduced subsets.
ENUM_SETUP_US = 150


def _auto_route(sweep, enum_route, enum_size, item_us, enum_limit):
    """The route `method="auto"` takes: "subset_expansion" or `enum_route`.

    `sweep` is what `homology.sweep_size` gives: 0 when a cached profile
    can be folded at once, the subsets a fresh sweep visits, or None when
    the subset cap refuses that sweep. The sweep is taken when it costs
    no more than the enumeration, whose size `enum_size()` gives: a
    sweep costs `SUBSET_US` per subset, an enumeration `ENUM_SETUP_US`
    plus `item_us` per item; a sweep that costs no more than the setup
    alone is taken without sizing the enumeration. Past that,
    enumeration runs up to `enum_limit` items and the expansion takes
    the rest. Both sizes are upper bounds: a component swept on its
    dual side closes subtrees sooner, and the pruned search visits at
    most one node per item, often far fewer. The unit costs are whole
    runs divided by these bounds, so they price that pruning as the
    measured inputs saw it.
    """
    if sweep is not None and SUBSET_US * sweep <= ENUM_SETUP_US:
        return "subset_expansion"
    size = enum_size()
    if sweep is not None and SUBSET_US * sweep <= ENUM_SETUP_US + item_us * size:
        return "subset_expansion"
    return enum_route if size <= enum_limit else "subset_expansion"


def _flow_coefficients(profile, r):
    """Ascending coefficients in q of the flow expansion over the
    profile's columns, each torsion invariant factor m weighted by
    gcd(m, r): exact at q = r, and at every q = r mod the torsion
    period."""
    n = profile.column_count
    coeffs = [0] * (n - profile.rank_full + 1)
    for (size, rank, tors), count in profile.histogram.items():
        term = count * t_q_of(tors, r)
        coeffs[size - rank] += term if (n - size) % 2 == 0 else -term
    return coeffs


def _flow_expansion(delta, q, force=False):
    profile = flow_profile(delta, force=force)
    return eval_univariate(_flow_coefficients(profile, q), q)


def count_nz_flows(delta, q, method="auto", force=False):
    """Number of nowhere-zero q-flows, by kernel enumeration of the top
    boundary map or by the subset inclusion-exclusion expansion over the
    flow profile (both exact). The enumeration reads the kernel off the
    complex's one Smith form of that map."""
    if q < 1:
        raise BadModulusError(f"modulus must be >= 1, got {q}")
    n = len(delta.facets)
    if q == 1:
        return 1 if n == 0 else 0
    if method == "auto":
        method = _auto_route(
            sweep_size(delta, flows=True, force=force),
            "kernel_enum",
            lambda: top_smith_form(delta).kernel_count(q),
            KERNEL_VECTOR_US,
            DEFAULT_ENUM_CAP,
        )
    if method == "kernel_enum":
        top = boundary_matrix(delta, delta.dimension).matrix
        return count_nowhere_zero_kernel_mod_q(top, q, top_smith_form(delta))
    if method == "subset_expansion":
        return _flow_expansion(delta, q, force=force)
    raise BadParamsError(f"unknown method {method!r}")


# `auto` searches at most this many colorings (one search node per
# coloring at worst) and sweeps past it; `method="brute"` searches up to
# the enumeration cap. The expansion is exact either way.
BRUTE_COLORING_LIMIT = 10**5


def _coloring_expansion(delta, k, force=False):
    profile = subset_profile(delta, force=force)
    rows = ridge_count(delta)
    total = 0
    for (size, rank, tors), count in profile.histogram.items():
        term = count * k ** (rows - rank) * t_q_of(tors, k)
        total += term if size % 2 == 0 else -term
    return total


def _brute_colorings(delta, k):
    """Proper colorings by searching the k^|ridges| colorings.

    `linalg.count_nowhere_zero_box` searches them with one digit of
    radix k per ridge; the live vector is every facet's boundary sum
    mod k, and a unit of a digit adds the ridge's row. A coloring is
    proper when no sum is zero. Once the last ridge of a facet is
    colored, every color that zeroes its sum is skipped with all the
    colorings below it, so the cost is the search nodes, not
    k^|ridges|; the count is independent of the subset histogram.
    """
    top = boundary_matrix(delta, delta.dimension).matrix
    check_enum_cap(k**top.rows)
    return count_nowhere_zero_box(top.cols, k, [(k, enumerate(row)) for row in top.data])


def count_proper_colorings(delta, k, method="auto", force=False):
    """Ridge colorings where no facet's signed boundary sum vanishes."""
    if k < 1:
        raise BadModulusError(f"modulus must be >= 1, got {k}")
    n = len(delta.facets)
    if k == 1:
        return 1 if n == 0 else 0
    if method == "auto":
        rows = ridge_count(delta)
        method = _auto_route(
            sweep_size(delta, force=force),
            "brute",
            lambda: k**rows,
            COLORING_US,
            BRUTE_COLORING_LIMIT,
        )
    if method == "brute":
        return _brute_colorings(delta, k)
    if method == "subset_expansion":
        return _coloring_expansion(delta, k, force=force)
    raise BadParamsError(f"unknown method {method!r}")


def circuits(delta, force=False):
    """All circuits (minimal rationally dependent facet sets) as bitmasks,
    in ascending order.

    A circuit lies inside one block component (the matroid is their
    direct sum), so each component's masks are scanned on their own, as
    the sweep admits them. Masks are scanned by size, so a dependent mask
    that contains no circuit found so far is minimal. Dependence folds
    the mask's boundary columns into one echelon basis.
    """
    cols, components = _sweep_columns(delta, force=force)
    found = []
    for comp in components:
        local = []
        for size in range(1, len(comp) + 1):
            for combo in combinations(comp, size):
                mask = sum(1 << j for j in combo)
                if any(c & mask == c for c in local):
                    continue
                if span_rank([cols[j] for j in combo]) < size:
                    local.append(mask)
        found += local
    return sorted(found)


def count_nz_tensions(delta, k, force=False):
    """Nowhere-zero k-tensions: coboundaries of ridge colorings mod k
    with no zero entry.

    Each tension is the coboundary of |ker(coboundary mod k)| colorings,
    so it is read off the subset histogram through the torsion-weighted
    chromatic relation t_k(F) * T(k) = k^(|F| - beta_d - |R|) * X(k),
    with X the proper ridge colorings and R the ridges. A relation that
    is not an exact multiple raises RelationMismatchError.
    """
    if k < 1:
        raise BadModulusError(f"modulus must be >= 1, got {k}")
    n = len(delta.facets)
    if k == 1:
        return 0 if n else 1
    profile = subset_profile(delta, force=force)
    beta_top = n - profile.rank_full
    # the full complex is the one subset of size n
    t_full = next(t_q_of(tors, k) for (s, _, tors) in profile.histogram if s == n)
    exp = n - beta_top - ridge_count(delta)
    chromatic = count_proper_colorings(delta, k, force=force)
    num = chromatic * k ** max(exp, 0)
    den = t_full * k ** max(-exp, 0)
    if num % den:
        raise RelationMismatchError(
            f"chromatic relation is not an exact multiple at k={k}"
        )
    return num // den


def _tensions_by_circuits(delta, k, force=False):
    """Nowhere-zero weightings orthogonal mod k to every signed circuit,
    by filtering the solutions of the circuit system. They are exactly the
    nowhere-zero k-tensions when k is prime to the torsion of H_{d-1};
    otherwise they are more. Exponential in the rank; `verify` holds
    `count_nz_tensions` to it."""
    n = len(delta.facets)
    circ = circuits(delta, force=force)
    if not circ:
        return (k - 1) ** n
    rows = []
    for mask in circ:
        vec = circuit_kernel_vector(delta, mask)
        row = [0] * n
        for coeff, fi in zip(vec, delta.facets_of_mask(mask)):
            row[fi] = coeff
        rows.append(row)
    # unimodular row reduction keeps the solution set mod k
    system = IntMatrix(row_lattice_reduce(rows, n), cols=n)
    return count_nowhere_zero_kernel_mod_q(system, k)


# ---------------------------------------------------------------------------
# quasipolynomial


def flow_quasipolynomial(delta, force=False):
    """The flow count as a quasipolynomial in q, read off the flow
    profile (that of the facets or of the series-reduced columns).

    The period is the lcm of every torsion invariant factor over all
    column subsets, the same factors that the facet subsets carry. Each
    factor m divides it, so gcd(m, q) depends only on the
    residue r = q mod period (gcd(m, 0) = m covers r = 0), and the
    constituent for r is the expansion with every gcd(m, q) read as
    gcd(m, r).
    """
    profile = flow_profile(delta, force=force)
    period = profile.torsion_period()
    constituents = tuple(
        tuple(trim_univariate(_flow_coefficients(profile, r)))
        for r in range(period)
    )
    return Quasipolynomial(
        period=period,
        constituents=constituents,
        degree=profile.column_count - profile.rank_full,
    )


# ---------------------------------------------------------------------------
# Z_2^r flows and lifting


def count_nz_group_flows_2r(delta, r, force=False):
    """Number of Z_2^r flows whose facet words are all nonzero: r-tuples
    of mod-2 flows that jointly cover every facet.

    A fold of the flow profile. The mod-2 flows supported inside a
    column subset X form a group of order 2^(|X| - rank X) * t_2(X), and
    the r-tuples of them its r-th power, so inclusion-exclusion over X
    counts the tuples that cover every column. Series reduction keeps
    the count: a reduced pair carries the same bit in every layer.
    """
    if r < 1:
        raise BadParamsError(f"exponent must be >= 1, got {r}")
    profile = flow_profile(delta, force=force)
    n = profile.column_count
    total = 0
    for (size, rank, tors), count in profile.histogram.items():
        term = count * (2 ** (size - rank) * t_q_of(tors, 2)) ** r
        total += term if (n - size) % 2 == 0 else -term
    return total


def _signed_lift(delta, support_mask, layer):
    """Signed {-1,0,1} integral kernel vector congruent mod 2 to the
    indicator of `support_mask`, or None when no such lift exists.

    The sign search is exponential in the support, so it refuses to visit
    more than DEFAULT_ENUM_CAP search nodes, naming bit layer `layer`."""
    cols = top_columns(delta)
    sup = delta.facets_of_mask(support_mask)
    if not sup:
        return [0] * len(cols)
    touched = sorted({i for j in sup for i, v in enumerate(cols[j]) if v})
    row_local = {r: i for i, r in enumerate(touched)}
    col_rows = [[(row_local[i], cols[j][i]) for i in touched if cols[j][i]] for j in sup]
    remaining = [0] * len(touched)
    for entries in col_rows:
        for r, _ in entries:
            remaining[r] += 1
    cur = [0] * len(touched)
    signs = [0] * len(sup)
    nodes = 0

    def dfs(pos):
        nonlocal nodes
        nodes += 1
        if nodes > DEFAULT_ENUM_CAP:
            raise CapExceededError(
                f"signed lift of bit layer {layer} visits more than "
                f"{DEFAULT_ENUM_CAP} search nodes"
            )
        if pos == len(sup):
            return True
        for v in (1, -1):
            ok = True
            for r, s in col_rows[pos]:
                cur[r] += s * v
                remaining[r] -= 1
            for r, _ in col_rows[pos]:
                if abs(cur[r]) > remaining[r]:
                    ok = False
                    break
            if ok and dfs(pos + 1):
                signs[pos] = v
                return True
            for r, s in col_rows[pos]:
                cur[r] -= s * v
                remaining[r] += 1
        return False

    if not dfs(0):
        return None
    out = [0] * len(cols)
    for j, v in zip(sup, signs):
        out[j] = v
    return out


def lift_z2r_flow(delta, gf):
    """Lift a Z_2^r flow to a modular 2^r flow.

    Each bit layer is lifted to a signed {-1,0,1} integer flow with the
    same odd support, then layers are combined binarily; binary uniqueness
    makes the result nowhere-zero wherever the input word is nonzero.
    """
    if not is_group_flow_2r(delta, gf):
        raise NotAFlowError("bit layers are not all mod-2 flows")
    n = len(delta.facets)
    q = 1 << gf.r
    lifted = []
    for k in range(gf.r):
        mask = 0
        for i, w in enumerate(gf.words):
            if w >> k & 1:
                mask |= 1 << i
        layer = _signed_lift(delta, mask, k)
        if layer is None:
            raise LiftFailedError(f"bit layer {k} admits no signed integral lift")
        lifted.append(layer)
    values = []
    for i in range(n):
        y = sum(lifted[k][i] << k for k in range(gf.r))
        values.append(y % q)
    flow = ModularFlow(q=q, values=tuple(values))
    if not is_modular_flow(delta, flow):
        raise InternalError("lifted vector is not a flow; lift is broken")
    return flow


def jaeger_flow(delta, force=False):
    """Explicit nowhere-zero 2^c flow on a bridgeless complex, where c is
    the coarboricity.

    Each bit layer is the mod-2 sum of the supports of rational circuits,
    which is a mod-2 flow only when those supports are; a circuit with an
    even entry breaks it. So a layer that is not a mod-2 flow is refused
    as a bridge is, naming its part. Bridgeless complexes can fail this
    way: a triangle added to RP^2 along its odd loop lies in no mod-2
    flow, and with a cone on the same loop every circuit through an RP^2
    facet takes the added triangle, or the cone, with an even entry.

    Pipeline: dual Edmonds bound -> exact coforest cover -> per part, the
    mod-2 sum of fundamental circuits of its facets against a maximal
    forest avoiding the part -> assemble the Z_2^c flow -> lift.
    """
    bad = bridges(delta)
    if bad:
        raise HasBridgeError(f"facets {bad} are bridges; no nowhere-zero flow")
    cols = top_columns(delta)
    odd = [sum(1 << i for i, v in enumerate(col) if v % 2) for col in cols]
    c = coarboricity(delta, force=force)
    cover = coforest_cover(delta, c, force=force)
    n = len(delta.facets)
    full_rank = subset_profile(delta, force=force).rank_full
    words = [0] * n
    for k, part in enumerate(cover.parts):
        # greedy base of the complement: keep each column that grows the span
        table = [None] * len(cols[0])
        log = []
        base = 0
        for f in range(n):
            if not part >> f & 1 and fold_vector(table, cols[f], log)[0]:
                base |= 1 << f
        if base.bit_count() != full_rank:
            raise InternalError("complement of a coforest failed to span")
        layer = 0
        m = part
        while m:
            low = m & -m
            layer ^= fundamental_circuit(delta, base, low.bit_length() - 1)
            m ^= low
        boundary = 0
        for i in range(n):
            if layer >> i & 1:
                words[i] |= 1 << k
                boundary ^= odd[i]
        if boundary:
            part_facets = [f for f in range(n) if part >> f & 1]
            raise HasBridgeError(
                f"bit layer {k} (part facets {part_facets}) is not a mod-2 flow; "
                "the 2^c-flow construction needs the supports of each part's "
                "fundamental circuits to sum to a mod-2 flow"
            )
    gf = GroupFlow2r(r=c, words=tuple(words))
    flow = lift_z2r_flow(delta, gf)
    # of the fundamental circuits summed into layer k, a facet f of part k
    # lies only in its own, so word f is nonzero, and so is its lift
    if not flow.nowhere_zero:
        raise InternalError("pipeline produced a flow with a zero entry")
    return flow


def min_flow_number(delta, q_max, force=False):
    """Least modulus in 2..q_max with a nowhere-zero flow, else None.

    Once a flow profile is cached, the search stops at 1 + P (D + 1),
    with P the period and D the degree of the flow quasipolynomial. The
    count at q is constituent q mod P, a polynomial of degree at most D
    that is either zero or has at most D roots, and 2..1 + P (D + 1)
    holds D + 1 moduli of every residue class, so a class with a flow
    shows one by then.
    """
    if q_max < 2:
        raise BadParamsError(f"q_max must be >= 2, got {q_max}")
    stop = None
    q = 2
    while q <= (q_max if stop is None else stop):
        if count_nz_flows(delta, q, force=force) > 0:
            return q
        if stop is None and sweep_size(delta, flows=True) == 0:
            profile = flow_profile(delta)
            degree = profile.column_count - profile.rank_full
            stop = min(q_max, 1 + profile.torsion_period() * (degree + 1))
        q += 1
    return None
