"""End-to-end verification suite (exposed as `verify --suite paper`).

Each numbered check re-derives a headline count or identity through at
least two routes and compares exactly. The CLI renders the results as a
table; the test suite asserts them one by one.
"""

import random
from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import comb, factorial, prod

from .complexes import (
    boundary_matrix,
    build_complex,
    restrict_columns,
    subdivide_facet,
    suspension,
)
from .fixtures import (
    complete,
    mod3_moore_disk,
    petersen,
    rp2,
    rp2_disjoint_pair,
    rp2_odd_triangle,
    standard_corpus,
)
from .flows import (
    _tensions_by_circuits,
    count_nz_flows,
    count_nz_group_flows_2r,
    count_nz_tensions,
    flow_quasipolynomial,
    is_modular_flow,
    jaeger_flow,
    min_flow_number,
)
from .errors import CapExceededError, HasBridgeError, InfeasibleError, InternalError, SimflowError
from .homology import subset_profile, torsion_weight
from .linalg import IntMatrix, kernel_count_mod_q, rational_rank, snf_diagonal
from .matroid import RankOracle, bridges, coarboricity, facet_connectivity
from .poly import BivariatePolynomial
from .tutte import check_specializations, matroid_tutte

# Regression constant: the implementation's own count of nowhere-zero
# 5-flows on the Petersen graph (kernel enumeration over 5^6 vectors and
# the subset expansion agree on it).
PETERSEN_FLOWS_AT_5 = 240


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str


def _result(criterion, name, failures, detail_ok):
    if failures:
        return CheckResult(criterion, name, False, "; ".join(failures[:4]))
    return CheckResult(criterion, name, True, detail_ok)


def check_complete_flow_counts():
    """Codimension-one complete complexes carry falling-factorial flow
    counts; both counting methods must agree with the product."""
    failures = []
    for n in (4, 5, 6):
        delta = complete(n, n - 2)
        for q in range(2, 9):
            expected = prod(q - i for i in range(1, n))
            enum = count_nz_flows(delta, q, method="kernel_enum")
            expand = count_nz_flows(delta, q, method="subset_expansion")
            if not (enum == expand == expected):
                failures.append(
                    f"K_{n}^{n-2} q={q}: enum={enum} expand={expand} want={expected}"
                )
    return _result(
        1,
        "complete-complex flow counts",
        failures,
        "K_n^{n-2} matches prod(q-i) for n=4,5,6, q=2..8, both methods",
    )


def check_lower_bound():
    """K_{d+3}^{d+1} has no q-flow through d+2 but (d+2)! flows at d+3."""
    failures = []
    for d in (1, 2, 3):
        delta = complete(d + 3, d + 1)
        found = min_flow_number(delta, d + 2)
        if found is not None:
            failures.append(f"d={d}: unexpected flow at q={found}")
        at_next = count_nz_flows(delta, d + 3)
        if at_next != factorial(d + 2):
            failures.append(f"d={d}: count at q={d + 3} is {at_next}")
    return _result(
        2,
        "lower bound",
        failures,
        "no flows for q <= d+2 and (d+2)! flows at q = d+3, d=1,2,3",
    )


def check_rp2_quasipolynomial():
    failures = []
    quasi = flow_quasipolynomial(rp2())
    if quasi.period != 2:
        failures.append(f"period {quasi.period} != 2")
    else:
        if list(quasi.constituents[0]) != [1]:
            failures.append(f"even constituent {quasi.constituents[0]}")
        if list(quasi.constituents[1]) not in ([], [0]):
            failures.append(f"odd constituent {quasi.constituents[1]}")
    for q in range(2, 10):
        direct = count_nz_flows(rp2(), q, method="kernel_enum")
        expected = 1 if q % 2 == 0 else 0
        if direct != expected or quasi.evaluate(q) != expected:
            failures.append(f"q={q}: direct={direct} quasi={quasi.evaluate(q)}")
    return _result(
        3,
        "rp2 quasipolynomial",
        failures,
        "period 2 with constituents 1 (even) and 0 (odd); kernel enumeration "
        "agrees for q=2..9",
    )


def check_petersen():
    failures = []
    delta = petersen()
    for q in (2, 3, 4):
        got = count_nz_flows(delta, q, method="kernel_enum")
        if got != 0:
            failures.append(f"q={q}: {got} flows")
    at5 = count_nz_flows(delta, 5, method="kernel_enum")
    if at5 <= 0:
        failures.append("no 5-flow found")
    if at5 != PETERSEN_FLOWS_AT_5:
        failures.append(f"regression: phi(5)={at5} != {PETERSEN_FLOWS_AT_5}")
    return _result(
        4,
        "petersen",
        failures,
        f"no 4-flow; phi(5) = {PETERSEN_FLOWS_AT_5} by kernel enumeration",
    )


def _tutte_by_ranks(delta):
    """Tutte polynomial of the facet matroid from one rational rank per
    subset, sharing nothing with the subset sweep."""
    pairs = Counter()
    for mask in range(1 << len(delta.facets)):
        rank = rational_rank(restrict_columns(delta, mask).matrix)
        pairs[mask.bit_count(), rank] += 1
    full_rank = max(rank for _, rank in pairs)
    poly = BivariatePolynomial()
    for (size, rank), count in pairs.items():
        poly.add_shifted_term(full_rank - rank, size - rank, count)
    return poly


def _tutte_by_networkx(delta):
    """Tutte polynomial of a graph (a 1-dimensional complex) by networkx's
    deletion-contraction, or None when networkx or the sympy it returns
    its answer in is missing."""
    try:
        import networkx
        import sympy
    except ImportError:
        return None
    x, y = sympy.symbols("x y")
    expr = networkx.tutte_polynomial(networkx.MultiGraph(list(delta.facets)))
    terms = sympy.Poly(expr, x, y).as_dict()
    return BivariatePolynomial({key: int(c) for key, c in terms.items()})


def check_specialization_identities():
    """Flow counts by kernel enumeration and coloring counts by brute
    force against the torsion-weighted TKR specializations, q = 2..6. A
    pair past the enumeration or brute-force limit is not compared, and
    the detail says how many were. TKR is held to the Tutte polynomial
    from per-subset ranks up to 10 facets, and on larger graphs to
    networkx's when it is installed."""
    failures = []
    pairs = flows_compared = colorings_compared = graphs_compared = 0
    for name, delta in standard_corpus():
        if len(delta.facets) <= 10:
            if matroid_tutte(delta) != _tutte_by_ranks(delta):
                failures.append(f"{name}: TKR != Tutte from per-subset ranks")
        elif delta.dimension == 1:
            want = _tutte_by_networkx(delta)
            if want is not None:
                graphs_compared += 1
                if matroid_tutte(delta) != want:
                    failures.append(f"{name}: TKR != networkx Tutte polynomial")
        report = check_specializations(delta, range(2, 7))
        for c in report.checks:
            pairs += 1
            flows_compared += c.flows_ok is not None
            colorings_compared += c.colorings_ok is not None
            if c.flows_ok is False:
                failures.append(f"{name} q={c.q}: flow specialization")
            if c.colorings_ok is False:
                failures.append(f"{name} q={c.q}: coloring specialization")
    return _result(
        5,
        "specialization identities",
        failures,
        "both torsion-weighted specializations hold on the corpus for q=2..6 "
        f"(compared: {flows_compared} of {pairs} flow counts by kernel "
        f"enumeration, {colorings_compared} of {pairs} coloring counts by brute "
        "force; the rest are past those limits); "
        "TKR equals the Tutte polynomial from per-subset ranks up to 10 facets "
        f"and networkx's on {graphs_compared} graph(s) past 10 facets",
    )


def check_group_flow_counts():
    failures = []
    pair = rp2_disjoint_pair()
    v4 = count_nz_group_flows_2r(pair, 2)
    if v4 != 9:
        failures.append(f"V4 flows: {v4} != 9")
    mod4 = count_nz_flows(pair, 4)
    if mod4 != 1:
        failures.append(f"modular 4-flows: {mod4} != 1")
    return _result(
        6,
        "group-flow counts",
        failures,
        "nine nowhere-zero V4-flows vs a single modular 4-flow on rp2 + rp2",
    )


def profile_coarboricity(delta):
    """The coarboricity by Edmonds' theorem, the oracle criterion 7 holds
    the partition to: the largest ceil(|X| / r*(X)) over nonempty facet
    sets X, r* the corank. A block's key (s, r', .) of n columns and rank
    r stands for the complements X of size n - s and corank n - s + r' - r;
    by the mediant inequality no X across blocks has a larger ratio."""
    c = 1
    for block in subset_profile(delta).blocks:
        for size, rank, _ in block.histogram:
            part = block.column_count - size
            corank = part + rank - block.rank
            if part and corank <= 0:
                raise InfeasibleError("a bridge lies in no coforest")
            c = max(c, -(-part // corank) if part else 1)
    return c


def check_jaeger_pipeline():
    failures = []
    ran = []
    # the integer flows of the Moore space + disk are the multiples of
    # one that is -3 on the disk, so its layers lift to no {-1, 0, 1} flow
    past_cap = [(f"complete({n},{k})", complete(n, k)) for n, k in ((8, 2), (7, 3))]
    for name, delta in standard_corpus() + [("moore space + disk", mod3_moore_disk())] + past_cap:
        if bridges(delta):
            continue
        c = coarboricity(delta)
        ran.append(name)
        try:
            flow = jaeger_flow(delta)
        except SimflowError as exc:
            failures.append(f"{name}: {exc}")
            continue
        if flow.q != 1 << c:
            failures.append(f"{name}: modulus {flow.q} != 2^{c}")
        if not is_modular_flow(delta, flow):
            failures.append(f"{name}: output fails the kernel condition")
        if not flow.nowhere_zero:
            failures.append(f"{name}: output has a zero entry")
        d = delta.dimension
        try:
            fold = profile_coarboricity(delta)
            connected = facet_connectivity(delta).value >= d + 2
        except CapExceededError:
            # past the subset cap, where the cut search would refuse at the
            # enumeration cap: these complete complexes are (d+2)-connected
            fold, connected = c, True
        if fold != c:
            failures.append(f"{name}: partition gives {c} coforests, the profile fold {fold}")
        if connected and c > d + 2:
            failures.append(f"{name}: ({d}+2)-connected but coarboricity {c}")
    if not ran:
        failures.append("no bridgeless fixtures found")
    # bridgeless, but the added triangle lies in no mod-2 flow: the
    # pipeline must refuse, naming the part that holds the triangle
    odd = rp2_odd_triangle()
    triangle = odd.facets.index((0, 1, 2))
    try:
        outcome = jaeger_flow(odd)
    except SimflowError as exc:
        outcome = exc
    part = str(outcome).partition("part facets [")[2].partition("]")[0]
    if not isinstance(outcome, HasBridgeError) or str(triangle) not in part.split(", "):
        failures.append(f"rp2 + odd triangle: {outcome!r} names no part holding facet {triangle}")
    return _result(
        7,
        "jaeger pipeline",
        failures,
        f"verified nowhere-zero 2^c flows on {len(ran)} bridgeless fixtures, "
        "moore space + disk (its flow -3 on one facet) among them; "
        "coarboricity by matroid partition equals the subset-profile fold "
        "under the subset cap, and is <= d+2 wherever (d+2)-connected, "
        "complete(8,2) and complete(7,3) past the cap among them; "
        "rp2 + odd triangle refused at the triangle's part",
    )


def check_invariance():
    """Flow counts of suspensions and single-facet subdivisions, by `auto`
    (which folds the series-reduced profile wherever it sweeps), against
    kernel enumeration on the unreduced complex."""
    failures = []
    for name, delta in standard_corpus():
        if len(delta.facets) > 10:
            continue
        base = {q: count_nz_flows(delta, q, method="kernel_enum") for q in range(2, 7)}
        suspended, _ = suspension(delta)
        for q, want in base.items():
            got = count_nz_flows(suspended, q)
            if got != want:
                failures.append(f"{name} suspension q={q}: {got} != {want}")
        for i in range(len(delta.facets)):
            refined = subdivide_facet(delta, i)
            for q, want in base.items():
                got = count_nz_flows(refined, q)
                if got != want:
                    failures.append(
                        f"{name} subdivide {i} q={q}: {got} != {want}"
                    )
    return _result(
        8,
        "invariance",
        failures,
        "flow counts unchanged by suspension and by every single-facet "
        "subdivision, q=2..6, against kernel enumeration on the original",
    )


def _recursive_block_form_ok(n, k):
    """Reorder rows/columns of the complete-complex boundary map by
    vertex-0 membership and compare against the recursive block form."""
    big = boundary_matrix(complete(n, k), k - 1)
    cols = list(big.col_faces)
    rows = list(big.row_faces)
    col_order = [j for j, f in enumerate(cols) if 0 in f]
    col_order += [j for j, f in enumerate(cols) if 0 not in f]
    row_order = [i for i, r in enumerate(rows) if 0 in r]
    row_order += [i for i, r in enumerate(rows) if 0 not in r]
    data = [[big.matrix.data[i][j] for j in col_order] for i in row_order]

    small_down = boundary_matrix(complete(n - 1, k - 1), k - 2).matrix
    small_same = boundary_matrix(complete(n - 1, k), k - 1).matrix
    n0 = len([f for f in cols if 0 in f])
    r0 = len([r for r in rows if 0 in r])
    for i in range(r0):
        for j in range(n0):
            if data[i][j] != -small_down.data[i][j]:
                return False
        for j in range(n0, len(cols)):
            if data[i][j] != 0:
                return False
    for i in range(r0, len(rows)):
        for j in range(n0):
            if data[i][j] != (1 if i - r0 == j else 0):
                return False
        for j in range(n0, len(cols)):
            if data[i][j] != small_same.data[i - r0][j - n0]:
                return False
    return True


def check_structural_invariants():
    failures = []
    for n in range(3, 8):
        for k in range(2, n):
            got = rational_rank(boundary_matrix(complete(n, k), k - 1).matrix)
            if got != comb(n - 1, k - 1):
                failures.append(f"rank K_{n}^{k}: {got} != C({n-1},{k-1})")
            if not _recursive_block_form_ok(n, k):
                failures.append(f"block form fails for K_{n}^{k}")
    for name, delta in standard_corpus():
        for m in range(1, delta.dimension + 1):
            upper = boundary_matrix(delta, m).matrix
            lower = boundary_matrix(delta, m - 1).matrix
            if not (lower @ upper).is_zero():
                failures.append(f"{name}: boundary squared nonzero at {m}")
    return _result(
        9,
        "structural invariants",
        failures,
        "complete-complex ranks, the recursive block form, and boundary "
        "composition vanishing all hold",
    )


def _profile_failures(name, delta):
    """Check the ranks of `delta` two ways: `RankOracle.rank` obeys the
    matroid rank axioms (r(empty) = 0, unit increase, and submodularity in
    the local form r(X+e) + r(X+f) >= r(X+e+f) + r(X), which implies the
    form over all pairs), and the swept histogram of (size, rank, torsion)
    equals what the Smith diagonals of the restricted boundary maps give,
    one per subset."""
    failures = []
    n = len(delta.facets)
    oracle = RankOracle(delta)
    rank = [oracle.rank(mask) for mask in range(1 << n)]
    if rank[0] != 0:
        failures.append(f"{name}: empty subset has rank {rank[0]}")
    direct = Counter()
    for mask, r in enumerate(rank):
        diag = snf_diagonal(restrict_columns(delta, mask).matrix.data)
        direct[mask.bit_count(), len(diag), tuple(m for m in diag if m > 1)] += 1
        for e in range(n):
            if mask >> e & 1:
                continue
            re = rank[mask | 1 << e]
            if not r <= re <= r + 1:
                failures.append(f"{name}: facet {e} moves rank of {mask:#x} to {re}")
            for f in range(e + 1, n):
                if mask >> f & 1:
                    continue
                if re + rank[mask | 1 << f] < rank[mask | 1 << e | 1 << f] + r:
                    failures.append(
                        f"{name}: not submodular at {mask:#x}, facets {e}, {f}"
                    )
    if subset_profile(delta).histogram != direct:
        failures.append(f"{name}: swept histogram differs from per-subset SNF")
    return failures


def _tension_failures(name, delta):
    """Tension counts read off the coloring count against the direct
    filter of the circuit system, for k = 2..5. The tensions are the
    nowhere-zero coboundaries mod k and the filter counts weightings
    orthogonal to every circuit; the two sets coincide when k is prime to
    the torsion of H_{d-1}, so only those k are compared. With at most 10
    facets the filter enumerates at most 5^10 < 10^7 vectors."""
    failures = []
    for k in range(2, 6):
        if torsion_weight(delta, delta.full_mask, k) != 1:
            continue
        try:
            got = count_nz_tensions(delta, k)
            direct = _tensions_by_circuits(delta, k)
        except InternalError as exc:
            failures.append(f"{name}: tensions at k={k}: {exc}")
            continue
        if got != direct:
            failures.append(f"{name}: {got} tensions at k={k}, circuit filter {direct}")
    return failures


def _sympy_smith_failures(maps):
    """`snf_diagonal` against sympy's invariant factors, a Smith route
    that shares no code with `linalg._eliminate`, on each (label, rows)
    of `maps`. Returns the failures and the number of matrices compared,
    none without sympy."""
    try:
        from sympy import ZZ, Matrix
        from sympy.matrices.normalforms import invariant_factors
    except ImportError:
        return [], 0
    failures = []
    for label, rows in maps:
        factors = invariant_factors(Matrix(rows), domain=ZZ)
        if snf_diagonal(rows) != [abs(int(f)) for f in factors if f]:
            failures.append(f"{label}: Smith diagonal != sympy's invariant factors")
    return failures, len(maps)


def check_property_suites():
    failures = []
    rng = random.Random(20240713)
    smith_maps = []
    for trial in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        q = rng.randint(1, 6)
        mat = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        smith_maps.append((f"trial {trial}", mat.data))
        fast = kernel_count_mod_q(mat, q)
        brute = 0
        for v in product(range(q), repeat=cols):
            if all(sum(c * x for c, x in zip(row, v)) % q == 0 for row in mat.data):
                brute += 1
        if fast != brute:
            failures.append(f"trial {trial}: kernel count {fast} != brute {brute}")
            break

    for name, delta in standard_corpus():
        if len(delta.facets) <= 10:
            failures.extend(_profile_failures(name, delta))
            failures.extend(_tension_failures(name, delta))
    # RP^2 and a last triangle on a new vertex: 11 independent columns,
    # of which RP^2's 10 span a lattice with torsion, a prefix that the
    # sweep's saturated-prefix pass meets
    pendant = build_complex([*rp2().facets, (4, 5, 6)])
    failures.extend(_profile_failures("rp2 + pendant triangle", pendant))
    # the full top map and up to eight random restrictions of each
    for name, delta in standard_corpus():
        masks = {delta.full_mask}
        masks.update(rng.randrange(1, delta.full_mask + 1) for _ in range(8))
        for mask in sorted(masks):
            rows = restrict_columns(delta, mask).matrix.data
            smith_maps.append((f"{name} facets {mask:#x}", rows))
    smith_failures, smith_compared = _sympy_smith_failures(smith_maps)
    failures.extend(smith_failures)

    bridged = [
        build_complex([[0, 1], [1, 2]]),
        build_complex([[0, 1], [1, 2], [0, 2], [2, 3]]),
        build_complex([[0, 1, 2]]),
        build_complex([[0, 1, 2], [1, 2, 3]]),
    ]
    for delta in bridged:
        if not bridges(delta):
            failures.append(f"{delta!r}: expected a bridge")
            continue
        for q in range(2, 9):
            if count_nz_flows(delta, q) != 0:
                failures.append(f"{delta!r}: nonzero flow count at q={q}")
    return _result(
        10,
        "property suites",
        failures,
        "random kernel counts match brute force; subset ranks obey the rank "
        "axioms; the swept subset histogram matches per-subset Smith "
        "diagonals, rp2 + pendant triangle among them; Smith diagonals match "
        f"sympy's invariant factors on {smith_compared} matrices (the random "
        "ones and restricted top maps of the corpus); "
        "tension counts match the circuit-system filter; bridged complexes "
        "have no nowhere-zero flows",
    )


def run_paper_suite():
    return [
        check_complete_flow_counts(),
        check_lower_bound(),
        check_rp2_quasipolynomial(),
        check_petersen(),
        check_specialization_identities(),
        check_group_flow_counts(),
        check_jaeger_pipeline(),
        check_invariance(),
        check_structural_invariants(),
        check_property_suites(),
    ]
