import io
import time
from functools import reduce
from itertools import combinations, product
from math import prod
from operator import xor

import pytest

from simflow import (
    BadModulusError,
    BadParamsError,
    CapExceededError,
    GroupFlow2r,
    HasBridgeError,
    LiftFailedError,
    ModularFlow,
    NotAFlowError,
    boundary_matrix,
    build_complex,
    count_nz_flows,
    count_nz_group_flows_2r,
    count_nz_tensions,
    count_proper_colorings,
    flow_quasipolynomial,
    flows,
    jaeger_flow,
    lift_z2r_flow,
    min_flow_number,
    serialize_complex,
)
from simflow.cli import main
from simflow.complexes import facet_components, subdivide_facet, top_columns
from simflow.fixtures import (
    _RP2_FACES,
    complete,
    cycle,
    mod3_moore_disk,
    mod3_moore_space,
    petersen,
    rp2,
    rp2_disjoint_pair,
    simplex_boundary,
    standard_corpus,
)
from simflow.flows import _tensions_by_circuits, circuits, is_modular_flow
from simflow.homology import homology_summary, subset_profile, sweep_size
from simflow.linalg import enumerate_kernel_mod_q, kernel_count_mod_q, span_rank
from simflow.matroid import bridges
from simflow.verify import PETERSEN_FLOWS_AT_5
from lift_oracle import signed_lift


def brute_count_flows(delta, q):
    top = boundary_matrix(delta, delta.dimension).matrix
    count = 0
    for v in product(range(1, q), repeat=top.cols):
        if all(s % q == 0 for s in top.mat_vec(v)):
            count += 1
    return count


def dense_colorings(delta, k):
    """Proper colorings by computing every facet's boundary sum afresh for
    each of the k^|ridges| colorings: the reference for the brute search."""
    top = boundary_matrix(delta, delta.dimension).matrix
    cols = [top.column(j) for j in range(top.cols)]
    count = 0
    for chi in product(range(k), repeat=top.rows):
        if all(sum(c * x for c, x in zip(col, chi)) % k for col in cols):
            count += 1
    return count


def test_flow_count_examples():
    assert count_nz_flows(complete(4, 2), 4) == 6
    assert count_nz_flows(complete(5, 3), 5) == 24
    assert count_nz_flows(rp2(), 2) == 1
    assert count_nz_flows(rp2(), 3) == 0
    assert count_nz_flows(petersen(), 4) == 0


def test_flow_count_against_brute_force():
    for delta, q in [(cycle(3), 4), (cycle(4), 3), (complete(4, 2), 3), (simplex_boundary(2), 4)]:
        want = brute_count_flows(delta, q)
        assert count_nz_flows(delta, q, method="kernel_enum") == want
        assert count_nz_flows(delta, q, method="subset_expansion") == want


def test_flow_count_modulus_one():
    assert count_nz_flows(cycle(3), 1) == 0
    with pytest.raises(BadModulusError):
        count_nz_flows(cycle(3), 0)
    with pytest.raises(BadParamsError):
        count_nz_flows(cycle(3), 3, method="nonsense")


def test_method_agreement_on_corpus():
    for _, delta in standard_corpus():
        for q in range(2, 9):
            enum = count_nz_flows(delta, q, method="kernel_enum")
            expand = count_nz_flows(delta, q, method="subset_expansion")
            assert enum == expand, (delta, q)


def test_falling_factorial_family():
    for n in (4, 5, 6):
        delta = complete(n, n - 2)
        for q in range(2, 9):
            assert count_nz_flows(delta, q) == prod(q - i for i in range(1, n))


def test_coloring_examples():
    assert count_proper_colorings(build_complex([[0, 1]]), 3) == 6
    assert count_proper_colorings(cycle(3), 3, method="brute") == 6
    assert count_proper_colorings(cycle(3), 1) == 0


def test_coloring_methods_agree():
    for delta in (cycle(3), cycle(4), complete(4, 2), simplex_boundary(2), build_complex([[0], [1], [2]])):
        for k in range(2, 6):
            brute = count_proper_colorings(delta, k, method="brute")
            expansion = count_proper_colorings(delta, k, method="subset_expansion")
            assert brute == expansion, (delta, k)


def _coloring_cases(st):
    """Random bridgeless graphs (one or two cycles on six vertices),
    random 2-complexes on five vertices, RP^2 (Z_2 torsion) relabeled and
    at most once refined, and 0-dimensional complexes."""

    @st.composite
    def graphs(draw):
        edges = set()
        for _ in range(draw(st.integers(1, 2))):
            cyc = draw(st.lists(st.integers(0, 5), min_size=3, max_size=5, unique=True))
            edges |= {tuple(sorted((cyc[i - 1], cyc[i]))) for i in range(len(cyc))}
        return build_complex(sorted(edges))

    @st.composite
    def rp2_refinements(draw):
        label = draw(st.permutations(range(6)))
        delta = build_complex([[label[v] for v in f] for f in _RP2_FACES])
        if draw(st.booleans()):
            delta = subdivide_facet(delta, draw(st.integers(0, 9)))
        return delta

    triangles = st.lists(
        st.sampled_from(list(combinations(range(5), 3))), min_size=1, max_size=5, unique=True
    ).map(build_complex)
    points = st.integers(1, 6).map(lambda n: build_complex([[v] for v in range(n)]))
    return {"graphs": graphs(), "2-complexes": triangles, "rp2": rp2_refinements(), "points": points}


@pytest.mark.parametrize("kind", ["graphs", "2-complexes", "rp2", "points"])
def test_brute_colorings_match_dense_and_expansion(kind):
    """The brute search against the dense oracle and the subset
    expansion, k = 2..5. The search runs up to 2^18 colorings; the dense
    oracle only where it takes at most 5 * 10^6 products (RP^2 refined
    once, with 18 ridges, is held to the expansion alone). No shrinking:
    each shrink step reruns the dense oracle and the expansion, so a
    broken route would take minutes to report."""
    hypothesis = pytest.importorskip("hypothesis")
    settings = hypothesis.settings(
        max_examples=15,
        deadline=None,
        database=None,
        derandomize=True,
        phases=[p for p in hypothesis.Phase if p is not hypothesis.Phase.shrink],
    )

    @settings
    @hypothesis.given(_coloring_cases(hypothesis.strategies)[kind])
    def check(delta):
        top = boundary_matrix(delta, delta.dimension).matrix
        for k in range(2, 6):
            colorings = k**top.rows
            if colorings > 1 << 18:
                break
            brute = count_proper_colorings(delta, k, method="brute")
            assert brute == count_proper_colorings(delta, k, method="subset_expansion"), k
            if colorings * top.rows * top.cols <= 5 * 10**6:
                assert brute == dense_colorings(delta, k), k

    check()


def test_brute_colorings_past_the_enum_cap_exit_3_before_walking(monkeypatch, capsys):
    # rp2_disjoint_pair has 30 ridges: 3^30 colorings
    checked = []
    check = flows.check_enum_cap

    def recording_check(count, *args):
        checked.append(count)
        return check(count, *args)

    monkeypatch.setattr(flows, "check_enum_cap", recording_check)
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_complex(rp2_disjoint_pair())))
    assert main(["colorings", "--k", "3", "--method", "brute"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"enumeration of {3**30} vectors exceeds the cap" in err
    assert checked == [3**30]


def test_brute_colorings_of_long_cycles():
    # 2^21 and 2^22 colorings, under the enumeration cap: an odd cycle
    # has no proper 2-coloring and an even one has two
    assert count_proper_colorings(cycle(21), 2, method="brute") == 0
    assert count_proper_colorings(cycle(22), 2, method="brute") == 2


def test_coloring_chromatic_polynomials():
    # classical values: chromatic polynomial of the n-cycle is
    # (k-1)^n + (-1)^n (k-1)
    for n in (3, 4, 5):
        for k in (2, 3, 4):
            want = (k - 1) ** n + (-1) ** n * (k - 1)
            assert count_proper_colorings(cycle(n), k) == want
    for k in (3, 4, 5):
        assert count_proper_colorings(complete(4, 2), k) == k * (k - 1) * (k - 2) * (k - 3)


def test_tension_examples():
    assert count_nz_tensions(build_complex([[0, 1]]), 4) == 3
    assert count_nz_tensions(cycle(3), 3) == 2
    assert count_nz_tensions(cycle(3), 1) == 0


def test_tension_brute_force_small():
    """Direct definition: nowhere-zero weightings orthogonal to every
    signed circuit relation."""
    from simflow.matroid import circuit_kernel_vector

    for delta, k in [(cycle(3), 4), (cycle(4), 3), (simplex_boundary(2), 3)]:
        masks = circuits(delta)
        n = len(delta.facets)
        relations = []
        for mask in masks:
            vec = circuit_kernel_vector(delta, mask)
            row = [0] * n
            for coeff, fi in zip(vec, delta.facets_of_mask(mask)):
                row[fi] = coeff
            relations.append(row)
        brute = 0
        for w in product(range(1, k), repeat=n):
            if all(sum(c * x for c, x in zip(row, w)) % k == 0 for row in relations):
                brute += 1
        assert count_nz_tensions(delta, k) == brute
        assert _tensions_by_circuits(delta, k) == brute


def test_tensions_are_coboundaries_on_rp2():
    """RP^2 has no circuits, so every nowhere-zero weighting is orthogonal
    to all of them. The coboundaries mod k are the weightings whose entries
    sum to an even number when k is even (the mod-2 cycle of RP^2 is every
    facet): ((k-1)^10 + 1) / 2 of them are nowhere zero."""
    delta = rp2()
    for k in range(2, 7):
        want = ((k - 1) ** 10 + 1) // 2 if k % 2 == 0 else (k - 1) ** 10
        assert count_nz_tensions(delta, k) == want
        assert _tensions_by_circuits(delta, k) == (k - 1) ** 10


def test_property_suite_fails_on_an_off_by_one_tension_count(monkeypatch):
    from simflow import verify

    monkeypatch.setattr(verify, "count_nz_tensions", lambda delta, k: count_nz_tensions(delta, k) + 1)
    result = verify.check_property_suites()
    assert not result.passed
    assert "circuit filter" in result.detail


def test_circuit_enumeration():
    assert circuits(cycle(3)) == [0b111]
    assert circuits(simplex_boundary(2)) == [0b1111]
    assert len(circuits(complete(4, 2))) == 7  # 4 triangles and 3 quadrilaterals


def _circuits_of_all_masks(delta):
    """Circuits by scanning every facet mask by size, across blocks."""
    cols = top_columns(delta)
    found = []
    for size in range(1, len(cols) + 1):
        for combo in combinations(range(len(cols)), size):
            mask = sum(1 << j for j in combo)
            if not any(c & mask == c for c in found) and span_rank([cols[j] for j in combo]) < size:
                found.append(mask)
    return sorted(found)


def test_circuits_scan_each_block_on_its_own(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    from test_columns import complexes

    scanned = []
    monkeypatch.setattr(flows, "span_rank", lambda vectors: scanned.append(vectors) or span_rank(vectors))

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(complexes(max_facets=4))
    def check(delta):
        want = _circuits_of_all_masks(delta)
        scanned.clear()
        assert circuits(delta) == want
        cols = top_columns(delta)
        block = {id(cols[j]): b for b, comp in enumerate(facet_components(delta)) for j in comp}
        assert scanned and all(len({block[id(v)] for v in vectors}) == 1 for vectors in scanned)

    check()


def test_quasipolynomial_rp2():
    quasi = flow_quasipolynomial(rp2())
    assert quasi.period == 2
    assert list(quasi.constituents[0]) == [1]
    assert list(quasi.constituents[1]) in ([], [0])
    for q in range(2, 10):
        assert quasi.evaluate(q) == count_nz_flows(rp2(), q, method="kernel_enum")


def test_quasipolynomial_cycle_and_k4():
    quasi = flow_quasipolynomial(cycle(3))
    assert quasi.period == 1
    assert list(quasi.constituents[0]) == [-1, 1]
    k4 = flow_quasipolynomial(complete(4, 2))
    assert k4.period == 1
    assert list(k4.constituents[0]) == [-6, 11, -6, 1]


def test_quasipolynomial_matches_fresh_moduli():
    # kernel enumeration, not `auto`: once the quasipolynomial has cached
    # the histogram, `auto` folds the very histogram it was read off.
    # rp2_disjoint_pair brings a torsion multiset convolved over two
    # components (Z_2 + Z_2 on the full set); the Moore space a period
    # other than 1 or 2.
    small = [delta for _, delta in standard_corpus() if len(delta.facets) <= 10]
    for delta in small + [rp2_disjoint_pair(), mod3_moore_space()]:
        quasi = flow_quasipolynomial(delta)
        for q in range(2, 11):
            direct = count_nz_flows(delta, q, method="kernel_enum")
            assert quasi.evaluate(q) == direct, (delta, q)


def test_group_flows_rp2_pair():
    pair = rp2_disjoint_pair()
    assert count_nz_group_flows_2r(pair, 2) == 9
    assert count_nz_flows(pair, 4) == 1


def test_group_flows_cycle():
    assert count_nz_group_flows_2r(cycle(3), 1) == 1
    # r = 1 always coincides with the modular 2-flow count
    for _, delta in standard_corpus():
        if len(delta.facets) > 10:
            continue
        assert count_nz_group_flows_2r(delta, 1) == count_nz_flows(delta, 2)


def group_flows_by_enumeration(delta, r):
    """Nowhere-zero Z_2^r flows by listing every mod-2 kernel vector and
    walking (depth, covered facets) over r-tuples of their supports: the
    reference for the fold."""
    top = boundary_matrix(delta, delta.dimension).matrix
    supports = [
        sum(1 << i for i, x in enumerate(v) if x) for v in enumerate_kernel_mod_q(top, 2)
    ]
    full = delta.full_mask
    union_all = 0
    for s in supports:
        union_all |= s
    memo = {}

    def walk(depth, covered):
        if covered | union_all != full:
            return 0
        if depth == r:
            return 1 if covered == full else 0
        key = (depth, covered)
        if key not in memo:
            memo[key] = sum(walk(depth + 1, covered | s) for s in supports)
        return memo[key]

    return walk(0, 0)


def test_group_flows_fold_matches_enumeration_on_the_corpus():
    for _, delta in standard_corpus():
        if len(delta.facets) > 15:
            continue
        for r in (1, 2, 3):
            want = group_flows_by_enumeration(delta, r)
            assert count_nz_group_flows_2r(delta, r) == want, (delta, r)


@pytest.mark.parametrize("kind", ["graphs", "2-complexes", "rp2", "points"])
def test_group_flows_fold_matches_enumeration(kind):
    """The fold of the flow profile against the enumeration, r = 1..3, on
    random complexes: the graphs and RP^2 refinements all have fewer
    series-reduced columns than facets."""
    hypothesis = pytest.importorskip("hypothesis")
    settings = hypothesis.settings(max_examples=15, deadline=None, database=None, derandomize=True)

    @settings
    @hypothesis.given(_coloring_cases(hypothesis.strategies)[kind])
    def check(delta):
        for r in (1, 2, 3):
            assert count_nz_group_flows_2r(delta, r) == group_flows_by_enumeration(delta, r), r

    check()


def test_group_flows_refuse_past_the_subset_cap(monkeypatch):
    # a fresh Petersen graph: 15 columns, none of which series-reduce
    delta = build_complex([list(f) for f in petersen().facets])
    monkeypatch.setenv("SIMFLOW_SUBSET_CAP", "14")
    with pytest.raises(CapExceededError):
        count_nz_group_flows_2r(delta, 3)
    assert count_nz_group_flows_2r(delta, 3, force=True) == group_flows_by_enumeration(delta, 3)
    with pytest.raises(BadParamsError):
        count_nz_group_flows_2r(delta, 0)


def test_lift_single_layer():
    flow = lift_z2r_flow(cycle(3), GroupFlow2r(r=1, words=(1, 1, 1)))
    assert flow.q == 2 and flow.values == (1, 1, 1)
    assert flow.nowhere_zero


def test_lift_three_layers_all_odd():
    flow = lift_z2r_flow(cycle(3), GroupFlow2r(r=3, words=(7, 7, 7)))
    assert flow.q == 8
    assert all(v % 2 == 1 for v in flow.values)
    assert is_modular_flow(cycle(3), flow)


def test_lift_zero_flow():
    flow = lift_z2r_flow(cycle(3), GroupFlow2r(r=2, words=(0, 0, 0)))
    assert flow.values == (0, 0, 0)
    assert not flow.nowhere_zero


def test_lift_rejects_non_flow():
    with pytest.raises(NotAFlowError, match="bit layer 0 is not a mod-2 flow"):
        lift_z2r_flow(cycle(3), GroupFlow2r(r=1, words=(1, 1, 0)))


def test_lift_refuses_a_word_wider_than_r():
    # bit 1 of each word lies past r = 1 and would be dropped
    with pytest.raises(BadParamsError, match="word 2 of facet 0"):
        lift_z2r_flow(cycle(3), GroupFlow2r(r=1, words=(2, 2, 2)))


def test_lift_refuses_a_negative_word():
    # -1 would read as all-ones bits
    with pytest.raises(BadParamsError, match="word -1 of facet 1"):
        lift_z2r_flow(cycle(3), GroupFlow2r(r=1, words=(1, -1, 1)))


def test_lift_refuses_a_wrong_word_count():
    with pytest.raises(BadParamsError, match="2 words for 3 facets"):
        lift_z2r_flow(cycle(3), GroupFlow2r(r=1, words=(1, 1)))


def test_lift_fails_where_no_integer_flow_is_odd_on_the_layer():
    # every edge of RP^2 lies in two triangles, but H_2(RP^2) = 0
    with pytest.raises(LiftFailedError, match="bit layer 1 admits no integral lift"):
        lift_z2r_flow(rp2(), GroupFlow2r(r=2, words=(2,) * 10))


def test_lift_takes_no_enumeration_cap(monkeypatch, capsys):
    """The lift is an elimination, not a search: the enumeration cap
    bounds nothing in it."""
    monkeypatch.setattr(flows, "DEFAULT_ENUM_CAP", 3)
    assert lift_z2r_flow(cycle(3), GroupFlow2r(r=2, words=(2, 2, 2))).values == (2, 2, 2)
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_complex(cycle(3))))
    assert main(["construct", "--jaeger"]) == 0
    assert capsys.readouterr().out.startswith("modulus: 8\n")


def _lift_cases():
    small = [(name, delta) for name, delta in standard_corpus() if len(delta.facets) <= 12]
    return small + [("mod3_moore_space", mod3_moore_space())]


@pytest.mark.parametrize("name, delta", _lift_cases(), ids=[name for name, _ in _lift_cases()])
def test_odd_relation_lifts_wherever_the_sign_search_does(name, delta):
    """On every facet mask: a relation odd exactly on the mask is found
    whenever the sign search finds one with entries +-1, and what is
    found lies in the kernel. A signed sum of columns is their sum mod 2,
    so the search runs only where that sum is even."""
    cols = top_columns(delta)
    odd = [sum(1 << i for i, v in enumerate(col) if v % 2) for col in cols]
    top = boundary_matrix(delta, delta.dimension).matrix
    for mask in range(1 << len(delta.facets)):
        sup = delta.facets_of_mask(mask)
        lifted = flows._odd_relation(cols, sup)
        even = not reduce(xor, (odd[j] for j in sup), 0)
        if even and signed_lift(cols, sup) is not None:
            assert lifted is not None, mask
        if lifted is None:
            continue
        full = [0] * len(delta.facets)
        for j, t in zip(sup, lifted):
            full[j] = t
        assert not any(top.mat_vec(full)), mask
        assert sum(1 << j for j, t in enumerate(full) if t % 2) == mask


def test_jaeger_lifts_past_every_signed_flow():
    """The one integer flow of the Moore space + disk has a -3 on the
    disk, so the sign search finds no lift of its layers; the lift takes
    that flow, odd on every facet."""
    delta = mod3_moore_disk()
    cols = top_columns(delta)
    assert signed_lift(cols, list(range(18))) is None
    flow = jaeger_flow(delta)
    assert flow.q == 1 << 18
    assert flow.nowhere_zero and is_modular_flow(delta, flow)


def test_jaeger_cycle_trace():
    flow = jaeger_flow(cycle(3))
    assert flow.q == 8
    assert all(v % 2 == 1 for v in flow.values)
    assert is_modular_flow(cycle(3), flow)


def test_jaeger_sphere_not_minimal():
    tetra = simplex_boundary(2)
    flow = jaeger_flow(tetra)
    assert flow.q == 16
    assert flow.nowhere_zero and is_modular_flow(tetra, flow)
    # the sphere nevertheless carries a 2-flow
    assert min_flow_number(tetra, 8) == 2


def test_jaeger_rejects_bridges():
    with pytest.raises(HasBridgeError):
        jaeger_flow(build_complex([[0, 1, 2]]))
    with pytest.raises(HasBridgeError):
        jaeger_flow(rp2())


def test_jaeger_on_bridgeless_corpus():
    from simflow.matroid import bridges, coarboricity

    for _, delta in standard_corpus():
        if bridges(delta):
            continue
        flow = jaeger_flow(delta)
        assert flow.q == 1 << coarboricity(delta)
        assert flow.nowhere_zero
        assert is_modular_flow(delta, flow)


def test_min_flow_number_examples():
    assert min_flow_number(simplex_boundary(2), 8) == 2
    assert min_flow_number(complete(6, 4), 12) == 6
    assert min_flow_number(petersen(), 4) is None
    assert min_flow_number(petersen(), 5) == 5
    with pytest.raises(BadParamsError):
        min_flow_number(cycle(3), 1)


# K_4 with a pendant edge: every flow vanishes on the bridge
K4_PENDANT = [[a, b] for a, b in combinations(range(4), 2)] + [[3, 4]]


def test_min_flow_number_matches_the_plain_loop():
    bridged = [
        K4_PENDANT,
        [[0, 1], [1, 2]],
        [[0, 1, 2], [1, 2, 3]],
        [[0, 1, 2], [0, 2, 3], [0, 1, 3], [1, 2, 3], [3, 4, 5]],
    ]
    cases = [delta for _, delta in standard_corpus()] + [build_complex(f) for f in bridged]
    for delta in cases:
        counts = {q: count_nz_flows(_fresh(delta), q) for q in range(2, 13)}
        warm = _fresh(delta)
        for q_max in range(2, 13):
            plain = next((q for q in range(2, q_max + 1) if counts[q]), None)
            assert min_flow_number(_fresh(delta), q_max) == plain, (delta, q_max)
            assert min_flow_number(warm, q_max) == plain, (delta, q_max)


def test_min_q_without_a_flow_stops_at_the_bound(monkeypatch, capsys):
    # degree 3 and period 1: no flow up to q = 5 means none at all
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_complex(build_complex(K4_PENDANT))))
    start = time.perf_counter()
    assert main(["min-q", "--max", "1000000000"]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.strip() == "none"


def test_min_q_with_a_bridge_and_no_torsion_counts_no_flow(monkeypatch, capsys):
    """The star K_{1,8}: every edge is a bridge and every invariant factor
    of its boundary map is 1, so no modulus has a nowhere-zero flow and
    none is counted. RP^2 is all bridges too, but its torsion gives a
    nowhere-zero 2-flow, so its search still counts."""

    def refuse(*args, **kwargs):
        raise AssertionError("counted flows")

    monkeypatch.setattr(flows, "count_nz_flows", refuse)
    star = serialize_complex(build_complex([[0, v] for v in range(1, 9)]))
    monkeypatch.setattr("sys.stdin", io.StringIO(star))
    assert main(["min-q", "--max", "1000000"]) == 0
    assert capsys.readouterr().out.strip() == "none"
    assert bridges(rp2()) and homology_summary(rp2()).torsion[1] == [2]
    with pytest.raises(AssertionError, match="counted flows"):
        min_flow_number(rp2(), 4)


def test_petersen_regression():
    assert count_nz_flows(petersen(), 5, method="kernel_enum") == PETERSEN_FLOWS_AT_5
    assert count_nz_flows(petersen(), 5, method="subset_expansion") == PETERSEN_FLOWS_AT_5


def test_bridge_forces_zero_flow_count():
    bridged = [
        build_complex([[0, 1], [1, 2]]),
        build_complex([[0, 1], [1, 2], [0, 2], [2, 3]]),
        build_complex([[0, 1, 2]]),
        build_complex([[0, 1, 2], [1, 2, 3]]),
    ]
    for delta in bridged:
        for q in range(2, 9):
            assert count_nz_flows(delta, q) == 0


def test_modular_flow_invariants():
    flow = ModularFlow(q=5, values=(1, 4, 1, 0))
    assert not flow.nowhere_zero
    assert ModularFlow(q=3, values=(1, 2, 1)).nowhere_zero


def test_bridgeless_existence_bound():
    """Every bridgeless fixture admits some flow with modulus at most 2^c."""
    from simflow.matroid import bridges, coarboricity

    for _, delta in standard_corpus():
        if bridges(delta):
            continue
        c = coarboricity(delta)
        found = min_flow_number(delta, 1 << c)
        assert found is not None and found <= 1 << c


def _fresh(delta):
    """A copy of a (shared, cached) fixture with an empty cache."""
    return build_complex([list(f) for f in delta.facets])


@pytest.fixture
def route_calls(monkeypatch):
    """Counts kernel walks and brute-force coloring runs."""
    calls = {"enum": 0, "brute": 0}
    enum, brute = flows.count_nowhere_zero_kernel_mod_q, flows._brute_colorings

    def counting_enum(*args, **kwargs):
        calls["enum"] += 1
        return enum(*args, **kwargs)

    def counting_brute(*args, **kwargs):
        calls["brute"] += 1
        return brute(*args, **kwargs)

    monkeypatch.setattr(flows, "count_nowhere_zero_kernel_mod_q", counting_enum)
    monkeypatch.setattr(flows, "_brute_colorings", counting_brute)
    return calls


def test_auto_prices_the_sweep_against_the_enumeration(route_calls):
    # two disjoint K_4, no series ridge: 2 * 2^6 = 128 subsets at 1.5 us,
    # against 150 us plus 0.1 us per kernel vector, q^6 of them
    edges = [[a + s, b + s] for s in (0, 4) for a, b in combinations(range(4), 2)]
    delta = build_complex(edges)
    assert count_nz_flows(delta, 2) == 0  # 156 us for 64 vectors: enumerate
    assert route_calls["enum"] == 1
    assert "subset_profile" not in delta._cache
    got = {q: count_nz_flows(delta, q) for q in (3, 4, 5)}  # 223 us at q = 3: sweep
    assert route_calls["enum"] == 1
    for q, count in got.items():
        assert count == count_nz_flows(build_complex(edges), q, method="kernel_enum")
    # K_4: 2^6 subsets (96 us) against 150 us plus 0.4 us per coloring:
    # even the 16 2-colorings are dearer
    k4 = _fresh(complete(4, 2))
    assert count_proper_colorings(k4, 2) == 0
    assert count_proper_colorings(k4, 4) == 24
    assert route_calls["brute"] == 0
    assert count_proper_colorings(_fresh(k4), 2, method="brute") == 0
    assert count_proper_colorings(_fresh(k4), 4, method="brute") == 24


def test_auto_searches_petersen_3_colorings(route_calls):
    # 2^15 subsets (49 ms at 1.5 us) against 3^10 colorings (24 ms at
    # 0.4 us); the search visits a few hundred nodes
    delta = _fresh(petersen())
    assert count_proper_colorings(delta, 3) == 120
    assert route_calls["brute"] == 1
    assert "subset_profile" not in delta._cache
    assert count_proper_colorings(_fresh(delta), 3, method="subset_expansion") == 120


def test_auto_sweeps_a_large_kernel(route_calls):
    # the `sweep` benchmark graph: 13 edges, two series pairs, beta = 6;
    # 2^11 reduced subsets (3.1 ms) against 7^6 kernel vectors (11.9 ms)
    edges = [[0, 1], [0, 2], [0, 6], [1, 5], [1, 7], [1, 6], [2, 4],
             [2, 3], [5, 4], [5, 3], [5, 7], [5, 6], [3, 6]]
    delta = build_complex(edges)
    assert sweep_size(delta, flows=True) == 1 << 11
    assert kernel_count_mod_q(boundary_matrix(delta, 1).matrix, 7) == 7**6
    got = count_nz_flows(delta, 7)
    assert route_calls["enum"] == 0
    assert "flow_profile" in delta._cache
    assert got == count_nz_flows(build_complex(edges), 7, method="kernel_enum") > 0


def test_auto_folds_a_cached_profile(route_calls):
    delta = _fresh(petersen())
    subset_profile(delta)
    # 2^6 kernel vectors and 2^10 colorings, against 2^15 subsets
    assert count_nz_flows(delta, 2) == 0
    assert count_nz_flows(delta, 5) == PETERSEN_FLOWS_AT_5
    assert count_proper_colorings(delta, 2) == 0
    assert count_proper_colorings(delta, 3) == 120
    assert route_calls == {"enum": 0, "brute": 0}
    assert count_proper_colorings(_fresh(delta), 3, method="brute") == 120


def test_series_reduction_prices_the_reduced_sweep(route_calls, monkeypatch, capsys):
    # K_6 less two edges, every vertex in at least three of its 13 edges,
    # with 12 edges subdivided: 25 edges, over the subset cap, and 13
    # series-reduced columns, whose 2^13 subsets (12.3 ms at 1.5 us) cost
    # more than 4^8 kernel vectors (6.7 ms) and less than 5^8 (39 ms)
    base = [[a, b] for a, b in combinations(range(6), 2) if (a, b) not in ((0, 1), (2, 3))]
    graph = [e for i, (a, b) in enumerate(base[:12]) for e in ([a, 6 + i], [6 + i, b])]
    graph += base[12:]
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_complex(build_complex(graph))))
    assert main(["flows", "--q", "4"]) == 0
    assert route_calls["enum"] == 1
    want = count_nz_flows(build_complex(base), 4, method="subset_expansion")
    assert capsys.readouterr().out.strip() == str(want)
    delta = build_complex(graph)
    got = count_nz_flows(delta, 5)
    assert route_calls["enum"] == 1
    assert "flow_profile" in delta._cache
    assert got == count_nz_flows(build_complex(base), 5, method="kernel_enum")


def test_one_smith_form_of_the_top_map_per_complex(monkeypatch):
    """`auto`'s kernel sizes, the kernel search, the sweep of a lone
    block component, `homology_summary` and `bridges` all read one
    Smith form of the top boundary map."""
    from simflow import homology, linalg

    top_forms = []

    def counting(module):
        form = module.smith_normal_form

        def wrapper(mat):
            top_forms.append(mat == top)
            return form(mat)

        monkeypatch.setattr(module, "smith_normal_form", wrapper)

    counting(homology)
    counting(linalg)
    # Petersen enumerates kernels up to its 5-flows; K_4 sweeps at q = 2
    for delta, least in ((_fresh(petersen()), 5), (_fresh(complete(4, 2)), 4)):
        top = boundary_matrix(delta, delta.dimension).matrix
        top_forms.clear()
        assert min_flow_number(delta, 6) == least
        assert homology_summary(delta).betti[1] == top.cols - top.rows + 1
        assert bridges(delta) == []
        assert top_forms.count(True) == 1


def _moebius_ladder(n):
    """Cubic, bipartite when n / 2 is odd: n vertices, 3n / 2 edges and
    no series ridge."""
    return [[i, (i + 1) % n] for i in range(n)] + [[i, i + n // 2] for i in range(n // 2)]


def test_auto_over_the_subset_cap_keeps_enumerating(route_calls, monkeypatch, capsys):
    # 27 edges after series reduction, beta = 10: 3^10 kernel vectors; a
    # bipartite cubic graph has exactly two nowhere-zero 3-flows
    ladder = build_complex(_moebius_ladder(18))
    assert count_nz_flows(ladder, 3) == 2
    assert route_calls["enum"] == 1
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_complex(ladder)))
    assert main(["flows", "--q", "3"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    # K_8: 28 facets, 8 ridges; brute colorings up to 10^5 assignments
    k8 = _fresh(complete(8, 2))
    assert count_proper_colorings(k8, 3) == 0
    assert route_calls["brute"] == 1
    with pytest.raises(CapExceededError):
        count_proper_colorings(k8, 5)  # 5^8 > 10^5: the expansion, refused
    assert route_calls["brute"] == 1
