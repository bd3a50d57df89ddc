import io
from dataclasses import dataclass, field

import pytest

from simflow import (
    BadModulusError,
    BadParamsError,
    bott_r_polynomial,
    build_complex,
    count_nz_flows,
    count_proper_colorings,
    matroid_tutte,
    q_tkr_polynomial,
    serialize_complex,
    subset_profile,
    tkr_polynomial,
)
from simflow.cli import main
from simflow.fixtures import complete, cycle, petersen, rp2, simplex_boundary, standard_corpus
from simflow.flows import ridge_count
from simflow.poly import BivariatePolynomial, format_bivariate, format_univariate
from forest_oracle import classify_forest
from sweep_oracle import watch_sides


def swap_variables(poly):
    """T(x, y) -> T(y, x)."""
    return BivariatePolynomial({(j, i): c for (i, j), c in poly.coeffs.items()})


def test_tkr_single_simplex_is_x():
    poly = tkr_polynomial(build_complex([[0, 1, 2]]))
    assert poly.coeffs == {(1, 0): 1}


def test_tkr_cycle():
    poly = tkr_polynomial(cycle(3))
    assert poly.coeffs == {(2, 0): 1, (1, 0): 1, (0, 1): 1}
    assert format_bivariate(poly) == "x^2 + x + y"


def test_tkr_k4_spanning_trees():
    assert tkr_polynomial(complete(4, 2)).evaluate(1, 1) == 16


def test_tkr_spanning_tree_count_matches_forest_census():
    """T(1,1) counts maximal forests for torsion-free complexes."""
    for _, delta in standard_corpus():
        if len(delta.facets) > 8:
            continue
        count = sum(
            1
            for mask in range(1 << len(delta.facets))
            if (lambda f: f.forest and f.maximal)(classify_forest(delta, mask))
        )
        assert tkr_polynomial(delta).evaluate(1, 1) == count


def test_matroid_tutte_equals_tkr_everywhere():
    """Against the Tutte polynomial built from one rational rank per
    subset, as verify criterion 5 does."""
    from simflow.verify import _tutte_by_ranks

    for _, delta in standard_corpus():
        if len(delta.facets) <= 10:
            assert matroid_tutte(delta) == _tutte_by_ranks(delta)


def test_specialization_suite_fails_on_a_corrupted_histogram(monkeypatch):
    from simflow import verify

    delta = cycle(4)
    profile = subset_profile(delta)
    profile.blocks[0].histogram[3, 3, ()] -= 1
    profile.blocks[0].histogram[3, 2, ()] += 1
    monkeypatch.setattr(verify, "standard_corpus", lambda: [("cycle(4)", delta)])
    result = verify.check_specialization_identities()
    assert not result.passed
    assert result.detail.startswith("cycle(4): TKR != Tutte from per-subset ranks")


def test_specialization_suite_holds_large_graphs_to_networkx(monkeypatch):
    """Past 10 facets a graph's TKR is held to networkx's Tutte
    polynomial, so a corrupted block histogram of the 11-cycle fails there."""
    pytest.importorskip("networkx")
    pytest.importorskip("sympy")
    from simflow import verify

    delta = cycle(11)
    monkeypatch.setattr(verify, "standard_corpus", lambda: [("cycle(11)", delta)])
    result = verify.check_specialization_identities()
    assert result.passed and "networkx's on 1 graph(s) past 10 facets" in result.detail
    profile = subset_profile(delta)
    profile.blocks[0].histogram[10, 10, ()] -= 1
    profile.blocks[0].histogram[10, 9, ()] += 1
    result = verify.check_specialization_identities()
    assert not result.passed
    assert result.detail.startswith("cycle(11): TKR != networkx Tutte polynomial")


def test_tutte_symmetry_of_k4():
    poly = tkr_polynomial(complete(4, 2))
    assert poly == swap_variables(poly)


def test_q_tkr_degenerations():
    tetra = simplex_boundary(2)
    base = tkr_polynomial(tetra)
    for q in range(1, 6):
        assert q_tkr_polynomial(tetra, q) == base
    assert q_tkr_polynomial(rp2(), 3) == tkr_polynomial(rp2())
    assert q_tkr_polynomial(rp2(), 1) == tkr_polynomial(rp2())
    assert q_tkr_polynomial(rp2(), 2) != tkr_polynomial(rp2())
    with pytest.raises(BadModulusError):
        q_tkr_polynomial(rp2(), 0)


def test_rp2_even_flow_specialization_value():
    # (-1)^beta_2 T^2(0, -1) must equal the single even flow
    value = q_tkr_polynomial(rp2(), 2).evaluate(0, -1)
    assert value == 1 == count_nz_flows(rp2(), 2)


def test_bott_conventions_on_cycle():
    assert bott_r_polynomial(cycle(3), "literal") == [1, -1]
    assert bott_r_polynomial(cycle(3), "complemented") == [-1, 1]
    with pytest.raises(BadParamsError):
        bott_r_polynomial(cycle(3), "other")


def test_bott_coloop_cancels():
    assert bott_r_polynomial(build_complex([[0, 1, 2]]), "literal") == []


def test_bott_complemented_equals_specialization():
    """Complemented Bott is the flow specialization of TKR; literal Bott
    is too exactly when the facet count is even."""
    from simflow.verify import _bott_by_tkr

    for _, delta in standard_corpus():
        if len(delta.facets) > 10:
            continue
        want = _bott_by_tkr(delta)
        assert bott_r_polynomial(delta, "complemented") == want
        assert (bott_r_polynomial(delta, "literal") == want) == (len(delta.facets) % 2 == 0)


def test_specializations_hold_on_a_cycle_with_plain_tkr(monkeypatch):
    """The 3-cycle carries no torsion, so its flow counts are held to
    plain TKR too: a plain TKR off by one monomial fails there, at every
    modulus, and in the Bott comparison."""
    from simflow import verify

    failures, flows, colorings = verify._specialization_failures("c3", cycle(3), range(2, 7))
    assert failures == []
    assert sorted(flows) == sorted(colorings) == [2, 3, 4, 5, 6]
    real = verify.tkr_polynomial

    def shifted(delta, force=False):
        poly = real(delta, force=force)
        return BivariatePolynomial({**poly.coeffs, (0, 1): poly.coeffs.get((0, 1), 0) + 1})

    monkeypatch.setattr(verify, "tkr_polynomial", shifted)
    failures, _, _ = verify._specialization_failures("c3", cycle(3), range(2, 7))
    assert failures == ["c3: complemented Bott != flow specialization of TKR"] + [
        f"c3 q={q}: plain TKR flow specialization" for q in range(2, 7)
    ]


def test_specializations_rp2_nonpolynomial(monkeypatch):
    """The plain-TKR identity must fail against the even counts, which is
    exactly the non-polynomiality of the flow quasipolynomial, so it is
    not compared where a subset carries torsion. The direct counts never
    fold the histogram: past 10^5 colorings (3^15 for q = 3) the coloring
    pair is not compared."""
    from simflow import flows, verify

    def folded(*args, **kwargs):
        raise AssertionError("direct count folded the histogram")

    monkeypatch.setattr(flows, "_flow_expansion", folded)
    monkeypatch.setattr(flows, "_coloring_expansion", folded)
    failures, counts, colorings = verify._specialization_failures("rp2", rp2(), range(2, 6))
    assert failures == []
    assert counts == {2: 1, 3: 0, 4: 1, 5: 0}
    assert list(colorings) == [2]
    plain = tkr_polynomial(rp2())
    beta_top = 0
    mismatch = [
        q
        for q in range(2, 6)
        if count_nz_flows(rp2(), q, method="kernel_enum")
        != (-1) ** beta_top * plain.evaluate(0, 1 - q)
    ]
    assert mismatch == [2, 4]


def test_specializations_petersen():
    from simflow.verify import _specialization_failures

    failures, flows, _ = _specialization_failures("petersen", petersen(), [5])
    assert failures == []
    assert flows == {5: 240}


@dataclass
class DualityCheck:
    q: int
    qtkr_swap_ok: bool
    scalar_ok: bool
    flow_value: int
    coloring_value: int


@dataclass
class DualityReport:
    plain_swap_ok: bool
    eps: int
    scale_exponent: int
    sign: int
    checks: list = field(default_factory=list)


def check_duality_swap(a, b, q_list, force=False):
    """Verify the variable swap between a claimed dual pair, and the
    scalar flow/coloring relation with sign and power computed from the
    pair's own face counts."""
    profile_a = subset_profile(a, force=force)
    profile_b = subset_profile(b, force=force)
    beta_a = len(a.facets) - profile_a.rank_full
    beta_b = len(b.facets) - profile_b.rank_full
    eps = len(b.facets) - beta_b - beta_a
    scale = ridge_count(b) - len(b.facets) + beta_b
    sign = -1 if eps % 2 else 1

    plain_swap_ok = (
        tkr_polynomial(a, force=force)
        == swap_variables(tkr_polynomial(b, force=force))
    )
    report = DualityReport(
        plain_swap_ok=plain_swap_ok, eps=eps, scale_exponent=scale, sign=sign
    )
    for q in q_list:
        qtkr_ok = (
            q_tkr_polynomial(a, q, force=force)
            == swap_variables(q_tkr_polynomial(b, q, force=force))
        )
        flow_value = count_nz_flows(a, q, force=force)
        coloring_value = count_proper_colorings(b, q, force=force)
        lhs = sign * flow_value * q ** max(scale, 0)
        rhs = coloring_value * q ** max(-scale, 0)
        report.checks.append(
            DualityCheck(
                q=q,
                qtkr_swap_ok=qtkr_ok,
                scalar_ok=lhs == rhs,
                flow_value=flow_value,
                coloring_value=coloring_value,
            )
        )
    return report


def test_duality_swap_k4_self_dual():
    report = check_duality_swap(complete(4, 2), complete(4, 2), [2, 3, 4])
    assert report.plain_swap_ok
    assert report.eps == 0 and report.scale_exponent == 1
    assert all(c.qtkr_swap_ok and c.scalar_ok for c in report.checks)


def test_duality_swap_simplex_boundary_vs_points():
    """The tetrahedron boundary pairs with the 0-skeleton of its dual
    (four points) under the variable swap."""
    points = build_complex([[0], [1], [2], [3]])
    report = check_duality_swap(simplex_boundary(2), points, [2, 3])
    assert report.plain_swap_ok
    assert all(c.qtkr_swap_ok and c.scalar_ok for c in report.checks)


def test_duality_scalar_c4_against_double_edge_colorings():
    """The planar dual of the 4-cycle is the double edge, which is not
    simplicial; a single edge has the same proper-coloring count, so the
    scalar relation is checked against it."""
    report = check_duality_swap(cycle(4), build_complex([[0, 1]]), [2, 3, 4, 5])
    assert all(c.scalar_ok for c in report.checks)
    assert not report.plain_swap_ok


def test_bivariate_polynomial_basics():
    poly = BivariatePolynomial()
    poly.add_shifted_term(1, 0, 1)  # (x - 1)
    poly.add_shifted_term(0, 0, 1)  # + 1
    assert poly.coeffs == {(1, 0): 1}
    assert poly.evaluate(7, 0) == 7
    assert format_univariate([-6, 11, -6, 1], var="q") == "q^3 - 6q^2 + 11q - 6"
    assert format_univariate([], var="q") == "0"


def test_petersen_tutte_matches_networkx(monkeypatch, capsys):
    """Past 10 facets: Petersen's 15 edges are swept on the dual side (a
    kernel basis of 6 columns against rank 9), and `poly --kind tutte`
    must print networkx's deletion-contraction Tutte polynomial."""
    nx = pytest.importorskip("networkx")
    sympy = pytest.importorskip("sympy")
    delta = petersen()
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_complex(delta)))
    with watch_sides() as sides:
        assert main(["poly", "--kind", "tutte"]) == 0
    assert sides == ["dual"]
    out = capsys.readouterr().out

    x, y = sympy.symbols("x y")
    graph = nx.Graph(list(delta.facets))
    want = sympy.Poly(nx.tutte_polynomial(graph), x, y).as_dict()
    assert out.strip() == format_bivariate(
        BivariatePolynomial({key: int(c) for key, c in want.items()})
    )
