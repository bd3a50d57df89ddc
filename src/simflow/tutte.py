"""The TKR polynomial family: subset expansions through Betti numbers
(which is also the Tutte polynomial of the simplicial matroid), the
torsion-weighted q-version, Bott's R polynomial under both sign
readings, and the specialization cross-check. Each expansion is a
product over the blocks of the subset profile.
"""

from dataclasses import dataclass, field
from math import comb

from .caps import DEFAULT_ENUM_CAP
from .complexes import boundary_matrix
from .errors import BadModulusError, BadParamsError
from .flows import (
    BRUTE_COLORING_LIMIT,
    _flow_coefficients,
    count_nz_flows,
    count_proper_colorings,
    ridge_count,
)
from .homology import subset_profile, t_q_of
from .linalg import kernel_count_mod_q
from .poly import BivariatePolynomial, trim_univariate


def tkr_polynomial(delta, force=False):
    """Sum over facet subsets of (x-1)^(drop in codim-1 Betti) times
    (y-1)^(top Betti), expanded to the monomial basis: the q-TKR
    polynomial at q = 1, where every torsion weight is 1."""
    return q_tkr_polynomial(delta, 1, force=force)


def q_tkr_polynomial(delta, q, force=False):
    """TKR weighted per subset by t_q = |Tor(H_{d-1}(X), Z_q)|, summed
    as weights of (x-1)^a (y-1)^b; each is expanded to monomials once."""
    if q < 1:
        raise BadModulusError(f"modulus must be >= 1, got {q}")

    def term(block, size, rank, tors):
        return (block.rank - rank, size - rank), t_q_of(tors, q)

    poly = BivariatePolynomial()
    for (a, b), weight in subset_profile(delta, force=force).expand(term).items():
        poly.add_shifted_term(a, b, weight)
    return poly


# The Tutte polynomial of the simplicial matroid is the same sum over
# subsets, (x-1)^(r(F)-r(X)) (y-1)^(|X|-r(X)); `verify` holds it to one
# built from per-subset ranks.
matroid_tutte = tkr_polynomial


def bott_r_polynomial(delta, sign_convention="literal", force=False):
    """Bott's R polynomial in lambda, ascending coefficients.

    literal: sum of (-1)^|X| lambda^beta_d(X); complemented flips the sign
    exponent to |F| - |X|. Both are exposed because they disagree on odd
    facet counts.
    """
    if sign_convention not in ("literal", "complemented"):
        raise BadParamsError(f"unknown sign convention {sign_convention!r}")
    # complemented Bott has the flow expansion's coefficients at r = 1,
    # where every torsion weight is 1
    coeffs = _flow_coefficients(subset_profile(delta, force=force), 1)
    if sign_convention == "literal" and len(delta.facets) % 2:
        coeffs = [-c for c in coeffs]
    return trim_univariate(coeffs)


def _compose_one_minus(coeffs):
    """f(y) with ascending coeffs -> f(1 - t) ascending in t."""
    out = [0] * max(len(coeffs), 1)
    for j, c in enumerate(coeffs):
        for i in range(j + 1):
            out[i] += c * comb(j, i) * (1 if i % 2 == 0 else -1)
    return trim_univariate(out)


@dataclass
class SpecializationCheck:
    """One modulus. The direct counts come only from kernel enumeration
    (flows) and brute force (colorings). Past their limits a direct count
    and its verdict are None: that pair is not compared."""

    q: int
    flow_direct: int
    flow_specialized: int
    flows_ok: bool
    coloring_direct: int
    colorings_ok: bool
    plain_flow_ok: bool = None


@dataclass
class SpecializationReport:
    torsion_free: bool
    bott_complemented_ok: bool
    bott_literal_ok: bool
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        if not self.bott_complemented_ok:
            return False
        return not any(
            False in (c.flows_ok, c.colorings_ok, c.plain_flow_ok) for c in self.checks
        )


def check_specializations(delta, q_list, force=False):
    """Per modulus: flow and coloring counts against their torsion-weighted
    TKR specializations; plus the Bott identity at polynomial level, and
    the plain-TKR identities when no subset carries torsion.

    A direct count never folds the profile that the specializations
    read: flows are enumerated when the kernel holds at most
    DEFAULT_ENUM_CAP vectors, and colorings are brute-forced when there
    are at most BRUTE_COLORING_LIMIT of them. Other pairs are not compared.
    """
    profile = subset_profile(delta, force=force)
    n = len(delta.facets)
    rows = ridge_count(delta)
    beta_top = n - profile.rank_full
    torsion_free = profile.torsion_period() == 1
    flow_sign = -1 if beta_top % 2 else 1
    col_sign = -1 if (n - beta_top) % 2 else 1
    col_exp = rows - n + beta_top

    plain = tkr_polynomial(delta, force=force)
    spec_poly = [flow_sign * c for c in _compose_one_minus(plain.substitute_x(0))]
    bott_complemented_ok = (
        bott_r_polynomial(delta, "complemented", force=force) == trim_univariate(spec_poly)
    )
    bott_literal_ok = (
        bott_r_polynomial(delta, "literal", force=force) == trim_univariate(spec_poly)
    )

    report = SpecializationReport(
        torsion_free=torsion_free,
        bott_complemented_ok=bott_complemented_ok,
        bott_literal_ok=bott_literal_ok,
    )
    top = boundary_matrix(delta, delta.dimension).matrix
    for q in q_list:
        qt = q_tkr_polynomial(delta, q, force=force)
        flow_specialized = flow_sign * qt.evaluate(0, 1 - q)
        flow_direct = flows_ok = plain_flow_ok = None
        if kernel_count_mod_q(top, q) <= DEFAULT_ENUM_CAP:
            flow_direct = count_nz_flows(delta, q, method="kernel_enum")
            flows_ok = flow_direct == flow_specialized
            if torsion_free:
                plain_flow_ok = flow_direct == flow_sign * plain.evaluate(0, 1 - q)

        coloring_direct = colorings_ok = None
        if q**rows <= BRUTE_COLORING_LIMIT:
            coloring_direct = count_proper_colorings(delta, q, method="brute")
            lhs = coloring_direct * q ** max(-col_exp, 0)
            rhs = col_sign * qt.evaluate(1 - q, 0) * q ** max(col_exp, 0)
            colorings_ok = lhs == rhs

        report.checks.append(
            SpecializationCheck(
                q=q,
                flow_direct=flow_direct,
                flow_specialized=flow_specialized,
                flows_ok=flows_ok,
                coloring_direct=coloring_direct,
                colorings_ok=colorings_ok,
                plain_flow_ok=plain_flow_ok,
            )
        )
    return report
