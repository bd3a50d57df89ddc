"""The TKR polynomial family: subset expansions through Betti numbers
(which is also the Tutte polynomial of the simplicial matroid), the
torsion-weighted q-version, and Bott's R polynomial under both sign
readings. Each expansion is a product over the blocks of the subset
profile. `verify` criterion 5 holds their flow and coloring
specializations to direct counts.
"""

from .complexes import boundary_matrix  # not called here; perfbench/spans.py traces this name
from .errors import BadModulusError, BadParamsError
from .flows import (
    _flow_coefficients,
    count_nz_flows,  # not called here; perfbench/spans.py traces this name
    count_proper_colorings,  # not called here; perfbench/spans.py traces this name
)
from .homology import subset_profile, t_q_of
from .linalg import kernel_count_mod_q  # not called here; perfbench/spans.py traces this name
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
