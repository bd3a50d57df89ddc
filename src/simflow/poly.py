"""Exact polynomial containers and formatting.

Bivariate polynomials hold integer coefficients in a monomial dict;
(x-1)^a (y-1)^b contributions are expanded by binomial convolution at
insert time so polynomial equality is plain dict equality. Univariate
polynomials are ascending coefficient lists.

Printing is deterministic: univariate in descending degree with explicit
signs, bivariate in graded-lex monomial order.
"""

from math import comb


class BivariatePolynomial:
    """Integer bivariate polynomial keyed by (x_power, y_power)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                if c:
                    self.coeffs[key] = c

    def add_shifted_term(self, a, b, weight=1):
        """Accumulate weight * (x-1)^a * (y-1)^b."""
        if not weight:
            return
        coeffs = self.coeffs
        for i in range(a + 1):
            ca = comb(a, i) * (1 if (a - i) % 2 == 0 else -1)
            for j in range(b + 1):
                c = weight * ca * comb(b, j) * (1 if (b - j) % 2 == 0 else -1)
                key = (i, j)
                new = coeffs.get(key, 0) + c
                if new:
                    coeffs[key] = new
                elif key in coeffs:
                    del coeffs[key]

    def evaluate(self, x, y):
        return sum(c * x**i * y**j for (i, j), c in self.coeffs.items())

    def __eq__(self, other):
        return isinstance(other, BivariatePolynomial) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"BivariatePolynomial({self.coeffs!r})"

    def __str__(self):
        return format_bivariate(self)


def _monomial(var, power):
    if power == 0:
        return ""
    if power == 1:
        return var
    return f"{var}^{power}"


def _join_terms(terms):
    if not terms:
        return "0"
    out = []
    for sign, body in terms:
        if not out:
            out.append(body if sign > 0 else f"-{body}")
        else:
            out.append(f" + {body}" if sign > 0 else f" - {body}")
    return "".join(out)


def format_bivariate(poly, x="x", y="y"):
    """Graded-lex order: total degree descending, then x-power descending."""
    keys = sorted(poly.coeffs, key=lambda ij: (-(ij[0] + ij[1]), -ij[0]))
    terms = []
    for i, j in keys:
        c = poly.coeffs[(i, j)]
        mono = "*".join(m for m in (_monomial(x, i), _monomial(y, j)) if m)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}{mono}"
        terms.append((1 if c > 0 else -1, body))
    return _join_terms(terms)


def trim_univariate(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def eval_univariate(coeffs, x):
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def format_univariate(coeffs, var="q"):
    coeffs = trim_univariate(coeffs)
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if not c:
            continue
        mono = _monomial(var, power)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}{mono}"
        terms.append((1 if c > 0 else -1, body))
    return _join_terms(terms)
