"""Reference answers computed without the code paths under test.

Ranks come from this file's own echelon reduction over GF(p): a large
prime gives the rational rank (the boundary entries are 0/+-1 and the
matrices are small, so no maximal minor reaches the prime), and the
drop from the rational rank to the rank mod p counts the invariant
factors divisible by p. Every subset of one facet component is visited
by a depth-first search that adds one column per step, so a component
of n facets costs 2^n reductions. Nothing here imports simflow.
"""

import re
from collections import Counter
from itertools import combinations
from math import comb

BIG_PRIME = (1 << 61) - 1


def canonical(facets):
    """Facets as the CLI orders them: sorted vertex tuples, sorted and
    deduplicated. Dense relabeling is monotone, so the order is the same
    before and after it."""
    return tuple(sorted({tuple(sorted(f)) for f in facets}))


def boundary_columns(facets):
    """Signed boundary of each facet as a list of (ridge, sign)."""
    cols = []
    for f in facets:
        if len(f) == 1:
            cols.append([((), 1)])
            continue
        cols.append([(f[:i] + f[i + 1 :], -1 if i % 2 else 1) for i in range(len(f))])
    return cols


def ridges(facets):
    return sorted({r for col in boundary_columns(facets) for r, _ in col})


def components(facets):
    """Facet indices grouped by shared ridges."""
    parent = list(range(len(facets)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    first = {}
    for i, col in enumerate(boundary_columns(facets)):
        for r, _ in col:
            j = first.setdefault(r, i)
            parent[find(i)] = find(j)
    groups = {}
    for i in range(len(facets)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


class _Basis:
    """Row-echelon basis over GF(p); vectors are {row: coefficient}."""

    def __init__(self, p):
        self.p = p
        self.rows = {}

    def reduce(self, vec):
        p = self.p
        v = {k: c % p for k, c in vec.items() if c % p}
        while v:
            lead = min(v)
            row = self.rows.get(lead)
            if row is None:
                inv = pow(v[lead], -1, p)
                return lead, {k: c * inv % p for k, c in v.items()}
            f = v[lead]
            for k, c in row.items():
                nv = (v.get(k, 0) - f * c) % p
                if nv:
                    v[k] = nv
                else:
                    v.pop(k, None)
        return None

    def extended(self, vec):
        """(basis with vec added, True) or (self, False) if vec is dependent."""
        red = self.reduce(vec)
        if red is None:
            return self, False
        out = _Basis(self.p)
        out.rows = dict(self.rows)
        out.rows[red[0]] = red[1]
        return out, True


def rank_mod(vectors, p):
    basis = _Basis(p)
    r = 0
    for v in vectors:
        basis, grew = basis.extended(v)
        r += grew
    return r


def _column_vectors(facets, row_index):
    return [
        {row_index[r]: s for r, s in col} for col in boundary_columns(facets)
    ]


def has_bridge(facets):
    """True when some facet is a coloop: removing it drops the rank."""
    canon = canonical(facets)
    index = {r: i for i, r in enumerate(ridges(canon))}
    vectors = _column_vectors(canon, index)
    full = rank_mod(vectors, BIG_PRIME)
    return any(
        rank_mod(vectors[:i] + vectors[i + 1 :], BIG_PRIME) < full
        for i in range(len(vectors))
    )


def rank_beta_top(facets):
    """Top Betti number: facets minus the rational rank of the boundary."""
    canon = canonical(facets)
    index = {r: i for i, r in enumerate(ridges(canon))}
    return len(canon) - rank_mod(_column_vectors(canon, index), BIG_PRIME)


def _mod2_vector(vec):
    bits = 0
    for k, c in vec.items():
        if c % 2:
            bits |= 1 << k
    return bits


def component_rank_tables(vectors):
    """Rational rank and rank mod 2 of every column subset, by local mask."""
    n = len(vectors)
    bits = [_mod2_vector(v) for v in vectors]
    rq = bytearray(1 << n)
    r2 = bytearray(1 << n)

    def dfs(i, mask, bq, b2, kq, k2):
        if i == n:
            rq[mask] = kq
            r2[mask] = k2
            return
        dfs(i + 1, mask, bq, b2, kq, k2)
        nbq, grew = bq.extended(vectors[i])
        v = bits[i]
        while v:
            low = v & -v
            row = b2.get(low)
            if row is None:
                break
            v ^= row
        nb2 = b2
        if v:
            nb2 = dict(b2)
            nb2[v & -v] = v
        dfs(i + 1, mask | 1 << i, nbq, nb2, kq + grew, k2 + (v != 0))

    dfs(0, 0, _Basis(BIG_PRIME), {}, 0, 0)
    return rq, r2


class RankOracle:
    """Per-component rank tables of a pure complex, with the histogram
    keyed by (size, rational rank, rank mod 2) that the answers fold."""

    def __init__(self, facets):
        self.facets = canonical(facets)
        self.n = len(self.facets)
        self.dimension = len(self.facets[0]) - 1
        self.ridges = ridges(self.facets)
        row_index = {r: i for i, r in enumerate(self.ridges)}
        self.vectors = _column_vectors(self.facets, row_index)
        self.components = components(self.facets)
        self.tables = [
            component_rank_tables([self.vectors[i] for i in comp])
            for comp in self.components
        ]
        self.rank_full = sum(rq[-1] for rq, _ in self.tables)
        hist = Counter({(0, 0, 0): 1})
        for rq, r2 in self.tables:
            local = Counter(
                (m.bit_count(), rq[m], r2[m]) for m in range(len(rq))
            )
            merged = Counter()
            for (s1, a1, b1), c1 in hist.items():
                for (s2, a2, b2), c2 in local.items():
                    merged[(s1 + s2, a1 + a2, b1 + b2)] += c1 * c2
            hist = merged
        self.histogram = hist

    @property
    def beta_top(self):
        return self.n - self.rank_full

    def rank(self, mask):
        total = 0
        for comp, (rq, _) in zip(self.components, self.tables):
            local = 0
            for k, fi in enumerate(comp):
                if mask >> fi & 1:
                    local |= 1 << k
            total += rq[local]
        return total

    def has_2_torsion(self):
        return any(a != b for (_, a, b) in self.histogram)

    def tutte(self, q2_weight=False):
        """sum over X of w(X) (x-1)^(r(F)-r(X)) (y-1)^(|X|-r(X)), with
        w = 2^(rational rank - rank mod 2) = t_2 when q2_weight is set."""
        out = Counter()
        for (size, rq, r2), count in self.histogram.items():
            w = count << (rq - r2) if q2_weight else count
            a, b = self.rank_full - rq, size - rq
            for i in range(a + 1):
                ca = comb(a, i) * (-1) ** (a - i)
                for j in range(b + 1):
                    out[(i, j)] += w * ca * comb(b, j) * (-1) ** (b - j)
        return {k: c for k, c in out.items() if c}

    def colorings_mod2(self):
        rows = len(self.ridges)
        return sum(
            (-1) ** size * count * 2 ** (rows - r2)
            for (size, _, r2), count in self.histogram.items()
        )

    def bridges(self):
        full = (1 << self.n) - 1
        return [f for f in range(self.n) if self.rank(full ^ 1 << f) < self.rank_full]

    def connectivity(self):
        """(value, exact, witness facets) as `analyze` defines them: the
        least cut whose removal drops the rank, the numerically smallest
        such mask as witness."""
        if self.rank_full == 0:
            return self.n + 1, False, []
        best = None
        for comp, (rq, _) in zip(self.components, self.tables):
            full = len(rq) - 1
            if rq[full] == 0:
                continue
            k = min(m.bit_count() for m in range(len(rq)) if rq[full ^ m] < rq[full])
            for m in range(len(rq)):
                if m.bit_count() == k and rq[full ^ m] < rq[full]:
                    glob = sum(1 << comp[i] for i in range(len(comp)) if m >> i & 1)
                    if best is None or (k, glob) < best:
                        best = (k, glob)
        k, glob = best
        return k, True, [i for i in range(self.n) if glob >> i & 1]

    def coarboricity(self):
        """Least c with c * r*(X) >= |X| for all X (dual rank r*); None
        when a bridge makes r*({f}) = 0. A direct sum takes the max over
        its components."""
        c = 1
        for rq, _ in self.tables:
            full = len(rq) - 1
            for m in range(1, len(rq)):
                size = m.bit_count()
                dual = size + rq[full ^ m] - rq[full]
                if dual == 0:
                    return None
                c = max(c, -(-size // dual))
        return c

    def lower_betti_and_torsion(self):
        """Reduced Betti numbers in dimensions below d - 1, and the count of
        invariant factors of the top map divisible by each small prime."""
        d = self.dimension
        faces = {
            k: sorted({s for f in self.facets for s in combinations(f, k + 1)})
            for k in range(d)
        }
        ranks = {0: 1}
        for k in range(1, d):
            index = {r: i for i, r in enumerate(faces[k - 1])}
            ranks[k] = rank_mod(_column_vectors(faces[k], index), BIG_PRIME)
        betti = {}
        if d >= 1:
            betti[d - 1] = len(faces[d - 1]) - ranks[d - 1] - self.rank_full
        for k in range(d - 1):
            betti[k] = len(faces[k]) - ranks[k] - ranks[k + 1]
        divisible = {
            p: self.rank_full - rank_mod(self.vectors, p) for p in (2, 3, 5, 7)
        }
        return betti, divisible


def boundary_product(facets, values, q):
    """Top boundary applied to facet values, reduced mod q (a flow gives 0s)."""
    acc = Counter()
    for col, v in zip(boundary_columns(canonical(facets)), values):
        for r, s in col:
            acc[r] += s * v
    return [x % q for x in acc.values()]


def count_colorings(edges, k):
    """Proper k-colorings of a graph by backtracking over its vertices."""
    vertices = sorted({v for e in edges for v in e})
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    color = {}

    def place(i):
        if i == len(vertices):
            return 1
        v = vertices[i]
        used = {color[u] for u in adj[v] if u in color}
        total = 0
        for c in range(k):
            if c not in used:
                color[v] = c
                total += place(i + 1)
                del color[v]
        return total

    return place(0)


def networkx_tutte(edges):
    """Tutte polynomial from networkx as {(i, j): c}, or None when networkx
    or sympy is missing."""
    try:
        import networkx as nx
        import sympy
    except ImportError:
        return None
    g = nx.MultiGraph()
    g.add_edges_from(edges)
    x, y = sympy.symbols("x y")
    poly = sympy.Poly(nx.tutte_polynomial(g), x, y)
    return {k: int(c) for k, c in poly.as_dict().items() if c}


def suspension_facets(facets):
    """The CLI's suspension of the densely relabeled complex."""
    dense = _dense(facets)
    top = 1 + max(v for f in dense for v in f) + 1
    out = []
    for f in dense:
        shifted = tuple(v + 1 for v in f)
        out += [(0,) + shifted, shifted + (top,)]
    return canonical(out)


def subdivision_facets(facets, index):
    """Stellar subdivision of facet `index` of the densely relabeled complex."""
    dense = _dense(facets)
    w = 1 + max(v for f in dense for v in f)
    target = dense[index]
    out = [f for i, f in enumerate(dense) if i != index]
    out += [target[:i] + target[i + 1 :] + (w,) for i in range(len(target))]
    return canonical(out)


def _dense(facets):
    canon = canonical(facets)
    labels = {v: i for i, v in enumerate(sorted({v for f in canon for v in f}))}
    return canonical([tuple(labels[v] for v in f) for f in canon])


# ---------------------------------------------------------------------------
# parsing the CLI's polynomial text


def _terms(text):
    text = text.strip()
    if text == "0":
        return []
    first_sign = 1
    if text.startswith("-"):
        first_sign, text = -1, text[1:]
    parts = re.split(r" ([+-]) ", text)
    out = [(first_sign, parts[0])]
    for op, body in zip(parts[1::2], parts[2::2]):
        out.append((1 if op == "+" else -1, body))
    return out


def _parse_monomial(body, variables):
    digits = 0
    while digits < len(body) and body[digits].isdigit():
        digits += 1
    coeff = int(body[:digits]) if digits else 1
    powers = [0] * len(variables)
    rest = body[digits:]
    if rest:
        for factor in rest.split("*"):
            name, _, power = factor.partition("^")
            powers[variables.index(name)] += int(power) if power else 1
    elif not digits:
        raise ValueError(f"empty term in {body!r}")
    return coeff, tuple(powers)


def parse_polynomial(text, variables):
    """{exponent tuple: coefficient} from 'x^2*y - 3x + 2'-style text."""
    out = Counter()
    for sign, body in _terms(text):
        coeff, powers = _parse_monomial(body, variables)
        out[powers] += sign * coeff
    return {k: c for k, c in out.items() if c}


def evaluate(poly, point):
    total = 0
    for powers, c in poly.items():
        term = c
        for x, e in zip(point, powers):
            term *= x**e
        total += term
    return total
