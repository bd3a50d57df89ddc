"""Named generators for the test corpus.

The real projective plane triangulation is the minimal 6-vertex one; its
homology (torsion Z_2 in degree one) is validated by the test suite
rather than trusted from this hardcoded list.
"""

from .complexes import build_complex, complete_complex, subdivide_facet
from .errors import BadParamsError

# minimal triangulation of RP^2: 6 vertices, 15 edges, 10 triangles,
# every edge in exactly two triangles
_RP2_FACES = (
    (0, 1, 4),
    (0, 1, 5),
    (0, 2, 3),
    (0, 2, 5),
    (0, 3, 4),
    (1, 2, 3),
    (1, 2, 4),
    (1, 3, 5),
    (2, 4, 5),
    (3, 4, 5),
)

# outer 5-cycle, spokes, inner pentagram
_PETERSEN_EDGES = (
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 4),
    (0, 4),
    (0, 5),
    (1, 6),
    (2, 7),
    (3, 8),
    (4, 9),
    (5, 7),
    (7, 9),
    (6, 9),
    (6, 8),
    (5, 8),
)


def cycle(n):
    if n < 3:
        raise BadParamsError(f"cycle needs n >= 3, got {n}")
    return build_complex([(i, (i + 1) % n) for i in range(n)])


def complete(n, k):
    return complete_complex(n, k)


def simplex_boundary(d):
    """Boundary of the (d+1)-simplex: the minimal triangulated d-sphere."""
    if d < 0:
        raise BadParamsError(f"dimension must be >= 0, got {d}")
    return complete_complex(d + 2, d + 1)


def rp2():
    return build_complex(list(_RP2_FACES))


def rp2_disjoint_pair():
    shifted = [tuple(v + 6 for v in f) for f in _RP2_FACES]
    return build_complex(list(_RP2_FACES) + shifted)


def petersen():
    return build_complex(list(_PETERSEN_EDGES))


def rp2_odd_triangle():
    """RP^2 with facet 0 subdivided, plus the triangle (0, 1, 2) on three
    of its edges. No facet is a bridge, but the triangle's boundary is
    the odd loop of RP^2, so the triangle lies in no mod-2 flow."""
    refined = subdivide_facet(rp2(), 0)
    return build_complex([list(f) for f in refined.facets] + [[0, 1, 2]])


def mod3_moore_space():
    """A disk whose 9-gon boundary wraps three times around the triangle
    loop 0-1-2: H_1 = Z_3, so the flow quasipolynomial has period 3."""
    tri = [(i % 3, (i + 1) % 3, 3 + i // 2) for i in range(9)]
    tri += [((2 * j + 2) % 3, 3 + j, 4 + j) for j in range(4)]
    tri += [(0, 7, 3), (3, 4, 5), (3, 5, 6), (3, 6, 7)]
    return build_complex([list(t) for t in tri])


def mod3_moore_disk():
    """The mod-3 Moore space plus the triangle (0, 1, 2) on the loop its
    disk wraps: 18 facets, no bridge and one circuit. Its only integer
    flows are the multiples of one that is +-1 on the Moore space and -3
    on the added triangle, so no flow has all entries in {-1, 1}."""
    moore = mod3_moore_space()
    return build_complex([list(f) for f in moore.facets] + [[0, 1, 2]])


FIXTURE_PARAMS = {
    "cycle": ("n",),
    "complete": ("n", "k"),
    "simplex_boundary": ("d",),
    "rp2": (),
    "rp2_disjoint_pair": (),
    "petersen": (),
}


def make_fixture(name, **params):
    if name not in FIXTURE_PARAMS:
        raise BadParamsError(
            f"unknown fixture {name!r}; choose from {sorted(FIXTURE_PARAMS)}"
        )
    wanted = FIXTURE_PARAMS[name]
    missing = [p for p in wanted if params.get(p) is None]
    extra = [p for p, v in params.items() if v is not None and p not in wanted]
    if missing or extra:
        raise BadParamsError(
            f"fixture {name!r} takes parameters {wanted}, got {params}"
        )
    args = [params[p] for p in wanted]
    return globals()[name](*args)


def standard_corpus():
    """The fixture list the identity suites run over."""
    return [
        ("cycle(3)", cycle(3)),
        ("cycle(4)", cycle(4)),
        ("cycle(5)", cycle(5)),
        ("complete(4,2)", complete(4, 2)),
        ("complete(5,3)", complete(5, 3)),
        ("simplex_boundary(2)", simplex_boundary(2)),
        ("simplex_boundary(3)", simplex_boundary(3)),
        ("rp2", rp2()),
        ("rp2_disjoint_pair", rp2_disjoint_pair()),
        ("petersen", petersen()),
    ]
