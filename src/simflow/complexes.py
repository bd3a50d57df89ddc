"""Pure simplicial complexes, boundary matrices, and the two refinement
operators (suspension, stellar subdivision of a facet).

Complexes are immutable after construction. Vertices are relabeled to
dense nonnegative ints on ingest so every derived matrix is deterministic;
the relabeling map is kept on the complex. Facet subsets are plain int
bitmasks over the canonical facet order. `top_columns` is the one cached
list of top boundary columns and `column_components` the one union-find
that splits columns into block components; the facets' block record
(`homology.facet_blocks`) splits them once per complex.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .caps import check_enum_cap
from .errors import (
    BadParamsError,
    EmptyInputError,
    IndexOutOfRangeError,
    NotPureError,
)
from .linalg import IntMatrix


@dataclass(frozen=True)
class BoundaryMatrix:
    """Boundary map in dimension n with its row/column face labels.

    Rows are the (n-1)-faces in lex order; for n = 0 there is a single
    augmentation row (reduced homology). Columns are the n-faces, or the
    selected facets when restricted.
    """

    matrix: IntMatrix
    row_faces: tuple
    col_faces: tuple
    n: int


class SimplicialComplex:
    """Pure dimension-d complex with canonical facet and face orderings."""

    __slots__ = ("dimension", "facets", "vertex_map", "_faces", "_cache")

    def __init__(self, dimension, facets, vertex_map, faces):
        self.dimension = dimension
        self.facets = facets
        self.vertex_map = vertex_map
        self._faces = faces
        self._cache = {}

    @property
    def vertex_count(self):
        return len(self._faces[0]) if self.dimension >= 0 else 0

    def faces(self, n):
        """All n-faces (downward closure of the facets), lex sorted."""
        if n < 0 or n > self.dimension:
            raise IndexOutOfRangeError(f"no faces in dimension {n}")
        return self._faces[n]

    @property
    def ridges(self):
        """(d-1)-faces; for d = 0 there are none (the augmentation stands in)."""
        return self._faces[self.dimension - 1] if self.dimension > 0 else ()

    @property
    def full_mask(self):
        return (1 << len(self.facets)) - 1

    def facets_of_mask(self, mask):
        return [i for i in range(len(self.facets)) if mask >> i & 1]

    def __repr__(self):
        return (
            f"SimplicialComplex(d={self.dimension}, facets={len(self.facets)}, "
            f"vertices={self.vertex_count})"
        )


def canonical_simplex(vertices):
    vs = sorted(vertices)
    if not vs:
        raise EmptyInputError("empty facet")
    if any(v < 0 for v in vs):
        raise BadParamsError(f"negative vertex id in {vertices}")
    if any(a == b for a, b in zip(vs, vs[1:])):
        raise BadParamsError(f"duplicate vertex in facet {vertices}")
    return tuple(vs)


def _downward_closure(facets, dimension):
    faces = {}
    for n in range(dimension + 1):
        seen = set()
        for f in facets:
            seen.update(combinations(f, n + 1))
        faces[n] = tuple(sorted(seen))
    return faces


def build_complex(facet_lists):
    """Canonicalize a list of vertex lists into a SimplicialComplex.

    Vertices are relabeled densely (sorted original ids -> 0..V-1) and the
    map is retained. Facets are sorted, deduplicated, and must all have the
    same cardinality.
    """
    if not facet_lists:
        raise EmptyInputError("no facets")
    raw = [canonical_simplex(f) for f in facet_lists]
    sizes = {len(f) for f in raw}
    if len(sizes) > 1:
        raise NotPureError(f"mixed facet cardinalities {sorted(sizes)}")
    labels = sorted({v for f in raw for v in f})
    vmap = {v: i for i, v in enumerate(labels)}
    facets = tuple(sorted({tuple(vmap[v] for v in f) for f in raw}))
    dimension = len(facets[0]) - 1
    # refuse more nonempty faces, counted with repeats, than the cap
    check_enum_cap(len(facets) * ((1 << dimension + 1) - 1), what="faces")
    return SimplicialComplex(
        dimension, facets, vmap, _downward_closure(facets, dimension)
    )


def complete_complex(n, k):
    """All k-subsets of {0..n-1} as facets (the complete (k-1)-dimensional
    complex on n vertices)."""
    if k < 1 or k > n:
        raise BadParamsError(f"need 1 <= k <= n, got k={k}, n={n}")
    check_enum_cap(comb(n, k) * ((1 << k) - 1), what="faces")
    facets = tuple(combinations(range(n), k))
    return SimplicialComplex(
        k - 1, facets, {v: v for v in range(n)}, _downward_closure(facets, k - 1)
    )


def boundary_matrix(delta, n):
    """The n-th boundary map; n = 0 gives the all-ones augmentation row."""
    if n < 0 or n > delta.dimension:
        raise IndexOutOfRangeError(f"no boundary map in dimension {n}")
    key = ("boundary", n)
    cached = delta._cache.get(key)
    if cached is not None:
        return cached
    cols = delta.faces(n)
    if n == 0:
        bm = BoundaryMatrix(
            IntMatrix([[1] * len(cols)]), row_faces=((),), col_faces=cols, n=0
        )
    else:
        rows = delta.faces(n - 1)
        row_index = {r: i for i, r in enumerate(rows)}
        data = [[0] * len(cols) for _ in rows]
        for j, face in enumerate(cols):
            sign = 1
            for i in range(len(face)):
                sub = face[:i] + face[i + 1 :]
                data[row_index[sub]][j] = sign
                sign = -sign
        bm = BoundaryMatrix(IntMatrix(data), row_faces=rows, col_faces=cols, n=n)
    delta._cache[key] = bm
    return bm


def restrict_columns(delta, mask):
    """Top boundary map restricted to the facets of `mask`; the row set is
    the full codimension-1 skeleton (facet subsets never drop faces)."""
    full = boundary_matrix(delta, delta.dimension)
    keep = delta.facets_of_mask(mask)
    data = [[row[j] for j in keep] for row in full.matrix.data]
    return BoundaryMatrix(
        IntMatrix(data, cols=len(keep)),
        row_faces=full.row_faces,
        col_faces=tuple(full.col_faces[j] for j in keep),
        n=full.n,
    )


def suspension(delta):
    """Suspend: every facet f becomes {t} u f and f u {b}.

    The bottom apex t gets the label below all originals (originals shift
    up by one) and the top apex b the label above all. Returns the new
    complex and the relabeling map applied to the original vertices.
    """
    shift = {v: v + 1 for v in range(delta.vertex_count)}
    top = delta.vertex_count + 1
    new_facets = []
    for f in delta.facets:
        shifted = tuple(v + 1 for v in f)
        new_facets.append((0,) + shifted)
        new_facets.append(shifted + (top,))
    return build_complex(new_facets), shift


def subdivide_facet(delta, facet_index):
    """Stellar subdivision: replace one facet by d+1 facets through a fresh
    maximal vertex."""
    if not 0 <= facet_index < len(delta.facets):
        raise IndexOutOfRangeError(f"facet index {facet_index} out of range")
    w = delta.vertex_count
    target = delta.facets[facet_index]
    new_facets = [f for i, f in enumerate(delta.facets) if i != facet_index]
    for i in range(len(target)):
        new_facets.append(target[:i] + target[i + 1 :] + (w,))
    return build_complex(new_facets)


def top_columns(delta):
    """Columns of the top boundary map, one tuple per facet (cached).

    Every sweep, rank fold and component split of the facets reads this
    list; the tuples keep a cached column from being changed in place.
    """
    cols = delta._cache.get("top_columns")
    if cols is None:
        cols = tuple(zip(*boundary_matrix(delta, delta.dimension).matrix.data))
        delta._cache["top_columns"] = cols
    return cols


def column_components(columns):
    """Group column indices into block components: columns that share a
    nonzero row, transitively. A zero column is a component of its own."""
    parent = list(range(len(columns)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    first = {}
    for j, col in enumerate(columns):
        for i, v in enumerate(col):
            if v:
                ra, rb = find(first.setdefault(i, j)), find(j)
                if ra != rb:
                    parent[rb] = ra
    groups = {}
    for j in range(len(columns)):
        groups.setdefault(find(j), []).append(j)
    return [tuple(g) for g in sorted(groups.values())]


def facet_components(delta):
    """Partition facet indices by shared ridges: the block components of
    `top_columns` (for d = 0 the augmentation row ties them all)."""
    return column_components(top_columns(delta))
