"""Seeded complexes for the three workloads.

Every generator takes a `random.Random` and returns facet lists; the
same seed gives the same documents. Sizes are pinned per family (facet
count, vertex count, first Betti number) and only the structure is
random, so that two seeds cost about the same to answer. Vertex ids are
spread over a sparse range so each request also exercises relabeling.
"""

import itertools

from oracle import canonical, components, has_bridge, rank_beta_top

# minimal 6-vertex triangulation of the real projective plane
RP2 = (
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
)


def sparse_labels(facets, rng, offset=0):
    """Relabel vertices injectively into a sparse, shuffled id range."""
    vertices = sorted({v for f in facets for v in f})
    ids = rng.sample(range(offset, offset + 3 * len(vertices)), len(vertices))
    label = dict(zip(vertices, ids))
    return [[label[v] for v in f] for f in facets]


def bridgeless_graph(rng, v, e):
    """Connected graph on v vertices with e edges around a Hamiltonian
    cycle, so every edge lies on a cycle."""
    order = list(range(v))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[(i + 1) % v]))) for i in range(v)}
    chords = [p for p in itertools.combinations(range(v), 2) if p not in edges]
    edges.update(rng.sample(chords, e - v))
    return sorted(edges)


def subdivided_graph(rng, base_vertices, base_edges, e):
    """A random simple graph on base_vertices with base_edges edges (a
    dense, bridgeless base), with random edges subdivided until it has e
    edges. Returns (graph, base); subdividing an edge keeps every
    nowhere-zero flow count."""
    while True:
        base = rng.sample(
            list(itertools.combinations(range(base_vertices), 2)), base_edges
        )
        if len(components(canonical(base))) == 1 and not has_bridge(base):
            break
    edges = [tuple(p) for p in base]
    nv = base_vertices
    while len(edges) < e:
        a, b = edges.pop(rng.randrange(len(edges)))
        edges += [(a, nv), (nv, b)]
        nv += 1
    return sorted(edges), sorted(base)


def random_2complex(rng, v, nf, edges=None, beta=None):
    """nf triangles on v vertices, one facet component, no bridges; with
    `edges` and `beta`, exactly that many edges and that top Betti number."""
    triangles = list(itertools.combinations(range(v), 3))
    while True:
        facets = rng.sample(triangles, nf)
        if edges is not None and len(
            {e for f in facets for e in itertools.combinations(f, 2)}
        ) != edges:
            continue
        if len(components(canonical(facets))) != 1:
            continue
        if beta is not None and rank_beta_top(facets) != beta:
            continue
        if not has_bridge(facets):
            return sorted(facets)


def rp2_refined(rng, subdivisions, extra):
    """RP^2 with random stellar subdivisions, then `extra` triangles on
    existing edges so the top homology is nonzero. Subsets containing the
    RP^2 facets carry Z_2 torsion."""
    facets = [tuple(f) for f in RP2]
    nv = 6
    for _ in range(subdivisions):
        t = facets.pop(rng.randrange(len(facets)))
        facets += [t[:i] + t[i + 1 :] + (nv,) for i in range(3)]
        nv += 1
    edges = {e for f in facets for e in itertools.combinations(f, 2)}
    present = set(facets)
    candidates = [
        t
        for t in itertools.combinations(range(nv), 3)
        if t not in present and all(e in edges for e in itertools.combinations(t, 2))
    ]
    facets += rng.sample(candidates, extra)
    return sorted(tuple(sorted(f)) for f in facets)


def sphere(kind, m=4):
    """Boundary of a tetrahedron, or the suspension of an m-gon."""
    if kind == "tetra":
        return list(itertools.combinations(range(4), 3))
    ring = [(i, (i + 1) % m) for i in range(m)]
    return [(a, b, m) for a, b in ring] + [(a, b, m + 1) for a, b in ring]


def wedge_of_spheres(rng, spheres):
    """Wedge of 2-sphere boundaries (`sphere` arguments, in random order)
    at one vertex. Spheres share only the wedge vertex, so each is its own
    component and the top Betti number is their count."""
    chosen = list(spheres)
    rng.shuffle(chosen)
    out = []
    nv = 1
    for kind, m in chosen:
        piece = sphere(kind, m)
        local = sorted({v for f in piece for v in f})
        label = {local[0]: 0}
        for u in local[1:]:
            label[u] = nv
            nv += 1
        out += [tuple(label[u] for u in f) for f in piece]
    return sorted(tuple(sorted(f)) for f in out)


def disjoint_union(pieces):
    out = []
    offset = 0
    for piece in pieces:
        out += [tuple(v + offset for v in f) for f in piece]
        offset += 1 + max(v for f in piece for v in f)
    return out
