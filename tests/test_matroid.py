import gc
from itertools import combinations

import pytest

from simflow import caps, flows, matroid
from simflow import (
    CapExceededError,
    FacetInBaseError,
    InfeasibleError,
    NotABaseError,
    build_complex,
    coarboricity,
    coforest_cover,
    facet_connectivity,
    fundamental_circuit,
)
from simflow.fixtures import complete, cycle, petersen, rp2, simplex_boundary, standard_corpus
from simflow.flows import circuits, jaeger_flow
from simflow.homology import codim1_cycle_rank
from simflow.linalg import smith_normal_form, snf_diagonal, span_rank
from simflow.matroid import RankOracle, _dual_rows, bridges
from simflow.verify import profile_coarboricity
from forest_oracle import backtracking_cover, classify_forest, matroid_corank, matroid_rank


def mask_of(delta, facets):
    """Bitmask of the given facets, each a vertex tuple."""
    return sum(1 << delta.facets.index(tuple(f)) for f in facets)


def test_matroid_rank_examples():
    k53 = complete(5, 3)
    assert matroid_rank(k53, k53.full_mask) == 6
    assert matroid_rank(k53, 0) == 0
    c3 = cycle(3)
    assert matroid_rank(c3, c3.full_mask) == 2


def test_matroid_corank_examples():
    c3 = cycle(3)
    assert matroid_corank(c3, 0b001) == 1
    assert matroid_corank(c3, 0) == 0
    simplex = build_complex([[0, 1, 2]])
    assert matroid_corank(simplex, 0b1) == 0


def test_corank_against_dual_formula():
    """Cor 2.6 equals the Def 2.5 expression for every subset, and the
    folded `matroid_rank` and `matroid_corank` agree with one Smith
    diagonal per mask."""
    for _, delta in standard_corpus():
        if len(delta.facets) > 8:
            continue
        oracle = RankOracle(delta)
        full = delta.full_mask
        z = codim1_cycle_rank(delta)
        for mask in range(1 << len(delta.facets)):
            assert matroid_rank(delta, mask) == oracle.rank(mask)
            betti_full = z - oracle.rank(full)
            betti_rest = z - oracle.rank(full & ~mask)
            via_betti = mask.bit_count() + betti_full - betti_rest
            via_rank = (
                mask.bit_count() + oracle.rank(full & ~mask) - oracle.rank(full)
            )
            assert via_betti == via_rank == matroid_corank(delta, mask)


def test_bridges():
    assert bridges(build_complex([[0, 1, 2]])) == [0]
    assert bridges(simplex_boundary(2)) == []
    assert bridges(build_complex([[0, 1], [1, 2]])) == [0, 1]


def test_bridge_iff_zero_corank():
    for _, delta in standard_corpus():
        found = bridges(delta)
        for f in range(len(delta.facets)):
            assert (f in found) == (matroid_corank(delta, 1 << f) == 0)


def test_rp2_every_facet_is_a_bridge():
    # the boundary map of the projective plane is injective over Z, so
    # removing any one facet raises the codimension-1 Betti number
    assert bridges(rp2()) == list(range(10))


def test_facet_connectivity_examples():
    simplex = build_complex([[0, 1, 2]])
    assert facet_connectivity(simplex).value == 1
    tetra = facet_connectivity(simplex_boundary(2))
    assert tetra.value == 2
    assert tetra.witness.bit_count() == 2
    k4 = facet_connectivity(complete(4, 2))
    assert k4.value == 3
    assert facet_connectivity(petersen()).value == 3


def test_facet_connectivity_refuses_a_search_past_the_cap(monkeypatch):
    # K_10^2 takes hundreds of nodes to rule out cuts below 9; with a bound
    # of 50 the search refuses as its 51st node opens
    monkeypatch.setattr(caps, "CUT_SEARCH_NODE_CAP", 50)
    with pytest.raises(CapExceededError, match="node bound of 50 nodes") as refusal:
        facet_connectivity(complete(10, 2))
    assert refusal.value.needed == 51


def test_classify_forest_cases():
    c3 = cycle(3)
    two_edges = classify_forest(c3, 0b011)
    assert two_edges.forest and two_edges.maximal
    assert two_edges.tree and two_edges.spanning_tree
    whole = classify_forest(c3, c3.full_mask)
    assert not whole.forest
    tetra = simplex_boundary(2)
    three = classify_forest(tetra, 0b0111)
    assert three.forest and three.maximal and three.tree and three.spanning_tree


def test_maximal_forests_are_bases():
    """Maximal forests are exactly the full-rank independent sets, i.e.
    the bases of the facet matroid."""
    for _, delta in standard_corpus():
        if len(delta.facets) > 8:
            continue
        oracle = RankOracle(delta)
        full_rank = oracle.full_rank
        for mask in range(1 << len(delta.facets)):
            flags = classify_forest(delta, mask)
            is_base = (
                oracle.rank(mask) == mask.bit_count() == full_rank
            )
            assert (flags.forest and flags.maximal) == is_base


def test_fundamental_circuit_triangle_in_k4():
    k4 = complete(4, 2)
    star = mask_of(k4, [(0, 1), (0, 2), (0, 3)])
    f = k4.facets.index((1, 2))
    circuit = fundamental_circuit(k4, star, f)
    assert circuit == mask_of(k4, [(0, 1), (0, 2), (1, 2)])


def test_fundamental_circuit_sphere_and_cycle():
    tetra = simplex_boundary(2)
    assert fundamental_circuit(tetra, 0b0111, 3) == 0b1111
    c3 = cycle(3)
    assert fundamental_circuit(c3, 0b011, 2) == 0b111


def test_fundamental_circuit_errors():
    c3 = cycle(3)
    with pytest.raises(FacetInBaseError):
        fundamental_circuit(c3, 0b011, 0)
    with pytest.raises(NotABaseError):
        fundamental_circuit(c3, 0b001, 2)


def test_fundamental_circuit_refuses_a_full_size_base_whose_relation_misses_the_facet():
    # two disjoint triangles have rank 4: one triangle and an edge of the
    # other make four facets, and with a second edge of the other their
    # one relation is the first triangle, which misses that edge
    delta = build_complex([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
    base = mask_of(delta, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert base.bit_count() == matroid_rank(delta, delta.full_mask)
    with pytest.raises(NotABaseError):
        fundamental_circuit(delta, base, delta.facets.index((4, 5)))
    forest = base ^ mask_of(delta, [(0, 1), (4, 5)])
    assert fundamental_circuit(delta, forest, delta.facets.index((3, 5))) == mask_of(
        delta, [(3, 4), (4, 5), (3, 5)]
    )


@pytest.mark.parametrize(
    "delta",
    [
        cycle(4),
        complete(4, 2),
        simplex_boundary(2),
        rp2(),
        build_complex([*complete(4, 2).facets, (4, 5), (5, 6), (4, 6)]),
    ],
    ids=["cycle4", "K4", "tetrahedron", "rp2", "K4+triangle"],
)
def test_fundamental_circuit_takes_exactly_the_maximal_forests(delta):
    """Every (mask, facet outside it): a circuit comes back exactly when
    `classify_forest` calls the mask a maximal forest. On K_4 plus a
    triangle, a triangle of K_4 and two edges of the other triangle have
    the size of a maximal forest and a circuit through the third edge of
    the other triangle, but are no forest: K_4's block must be checked
    too."""
    n = len(delta.facets)
    for mask in range(1 << n):
        flags = classify_forest(delta, mask)
        for f in range(n):
            if mask >> f & 1:
                continue
            if flags.forest and flags.maximal:
                assert fundamental_circuit(delta, mask, f) >> f & 1
            else:
                with pytest.raises(NotABaseError):
                    fundamental_circuit(delta, mask, f)


def test_jaeger_circuits_fold_one_block_each(monkeypatch):
    """On 100 disjoint triangles, each fundamental circuit of the Jaeger
    construction folds its own triangle's columns only: `kernel_basis`
    gets two base edges and the facet, never the whole base."""
    delta = build_complex(
        [[3 * i + a, 3 * i + b] for i in range(100) for a, b in ((0, 1), (1, 2), (0, 2))]
    )
    widths, inside = [], []
    kernel, circuit = matroid.kernel_basis, flows.fundamental_circuit

    def recording(vectors):
        if inside:
            widths.append(len(vectors))
        return kernel(vectors)

    def tracked(*args):
        inside.append(True)
        try:
            return circuit(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(matroid, "kernel_basis", recording)
    monkeypatch.setattr(flows, "fundamental_circuit", tracked)
    flow = jaeger_flow(delta)
    assert flow.q == 8 and flow.nowhere_zero
    assert len(widths) == 300 and max(widths) == 3


def test_fundamental_circuit_minimality():
    """Circuits are dependent and removing any one element leaves an
    independent set."""
    for delta in (complete(4, 2), simplex_boundary(2), cycle(4)):
        oracle = RankOracle(delta)
        full_rank = oracle.full_rank
        n = len(delta.facets)
        base = 0
        r = 0
        for f in range(n):
            cand = base | 1 << f
            if oracle.rank(cand) > r:
                base, r = cand, r + 1
        assert r == full_rank
        for f in range(n):
            if base >> f & 1:
                continue
            circuit = fundamental_circuit(delta, base, f)
            assert circuit >> f & 1
            size = circuit.bit_count()
            assert oracle.rank(circuit) == size - 1
            m = circuit
            while m:
                low = m & -m
                assert oracle.rank(circuit ^ low) == size - 1
                m ^= low


def test_coarboricity_of_a_cycle():
    # every coforest of a cycle is a single edge
    assert coarboricity(cycle(3)) == 3
    assert coarboricity(cycle(5)) == 5


def test_coarboricity_infeasible_on_a_bridge():
    coloop = build_complex([[0, 1]])
    with pytest.raises(InfeasibleError):
        coarboricity(coloop)


def test_coforest_cover_cycle():
    # every coforest of a cycle is a single edge
    assert sorted(coforest_cover(cycle(3)).parts) == [0b001, 0b010, 0b100]


def test_coforest_cover_invariants():
    for _, delta in standard_corpus():
        if bridges(delta):
            continue
        oracle = RankOracle(delta)
        cover = coforest_cover(delta)
        assert len(cover.parts) == coarboricity(delta)
        union = 0
        for part in cover.parts:
            union |= part
            assert oracle.rank(delta.full_mask & ~part) == oracle.full_rank
        assert union == delta.full_mask


def test_sphere_coarboricity_is_facet_count():
    # cotrees of a sphere triangulation are single facets
    assert coarboricity(simplex_boundary(2)) == 4
    assert coarboricity(simplex_boundary(3)) == 5


def test_connectivity_bounds_coarboricity_at_desk_scale():
    """(d+2)-facet-connected fixtures have coarboricity at most d+2."""
    checked = 0
    for _, delta in standard_corpus():
        if bridges(delta):
            continue
        d = delta.dimension
        if facet_connectivity(delta).value >= d + 2:
            assert coarboricity(delta) <= d + 2
            checked += 1
    assert checked >= 2  # at least the complete graph and the petersen graph


def test_coarboricity_agrees_with_literal_corank_sweep():
    """The histogram fold against max |X| / r*(X) over every nonempty X,
    with r*(X) from `matroid_corank` on a complex that has no profile."""
    corpus = [delta for _, delta in standard_corpus() if len(delta.facets) <= 8]
    corpus += [
        # K_4 - e: the whole edge set needs ceil(5 / 2) coforests
        build_complex([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]]),
        build_complex([[0, 1, 2], [1, 2, 3]]),
        build_complex([[0, 1], [1, 2]]),
    ]
    for delta in corpus:
        n = len(delta.facets)
        best = 1
        feasible = True
        for mask in range(1, 1 << n):
            r = matroid_corank(delta, mask)
            if r == 0:
                feasible = False
                break
            best = max(best, -(-mask.bit_count() // r))
        assert "subset_profile" not in delta._cache
        if feasible:
            assert coarboricity(delta) == best
        else:
            with pytest.raises(InfeasibleError):
                coarboricity(delta)


def test_bridges_take_one_kernel_basis(monkeypatch):
    """`bridges` reads the zero rows of one kernel basis, the columns of
    V past the rank in the Smith form of Petersen's one block: no Smith
    diagonal and no sweep."""
    from simflow import homology, matroid

    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(homology, "smith_normal_form", counting("smith_normal_form", smith_normal_form))
    for module in (matroid, homology):
        monkeypatch.setattr(module, "snf_diagonal", counting("snf_diagonal", snf_diagonal))
    delta = petersen()
    assert bridges(delta) == []
    assert bridges(delta) == []
    assert calls == ["smith_normal_form"]
    assert "subset_profile" not in delta._cache


def test_pipeline_makes_no_rank_oracle_query(monkeypatch):
    """Bridges, cuts, covers and the Jaeger bases fold vectors instead of
    asking `RankOracle.rank`."""
    calls = []
    monkeypatch.setattr(RankOracle, "rank", lambda self, mask: calls.append(mask))
    for _, delta in standard_corpus():
        bridges(delta)
        facet_connectivity(delta)
        if not bridges(delta):
            coforest_cover(delta)
            jaeger_flow(delta)
    assert calls == []


def _small_corpus():
    """Corpus complexes with at most 8 facets, plus K_4 - e, whose first
    pair of edges is not a cut, and two triangles on an edge (bridges)."""
    corpus = [delta for _, delta in standard_corpus() if len(delta.facets) <= 8]
    corpus.append(build_complex([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]]))
    corpus.append(build_complex([[0, 1, 2], [1, 2, 3]]))
    return corpus


def test_dual_rows_are_independent_exactly_on_coindependent_sets():
    for delta in _small_corpus():
        rows = _dual_rows(delta)
        oracle = RankOracle(delta)
        full = delta.full_mask
        for mask in range(1 << len(delta.facets)):
            picked = [rows[f] for f in delta.facets_of_mask(mask)]
            independent = span_rank(picked) == mask.bit_count()
            assert independent == (oracle.rank(full & ~mask) == oracle.full_rank)


def test_circuits_are_the_minimal_masks_of_rank_one_short():
    for delta in _small_corpus():
        oracle = RankOracle(delta)
        want = []
        for mask in range(1, 1 << len(delta.facets)):
            size = mask.bit_count()
            if oracle.rank(mask) != size - 1:
                continue
            subsets = [mask ^ 1 << f for f in delta.facets_of_mask(mask)]
            if all(oracle.rank(sub) == size - 1 for sub in subsets):
                want.append(mask)
        assert circuits(delta) == want


def _first_cut_by_ranks(delta):
    """(size, mask) of the first rank-deficient complement in (size, mask)
    order, by one Smith diagonal per mask."""
    oracle = RankOracle(delta)
    full = delta.full_mask
    return min(
        (mask.bit_count(), mask)
        for mask in range(1, 1 << len(delta.facets))
        if oracle.rank(full & ~mask) < oracle.full_rank
    )


def test_connectivity_witness_is_the_first_rank_deficient_complement():
    for delta in _small_corpus():
        size, first = _first_cut_by_ranks(delta)
        got = facet_connectivity(delta)
        assert (got.value, got.witness) == (size, first)


def test_connectivity_search_on_random_complexes():
    """Random points, graphs and 2-complexes of up to 12 facets in up to
    three pieces: the least cut and its witness agree with per-mask ranks."""
    hypothesis = pytest.importorskip("hypothesis")
    from test_columns import complexes

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(complexes(max_vertices=6, max_facets=4))
    def check(delta):
        size, first = _first_cut_by_ranks(delta)
        got = facet_connectivity(delta)
        assert (got.value, got.witness) == (size, first)

    check()


def test_rank_is_monotone_and_bounded():
    for _, delta in standard_corpus():
        n = len(delta.facets)
        if n > 8:
            continue
        oracle = RankOracle(delta)
        assert oracle.rank(0) == 0
        for mask in range(1 << n):
            r = oracle.rank(mask)
            assert 0 <= r <= mask.bit_count()
            for f in range(n):
                if not mask >> f & 1:
                    bigger = oracle.rank(mask | 1 << f)
                    assert r <= bigger <= r + 1


def test_coforest_cover_frees_its_search_on_return():
    """The partition's state is freed by reference counting as the cover
    returns, not left in a reference cycle for the garbage collector."""
    delta = petersen()
    c = coarboricity(delta)
    gc.collect()
    gc.disable()
    try:
        assert len(coforest_cover(delta).parts) == c
        assert gc.collect() == 0
    finally:
        gc.enable()


def _without_bridges(delta):
    """The complex on the facets that are not bridges, or None when every
    facet is one. A coloop lies in no circuit, so deleting the coloops
    keeps every circuit and leaves no bridge."""
    kept = [list(f) for f, row in zip(delta.facets, _dual_rows(delta)) if any(row)]
    return build_complex(kept) if kept else None


def test_partition_is_a_least_cover():
    """Random points, graphs and 2-complexes, disjoint unions of up to
    three pieces among them, half of them dense enough that some facets
    are placed along augmenting paths. With a bridge, the cover, the
    coarboricity and the profile fold all raise Infeasible, and the
    facets that are not bridges are checked instead. Without one, the
    partition's part count equals the fold of Edmonds' bound over the
    subset profile, a lower bound on any cover, every part is a coforest
    (corank equal to its size), and the parts cover each facet once."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from test_columns import complexes

    @st.composite
    def dense(draw):
        # each piece takes more than half of the facets on its vertices
        d = draw(st.integers(1, 2))
        facets = []
        for piece in range(draw(st.integers(1, 3))):
            pool = list(combinations(range(draw(st.integers(d + 2, 6))), d + 1))
            least = min(len(pool), 8) // 2 + 1
            chosen = draw(st.lists(st.sampled_from(pool), min_size=least, max_size=8, unique=True))
            facets += [[v + 10 * piece for v in f] for f in chosen]
        return build_complex(facets)

    @hypothesis.settings(max_examples=160, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.one_of(complexes(), dense()))
    def check(delta):
        if bridges(delta):
            for least in (coforest_cover, coarboricity, profile_coarboricity):
                with pytest.raises(InfeasibleError):
                    least(delta)
            delta = _without_bridges(delta)
            if delta is None:
                return
            assert not bridges(delta)
        c = coarboricity(delta)
        assert c == profile_coarboricity(delta)
        cover = coforest_cover(delta)
        assert len(cover.parts) == c
        union = 0
        for part in cover.parts:
            assert part and not part & union
            assert matroid_corank(delta, part) == part.bit_count()
            union |= part
        assert union == delta.full_mask

    check()


def test_partition_agrees_with_the_backtracking_cover():
    """The exhaustive search finds a cover by the partition's c coforests
    and none by c - 1."""
    corpus = [delta for delta in _small_corpus() if not bridges(delta)]
    # two triangles joined at a vertex, and the octahedron boundary
    corpus.append(build_complex([[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [2, 4]]))
    corpus.append(build_complex([[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]))
    assert len(corpus) >= 8
    for delta in corpus:
        c = coarboricity(delta)
        assert backtracking_cover(delta, c) is not None
        assert backtracking_cover(delta, c - 1) is None
