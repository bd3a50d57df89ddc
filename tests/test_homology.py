from collections import Counter
from math import comb, gcd

import pytest

from simflow import (
    boundary_matrix,
    build_complex,
    homology_summary,
    kernel_count_mod_q,
    subset_profile,
)
from simflow.complexes import restrict_columns
from simflow.fixtures import (
    cycle,
    petersen,
    rp2,
    rp2_disjoint_pair,
    simplex_boundary,
    standard_corpus,
)
from simflow import homology
from simflow.homology import HomologySummary, codim1_cycle_rank, t_q_of
from simflow.linalg import smith_normal_form, snf_diagonal


def subset_homology(delta, mask):
    """The top two reduced Betti numbers and the codimension-1 torsion of
    the facets of `mask` with the full lower skeleton, from the Smith
    diagonal of the restricted top map, taken on its transpose, which has
    the same one."""
    rows = restrict_columns(delta, mask).matrix.data
    diag = snf_diagonal([list(col) for col in zip(*rows)])
    d = delta.dimension
    summary = HomologySummary(betti={d: mask.bit_count() - len(diag)}, torsion={})
    if d >= 1:
        summary.betti[d - 1] = codim1_cycle_rank(delta) - len(diag)
        summary.torsion[d - 1] = [m for m in diag if m > 1]
    return summary


def test_summary_takes_the_top_diagonal_once(monkeypatch):
    # one Smith diagonal per lower boundary map, and the Smith form of
    # the top map's one block
    calls = []
    monkeypatch.setattr(
        homology, "snf_diagonal", lambda rows: calls.append("diagonal") or snf_diagonal(rows)
    )
    monkeypatch.setattr(
        homology, "smith_normal_form", lambda mat: calls.append("form") or smith_normal_form(mat)
    )
    delta = rp2()
    assert homology_summary(delta).torsion == {1: [2], 0: []}
    assert homology_summary(delta).betti == {2: 0, 1: 0, 0: 0}
    assert sorted(calls) == ["diagonal", "diagonal", "form"]


def test_sphere_homology():
    summary = homology_summary(simplex_boundary(2))
    assert summary.betti == {2: 1, 1: 0, 0: 0}
    assert summary.torsion[1] == []


def test_rp2_homology():
    summary = homology_summary(rp2())
    assert summary.betti == {2: 0, 1: 0, 0: 0}
    assert summary.torsion[1] == [2]


def test_path_subset_of_cycle():
    summary = subset_homology(cycle(3), 0b011)
    assert summary.betti[1] == 0
    assert summary.betti[0] == 0


def test_disjoint_pair_has_two_components():
    summary = homology_summary(rp2_disjoint_pair())
    assert summary.betti[0] == 1
    assert summary.torsion[1] == [2, 2]


def test_zero_dimensional_points():
    pts = build_complex([[0], [1], [2]])
    summary = homology_summary(pts)
    assert summary.betti == {0: 2}


def test_euler_characteristic_identity():
    for _, delta in standard_corpus():
        summary = homology_summary(delta)
        combinatorial = sum(
            (-1) ** n * len(delta.faces(n)) for n in range(delta.dimension + 1)
        ) - 1
        homological = sum(
            (-1) ** n * b for n, b in summary.betti.items()
        )
        assert combinatorial == homological, delta


def test_betti_matches_subset_rank_formula():
    """|X| - beta_d(X) equals the rank of the restricted boundary map."""
    for _, delta in standard_corpus():
        if len(delta.facets) > 8:
            continue
        for mask in range(1 << len(delta.facets)):
            summary = subset_homology(delta, mask)
            rank = len(snf_diagonal(restrict_columns(delta, mask).matrix.data))
            assert mask.bit_count() - summary.betti[delta.dimension] == rank


def test_universal_coefficient_count():
    """Kernel size mod q is q^beta_d times the torsion weight."""
    for _, delta in standard_corpus():
        if len(delta.facets) > 6:
            continue
        d = delta.dimension
        for mask in (0, 1, delta.full_mask, delta.full_mask >> 1):
            summary = subset_homology(delta, mask)
            for q in range(1, 7):
                count = kernel_count_mod_q(restrict_columns(delta, mask).matrix, q)
                weight = t_q_of(summary.torsion.get(d - 1, ()), q)
                assert count == q ** summary.betti[d] * weight
    # and the torsion case itself
    for q in range(1, 8):
        count = kernel_count_mod_q(boundary_matrix(rp2(), 2).matrix, q)
        assert count == t_q_of(_top_diagonal(rp2()), q)


def _top_diagonal(delta):
    return snf_diagonal(boundary_matrix(delta, delta.dimension).matrix.data)


def test_torsion_weight_examples():
    """t_q of the top Smith diagonal: |Tor(H_{d-1}, Z_q)|."""
    assert t_q_of(_top_diagonal(rp2()), 2) == 2
    assert t_q_of(_top_diagonal(rp2()), 3) == 1
    assert t_q_of(_top_diagonal(simplex_boundary(2)), 5) == 1


def test_top_betti_matches_sympy_rank():
    """beta_d(X) = |X| - rank of the restricted boundary map, the rank
    taken by sympy."""
    pytest.importorskip("sympy")
    from sympy import Matrix

    for _, delta in standard_corpus():
        if len(delta.facets) > 8:
            continue
        for mask in range(1 << len(delta.facets)):
            mat = restrict_columns(delta, mask).matrix
            rank = Matrix(mat.rows, mat.cols, [x for row in mat.data for x in row]).rank()
            betti = subset_homology(delta, mask).betti[delta.dimension]
            assert betti == mask.bit_count() - rank, (delta, mask)


def test_profile_matches_direct_homology():
    for _, delta in standard_corpus():
        if len(delta.facets) > 8:
            continue
        profile = subset_profile(delta)
        z = codim1_cycle_rank(delta)
        direct = Counter()
        for mask in range(1 << len(delta.facets)):
            summary = subset_homology(delta, mask)
            rank = mask.bit_count() - summary.betti[delta.dimension]
            if delta.dimension >= 1:
                assert summary.betti[delta.dimension - 1] == z - rank
            tors = tuple(sorted(summary.torsion.get(delta.dimension - 1, ())))
            direct[mask.bit_count(), rank, tors] += 1
        assert profile.histogram == direct


def test_profile_histogram_total():
    for _, delta in standard_corpus():
        profile = subset_profile(delta)
        assert sum(profile.histogram.values()) == 1 << len(delta.facets)


def test_profile_torsion_period():
    assert subset_profile(rp2()).torsion_period() == 2
    assert subset_profile(cycle(4)).torsion_period() == 1


def test_t_q_of():
    assert t_q_of((2, 4), 6) == gcd(2, 6) * gcd(4, 6)
    assert t_q_of((), 5) == 1


@pytest.mark.parametrize("corrupt", ["rank", "torsion"])
def test_property_suite_fails_on_a_corrupted_profile(monkeypatch, corrupt):
    from simflow import verify

    delta = build_complex([list(f) for f in cycle(4).facets])
    profile = subset_profile(delta)
    if corrupt == "rank":
        profile.blocks[0].histogram[3, 3, ()] -= 1
        profile.blocks[0].histogram[3, 2, ()] += 1
    else:
        profile.blocks[0].histogram[3, 3, ()] -= 1
        profile.blocks[0].histogram[3, 3, (2,)] += 1
    monkeypatch.setattr(verify, "standard_corpus", lambda: [("cycle(4)", delta)])
    result = verify.check_property_suites()
    assert not result.passed
    assert result.detail.startswith("cycle(4): ")


def test_sweep_takes_smith_diagonals_only_of_non_unit_pivots(monkeypatch):
    from simflow import homology

    calls = []

    def counting(rows):
        calls.append(len(rows))
        return snf_diagonal(rows)

    monkeypatch.setattr(homology, "snf_diagonal", counting)
    # graph boundary maps are totally unimodular: every pivot is +-1
    subset_profile(build_complex([list(f) for f in petersen().facets]))
    assert calls == []
    # {(2, 1)} has pivot 2; adding (1, 0) turns it into pivots 1, 1
    histogram = homology._component_sweep([[1, 0], [2, 1]], 2)
    assert histogram == {(0, 0, ()): 1, (1, 1, ()): 2, (2, 2, ()): 1}
    assert calls == [1]


def test_torsion_of_a_disjoint_union_is_in_invariant_factors():
    """Z_2 + Z_3 = Z_6: the size-n key of RP^2 and a disjoint mod-3 Moore
    space carries the invariant factors of the whole complex."""
    from simflow.fixtures import mod3_moore_space

    moore = [[v + 6 for v in f] for f in mod3_moore_space().facets]
    delta = build_complex([list(f) for f in rp2().facets] + moore)
    n = len(delta.facets)
    profile = subset_profile(delta, force=True)
    assert [tors for (size, _, tors) in profile.histogram if size == n] == [(6,)]
    assert homology_summary(delta).torsion[1] == [6]
    assert profile.torsion_period() == 6
    # the kernel search and the tension relation read the two blocks'
    # forms; the expansion folds the profile, and the tensions of a
    # disjoint union are the product of its parts'
    from simflow.flows import count_nz_flows, count_nz_tensions

    for q in range(2, 7):
        enum = count_nz_flows(delta, q, method="kernel_enum")
        assert enum == count_nz_flows(delta, q, method="subset_expansion", force=True)
        parts = count_nz_tensions(rp2(), q) * count_nz_tensions(mod3_moore_space(), q)
        assert count_nz_tensions(delta, q, force=True) == parts


@pytest.mark.parametrize("k", [1, 2, 9])
def test_disjoint_triangles_fold_to_closed_forms(k):
    """k disjoint triangles, swept past the subset cap for k = 9: each
    block is a 3-cycle, so the counts and polynomials are powers of a
    triangle's, and the coarboricity and least cut are a triangle's."""
    from simflow import (
        coarboricity,
        count_nz_flows,
        facet_connectivity,
        flow_quasipolynomial,
        tkr_polynomial,
    )
    from simflow.poly import BivariatePolynomial

    delta = build_complex(
        [[3 * i + a, 3 * i + b] for i in range(k) for a, b in ((0, 1), (1, 2), (0, 2))]
    )
    profile = subset_profile(delta, force=True)
    assert [block.column_count for block in profile.blocks] == [3] * k
    assert profile.rank_full == 2 * k and profile.column_count == 3 * k
    for q in (2, 3, 5):
        assert count_nz_flows(delta, q, method="subset_expansion") == (q - 1) ** k
    want = BivariatePolynomial({(0, 0): 1})
    triangle = {(2, 0): 1, (1, 0): 1, (0, 1): 1}  # x^2 + x + y
    for _ in range(k):
        product = Counter()
        for (i, j), c in want.coeffs.items():
            for (a, b), d in triangle.items():
                product[i + a, j + b] += c * d
        want = BivariatePolynomial(product)
    assert tkr_polynomial(delta) == want
    quasi = flow_quasipolynomial(delta)
    # (q - 1)^k, ascending
    assert quasi.period == 1 and quasi.degree == k
    assert list(quasi.constituents[0]) == [(-1) ** (k - i) * comb(k, i) for i in range(k + 1)]
    assert coarboricity(delta) == 3
    cut = facet_connectivity(delta)
    # the first two edges of the first triangle cut off vertex 0
    assert (cut.value, cut.witness) == (2, 0b11)
