from collections import Counter
from math import gcd

import pytest

from simflow import (
    BadModulusError,
    boundary_matrix,
    build_complex,
    homology_summary,
    kernel_count_mod_q,
    subset_profile,
    torsion_weight,
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
from simflow.homology import codim1_cycle_rank, t_q_of
from simflow.linalg import smith_normal_form, snf_diagonal


def test_summary_takes_the_top_diagonal_once(monkeypatch):
    # one Smith diagonal per lower boundary map, and the complex's one
    # Smith form of the top map
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
    summary = homology_summary(cycle(3), 0b011)
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
    from simflow.linalg import rational_rank

    for _, delta in standard_corpus():
        if len(delta.facets) > 8:
            continue
        for mask in range(1 << len(delta.facets)):
            summary = homology_summary(delta, mask)
            rank = rational_rank(restrict_columns(delta, mask).matrix)
            assert mask.bit_count() - summary.betti[delta.dimension] == rank


def test_universal_coefficient_count():
    """Kernel size mod q is q^beta_d times the torsion weight."""
    for _, delta in standard_corpus():
        if len(delta.facets) > 6:
            continue
        d = delta.dimension
        for mask in (0, 1, delta.full_mask, delta.full_mask >> 1):
            summary = homology_summary(delta, mask)
            for q in range(1, 7):
                count = kernel_count_mod_q(restrict_columns(delta, mask).matrix, q)
                assert count == q ** summary.betti[d] * torsion_weight(delta, mask, q)
    # and the torsion case itself
    for q in range(1, 8):
        count = kernel_count_mod_q(boundary_matrix(rp2(), 2).matrix, q)
        assert count == torsion_weight(rp2(), rp2().full_mask, q)


def test_torsion_weight_examples():
    full = rp2().full_mask
    assert torsion_weight(rp2(), full, 2) == 2
    assert torsion_weight(rp2(), full, 3) == 1
    assert torsion_weight(simplex_boundary(2), simplex_boundary(2).full_mask, 5) == 1
    with pytest.raises(BadModulusError):
        torsion_weight(rp2(), full, 0)


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
            betti = homology_summary(delta, mask).betti[delta.dimension]
            assert betti == mask.bit_count() - rank, (delta, mask)


def test_profile_matches_direct_homology():
    for _, delta in standard_corpus():
        if len(delta.facets) > 8:
            continue
        profile = subset_profile(delta)
        z = codim1_cycle_rank(delta)
        direct = Counter()
        for mask in range(1 << len(delta.facets)):
            summary = homology_summary(delta, mask)
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
        profile.histogram[3, 3, ()] -= 1
        profile.histogram[3, 2, ()] += 1
    else:
        profile.histogram[3, 3, ()] -= 1
        profile.histogram[3, 3, (2,)] += 1
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
    histogram = homology._component_sweep([[1, 0], [2, 1]])
    assert histogram == {(0, 0, ()): 1, (1, 1, ()): 2, (2, 2, ()): 1}
    assert calls == [1]


def test_torsion_of_a_disjoint_union_is_in_invariant_factors():
    """Z_2 + Z_3 = Z_6: the size-n key of RP^2 and a disjoint mod-3 Moore
    space carries the invariant factors of the whole complex."""
    from test_flows import _mod3_moore_space

    moore = [[v + 6 for v in f] for f in _mod3_moore_space().facets]
    delta = build_complex([list(f) for f in rp2().facets] + moore)
    n = len(delta.facets)
    profile = subset_profile(delta, force=True)
    assert [tors for (size, _, tors) in profile.histogram if size == n] == [(6,)]
    assert homology_summary(delta).torsion[1] == [6]
    assert profile.torsion_period() == 6
