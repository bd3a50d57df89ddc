"""Every `verify --suite paper` criterion must be able to fail. Each test
here plants one plausible bug in a library function (a mutant) and
asserts that its criterion reports FAIL. The mutants live in the
library, not in verify's own comparisons: a broken oracle proves
nothing. Each test runs only its own criterion."""

import inspect
import textwrap

import pytest

from simflow import complexes, flows, homology, linalg, matroid, verify
from simflow.complexes import build_complex, restrict_columns
from simflow.fixtures import mod3_moore_space, rp2


def _mutant(module, name, old, new):
    """`module.name` recompiled from its source with `old` replaced by
    `new`, in that module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


def test_criterion_03_fails_on_a_kernel_search_that_drops_the_torsion(monkeypatch):
    # every box coordinate below the rank gets radix gcd(1, q) = 1, so
    # RP^2's one mod-2 flow, which comes from its torsion, is lost
    mutant = _mutant(
        linalg,
        "count_nowhere_zero_kernel_mod_q",
        "gcd(res.diagonal[i] if i < res.rank else 0, q)",
        "gcd(1 if i < res.rank else 0, q)",
    )
    monkeypatch.setattr(flows, "count_nowhere_zero_kernel_mod_q", mutant)
    result = verify.check_rp2_quasipolynomial()
    assert not result.passed
    assert "q=2: direct=0 quasi=1" in result.detail


def test_criterion_05_fails_on_an_off_by_one_bott_coefficient(monkeypatch):
    real = verify.bott_r_polynomial

    def mutant(delta, sign_convention="literal", force=False):
        coeffs = real(delta, sign_convention, force=force)
        return coeffs[:-1] + [coeffs[-1] + 1] if coeffs else [1]

    monkeypatch.setattr(verify, "bott_r_polynomial", mutant)
    result = verify.check_specialization_identities()
    assert not result.passed
    assert "complemented Bott != flow specialization of TKR" in result.detail


def test_criterion_06_fails_on_a_fold_that_keeps_only_the_last_block(monkeypatch):
    # rp2 + rp2 is two blocks: V4 flows are a product over both, and
    # without the product only the last block's 3 are counted
    mutant = _mutant(homology, "SubsetProfile", "if total is not None:", "if False:")
    monkeypatch.setattr(homology, "SubsetProfile", mutant)
    result = verify.check_group_flow_counts()
    assert not result.passed
    assert "V4 flows: 3 != 9" in result.detail


def test_criterion_07_fails_on_a_cut_search_that_branches_on_one_facet(monkeypatch):
    # each node branches only on the first facet of its basis, so the
    # search follows one greedy path and misses cuts off it
    mutant = _mutant(matroid, "_has_cut", "        return basis\n", "        return basis[:1]\n")
    monkeypatch.setattr(matroid, "_has_cut", mutant)
    result = verify.check_jaeger_pipeline()
    assert not result.passed
    assert "least cut 3, the profile fold 2" in result.detail


def test_criterion_09_fails_on_a_boundary_map_without_signs(monkeypatch):
    # every face of a simplex enters its boundary with sign +1, so the
    # columns of the triangle K_3^2 become independent
    mutant = _mutant(complexes, "boundary_matrix", "sign = -sign", "sign = 1")
    monkeypatch.setattr(verify, "boundary_matrix", mutant)
    result = verify.check_structural_invariants()
    assert not result.passed
    assert "rank K_3^2: 3 != C(2,1)" in result.detail


def test_criterion_10_fails_on_a_smith_form_without_the_divisibility_step(monkeypatch):
    # a pivot that does not divide what is left is retired as it is, so
    # diag(2, 3) comes out as [2, 3] instead of [1, 6]
    pytest.importorskip("sympy")
    mutant = _mutant(linalg, "_eliminate", "if p != 1 and p != -1:", "if False:")
    assert mutant([[2, 0], [0, 3]], []) == [2, 3]
    monkeypatch.setattr(linalg, "_eliminate", mutant)
    result = verify.check_property_suites()
    assert not result.passed
    assert "Smith diagonal != sympy's invariant factors" in result.detail


def test_criterion_10_union_map_fails_a_smith_form_without_the_divisibility_step(monkeypatch):
    # H_1 = Z_2 + Z_3: the full top map's diagonal ends 1, 6, and without
    # the step the two non-unit pivots come out as 2, 3, which criterion
    # 10's comparison with sympy catches on this one map
    pytest.importorskip("sympy")
    moore = mod3_moore_space()
    union = build_complex([*rp2().facets, *(tuple(v + 6 for v in f) for f in moore.facets)])
    rows = restrict_columns(union, union.full_mask).matrix.data
    assert linalg.snf_diagonal(rows)[-2:] == [1, 6]
    assert verify._sympy_smith_failures([("union", rows)]) == ([], 1)
    mutant = _mutant(linalg, "_eliminate", "if p != 1 and p != -1:", "if False:")
    monkeypatch.setattr(linalg, "_eliminate", mutant)
    assert linalg.snf_diagonal(rows)[-2:] == [2, 3]
    assert verify._sympy_smith_failures([("union", rows)]) == (
        ["union: Smith diagonal != sympy's invariant factors"],
        1,
    )


@pytest.mark.parametrize(
    "old, new",
    [
        # the memo key drops the open columns
        ("key = open_bits, tuple(table)", "key = tuple(table)"),
        # a child's counts land on its parent's rank
        ("free += sub_free << shifts[grew]", "free += sub_free << shifts[0]"),
    ],
    ids=["memo_key_without_open_columns", "child_on_parent_rank"],
)
def test_criterion_10_fails_on_a_broken_sweep(monkeypatch, old, new):
    mutant = _mutant(homology, "_component_sweep", old, new)
    monkeypatch.setattr(homology, "_component_sweep", mutant)
    result = verify.check_property_suites()
    assert not result.passed
    assert "swept histogram differs from per-subset SNF" in result.detail
