"""Acceptance suite: one test per criterion, every comparison an exact
integer equality. Each test prints a single pass/fail line; the same
checks back the `verify --suite paper` command.
"""

import importlib.util

from simflow import verify


def _assert_and_report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.criterion:2d} [{result.name}]: {status} - {result.detail}")
    assert result.passed, result.detail


def test_criterion_01_complete_complex_flow_counts():
    _assert_and_report(verify.check_complete_flow_counts())


def test_criterion_02_lower_bound():
    _assert_and_report(verify.check_lower_bound())


def test_criterion_03_rp2_quasipolynomial():
    _assert_and_report(verify.check_rp2_quasipolynomial())


def test_criterion_04_petersen():
    _assert_and_report(verify.check_petersen())


def test_criterion_05_specialization_identities():
    result = verify.check_specialization_identities()
    _assert_and_report(result)
    # RP^2, rp2+rp2, K_5^3, the 3-sphere boundary and Petersen have too
    # many ridges for brute colorings at some q
    assert "compared: 50 of 50 flow counts" in result.detail
    assert "32 of 50 coloring counts" in result.detail
    # Petersen, the one graph past 10 facets, against networkx when installed
    oracle = all(importlib.util.find_spec(m) for m in ("networkx", "sympy"))
    assert f"networkx's on {int(oracle)} graph(s) past 10 facets" in result.detail


def test_criterion_06_group_flow_counts():
    _assert_and_report(verify.check_group_flow_counts())


def test_criterion_07_jaeger_pipeline():
    _assert_and_report(verify.check_jaeger_pipeline())


def test_criterion_08_invariance():
    _assert_and_report(verify.check_invariance())


def test_criterion_09_structural_invariants():
    _assert_and_report(verify.check_structural_invariants())


def test_criterion_10_property_suites():
    _assert_and_report(verify.check_property_suites())
