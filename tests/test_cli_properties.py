"""Every counting command on small random complexes, through `cli.main`,
under every `--method` it takes, at the default subset cap and at a cap
of 2: each call exits 0-4 without a traceback, and every route that
answers gives the same count. Also: once the facet profile is cached,
every flow fold reads it and no second profile is swept; and no command
reads the joint histogram of a profile with several blocks."""

import io
import json
import sys
from itertools import combinations

import pytest

from simflow import cli, homology
from simflow.complexes import boundary_matrix, build_complex, facet_components
from simflow.fixtures import rp2
from simflow.flows import (
    count_nz_flows,
    count_nz_group_flows_2r,
    flow_quasipolynomial,
    min_flow_number,
    ridge_count,
)
from simflow.homology import subset_profile
from simflow.io import serialize_complex
from simflow.poly import format_univariate

hypothesis = pytest.importorskip("hypothesis")

from test_columns import complexes  # noqa: E402
from test_flows import group_flows_by_enumeration  # noqa: E402

SETTINGS = hypothesis.settings(
    max_examples=40, deadline=None, database=None, derandomize=True
)
FLOW_Q = (2, 3, 4)
COLOR_K = (2, 3)


def small_complexes():
    """Up to three blocks of at most four facets on at most five
    vertices, with at most 12 ridges: `colorings --method brute` then
    walks at most 3^12 colorings."""
    return complexes(max_vertices=5, max_facets=4).filter(lambda d: ridge_count(d) <= 12)


def _sweep_counts(out):
    header, *rows = out.splitlines()
    assert header == "q,flows,colorings,tensions"
    counts = {}
    for row in rows:
        q, *values = row.split(",")
        counts.update(zip([(what, int(q)) for what in ("flows", "colorings", "tensions")], values))
    return counts


def _requests():
    """(argv, a function from its stdout to {what it counts: answer})."""
    for q in FLOW_Q:
        for method in ("auto", "kernel_enum", "subset_expansion"):
            yield ["flows", "--q", str(q), "--method", method], lambda out, q=q: {("flows", q): out}
    for k in COLOR_K:
        for method in ("auto", "brute", "subset_expansion"):
            yield ["colorings", "--k", str(k), "--method", method], lambda out, k=k: {
                ("colorings", k): out
            }
        yield ["tensions", "--k", str(k)], lambda out, k=k: {("tensions", k): out}
    yield ["min-q", "--max", str(FLOW_Q[-1])], lambda out: {"min-q": out}
    yield ["quasi", "--json"], lambda out: {"quasi": out}
    yield ["sweep", "--q-range", f"{COLOR_K[0]}..{COLOR_K[-1]}"], _sweep_counts


def _answers(delta, run):
    """Every answer the CLI printed, at both caps, as a set per question:
    routes that agree leave one element."""
    doc = serialize_complex(delta)
    seen = {}
    for cap in (None, "2"):
        for argv, parse in _requests():
            code, out, err = run(argv, doc, cap)
            assert 0 <= code <= 4, (argv, cap, code, err)
            assert "Traceback" not in err, (argv, cap)
            if code:
                assert out == "", (argv, cap)
                continue
            for question, answer in parse(out.strip()).items():
                seen.setdefault(question, set()).add(answer)
    return seen


def test_every_route_of_every_counting_command_agrees(monkeypatch, capsys):
    def run(argv, doc, cap):
        if cap is None:
            monkeypatch.delenv("SIMFLOW_SUBSET_CAP", raising=False)
        else:
            monkeypatch.setenv("SIMFLOW_SUBSET_CAP", cap)
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    @SETTINGS
    @hypothesis.given(small_complexes())
    def check(delta):
        seen = _answers(delta, run)
        for key, values in seen.items():
            assert len(values) == 1, (key, values)
        # kernel_enum answers every q at either cap
        flows_at = {q: int(*seen[("flows", q)]) for q in FLOW_Q}
        least = next((q for q in FLOW_Q if flows_at[q]), None)
        assert seen["min-q"] == {"none" if least is None else str(least)}
        if "quasi" in seen:
            quasi = json.loads(*seen["quasi"])
            fresh = flow_quasipolynomial(delta, force=True)
            assert quasi["constituents"] == [format_univariate(c) for c in fresh.constituents]
            for q in FLOW_Q:
                assert fresh.evaluate(q) == flows_at[q], q

    check()


def test_flow_folds_read_a_cached_facet_profile(monkeypatch):
    built = []
    profile_class = homology.SubsetProfile

    def counting(record):
        built.append(len(record))
        return profile_class(record)

    monkeypatch.setattr(homology, "SubsetProfile", counting)

    @SETTINGS
    @hypothesis.given(complexes())
    def check(delta):
        top = boundary_matrix(delta, delta.dimension).matrix
        want = {q: count_nz_flows(delta, q, method="kernel_enum") for q in FLOW_Q}
        profile = subset_profile(delta, force=True)
        built.clear()
        quasi = flow_quasipolynomial(delta)
        assert quasi.degree == top.cols - profile.rank_full
        for q in FLOW_Q:
            assert count_nz_flows(delta, q, method="subset_expansion") == want[q], q
            assert count_nz_flows(delta, q) == want[q], q
            assert quasi.evaluate(q) == want[q], q
        assert count_nz_group_flows_2r(delta, 1) == want[2]
        assert count_nz_group_flows_2r(delta, 2) == group_flows_by_enumeration(delta, 2)
        least = next((q for q in FLOW_Q if want[q]), None)
        assert min_flow_number(delta, FLOW_Q[-1]) == least
        assert built == []

    check()


# RP^2, the boundary of a tetrahedron and a bipyramid on disjoint vertices
THREE_BLOCKS = (
    [list(f) for f in rp2().facets]
    + [[a + 6, b + 6, c + 6] for a, b, c in combinations(range(4), 3)]
    + [[a + 10, b + 10, apex + 10] for a, b in ((0, 1), (1, 2), (0, 2)) for apex in (3, 4)]
)


def test_no_command_reads_the_joint_histogram(monkeypatch, capsys):
    """Every fold combines the blocks' histograms; only the traced
    benchmark run and `verify` read the joint view."""

    def joint(profile):
        raise AssertionError("read the joint histogram")

    monkeypatch.setattr(homology.SubsetProfile, "histogram", property(joint))
    delta = build_complex(THREE_BLOCKS)
    assert len(facet_components(delta)) == 3
    doc = serialize_complex(delta)

    def run(argv, doc, cap):
        if cap is None:
            monkeypatch.delenv("SIMFLOW_SUBSET_CAP", raising=False)
        else:
            monkeypatch.setenv("SIMFLOW_SUBSET_CAP", cap)
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    seen = _answers(delta, run)
    assert all(len(values) == 1 for values in seen.values()), seen
    more = [["analyze", "--json"], ["construct", "--jaeger"]]
    more += [["poly", "--kind", kind] for kind in ("tkr", "tutte")]
    more += [["poly", "--kind", "qtkr", "--q", q] for q in ("2", "3")]
    more += [["poly", "--kind", "bott", "--convention", c] for c in ("literal", "complemented")]
    codes = [run(argv, doc, None)[0] for argv in more]
    # RP^2 has no 2-cycle over Q: every facet of it is a bridge
    assert codes == [0, 2, 0, 0, 0, 0, 0, 0]
