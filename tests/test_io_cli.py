import argparse
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import simflow
from simflow import (
    CapExceededError,
    NotPureError,
    ParseError,
    build_complex,
    count_nz_flows,
    count_nz_tensions,
    count_proper_colorings,
    homology_summary,
    parse_complex,
    serialize_complex,
    subdivide_facet,
)
from simflow.cli import COMMANDS, _UsageError, build_parser, main
from simflow.fixtures import (
    FIXTURE_PARAMS,
    complete,
    cycle,
    make_fixture,
    petersen,
    rp2,
    mod3_moore_disk,
    mod3_moore_space,
    rp2_odd_triangle,
    simplex_boundary,
    standard_corpus,
)
from simflow.flows import ModularFlow, is_modular_flow, tensions_from_colorings
from simflow.io import parse_document
from simflow.verify import CheckResult
from simflow.matroid import bridges


def test_parse_simple_document():
    delta = parse_complex('{"facets": [[0,1],[1,2],[0,2]]}')
    assert delta.facets == ((0, 1), (0, 2), (1, 2))


def test_parse_rejects_mixed():
    with pytest.raises(NotPureError):
        parse_complex('{"facets": [[0,1,2],[0,1]]}')


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_complex("not json")
    with pytest.raises(ParseError):
        parse_complex('{"name": "x"}')
    with pytest.raises(ParseError):
        parse_complex('{"facets": [[0, "a"]]}')
    with pytest.raises(ParseError):
        parse_complex('[1,2]')


def test_round_trip_is_canonical():
    doc = '{"facets": [[5,3],[9,5],[3,9]]}'
    delta = parse_complex(doc)
    text = serialize_complex(delta)
    again = parse_complex(text)
    assert again.facets == delta.facets
    payload = json.loads(text)
    assert payload["facets"] == [[0, 1], [0, 2], [1, 2]]
    assert payload["metadata"]["vertex_map"] == {"3": 0, "5": 1, "9": 2}


def test_round_trip_fixture_corpus():
    from simflow.fixtures import standard_corpus

    for name, delta in standard_corpus():
        again = parse_complex(serialize_complex(delta, name=name))
        assert again.facets == delta.facets


def test_parse_document_fields():
    doc = parse_document('{"facets": [[0,1]], "name": "edge", "metadata": {"k": 1}}')
    assert doc.name == "edge" and doc.metadata == {"k": 1}


def test_metadata_is_an_object_null_or_absent():
    for text in ('{"facets": [[0,1]]}', '{"facets": [[0,1]], "metadata": null}'):
        assert parse_document(text).metadata == {}
    for bad in ("[]", "false", "0", '""', "[1]", "true", '"x"'):
        with pytest.raises(ParseError):
            parse_document('{"facets": [[0,1]], "metadata": %s}' % bad)


def test_rp2_fixture_validates_by_homology():
    delta = rp2()
    assert delta.vertex_count == 6
    assert len(delta.faces(1)) == 15
    assert len(delta.facets) == 10
    summary = homology_summary(delta)
    assert summary.betti[1] == 0 and summary.betti[2] == 0
    assert summary.torsion[1] == [2]
    # closed surface: every edge lies in exactly two triangles
    incidence = {}
    for f in delta.facets:
        for e in ((f[0], f[1]), (f[0], f[2]), (f[1], f[2])):
            incidence[e] = incidence.get(e, 0) + 1
    assert set(incidence.values()) == {2}


def test_petersen_fixture_validates():
    delta = petersen()
    assert delta.vertex_count == 10
    assert len(delta.facets) == 15
    degree = {}
    for a, b in delta.facets:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    assert set(degree.values()) == {3}


def test_make_fixture_parameter_validation():
    from simflow import BadParamsError

    assert len(make_fixture("cycle", n=4, k=None, d=None).facets) == 4
    with pytest.raises(BadParamsError):
        make_fixture("cycle", n=None, k=None, d=None)
    with pytest.raises(BadParamsError):
        make_fixture("rp2", n=5, k=None, d=None)
    with pytest.raises(BadParamsError):
        make_fixture("unknown")
    assert set(FIXTURE_PARAMS) == {
        "cycle",
        "complete",
        "simplex_boundary",
        "rp2",
        "rp2_disjoint_pair",
        "petersen",
    }


def _run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_generate_then_flows(monkeypatch, capsys):
    code, doc, _ = _run_cli(
        ["generate", "--fixture", "complete", "--n", "5", "--k", "3"],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    code, out, _ = _run_cli(
        ["flows", "--q", "5"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out.strip() == "24"


def test_cli_pipe_subprocess():
    """The documented composition through a real shell pipe."""
    shell = (
        f"{sys.executable} -m simflow.cli generate --fixture complete --n 5 --k 3"
        f" | {sys.executable} -m simflow.cli flows --q 5"
    )
    # the child processes import the same simflow as this one
    src = str(Path(simflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        ["sh", "-c", shell], capture_output=True, text=True, timeout=120, env=env
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "24"


def test_cli_quasi_rp2(monkeypatch, capsys):
    code, doc, _ = _run_cli(
        ["generate", "--fixture", "rp2"], monkeypatch=monkeypatch, capsys=capsys
    )
    code, out, _ = _run_cli(
        ["quasi"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out.strip() == 'period 2, constituents "1; 0"'


def test_cli_analyze_json(monkeypatch, capsys):
    doc = serialize_complex(build_complex([[0, 1], [1, 2], [0, 2]]))
    code, out, _ = _run_cli(
        ["analyze", "--json"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    payload = json.loads(out)
    for key in ("betti", "torsion", "bridges", "connectivity", "coarboricity"):
        assert key in payload
    assert payload["bridges"] == []
    assert payload["coarboricity"] == 3
    assert payload["connectivity"]["value"] == 2


def test_cli_poly_golden(monkeypatch, capsys):
    doc = serialize_complex(build_complex([[0, 1], [1, 2], [0, 2]]))
    code, out, _ = _run_cli(
        ["poly", "--kind", "tkr"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0 and out.strip() == "x^2 + x + y"
    code, out, _ = _run_cli(
        ["poly", "--kind", "bott", "--convention", "literal"],
        stdin_text=doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0 and out.strip() == "-L + 1"


def test_cli_construct_jaeger(monkeypatch, capsys):
    doc = serialize_complex(build_complex([[0, 1], [1, 2], [0, 2]]))
    code, out, _ = _run_cli(
        ["construct", "--jaeger", "--json"],
        stdin_text=doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["modulus"] == 8 and payload["nowhere_zero"]


def test_cli_construct_takes_no_force(monkeypatch, capsys):
    # the construction sweeps no subsets, so there is no cap to override
    doc = serialize_complex(build_complex([[0, 1], [1, 2], [0, 2]]))
    code, out, err = _run_cli(
        ["construct", "--jaeger", "--force"],
        stdin_text=doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --force" in err


def _jaeger_refusal(delta, monkeypatch, capsys):
    assert not bridges(delta)
    code, out, err = _run_cli(
        ["construct", "--jaeger"],
        stdin_text=serialize_complex(delta),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2 and out == ""
    assert "is not a mod-2 flow" in err
    assert "needs the supports of each part's fundamental circuits" in err
    return err


def test_cli_jaeger_refuses_a_facet_in_no_mod_2_flow(monkeypatch, capsys):
    # no facet is a bridge, but the added triangle lies in no mod-2 flow,
    # so its layer is not one
    delta = rp2_odd_triangle()
    assert len(delta.facets) == 13
    triangle = delta.facets.index((0, 1, 2))
    err = _jaeger_refusal(delta, monkeypatch, capsys)
    part = err.split("part facets [", 1)[1].split("]", 1)[0]
    assert str(triangle) in part.split(", ")


def test_cli_jaeger_refuses_an_even_fundamental_circuit(monkeypatch, capsys):
    # the same complex with a cone on the odd loop: every facet lies in a
    # mod-2 flow (RP^2, or the triangle with the cone), but each rational
    # circuit through an RP^2 facet takes the triangle or the cone twice
    refined = subdivide_facet(rp2(), 0)
    apex = 1 + max(v for f in refined.facets for v in f)
    cone = [[0, 1, apex], [1, 2, apex], [0, 2, apex]]
    delta = build_complex([list(f) for f in refined.facets] + [[0, 1, 2]] + cone)
    assert len(delta.facets) == 16
    _jaeger_refusal(delta, monkeypatch, capsys)


def test_cli_jaeger_lifts_a_flow_with_no_signed_lift(monkeypatch, capsys):
    # one circuit of 18 facets, each its own coforest; its integer flow
    # is -3 on the added triangle, so no layer lifts to a {-1, 0, 1} flow
    delta = mod3_moore_disk()
    doc = serialize_complex(delta)
    code, out, _ = _run_cli(["analyze"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert "bridges: []\n" in out and "coarboricity: 18\n" in out
    code, out, err = _run_cli(
        ["construct", "--jaeger"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0, err
    modulus, values = out.splitlines()
    assert modulus == "modulus: 262144"
    flow = ModularFlow(q=262144, values=tuple(int(v) for v in values.removeprefix("values: ").split(",")))
    assert flow.nowhere_zero and is_modular_flow(delta, flow)


def test_cli_min_q(monkeypatch, capsys):
    doc = serialize_complex(build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]))
    code, out, _ = _run_cli(
        ["min-q", "--max", "8"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0 and out.strip() == "2"


def test_cli_suspend_subdivide(monkeypatch, capsys):
    doc = serialize_complex(build_complex([[0, 1], [1, 2], [0, 2]]))
    code, out, _ = _run_cli(
        ["suspend"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert len(json.loads(out)["facets"]) == 6
    code, out, _ = _run_cli(
        ["subdivide", "--facet", "0"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert len(json.loads(out)["facets"]) == 4


def test_cli_sweep_csv(monkeypatch, capsys):
    delta = build_complex([[0, 1], [1, 2], [0, 2]])
    doc = serialize_complex(delta)
    code, out, _ = _run_cli(
        ["sweep", "--q-range", "2..5", "--csv"],
        stdin_text=doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,flows,colorings,tensions"
    assert len(lines) == 5
    for line in lines[1:]:
        q, flows, colorings, tensions = (int(v) for v in line.split(","))
        assert flows == count_nz_flows(delta, q)
        assert colorings == count_proper_colorings(delta, q)
        assert tensions == count_nz_tensions(delta, q)


def test_cli_sweep_checks_the_range_before_printing(monkeypatch, capsys):
    doc = '{"facets": [[0,1],[1,2],[0,2]]}'
    code, out, err = _run_cli(
        ["sweep", "--q-range", "4..2"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert (code, out) == (1, "")
    assert "empty --q-range '4..2'" in err
    code, out, err = _run_cli(
        ["sweep", "--q-range", "0..2"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert (code, out) == (2, "")
    assert "modulus must be >= 1, got 0" in err


def test_cli_sweep_petersen_up_to_6(monkeypatch, capsys):
    from simflow.verify import _tensions_by_circuits

    delta = build_complex([list(f) for f in petersen().facets])
    code, out, _ = _run_cli(
        ["sweep", "--q-range", "2..6"],
        stdin_text=serialize_complex(delta),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    rows = [[int(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == [2, 3, 4, 5, 6]
    for q, flows, colorings, tensions in rows[:3]:
        assert flows == count_nz_flows(delta, q, method="kernel_enum")
        assert tensions == _tensions_by_circuits(delta, q)
        if q**10 <= 10**5:
            assert colorings == count_proper_colorings(delta, q, method="brute")


def test_cli_exit_codes(monkeypatch, capsys):
    # usage
    code, _, err = _run_cli(["flows"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    # domain error: impure document
    code, _, err = _run_cli(
        ["flows", "--q", "3"],
        stdin_text='{"facets": [[0,1,2],[0,1]]}',
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    # bad q-range
    code, _, err = _run_cli(
        ["sweep", "--q-range", "abc"],
        stdin_text='{"facets": [[0,1]]}',
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1
    # the removed --jobs flag is an unknown option
    code, out, err = _run_cli(
        ["flows", "--q", "3", "--jobs", "2"],
        stdin_text='{"facets": [[0,1],[1,2],[0,2]]}',
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1 and out == "" and "--jobs" in err


def test_cli_cap_refusal_and_force(monkeypatch, capsys):
    # the cap counts series-reduced columns: 6 for K_4, and 6 for K_4 with
    # one edge subdivided
    monkeypatch.setenv("SIMFLOW_SUBSET_CAP", "2")
    k4 = [[a, b] for a in range(4) for b in range(a + 1, 4)]
    subdivided = k4[1:] + [[0, 4], [4, 1]]
    for facets, counted in ((k4, "6 facets"), (subdivided, "6 series-reduced columns")):
        doc = serialize_complex(build_complex(facets))
        code, _, err = _run_cli(
            ["flows", "--q", "4", "--method", "subset_expansion"],
            stdin_text=doc,
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 3
        assert f"over {counted} exceeds the cap of 2" in err
        assert "SIMFLOW_SUBSET_CAP" in err and "--force" in err
        code, out, _ = _run_cli(
            ["flows", "--q", "4", "--method", "subset_expansion", "--force"],
            stdin_text=doc,
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0 and out.strip() == "6"


@pytest.mark.parametrize("n", [8, 10])
def test_cli_analyze_answers_past_the_subset_cap(monkeypatch, capsys, n):
    # K_n has n(n-1)/2 facets, past the cap of 24, and no sweep runs: its
    # least cut is the n - 1 edges at vertex 0
    monkeypatch.delenv("SIMFLOW_SUBSET_CAP", raising=False)
    doc = serialize_complex(make_fixture("complete", n=n, k=2))
    start = time.perf_counter()
    code, out, err = _run_cli(
        ["analyze", "--json"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["facets"] == n * (n - 1) // 2
    assert payload["connectivity"] == {
        "exact": True, "value": n - 1, "witness": list(range(n - 1))
    }


def test_cli_refuses_a_facet_with_too_many_faces(monkeypatch, capsys):
    code, out, err = _run_cli(
        ["analyze"],
        stdin_text=json.dumps({"facets": [list(range(36))]}),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 3 and out == ""
    assert f"enumeration of {2**36 - 1} faces exceeds the cap" in err


def test_cli_analyze_refuses_a_large_lower_skeleton_at_once(monkeypatch, capsys):
    # the 13-simplex's boundary maps reach 3003 x 3432; no Smith form runs
    def never(*args):
        raise AssertionError("Smith form past the matrix cap")

    monkeypatch.setattr(simflow.homology, "snf_diagonal", never)
    start = time.perf_counter()
    code, out, err = _run_cli(
        ["analyze"],
        stdin_text=json.dumps({"facets": [list(range(14))]}),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "Smith normal form of a 1001 x 2002 boundary map in dimension 4" in err


@pytest.mark.parametrize(
    "n, k, facets, cut", [(8, 2, 28, 7), (7, 3, 35, 5)], ids=["K_8^2", "K_7^3"]
)
def test_cli_jaeger_answers_past_the_subset_cap(n, k, facets, cut, monkeypatch, capsys):
    """The cover is a matroid partition and the least cut a search over
    bases, not sweeps: complete complexes past the subset cap get a
    nowhere-zero 4-flow at once, and `analyze` answers them."""
    monkeypatch.delenv("SIMFLOW_SUBSET_CAP", raising=False)
    delta = complete(n, k)
    assert len(delta.facets) == facets
    doc = serialize_complex(delta)
    start = time.perf_counter()
    code, out, err = _run_cli(
        ["construct", "--jaeger", "--json"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    elapsed = time.perf_counter() - start
    assert code == 0, err
    payload = json.loads(out)
    assert payload["modulus"] == 4 and payload["nowhere_zero"]
    assert is_modular_flow(delta, ModularFlow(q=4, values=tuple(payload["values"])))
    assert elapsed < 1
    code, out, err = _run_cli(["analyze"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    assert (code, err) == (0, "")
    assert f"connectivity: {cut}\ncoarboricity: 2\n" in out


def test_cli_jaeger_reads_only_the_codimension_one_map(monkeypatch, capsys):
    # the 12-sphere's maps below dimension 11 reach 1001 x 2002, over the
    # matrix cap; the base test reads none of them, only the top map
    sphere = simplex_boundary(12)
    code, out, err = _run_cli(
        ["construct", "--jaeger", "--json"],
        stdin_text=serialize_complex(sphere),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["modulus"] == 16384 and payload["nowhere_zero"]
    assert is_modular_flow(sphere, ModularFlow(q=16384, values=tuple(payload["values"])))


@pytest.mark.parametrize("fixture", [petersen, lambda: simplex_boundary(12)], ids=["petersen", "12-sphere"])
def test_cli_jaeger_takes_one_smith_elimination(fixture, monkeypatch, capsys):
    """The Smith form of the top map's one block, for the bridges, the
    cover and the rank the bases are held to; every fundamental circuit
    is a fold."""
    from simflow import linalg

    calls = []
    eliminate = linalg._eliminate

    def counting(rows, transform):
        calls.append(len(rows))
        return eliminate(rows, transform)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    code, out, err = _run_cli(
        ["construct", "--jaeger"],
        stdin_text=serialize_complex(fixture()),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0, err
    assert len(calls) == 1


def test_cli_sweep_counts_each_modulus_colorings_once(monkeypatch, capsys):
    """Petersen's colorings are searched at small moduli, and the
    tensions column reads the count the colorings column printed."""
    from simflow import flows

    calls = []
    brute = flows._brute_colorings

    def counting(delta, k):
        calls.append(k)
        return brute(delta, k)

    monkeypatch.setattr(flows, "_brute_colorings", counting)
    code, out, err = _run_cli(
        ["sweep", "--q-range", "2..4"],
        stdin_text=serialize_complex(petersen()),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0, err
    assert calls and len(calls) == len(set(calls))
    assert out.splitlines()[1:] == [
        f"{q},{count_nz_flows(petersen(), q)},{count_proper_colorings(petersen(), q)},"
        f"{count_nz_tensions(petersen(), q)}"
        for q in (2, 3, 4)
    ]


def test_matrix_cap_admits_the_eleven_simplex():
    from simflow.caps import check_matrix_cap

    check_matrix_cap(924, 792, "map")  # the 11-simplex's largest lower map
    check_matrix_cap(1000, 1000, "map")
    with pytest.raises(simflow.CapExceededError) as info:
        check_matrix_cap(1000, 1001, "map")
    assert info.value.needed == 1001000


def test_cli_kernel_enum_past_the_enum_cap_exit_3_before_walking(monkeypatch, capsys):
    # K_7 has 21 edges and beta = 15: 3^15 kernel vectors mod 3. 100
    # disjoint triangles hold 3 per block, so 3^100 over the product of
    # the blocks, which the cap refuses before any block is searched
    def never(*args):
        raise AssertionError("walked past the cap")

    monkeypatch.setattr(simflow.linalg, "smith_normal_form", never)
    monkeypatch.setattr(simflow.linalg, "count_nowhere_zero_box", never)
    monkeypatch.setattr(simflow.flows, "count_nowhere_zero_kernel_mod_q", never)
    triangles = [[3 * i + a, 3 * i + b] for i in range(100) for a, b in ((0, 1), (1, 2), (0, 2))]
    for delta, beta in (make_fixture("complete", n=7, k=2), 15), (build_complex(triangles), 100):
        code, out, err = _run_cli(
            ["flows", "--q", "3", "--method", "kernel_enum"],
            stdin_text=serialize_complex(delta),
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 3 and out == ""
        assert f"enumeration of {3**beta} vectors exceeds the cap" in err


def test_cli_analyze_joins_the_torsion_of_the_blocks(monkeypatch, capsys):
    # RP^2 and a disjoint mod-3 Moore space: H_1 = Z_2 + Z_3 = Z_6, one
    # invariant factor from the Smith forms of two blocks
    moore = [[v + 6 for v in f] for f in mod3_moore_space().facets]
    union = build_complex([list(f) for f in rp2().facets] + moore)
    code, out, err = _run_cli(
        ["analyze"], stdin_text=serialize_complex(union), monkeypatch=monkeypatch, capsys=capsys
    )
    assert (code, err) == (0, "")
    assert "torsion[1]: [6]\n" in out


def test_cli_refuses_a_fixture_with_too_many_faces(monkeypatch, capsys):
    code, out, err = _run_cli(
        ["generate", "--fixture", "simplex_boundary", "--d", "40"],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 3 and out == ""
    assert f"enumeration of {42 * (2**41 - 1)} faces exceeds the cap" in err


@pytest.mark.parametrize("value", ["lots", "-1"])
def test_cli_bad_subset_cap_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("SIMFLOW_SUBSET_CAP", value)
    doc = serialize_complex(build_complex([[0, 1], [1, 2], [0, 2]]))
    # auto reads the cap to choose between the sweep and enumeration
    for method in ("subset_expansion", "auto"):
        code, out, err = _run_cli(
            ["flows", "--q", "3", "--method", method],
            stdin_text=doc,
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 1 and out == ""
        assert "SIMFLOW_SUBSET_CAP" in err and repr(value) in err


def test_cli_broken_invariant_exits_4(monkeypatch, capsys):
    from simflow import flows

    monkeypatch.setattr(flows, "is_modular_flow", lambda delta, flow: False)
    doc = serialize_complex(build_complex([[0, 1], [1, 2], [0, 2]]))
    code, out, err = _run_cli(
        ["construct", "--jaeger"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 4 and out == ""
    assert err.startswith("internal error: ") and "Traceback" not in err


def test_cli_jaeger_lift_with_a_zero_entry_exits_4(monkeypatch, capsys):
    # every word of the Z_2^c flow is nonzero, so a zero in its lift is a bug
    from simflow import flows

    monkeypatch.setattr(
        flows, "lift_z2r_flow", lambda delta, gf: ModularFlow(q=2, values=(0, 0, 0))
    )
    doc = serialize_complex(build_complex([[0, 1], [1, 2], [0, 2]]))
    code, out, err = _run_cli(
        ["construct", "--jaeger"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 4 and out == ""
    assert err.startswith("internal error: ") and "Traceback" not in err


def test_cli_file_input(tmp_path, monkeypatch, capsys):
    path = tmp_path / "c3.json"
    path.write_text(serialize_complex(build_complex([[0, 1], [1, 2], [0, 2]])))
    code, out, _ = _run_cli(
        ["flows", "--q", "4", str(path)], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0 and out.strip() == "3"


def test_cli_generate_output_file(tmp_path, monkeypatch, capsys):
    out_path = tmp_path / "c4.json"
    code, out, _ = _run_cli(
        ["generate", "--fixture", "cycle", "--n", "4", "-o", str(out_path)],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0 and out == ""
    assert len(json.loads(out_path.read_text())["facets"]) == 4


def _assert_domain_error(code, out, err, start="error: "):
    assert code == 2 and out == ""
    assert err.startswith(start) and "Traceback" not in err


def test_cli_input_that_is_a_directory(tmp_path, monkeypatch, capsys):
    _assert_domain_error(
        *_run_cli(["analyze", str(tmp_path)], monkeypatch=monkeypatch, capsys=capsys)
    )


def test_cli_input_that_is_not_utf8(tmp_path, monkeypatch, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"facets": [[0, 1]], "name": "caf\u00e9"}'.encode("latin-1"))
    _assert_domain_error(
        *_run_cli(["analyze", str(path)], monkeypatch=monkeypatch, capsys=capsys),
        start="error: input is not UTF-8",
    )


@pytest.mark.parametrize("utf8_mode", ["0", "1"])
def test_cli_stdin_that_is_not_utf8(utf8_mode):
    """In UTF-8 mode (or a C locale) stdin decodes with surrogateescape, so
    a Latin-1 byte arrives as a lone surrogate instead of an error."""
    src = str(Path(simflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUTF8": utf8_mode}
    doc = '{"facets": [[0, 1], [1, 2], [0, 2]], "name": "caf\u00e9"}'
    result = subprocess.run(
        [sys.executable, "-m", "simflow.cli", "flows", "--q", "3"],
        input=doc.encode("latin-1"),
        capture_output=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 2 and result.stdout == b""
    assert result.stderr.startswith(b"error: input is not UTF-8")


def test_cli_generate_output_to_a_directory(tmp_path, monkeypatch, capsys):
    argv = ["generate", "--fixture", "cycle", "--n", "4", "-o", str(tmp_path)]
    _assert_domain_error(*_run_cli(argv, monkeypatch=monkeypatch, capsys=capsys))


def test_cli_tensions_and_qtkr(monkeypatch, capsys):
    doc = serialize_complex(build_complex([[0, 1], [1, 2], [0, 2]]))
    code, out, _ = _run_cli(
        ["tensions", "--k", "3"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0 and out.strip() == "2"
    code, out, _ = _run_cli(
        ["poly", "--kind", "qtkr", "--q", "2"],
        stdin_text=doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0 and out.strip() == "x^2 + x + y"
    code, _, _ = _run_cli(
        ["poly", "--kind", "qtkr"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 1


def test_cli_tensions_answer_wherever_colorings_do(monkeypatch, capsys):
    """K_{5,5}: 25 edges, over the subset cap, but 3^10 colorings, which
    `auto` searches. The tension count reads its Betti number and
    torsion off the Smith form of the boundary map, so it needs no sweep
    either: 186 colorings over 3 colorings per tension give 62."""
    doc = serialize_complex(build_complex([[a, b] for a in range(5) for b in range(5, 10)]))
    for argv, want in (
        (["colorings", "--k", "3"], "186"),
        (["tensions", "--k", "3"], "62"),
        (["tensions", "--k", "2"], "1"),
    ):
        code, out, err = _run_cli(argv, stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
        assert (code, out.strip()) == (0, want), (argv, err)


def test_cli_verify_paper_suite(monkeypatch, capsys):
    code, out, _ = _run_cli(["verify", "--suite", "paper"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all("PASS" in line for line in lines[:-1])
    assert lines[-1] == "result: PASS"


def test_cli_sweep_refusal_leaves_stdout_empty(monkeypatch, capsys):
    # K_8: 28 edges, over the subset cap, and 3^21 flows mod 3 to
    # enumerate, so the flow count at q = 3 refuses
    doc = serialize_complex(make_fixture("complete", n=8, k=2))
    code, out, err = _run_cli(
        ["sweep", "--q-range", "2..3"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert (code, out) == (3, "")
    assert err.startswith("cap exceeded: ")
    # a refusal after the first modulus answered leaves no row behind
    def refuse_past_2(delta, k, colorings):
        if k > 2:
            raise CapExceededError("refused")
        return tensions_from_colorings(delta, k, colorings)

    monkeypatch.setattr(simflow.cli, "tensions_from_colorings", refuse_past_2)
    code, out, _ = _run_cli(
        ["sweep", "--q-range", "2..3"],
        stdin_text='{"facets": [[0,1],[1,2],[0,2]]}',
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert (code, out) == (3, "")


def test_cli_sweep_has_no_json_option(monkeypatch, capsys):
    code, out, err = _run_cli(
        ["sweep", "--q-range", "2..3", "--json"],
        stdin_text='{"facets": [[0,1],[1,2],[0,2]]}',
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert (code, out) == (1, "")
    assert err == "usage error: unrecognized arguments: --json\n"


def _help_text(parser, argv):
    """What `parser` prints for `argv`, which asks for help."""
    out = io.StringIO()
    with pytest.raises(SystemExit) as exit_info, redirect_stdout(out):
        parser.parse_args(argv)
    assert exit_info.value.code == 0
    return out.getvalue()


def test_one_command_parser_prints_the_same_help():
    full = build_parser()
    assert list(COMMANDS) == [
        "generate", "analyze", "flows", "colorings", "tensions", "poly", "quasi",
        "construct", "min-q", "suspend", "subdivide", "verify", "sweep",
    ]
    for name in COMMANDS:
        text = _help_text(build_parser(name), ["--help"])
        assert text.startswith(f"usage: simflow {name} [-h]")
        assert text == _help_text(full, [name, "--help"]), name


@pytest.mark.parametrize(
    "argv",
    [
        ["flows"],
        ["flows", "--q"],
        ["flows", "--q", "x"],
        ["flows", "--q", "3", "--method", "bad"],
        ["flows", "--q", "3", "--jobs", "2"],
        ["flows", "--q", "3", "a.json", "b.json"],
        ["colorings", "--k", "3", "--method", "kernel_enum"],
        ["tensions"],
        ["poly", "--kind", "bad"],
        ["poly", "--kind", "bott", "--convention", "x"],
        ["generate", "--fixture", "nope"],
        ["generate", "--fixture", "cycle", "--n", "x"],
        ["verify", "--suite", "x"],
        ["construct"],
        ["subdivide", "--facet", "0", "--json"],
        ["sweep", "--q-range", "2..3", "--json"],
    ],
)
def test_one_command_parser_raises_the_same_usage_errors(argv):
    messages = []
    for parser, args in ((build_parser(argv[0]), argv[1:]), (build_parser(), argv)):
        with pytest.raises(_UsageError) as exc_info:
            parser.parse_args(args)
        messages.append(str(exc_info.value))
    assert messages[0] == messages[1]


def test_one_command_parser_is_flat():
    """A command's parser holds only its own arguments and parses what
    follows the command name."""
    parser = build_parser("flows")
    assert parser.format_usage().startswith("usage: simflow flows [-h] --q Q [--method")
    assert vars(parser.parse_args(["--q", "3", "in.json"])) == {
        "q": 3, "method": "auto", "input": "in.json", "json": False, "force": False
    }
    with pytest.raises(_UsageError, match="unrecognized arguments: analyze"):
        parser.parse_args(["--q", "3", "in.json", "analyze"])
    # anything but a command name builds every subparser
    full = build_parser().format_usage()
    assert "{generate,analyze,flows," in full
    for command in ("-h", "nope"):
        assert build_parser(command).format_usage() == full


def test_each_parser_is_built_once():
    for name in COMMANDS:
        assert build_parser(name) is build_parser(name)
    full = build_parser()
    assert build_parser("-h") is full and build_parser("nope") is full
    # unknown names share the full tree's key, so they never grow the memo
    parsers = [build_parser(f"unknown-{i}") for i in range(50)]
    assert all(parser is full for parser in parsers)
    assert simflow.cli._parser.cache_info().currsize <= len(COMMANDS) + 1


def _actions(parser):
    """Every action of `parser` and of the subparsers it holds."""
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _actions(sub)


def test_no_argument_carries_state_between_calls():
    """A shared parser hands its defaults to every call: each must be
    immutable, and no action may accumulate into one."""
    accumulating = (
        argparse._AppendAction, argparse._AppendConstAction,
        argparse._ExtendAction, argparse._CountAction,
    )
    for name in [None, *COMMANDS]:
        for action in _actions(build_parser(name)):
            assert action.default is None or type(action.default) in (bool, int, str)
            assert not isinstance(action, accumulating), (name, action.dest)


# a valid call of each command on a corpus document (K_4)
_VALID = {
    "generate": ["--fixture", "cycle", "--n", "4"],
    "analyze": ["--json"],
    "flows": ["--q", "4", "--method", "kernel_enum"],
    "colorings": ["--k", "4"],
    "tensions": ["--k", "3"],
    "poly": ["--kind", "bott", "--convention", "complemented"],
    "quasi": [],
    "construct": ["--jaeger"],
    "min-q": ["--max", "6"],
    "suspend": [],
    "subdivide": ["--facet", "2"],
    "verify": ["--suite", "paper"],
    "sweep": ["--q-range", "2..4"],
}


def _run_or_exit(argv, stdin_text, monkeypatch, capsys):
    """`_run_cli`, with an exit by `--help` read as its code."""
    try:
        return _run_cli(argv, stdin_text, monkeypatch=monkeypatch, capsys=capsys)
    except SystemExit as exc:
        return (exc.code, *capsys.readouterr())


def test_repeated_calls_in_one_process_agree(monkeypatch, capsys):
    # the paper suite takes seconds; its parser is what is under test
    passed = CheckResult(1, "stub", True, "ok")
    monkeypatch.setattr("simflow.verify.run_paper_suite", lambda: [passed])
    doc = serialize_complex(complete(4, 2))
    assert set(_VALID) == set(COMMANDS)
    for name, valid in _VALID.items():
        calls = [[name, "--bogus"], [name, *valid], [name, "--help"], [name, *valid]]
        runs = [_run_or_exit(argv, doc, monkeypatch, capsys) for argv in calls * 2]
        assert runs[0][0] == 1 and runs[1][0] == 0 and runs[2][0] == 0, (name, runs)
        assert runs[3] == runs[1], name
        assert runs[4:] == runs[:4], name


def test_help_follows_the_terminal_width(monkeypatch, capsys):
    """The shared parser builds its formatter when it prints, so a
    `COLUMNS` change between two calls reaches the second one."""
    texts = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = _run_or_exit(["flows", "--help"], "", monkeypatch, capsys)
        assert code == 0
        assert out == _help_text(simflow.cli._parser.__wrapped__("flows"), ["--help"])
        texts.append(out)
    narrow, wide = texts
    assert len(narrow.splitlines()) > len(wide.splitlines())


def test_cli_analyze_refuses_past_the_subset_cap_before_any_smith_form(
    monkeypatch, capsys
):
    # K_16^4: 1,820 facets, whose top map (560 x 1820) is past the matrix
    # cap; its Smith form would carry an 1820 x 1820 transform
    doc = serialize_complex(make_fixture("complete", n=16, k=4))
    start = time.perf_counter()
    code, out, err = _run_cli(["analyze"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert err == (
        "cap exceeded: Smith normal form of a 560 x 1820 boundary map in dimension 3"
        " (1019200 entries) exceeds the cap of 1000000 entries\n"
    )


@pytest.mark.parametrize(
    "make, shape",
    [(lambda: complete(16, 4), "560 x 1820"), (lambda: cycle(1001), "1001 x 1001")],
    ids=["K_16^4", "cycle(1001)"],
)
def test_cli_construct_refuses_a_top_map_past_the_matrix_cap(make, shape, monkeypatch, capsys):
    # both hung without the check: K_16^4 in the top Smith form, the
    # 1001-edge cycle in the cover
    def never(*args, **kwargs):
        raise AssertionError("Smith form past the matrix cap")

    monkeypatch.setattr(simflow.homology, "smith_normal_form", never)
    monkeypatch.setattr(simflow.linalg, "smith_normal_form", never)
    code, out, err = _run_cli(
        ["construct", "--jaeger"],
        stdin_text=serialize_complex(make()),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert (code, out) == (3, "")
    assert f"Smith normal form of a {shape} boundary map in dimension" in err


def test_cli_analyze_forced_past_the_matrix_cap_refuses_before_the_sweep(
    monkeypatch, capsys
):
    # K_16^5: 4,368 facets in one block, and a 560 x 1820 map in dimension 3
    def never(*args, **kwargs):
        raise AssertionError("sweep past the matrix cap")

    monkeypatch.setattr(simflow.homology, "_component_sweep", never)
    doc = serialize_complex(make_fixture("complete", n=16, k=5))
    code, out, err = _run_cli(["analyze"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (3, "")
    assert "Smith normal form of a 560 x 1820 boundary map in dimension 3" in err


def test_cli_analyze_takes_no_force(monkeypatch, capsys):
    # the least cut is a search over bases, so there is no cap to override
    doc = serialize_complex(build_complex([[0, 1], [1, 2], [0, 2]]))
    code, out, err = _run_cli(
        ["analyze", "--force"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --force" in err


@pytest.mark.parametrize(
    "delta",
    [
        *(delta for _, delta in standard_corpus()),
        mod3_moore_space(),
        mod3_moore_disk(),
        complete(6, 3),
        complete(8, 2),
    ],
    ids=[*(name for name, _ in standard_corpus()), "moore", "moore+disk", "K_6^3", "K_8^2"],
)
def test_cli_analyze_never_sweeps(delta, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("analyze swept a block")

    monkeypatch.setattr(simflow.homology, "_component_sweep", never)
    code, out, err = _run_cli(
        ["analyze", "--json"],
        stdin_text=serialize_complex(delta),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["connectivity"]["exact"] is True
