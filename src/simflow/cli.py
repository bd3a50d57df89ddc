"""Command-line surface.

Commands read a complex document from stdin (or a file argument) and
write results to stdout, so they compose by piping:

    simflow generate --fixture complete --n 5 --k 3 | simflow flows --q 5

Exit codes: 0 success / all checks pass, 1 usage (including a malformed
SIMFLOW_SUBSET_CAP), 2 domain error (including a file that cannot be
read or written), 3 cap refusal, 4 broken internal invariant.
"""

import argparse
import json
import sys

from .complexes import subdivide_facet, suspension
from .errors import (
    BadModulusError,
    CapExceededError,
    DomainError,
    InfeasibleError,
    InternalError,
    ParseError,
    SettingError,
    SimflowError,
)
from .fixtures import FIXTURE_PARAMS, make_fixture
from .flows import (
    count_nz_flows,
    count_nz_tensions,
    count_proper_colorings,
    flow_quasipolynomial,
    jaeger_flow,
    min_flow_number,
)
from .homology import homology_summary
from .io import parse_complex, serialize_complex
from .matroid import bridges, coarboricity, facet_connectivity
from .poly import format_bivariate, format_univariate
from .tutte import bott_r_polynomial, matroid_tutte, q_tkr_polynomial, tkr_polynomial
from .verify import run_paper_suite


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_input(sub):
    sub.add_argument(
        "input",
        nargs="?",
        help="complex document file (default: stdin)",
    )


def _add_common(sub):
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument("--force", action="store_true", help="override the subset cap")


def build_parser():
    parser = _Parser(prog="simflow", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="emit a fixture document")
    gen.add_argument("--fixture", required=True, choices=sorted(FIXTURE_PARAMS))
    gen.add_argument("--n", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--d", type=int)
    gen.add_argument("-o", "--output")

    ana = subs.add_parser("analyze", help="homology, bridges, connectivity, coarboricity")
    _add_input(ana)
    _add_common(ana)

    flo = subs.add_parser("flows", help="count nowhere-zero q-flows")
    flo.add_argument("--q", type=int, required=True)
    flo.add_argument(
        "--method",
        choices=["auto", "kernel_enum", "subset_expansion"],
        default="auto",
    )
    _add_input(flo)
    _add_common(flo)

    col = subs.add_parser("colorings", help="count proper k-colorings")
    col.add_argument("--k", type=int, required=True)
    col.add_argument(
        "--method", choices=["auto", "brute", "subset_expansion"], default="auto"
    )
    _add_input(col)
    _add_common(col)

    ten = subs.add_parser("tensions", help="count nowhere-zero k-tensions")
    ten.add_argument("--k", type=int, required=True)
    _add_input(ten)
    _add_common(ten)

    pol = subs.add_parser("poly", help="TKR / q-TKR / matroid Tutte / Bott polynomials")
    pol.add_argument("--kind", choices=["tkr", "qtkr", "tutte", "bott"], required=True)
    pol.add_argument("--q", type=int)
    pol.add_argument(
        "--convention", choices=["literal", "complemented"], default="literal"
    )
    _add_input(pol)
    _add_common(pol)

    qua = subs.add_parser("quasi", help="flow quasipolynomial")
    _add_input(qua)
    _add_common(qua)

    con = subs.add_parser("construct", help="build an explicit flow")
    con.add_argument("--jaeger", action="store_true", required=True)
    _add_input(con)
    _add_common(con)

    mnq = subs.add_parser("min-q", help="least modulus with a nowhere-zero flow")
    mnq.add_argument("--max", type=int, required=True)
    _add_input(mnq)
    _add_common(mnq)

    sus = subs.add_parser("suspend", help="suspension of the input complex")
    _add_input(sus)
    sus.add_argument("-o", "--output")

    sub_ = subs.add_parser("subdivide", help="stellar subdivision of one facet")
    sub_.add_argument("--facet", type=int, required=True)
    _add_input(sub_)
    sub_.add_argument("-o", "--output")

    ver = subs.add_parser("verify", help="run the paper verification suite")
    ver.add_argument("--suite", choices=["paper"], required=True)

    swp = subs.add_parser("sweep", help="CSV of counts over a modulus range")
    swp.add_argument("--q-range", required=True, help="A..B inclusive")
    swp.add_argument("--csv", action="store_true", help="CSV output (the default)")
    _add_input(swp)
    _add_common(swp)

    return parser


def _read_complex(args):
    try:
        if getattr(args, "input", None):
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = sys.stdin.read()
            # a stdin that decodes with surrogateescape hands undecodable
            # bytes over as lone surrogates, which do not encode back
            text.encode("utf-8")
    except (UnicodeDecodeError, UnicodeEncodeError) as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from exc
    return parse_complex(text)


def _emit_document(text, output):
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_generate(args):
    params = {"n": args.n, "k": args.k, "d": args.d}
    wanted = FIXTURE_PARAMS[args.fixture]
    delta = make_fixture(args.fixture, **{p: params.get(p) for p in ("n", "k", "d")})
    label = args.fixture
    if wanted:
        label += "(" + ",".join(str(params[p]) for p in wanted) + ")"
    _emit_document(serialize_complex(delta, name=label), args.output)
    return 0


def _cmd_analyze(args):
    delta = _read_complex(args)
    summary = homology_summary(delta)
    bridge_list = bridges(delta)
    # the capped sweep first: the cut search then folds its histogram
    try:
        coarb = coarboricity(delta, force=args.force)
    except InfeasibleError:
        coarb = None
    conn = facet_connectivity(delta)
    payload = {
        "dimension": delta.dimension,
        "facets": len(delta.facets),
        "vertices": delta.vertex_count,
        "betti": {str(n): b for n, b in sorted(summary.betti.items())},
        "torsion": {str(n): t for n, t in sorted(summary.torsion.items())},
        "bridges": bridge_list,
        "connectivity": {
            "value": conn.value,
            "exact": conn.exact,
            "witness": delta.facets_of_mask(conn.witness),
        },
        "coarboricity": coarb,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"dimension: {delta.dimension}")
        print(f"facets: {len(delta.facets)}")
        print(f"vertices: {delta.vertex_count}")
        for n, b in sorted(summary.betti.items()):
            print(f"betti[{n}]: {b}")
        for n, t in sorted(summary.torsion.items()):
            if t:
                print(f"torsion[{n}]: {t}")
        print(f"bridges: {bridge_list}")
        suffix = "" if conn.exact else f" (no cut of size <= {conn.value - 1} found)"
        print(f"connectivity: {conn.value}{suffix}")
        print(f"coarboricity: {'infinite' if coarb is None else coarb}")
    return 0


def _cmd_flows(args):
    delta = _read_complex(args)
    count = count_nz_flows(delta, args.q, method=args.method, force=args.force)
    if args.json:
        print(json.dumps({"q": args.q, "method": args.method, "flows": count}))
    else:
        print(count)
    return 0


def _cmd_colorings(args):
    delta = _read_complex(args)
    count = count_proper_colorings(
        delta, args.k, method=args.method, force=args.force
    )
    if args.json:
        print(json.dumps({"k": args.k, "colorings": count}))
    else:
        print(count)
    return 0


def _cmd_tensions(args):
    delta = _read_complex(args)
    count = count_nz_tensions(delta, args.k, force=args.force)
    if args.json:
        print(json.dumps({"k": args.k, "tensions": count}))
    else:
        print(count)
    return 0


def _cmd_poly(args):
    delta = _read_complex(args)
    if args.kind == "tkr":
        text = format_bivariate(tkr_polynomial(delta, force=args.force))
    elif args.kind == "qtkr":
        if args.q is None:
            raise _UsageError("poly --kind qtkr requires --q")
        text = format_bivariate(
            q_tkr_polynomial(delta, args.q, force=args.force)
        )
    elif args.kind == "tutte":
        text = format_bivariate(matroid_tutte(delta, force=args.force))
    else:
        coeffs = bott_r_polynomial(delta, args.convention, force=args.force)
        text = format_univariate(coeffs, var="L")
    if args.json:
        print(json.dumps({"kind": args.kind, "polynomial": text}))
    else:
        print(text)
    return 0


def _cmd_quasi(args):
    delta = _read_complex(args)
    quasi = flow_quasipolynomial(delta, force=args.force)
    rendered = [format_univariate(c, var="q") for c in quasi.constituents]
    if args.json:
        print(
            json.dumps(
                {
                    "period": quasi.period,
                    "degree": quasi.degree,
                    "constituents": rendered,
                }
            )
        )
    else:
        print(f"period {quasi.period}, constituents \"{'; '.join(rendered)}\"")
    return 0


def _cmd_construct(args):
    delta = _read_complex(args)
    flow = jaeger_flow(delta, force=args.force)
    if args.json:
        print(
            json.dumps(
                {
                    "modulus": flow.q,
                    "values": list(flow.values),
                    "nowhere_zero": flow.nowhere_zero,
                }
            )
        )
    else:
        print(f"modulus: {flow.q}")
        print("values: " + ",".join(str(v) for v in flow.values))
    return 0


def _cmd_min_q(args):
    delta = _read_complex(args)
    found = min_flow_number(delta, args.max, force=args.force)
    if args.json:
        print(json.dumps({"max": args.max, "min_q": found}))
    else:
        print("none" if found is None else found)
    return 0


def _cmd_suspend(args):
    delta = _read_complex(args)
    suspended, _ = suspension(delta)
    _emit_document(serialize_complex(suspended), args.output)
    return 0


def _cmd_subdivide(args):
    delta = _read_complex(args)
    refined = subdivide_facet(delta, args.facet)
    _emit_document(serialize_complex(refined), args.output)
    return 0


def _cmd_verify(args):
    results = run_paper_suite()
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok = all_ok and r.passed
        print(f"[{r.criterion:2d}] {r.name:<{width}}  {status}  {r.detail}")
    print("result:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 2


def _cmd_sweep(args):
    delta = _read_complex(args)
    try:
        low, high = args.q_range.split("..")
        low, high = int(low), int(high)
    except ValueError:
        raise _UsageError(f"bad --q-range {args.q_range!r}; expected A..B")
    if low > high:
        raise _UsageError(f"empty --q-range {args.q_range!r}; expected A <= B")
    if low < 1:
        raise BadModulusError(f"modulus must be >= 1, got {low}")
    print("q,flows,colorings,tensions")
    for q in range(low, high + 1):
        flows = count_nz_flows(delta, q, force=args.force)
        colorings = count_proper_colorings(delta, q, force=args.force)
        tensions = count_nz_tensions(delta, q, force=args.force)
        print(f"{q},{flows},{colorings},{tensions}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "flows": _cmd_flows,
    "colorings": _cmd_colorings,
    "tensions": _cmd_tensions,
    "poly": _cmd_poly,
    "quasi": _cmd_quasi,
    "construct": _cmd_construct,
    "min-q": _cmd_min_q,
    "suspend": _cmd_suspend,
    "subdivide": _cmd_subdivide,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, SettingError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except SimflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
