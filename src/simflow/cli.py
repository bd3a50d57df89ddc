"""Command-line surface.

Commands read a complex document from stdin (or a file argument) and
write results to stdout, so they compose by piping:

    simflow generate --fixture complete --n 5 --k 3 | simflow flows --q 5

Exit codes: 0 success / all checks pass, 1 usage (including a malformed
SIMFLOW_SUBSET_CAP), 2 domain error (including a file that cannot be
read or written), 3 cap refusal, 4 broken internal invariant.

Each command is declared once, by `@_command` on its handler: its name,
its help, and its arguments in the order `--help` prints them. That
fills `COMMANDS`, the one table that `build_parser` walks and `main`
dispatches through. A call whose first argument names a command parses
the rest of the line with one flat parser of that command's arguments,
named `simflow <command>`: no command reads another's arguments. Its
help and usage errors read as the subparser's would. Any other first
argument (none, -h, an unknown name) parses the line with the top-level
parser with every command, so its help and usage errors list them all.
Each command's flat parser, and the full tree, is built once per process
on first use, so a caller that runs `main` many times pays for each
build once. `--help` prints this docstring up to this paragraph.
"""

import argparse
import functools
import json
import sys

from .complexes import subdivide_facet, suspension
from .errors import (
    BadModulusError,
    CapExceededError,
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
    tensions_from_colorings,
)
from .homology import check_skeleton_caps, homology_summary, subset_profile
from .io import parse_complex, serialize_complex
from .matroid import bridges, coarboricity, facet_connectivity
from .poly import format_bivariate, format_univariate
from .tutte import bott_r_polynomial, matroid_tutte, q_tkr_polynomial, tkr_polynomial


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# `simflow --help` describes the command line, not how the parser is built
_DESCRIPTION = __doc__ and __doc__.partition("\n\nEach command is declared")[0]

COMMANDS = {}


def _command(name, summary, *arguments):
    """Declare the decorated handler as command `name`, with the one-line
    help `summary`. Each argument is an `_arg` (flags, keywords) pair for
    `add_argument`. The handler returns None on success, or an exit
    code."""

    def declare(handler):
        COMMANDS[name] = (summary, handler, arguments)
        return handler

    return declare


def _arg(*flags, **kwargs):
    return flags, kwargs


_INPUT = _arg("input", nargs="?", help="complex document file (default: stdin)")
_JSON = _arg("--json", action="store_true", help="machine-readable output")
_FORCE = _arg("--force", action="store_true", help="override the subset cap")
_OUTPUT = _arg("-o", "--output")
# what most commands take after their own arguments
_STANDARD = (_INPUT, _JSON, _FORCE)


def build_parser(command=None):
    """The parser of `simflow command`'s arguments when `command` names
    one in `COMMANDS`, else the `simflow` parser with every command as a
    subparser. Each is built on first use and then shared: parsing leaves
    a parser as it was, and no argument has a mutable default."""
    return _parser(command if command in COMMANDS else None)


@functools.cache
def _parser(command):
    if command is not None:
        return _add_arguments(_Parser(prog=f"simflow {command}"), command)
    parser = _Parser(prog="simflow", description=_DESCRIPTION)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in COMMANDS.items():
        _add_arguments(subs.add_parser(name, help=summary), name)
    return parser


def _add_arguments(parser, command):
    for flags, kwargs in COMMANDS[command][2]:
        parser.add_argument(*flags, **kwargs)
    return parser


def _read_complex(args):
    try:
        if args.input:
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


def _emit(args, payload, text, sort_keys=False):
    """Print `payload` as JSON under --json, else `text`."""
    print(json.dumps(payload, sort_keys=sort_keys) if args.json else text)


@_command(
    "generate",
    "emit a fixture document",
    _arg("--fixture", required=True, choices=sorted(FIXTURE_PARAMS)),
    _arg("--n", type=int),
    _arg("--k", type=int),
    _arg("--d", type=int),
    _OUTPUT,
)
def _cmd_generate(args):
    params = {"n": args.n, "k": args.k, "d": args.d}
    wanted = FIXTURE_PARAMS[args.fixture]
    delta = make_fixture(args.fixture, **params)
    label = args.fixture
    if wanted:
        label += "(" + ",".join(str(params[p]) for p in wanted) + ")"
    _emit_document(serialize_complex(delta, name=label), args.output)


@_command("analyze", "homology, bridges, connectivity, coarboricity", *_STANDARD)
def _cmd_analyze(args):
    delta = _read_complex(args)
    # every refusal before any Smith form: the homology's matrix cap, then
    # the capped sweep, whose blocks the cut search then folds
    check_skeleton_caps(delta, range(delta.dimension))
    subset_profile(delta, force=args.force)
    summary = homology_summary(delta)
    bridge_list = bridges(delta)
    # a bridge lies in no coforest
    coarb = None if bridge_list else coarboricity(delta)
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
    suffix = "" if conn.exact else f" (no cut of size <= {conn.value - 1} found)"
    lines = [
        f"dimension: {delta.dimension}",
        f"facets: {len(delta.facets)}",
        f"vertices: {delta.vertex_count}",
        *(f"betti[{n}]: {b}" for n, b in sorted(summary.betti.items())),
        *(f"torsion[{n}]: {t}" for n, t in sorted(summary.torsion.items()) if t),
        f"bridges: {bridge_list}",
        f"connectivity: {conn.value}{suffix}",
        f"coarboricity: {'infinite' if coarb is None else coarb}",
    ]
    _emit(args, payload, "\n".join(lines), sort_keys=True)


@_command(
    "flows",
    "count nowhere-zero q-flows",
    _arg("--q", type=int, required=True),
    _arg(
        "--method", choices=["auto", "kernel_enum", "subset_expansion"], default="auto"
    ),
    *_STANDARD,
)
def _cmd_flows(args):
    delta = _read_complex(args)
    count = count_nz_flows(delta, args.q, method=args.method, force=args.force)
    _emit(args, {"q": args.q, "method": args.method, "flows": count}, count)


@_command(
    "colorings",
    "count proper k-colorings",
    _arg("--k", type=int, required=True),
    _arg("--method", choices=["auto", "brute", "subset_expansion"], default="auto"),
    *_STANDARD,
)
def _cmd_colorings(args):
    delta = _read_complex(args)
    count = count_proper_colorings(delta, args.k, method=args.method, force=args.force)
    _emit(args, {"k": args.k, "colorings": count}, count)


@_command(
    "tensions",
    "count nowhere-zero k-tensions",
    _arg("--k", type=int, required=True),
    *_STANDARD,
)
def _cmd_tensions(args):
    count = count_nz_tensions(_read_complex(args), args.k, force=args.force)
    _emit(args, {"k": args.k, "tensions": count}, count)


@_command(
    "poly",
    "TKR / q-TKR / matroid Tutte / Bott polynomials",
    _arg("--kind", choices=["tkr", "qtkr", "tutte", "bott"], required=True),
    _arg("--q", type=int),
    _arg("--convention", choices=["literal", "complemented"], default="literal"),
    *_STANDARD,
)
def _cmd_poly(args):
    delta = _read_complex(args)
    if args.kind == "tkr":
        text = format_bivariate(tkr_polynomial(delta, force=args.force))
    elif args.kind == "qtkr":
        if args.q is None:
            raise _UsageError("poly --kind qtkr requires --q")
        text = format_bivariate(q_tkr_polynomial(delta, args.q, force=args.force))
    elif args.kind == "tutte":
        text = format_bivariate(matroid_tutte(delta, force=args.force))
    else:
        coeffs = bott_r_polynomial(delta, args.convention, force=args.force)
        text = format_univariate(coeffs, var="L")
    _emit(args, {"kind": args.kind, "polynomial": text}, text)


@_command("quasi", "flow quasipolynomial", *_STANDARD)
def _cmd_quasi(args):
    quasi = flow_quasipolynomial(_read_complex(args), force=args.force)
    rendered = [format_univariate(c, var="q") for c in quasi.constituents]
    payload = {"period": quasi.period, "degree": quasi.degree, "constituents": rendered}
    text = f"period {quasi.period}, constituents \"{'; '.join(rendered)}\""
    _emit(args, payload, text)


@_command(
    "construct",
    "build an explicit flow",
    _arg("--jaeger", action="store_true", required=True),
    *_STANDARD,
)
def _cmd_construct(args):
    flow = jaeger_flow(_read_complex(args))
    values = list(flow.values)
    payload = {"modulus": flow.q, "values": values, "nowhere_zero": flow.nowhere_zero}
    _emit(args, payload, f"modulus: {flow.q}\nvalues: " + ",".join(map(str, values)))


@_command(
    "min-q",
    "least modulus with a nowhere-zero flow",
    _arg("--max", type=int, required=True),
    *_STANDARD,
)
def _cmd_min_q(args):
    found = min_flow_number(_read_complex(args), args.max, force=args.force)
    _emit(args, {"max": args.max, "min_q": found}, "none" if found is None else found)


@_command("suspend", "suspension of the input complex", _INPUT, _OUTPUT)
def _cmd_suspend(args):
    suspended, _ = suspension(_read_complex(args))
    _emit_document(serialize_complex(suspended), args.output)


@_command(
    "subdivide",
    "stellar subdivision of one facet",
    _arg("--facet", type=int, required=True),
    _INPUT,
    _OUTPUT,
)
def _cmd_subdivide(args):
    refined = subdivide_facet(_read_complex(args), args.facet)
    _emit_document(serialize_complex(refined), args.output)


@_command(
    "verify",
    "run the paper verification suite",
    _arg("--suite", choices=["paper"], required=True),
)
def _cmd_verify(args):
    # the suite and its oracles serve this command alone, so no other
    # command's process loads them
    from .verify import run_paper_suite

    results = run_paper_suite()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{r.criterion:2d}] {r.name:<{width}}  {status}  {r.detail}")
    all_ok = all(r.passed for r in results)
    print("result:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 2


@_command(
    "sweep",
    "CSV of counts over a modulus range",
    _arg("--q-range", required=True, help="A..B inclusive"),
    _arg("--csv", action="store_true", help="CSV output (the default)"),
    _INPUT,
    _FORCE,
)
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
    # every row before the header, so a refusal leaves stdout empty;
    # each modulus's colorings are counted once and give its tensions
    rows = []
    for q in range(low, high + 1):
        flows = count_nz_flows(delta, q, force=args.force)
        colorings = count_proper_colorings(delta, q, force=args.force)
        rows.append((q, flows, colorings, tensions_from_colorings(delta, q, colorings)))
    print("q,flows,colorings,tensions")
    for row in rows:
        print(",".join(map(str, row)))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv else None
    parser = build_parser(command)
    try:
        if command in COMMANDS:
            args = parser.parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
            command = args.command
        return COMMANDS[command][1](args) or 0
    except (_UsageError, SettingError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (SimflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
