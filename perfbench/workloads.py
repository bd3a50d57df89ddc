"""The three workloads: their inputs, requests and reference checks.

A workload is a list of `Input`s. Each carries its document text, the
CLI requests made on it (argv without the file argument, which the
harness appends), and a `reference()` computed once, after the timed
rounds, by routes that do not share the code path under test:

* the benchmark's own rank tables (`oracle.RankOracle`) for polynomials,
  mod-2 counts and everything `analyze` reports;
* the other counting method of the program (kernel enumeration against
  the subset expansion, and back), on a complex parsed afresh;
* brute force or backtracking for colorings, networkx for graph Tutte
  polynomials (when installed), closed forms for wedges of spheres, and
  the boundary product for constructed flows.
"""

import json
import math
import random
import re

import inputs
import oracle
import simflow as sf

SWEEP_AUTO_KERNEL = 10**5  # the `auto` flows request enumerates at least this many
# six sphere boundaries with 30 facets in all: top Betti number 6
WEDGE = [("tetra", 3)] * 3 + [("bipyramid", 3)] * 3


class Input:
    def __init__(self, name, family, facets, requests, props=None):
        self.name = name
        self.family = family
        self.facets = [list(f) for f in facets]
        self.doc = json.dumps({"facets": self.facets, "name": name})
        self.requests = requests  # [(argv tail, check key)]
        self.props = dict(props or {})
        self._ref = None
        self._oracle = None

    @property
    def own(self):
        if self._oracle is None:
            self._oracle = oracle.RankOracle(self.facets)
        return self._oracle

    def fresh(self):
        """A complex parsed afresh, so no cache is shared with a request."""
        return sf.parse_complex(self.doc)

    def reference(self):
        if self._ref is None:
            self._ref = REFERENCES[self.family](self)
        return self._ref


def kernel_counter(delta):
    """(top Betti number, q -> number of kernel vectors mod q) of the top
    boundary map, from one Smith normal form."""
    diag = sf.smith_normal_form(sf.boundary_matrix(delta, delta.dimension).matrix).diagonal
    beta = len(delta.facets) - len(diag)
    return beta, lambda q: q**beta * math.prod(math.gcd(d, q) for d in diag)


def least_q_with_kernel(delta, target):
    beta, count = kernel_counter(delta)
    q = max(2, int(round(target ** (1 / beta))) - 3) if beta else 2
    while count(q) < target:
        q += 1
    return q


# ---------------------------------------------------------------------------
# sweep: 13-facet single-component complexes, every request sweeps


def sweep_inputs(rng, smoke):
    if smoke:
        specs = [
            ("graph", inputs.bridgeless_graph(rng, 5, 8)),
            ("cx2", inputs.random_2complex(rng, 5, 8)),
            ("rp2", inputs.rp2_refined(rng, 0, 1)),
        ]
        target = 10**3
    else:
        specs = [
            ("graph", inputs.bridgeless_graph(rng, 8, 13)),
            ("cx2", inputs.random_2complex(rng, 6, 13, edges=15, beta=3)),
            ("rp2", inputs.rp2_refined(rng, 1, 1)),
        ]
        target = SWEEP_AUTO_KERNEL
    out = []
    for kind, facets in specs:
        facets = inputs.sparse_labels(facets, rng)
        delta = sf.build_complex(facets)
        q_auto = least_q_with_kernel(delta, target)
        k = 3 if kind == "graph" else 2
        requests = [
            (["poly", "--kind", "tkr"], "tkr"),
            (["poly", "--kind", "qtkr", "--q", "2"], "qtkr2"),
            (["flows", "--q", "3", "--method", "subset_expansion"], "flows3"),
            (["colorings", "--k", str(k), "--method", "subset_expansion"], "colorings"),
            (["quasi"], "quasi"),
            (["analyze", "--json"], "analyze"),
            (["flows", "--q", str(q_auto)], "flows_auto"),
        ]
        out.append(
            Input(f"sweep-{kind}", "sweep-" + kind, facets, requests,
                  {"q_auto": q_auto, "k": k, "moduli": [2, 3, 4, 5, k, q_auto]})
        )
    return out


def _sweep_reference(inp):
    own = inp.own
    fresh = inp.fresh()
    ref = {
        "tkr": own.tutte(),
        "qtkr2": own.tutte(q2_weight=True),
        "flows3": sf.count_nz_flows(fresh, 3, method="kernel_enum"),
        "quasi_points": {
            q: sf.count_nz_flows(fresh, q, method="kernel_enum") for q in (2, 3, 4, 5)
        },
        "flows_auto": sf.count_nz_flows(
            fresh, inp.props["q_auto"], method="subset_expansion"
        ),
        "analyze": _analyze_reference(inp),
    }
    k = inp.props["k"]
    if k == 2:
        ref["colorings"] = own.colorings_mod2()
    else:
        ref["colorings"] = sf.count_proper_colorings(fresh, k, method="brute")
    if inp.family == "sweep-graph":
        ref["networkx_tutte"] = oracle.networkx_tutte(inp.facets)
    inp.props["torsion_period"] = sf.subset_profile(fresh).torsion_period()
    return ref


# ---------------------------------------------------------------------------
# enum: inputs past the subset cap, and small graphs


def enum_inputs(rng, smoke):
    if smoke:
        big = [(5, 8, 12)]
        wedges = [WEDGE[:3]]
        small = [(6, 8, 3)]
    else:
        big = [(6, 13, 25), (6, 13, 25)]
        wedges = [WEDGE, WEDGE]
        small = [(8, 12, 3), (8, 12, 4)]
    out = []
    for i, (bv, be, e) in enumerate(big):
        graph, base = inputs.subdivided_graph(rng, bv, be, e)
        label = dict(zip(range(e), rng.sample(range(3 * e), e)))
        graph = [[label[a], label[b]] for a, b in graph]
        requests = [
            (["flows", "--q", "4"], "flows_q"),
            (["min-q", "--max", "6"], "min_q"),
            (["colorings", "--k", "2", "--method", "brute"], "colorings2"),
        ]
        out.append(Input(f"enum-graph{i}", "enum-graph", graph, requests,
                         {"base": base, "q": 4, "moduli": [2, 3, 4, 5, 6]}))
    for i, spheres in enumerate(wedges):
        facets = inputs.sparse_labels(inputs.wedge_of_spheres(rng, spheres), rng)
        requests = [(["flows", "--q", "6"], "flows_q"), (["min-q", "--max", "6"], "min_q")]
        out.append(Input(f"enum-wedge{i}", "enum-wedge", facets, requests,
                         {"q": 6, "spheres": len(spheres), "moduli": [2, 6]}))
    for i, (v, e, k) in enumerate(small):
        graph = inputs.sparse_labels(inputs.bridgeless_graph(rng, v, e), rng)
        requests = [
            (["tensions", "--k", str(k)], "tensions"),
            (["sweep", "--q-range", "2..4"], "sweep"),
        ]
        out.append(Input(f"enum-small{i}", "enum-small", graph, requests,
                         {"k": k, "moduli": [2, 3, 4]}))
    return out


def _enum_graph_reference(inp):
    base = sf.build_complex(inp.props["base"])
    base_flows = {
        q: sf.count_nz_flows(base, q, method="subset_expansion") for q in range(2, 7)
    }
    inp.props["torsion_period"] = 1  # graphs have totally unimodular boundaries
    return {
        "flows_q": base_flows[inp.props["q"]],
        "min_q": next((q for q, c in base_flows.items() if c), None),
        "colorings2": oracle.count_colorings(inp.facets, 2),
    }


def _enum_wedge_reference(inp):
    fresh = inp.fresh()
    inp.props["torsion_period"] = sf.subset_profile(fresh, force=True).torsion_period()
    spheres = inp.props["spheres"]
    return {"flows_q": (inp.props["q"] - 1) ** spheres, "min_q": 2}


def _enum_small_reference(inp):
    fresh = inp.fresh()
    k = inp.props["k"]
    chromatic = {q: oracle.count_colorings(inp.facets, q) for q in (2, 3, 4, k)}
    rows = ["q,flows,colorings,tensions"]
    for q in (2, 3, 4):
        flows = sf.count_nz_flows(fresh, q, method="subset_expansion")
        rows.append(f"{q},{flows},{chromatic[q]},{chromatic[q] // q}")
    inp.props["torsion_period"] = 1
    return {"tensions": chromatic[k] // k, "sweep": rows}


# ---------------------------------------------------------------------------
# small: many inputs with at most 10 facets per component


# Component shapes, cycled in order: ("g", vertices, beta) is a bridgeless
# graph, ("tetra",) and ("bp", m) sphere boundaries, ("r", facets, beta) a
# bridgeless complex on 5 vertices, ("rp2",) the projective plane. Shapes
# are fixed so every seed has the same sizes. An input's top Betti number
# is at most 4, so `flows --q 5` (auto) enumerates at most 5^4 vectors and
# requests stay in the millisecond range; the auto route's cost on large
# kernels is what `sweep` and `enum` measure.
SMALL_SHAPES = {
    "graph": [
        [("g", 6, 3)], [("g", 5, 2)], [("g", 4, 1), ("g", 6, 2)],
        [("g", 5, 2), ("g", 5, 2)], [("g", 3, 1), ("g", 4, 1), ("g", 6, 2)],
        [("g", 4, 1), ("g", 5, 1), ("g", 5, 1)],
    ],
    "cx2": [
        [("tetra",)], [("bp", 5)], [("r", 8, 2)], [("tetra",), ("bp", 4)],
        [("r", 8, 2), ("bp", 3)], [("tetra",), ("bp", 3), ("r", 8, 2)],
    ],
    "torsion": [
        [("rp2",)], [("rp2",), ("tetra",)], [("rp2",), ("bp", 4)],
        [("rp2",), ("r", 8, 2)], [("rp2",), ("tetra",), ("bp", 3)],
        [("rp2",), ("bp", 5), ("tetra",)],
    ],
}


def _piece(rng, shape):
    kind = shape[0]
    if kind == "g":
        _, v, beta = shape
        return inputs.bridgeless_graph(rng, v, v - 1 + beta)
    if kind == "tetra":
        return inputs.sphere("tetra")
    if kind == "bp":
        return inputs.sphere("bipyramid", shape[1])
    if kind == "r":
        return inputs.random_2complex(rng, 5, shape[1], beta=shape[2])
    return list(inputs.RP2)


def small_inputs(rng, smoke):
    count = 6 if smoke else 90
    out = []
    for i in range(count):
        kind = ("graph", "cx2", "torsion")[i % 3]
        shapes = SMALL_SHAPES[kind][(i // 3) % len(SMALL_SHAPES[kind])]
        facets = inputs.disjoint_union([_piece(rng, shape) for shape in shapes])
        facets = inputs.sparse_labels(facets, rng)
        requests = [(["analyze", "--json"], "analyze")]
        if kind != "torsion":  # RP^2 facets are bridges: no nowhere-zero flow
            requests.append((["construct", "--jaeger"], "construct"))
        requests += [
            (["poly", "--kind", "tutte"], "tutte"),
            (["flows", "--q", "5"], "flows5"),
            (["suspend"], "suspend"),
            (["subdivide", "--facet", "0"], "subdivide"),
        ]
        out.append(Input(f"small-{i}-{kind}", "small-" + kind, facets, requests,
                         {"moduli": [5]}))
    return out


def _small_reference(inp):
    own = inp.own
    fresh = inp.fresh()
    ref = {
        "analyze": _analyze_reference(inp),
        "tutte": own.tutte(),
        "flows5": sf.count_nz_flows(fresh, 5, method="subset_expansion"),
        "suspend": oracle.suspension_facets(inp.facets),
        "subdivide": oracle.subdivision_facets(inp.facets, 0),
        "coarboricity": own.coarboricity(),
    }
    if inp.family == "small-graph":
        ref["networkx_tutte"] = _networkx_tutte_by_component(inp)
    inp.props["torsion_period"] = sf.subset_profile(fresh).torsion_period()
    return ref


def _networkx_tutte_by_component(inp):
    """Product of the components' networkx Tutte polynomials."""
    product = {(0, 0): 1}
    for comp in inp.own.components:
        edges = [inp.own.facets[i] for i in comp]
        part = oracle.networkx_tutte(edges)
        if part is None:
            return None
        out = {}
        for (a, b), c in product.items():
            for (i, j), d in part.items():
                out[(a + i, b + j)] = out.get((a + i, b + j), 0) + c * d
        product = {k: c for k, c in out.items() if c}
    return product


def _analyze_reference(inp):
    own = inp.own
    d = own.dimension
    lower_betti, divisible = own.lower_betti_and_torsion()
    betti = {str(d): own.beta_top}
    betti.update({str(k): b for k, b in lower_betti.items()})
    value, exact, witness = own.connectivity()
    return {
        "dimension": d,
        "facets": own.n,
        "vertices": len({v for f in own.facets for v in f}),
        "betti": betti,
        "divisible": divisible,
        "bridges": own.bridges(),
        "connectivity": {"value": value, "exact": exact, "witness": witness},
        "coarboricity": own.coarboricity(),
    }


REFERENCES = {
    "sweep-graph": _sweep_reference,
    "sweep-cx2": _sweep_reference,
    "sweep-rp2": _sweep_reference,
    "enum-graph": _enum_graph_reference,
    "enum-wedge": _enum_wedge_reference,
    "enum-small": _enum_small_reference,
    "small-graph": _small_reference,
    "small-cx2": _small_reference,
    "small-torsion": _small_reference,
}

BUILDERS = {"sweep": sweep_inputs, "enum": enum_inputs, "small": small_inputs}


def build(workload, seed, smoke=False):
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, smoke)


# ---------------------------------------------------------------------------
# checks: stdout text against the reference


def check(inp, key, stdout):
    ref = inp.reference()
    text = stdout.strip()
    if key in ("flows3", "flows_auto", "colorings", "flows_q", "colorings2",
               "flows5", "tensions"):
        return text == str(ref[key])
    if key == "min_q":
        return text == ("none" if ref[key] is None else str(ref[key]))
    if key in ("tkr", "qtkr2", "tutte"):
        got = oracle.parse_polynomial(text, ("x", "y"))
        nx_ref = ref.get("networkx_tutte")
        return got == ref[key] and (nx_ref is None or key == "qtkr2" or got == nx_ref)
    if key == "quasi":
        return _check_quasi(inp, text, ref)
    if key == "analyze":
        return _check_analyze(json.loads(text), ref["analyze"])
    if key == "construct":
        return _check_construct(inp, text, ref)
    if key in ("suspend", "subdivide"):
        doc = json.loads(text)
        return oracle.canonical(doc["facets"]) == ref[key]
    if key == "sweep":
        return text.splitlines() == ref[key]
    raise KeyError(key)


def _check_quasi(inp, text, ref):
    m = re.fullmatch(r'period (\d+), constituents "(.*)"', text)
    if not m:
        return False
    period = int(m.group(1))
    constituents = [oracle.parse_polynomial(c, ("q",)) for c in m.group(2).split("; ")]
    if len(constituents) != period:
        return False
    for q, count in ref["quasi_points"].items():
        if oracle.evaluate(constituents[q % period], (q,)) != count:
            return False
    degree = max((p[0] for c in constituents for p in c), default=0)
    even_period = period % 2 == 0
    return degree == inp.own.beta_top and even_period == inp.own.has_2_torsion()


def _check_analyze(got, ref):
    torsion = got["torsion"]
    d = ref["dimension"]
    if d >= 1:
        top_tors = torsion.get(str(d - 1), [])
        for p, count in ref["divisible"].items():
            if sum(1 for t in top_tors if t % p == 0) != count:
                return False
        if any(torsion.get(str(k)) for k in range(d - 1)):
            return False
    return (
        got["dimension"] == d
        and got["facets"] == ref["facets"]
        and got["vertices"] == ref["vertices"]
        and got["betti"] == ref["betti"]
        and got["bridges"] == ref["bridges"]
        and got["connectivity"] == ref["connectivity"]
        and got["coarboricity"] == ref["coarboricity"]
    )


def _check_construct(inp, text, ref):
    m = re.fullmatch(r"modulus: (\d+)\nvalues: ([\d,]+)", text)
    if not m:
        return False
    q = int(m.group(1))
    values = [int(v) for v in m.group(2).split(",")]
    return (
        q == 2 ** ref["coarboricity"]
        and len(values) == inp.own.n
        and all(v % q for v in values)
        and not any(oracle.boundary_product(inp.facets, values, q))
    )


def properties(inp):
    """Per-input facts recorded in the result file."""
    fresh = inp.fresh()
    comps = sf.complexes.facet_components(fresh)
    beta, count = kernel_counter(fresh)
    props = {
        "family": inp.family,
        "facets": len(fresh.facets),
        "components": len(comps),
        "subsets": sum(1 << len(c) for c in comps),
        "beta_top": beta,
        "kernel_sizes": {str(q): count(q) for q in inp.props["moduli"]},
        "requests": [" ".join(argv) for argv, _ in inp.requests],
    }
    props.update({k: v for k, v in inp.props.items() if k not in ("moduli", "base")})
    return props
