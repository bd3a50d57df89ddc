"""Span recorder for the traced run, and the per-layer metrics derived
from its spans.

Tracing rebinds the public functions each calling module imported (and
the `RankOracle.rank` and `BivariatePolynomial.add_shifted_term`
methods) to wrappers that open a span on entry and close it on exit.
Nothing under `src/` changes; leaving `traced` restores every binding.

A span holds its name, start, end, busy time and parent. Busy time is
end - start, except for the kernel enumeration generator, whose busy
time sums the intervals it actually ran while its consumer pulled
vectors. A span's self time is its busy time minus its children's.
"""

import gzip
import time
import weakref
from array import array
from collections import Counter

from simflow import cli, complexes, flows, homology, io, linalg, matroid, poly, tutte

# (span name, owning module, attribute, modules whose binding is replaced)
TRACED = [
    ("io.parse_complex", io, "parse_complex", [cli]),
    ("complexes.build_complex", complexes, "build_complex", [io, complexes]),
    ("complexes.boundary_matrix", complexes, "boundary_matrix",
     [complexes, homology, flows, tutte]),
    ("complexes.facet_components", complexes, "facet_components", [homology]),
    ("homology.subset_profile", homology, "subset_profile", [flows, tutte, matroid]),
    ("homology.homology_summary", homology, "homology_summary", [cli]),
    ("linalg.snf_diagonal", linalg, "snf_diagonal", [linalg, homology, matroid]),
    ("linalg.smith_normal_form", linalg, "smith_normal_form", [linalg]),
    ("linalg.kernel_count_mod_q", linalg, "kernel_count_mod_q", [linalg, flows, tutte]),
    ("linalg.enumerate_kernel_mod_q", linalg, "enumerate_kernel_mod_q", [flows]),
    ("linalg.row_lattice_reduce", linalg, "row_lattice_reduce", [flows]),
    ("flows.count_nz_flows", flows, "count_nz_flows", [cli, flows, tutte]),
    ("flows.count_proper_colorings", flows, "count_proper_colorings",
     [cli, flows, tutte]),
    ("flows.count_nz_tensions", flows, "count_nz_tensions", [cli]),
    ("flows.circuits", flows, "circuits", [flows]),
    ("flows.flow_quasipolynomial", flows, "flow_quasipolynomial", [cli]),
    ("flows.jaeger_flow", flows, "jaeger_flow", [cli]),
    ("flows.lift_z2r_flow", flows, "lift_z2r_flow", [flows]),
    ("flows.min_flow_number", flows, "min_flow_number", [cli]),
    ("tutte.tkr_polynomial", tutte, "tkr_polynomial", [cli]),
    ("tutte.q_tkr_polynomial", tutte, "q_tkr_polynomial", [cli]),
    ("tutte.bott_r_polynomial", tutte, "bott_r_polynomial", [cli]),
    ("tutte.matroid_tutte", tutte, "matroid_tutte", [cli]),
    ("poly.format_bivariate", poly, "format_bivariate", [cli]),
    ("poly.format_univariate", poly, "format_univariate", [cli]),
    ("matroid.bridges", matroid, "bridges", [cli, flows]),
    ("matroid.facet_connectivity", matroid, "facet_connectivity", [cli]),
    ("matroid.coarboricity", matroid, "coarboricity", [cli, flows]),
    ("matroid.coforest_cover", matroid, "coforest_cover", [flows]),
    ("matroid.fundamental_circuit", matroid, "fundamental_circuit", [flows]),
]
TRACED_METHODS = [
    ("matroid.RankOracle.rank", matroid.RankOracle, "rank"),
    ("poly.add_shifted_term", poly.BivariatePolynomial, "add_shifted_term"),
]
GENERATORS = {"linalg.enumerate_kernel_mod_q"}
REQUEST = "cli.main"

# (name, unit, better); per-round values are means over the traced rounds
PER_LAYER = [
    ("homology.sweep_ms", "ms", "lower"),
    ("homology.sweep_incl_ms", "ms", "lower"),
    ("homology.us_per_subset", "us", "lower"),
    ("homology.subsets", "count", "lower"),
    ("homology.histogram_keys", "count", "lower"),
    ("homology.torsion_subsets", "count", "lower"),
    ("homology.sweep_jobs1_ms", "ms", "lower"),
    ("homology.sweep_jobs2_ms", "ms", "lower"),
    ("linalg.snf_calls", "count", "lower"),
    ("linalg.snf_us_per_call", "us", "lower"),
    ("linalg.snf_share_of_sweep", "ratio", "lower"),
    ("linalg.kernel_vectors", "count", "lower"),
    ("linalg.kernel_vectors_per_s", "1/s", "higher"),
    ("linalg.kernel_enum_ms", "ms", "lower"),
    ("linalg.smith_normal_form_calls", "count", "lower"),
    ("linalg.smith_normal_form_ms", "ms", "lower"),
    ("linalg.row_lattice_reduce_ms", "ms", "lower"),
    ("flows.fold_ms", "ms", "lower"),
    ("flows.brute_ms", "ms", "lower"),
    ("flows.filter_ms", "ms", "lower"),
    ("flows.auto_enum_ratio", "ratio", "lower"),
    ("flows.circuits_ms", "ms", "lower"),
    ("flows.tensions_ms", "ms", "lower"),
    ("flows.quasi_ms", "ms", "lower"),
    ("flows.quasi_evaluations", "count", "lower"),
    ("flows.jaeger_ms", "ms", "lower"),
    ("flows.lift_ms", "ms", "lower"),
    ("tutte.tkr_ms", "ms", "lower"),
    ("tutte.qtkr_ms", "ms", "lower"),
    ("tutte.bott_ms", "ms", "lower"),
    ("tutte.matroid_tutte_ms", "ms", "lower"),
    ("poly.shifted_terms", "count", "lower"),
    ("poly.expand_ms", "ms", "lower"),
    ("poly.format_ms", "ms", "lower"),
    ("matroid.rank_calls", "count", "lower"),
    ("matroid.rank_us_per_call", "us", "lower"),
    ("matroid.bridges_ms", "ms", "lower"),
    ("matroid.connectivity_ms", "ms", "lower"),
    ("matroid.coarboricity_ms", "ms", "lower"),
    ("matroid.cover_ms", "ms", "lower"),
    ("matroid.fundamental_circuit_calls", "count", "lower"),
    ("complexes.build_ms", "ms", "lower"),
    ("complexes.boundary_ms", "ms", "lower"),
    ("complexes.components_ms", "ms", "lower"),
    ("io.parse_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
]


class Recorder:
    """Spans in parallel arrays; the open spans form a stack."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.parent = array("i")
        self.stack = []
        self.auto = set()  # count_nz_flows spans called with method="auto"
        self.profiles = weakref.WeakSet()  # profiles already counted
        self.subsets = 0  # sum over components of 2^|component|, per sweep
        self.histogram_keys = 0
        self.torsion_subsets = 0
        self.kernel_vectors = 0

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid, push=True):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.busy.append(0.0)
        if push:
            self.stack.append(i)
        return i

    def close(self, i, busy=None):
        t = time.perf_counter()
        self.end[i] = t
        self.busy[i] = t - self.start[i] if busy is None else busy
        if self.stack and self.stack[-1] == i:
            self.stack.pop()

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tparent\tstart_us\tend_us\tbusy_us\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.end[i] - t0) * 1e6:.1f}\t{self.busy[i] * 1e6:.1f}\n"
                )


def _wrap(rec, name, fn):
    nid = rec.name_id(name)

    if name in GENERATORS:

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            i = rec.open(nid, push=False)
            busy = 0.0
            produced = 0
            try:
                while True:
                    rec.stack.append(i)
                    t = time.perf_counter()
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        busy += time.perf_counter() - t
                        rec.stack.pop()
                    produced += 1
                    yield value
            finally:
                rec.close(i, busy)
                rec.kernel_vectors += produced

        return wrapper

    def wrapper(*args, **kwargs):
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if name == "homology.subset_profile" and result not in rec.profiles:
            rec.profiles.add(result)
            rec.subsets += sum(1 << len(c) for c in result.components)
            rec.histogram_keys += len(result.histogram)
            rec.torsion_subsets += sum(
                c for (_, _, t), c in result.histogram.items() if t
            )
        elif name == "flows.count_nz_flows":
            method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
            if method == "auto":
                rec.auto.add(i)
        return result

    return wrapper


class traced:
    """Context manager: rebind every traced name to a recording wrapper."""

    def __init__(self, rec):
        self.rec = rec
        self.saved = []

    def __enter__(self):
        for name, owner, attr, users in TRACED:
            wrapped = _wrap(self.rec, name, getattr(owner, attr))
            for mod in users:
                self.saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapped)
        for name, cls, attr in TRACED_METHODS:
            self.saved.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, _wrap(self.rec, name, getattr(cls, attr)))
        return self.rec

    def __exit__(self, *exc):
        for target, attr, original in reversed(self.saved):
            setattr(target, attr, original)
        self.saved.clear()
        return False


def per_layer(rec, rounds, factor, extra):
    """Per-layer metrics from the spans of `rounds` traced rounds.

    Times are divided by `factor`, the machine slowdown the probes saw
    during those rounds (rates are multiplied by it). `extra` supplies
    values measured outside the spans (jobs sweeps, trace overhead).
    """
    n = len(rec.name)
    names = rec.names
    child_busy = [0.0] * n
    children = {}
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child_busy[p] += rec.busy[i]
            children.setdefault(p, set()).add(names[rec.name[i]])
    self_t = Counter()
    busy_t = Counter()
    calls = Counter()
    for i in range(n):
        nm = names[rec.name[i]]
        self_t[nm] += rec.busy[i] - child_busy[i]
        busy_t[nm] += rec.busy[i]
        calls[nm] += 1

    by_name = {}
    for i in range(n):
        by_name.setdefault(names[rec.name[i]], []).append(i)

    def spans_of(nm):
        return by_name.get(nm, [])

    def self_of(idx):
        return sum(rec.busy[i] - child_busy[i] for i in idx)

    per_round = 1.0 / max(rounds, 1)
    ms = 1e3 * per_round

    subsets = rec.subsets
    sweep_self = self_t["homology.subset_profile"]
    sweep_busy = busy_t["homology.subset_profile"]

    snf = spans_of("linalg.snf_diagonal")
    sweep_id = rec._ids.get("homology.subset_profile")
    snf_in_sweep = sum(rec.busy[i] for i in snf if rec.parent[i] >= 0
                       and rec.name[rec.parent[i]] == sweep_id)

    enum_name = "linalg.enumerate_kernel_mod_q"
    enum_self = self_t[enum_name]
    counting = spans_of("flows.count_nz_flows") + spans_of("flows.count_proper_colorings")
    folded = [i for i in counting if "homology.subset_profile" in children.get(i, ())]
    filtered = [
        i for i in spans_of("flows.count_nz_flows") + spans_of("flows.count_nz_tensions")
        if enum_name in children.get(i, ())
    ]
    brute = [i for i in spans_of("flows.count_proper_colorings")
             if "homology.subset_profile" not in children.get(i, ())]
    auto_enum = [i for i in rec.auto if enum_name in children.get(i, ())]
    quasi_id = rec._ids.get("flows.flow_quasipolynomial")
    quasi_evals = sum(1 for i in spans_of("flows.count_nz_flows")
                      if rec.parent[i] >= 0 and rec.name[rec.parent[i]] == quasi_id)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "homology.sweep_ms": sweep_self * ms,
        "homology.sweep_incl_ms": sweep_busy * ms,
        "homology.us_per_subset": ratio(sweep_self * 1e6, subsets),
        "homology.subsets": subsets * per_round,
        "homology.histogram_keys": rec.histogram_keys * per_round,
        "homology.torsion_subsets": rec.torsion_subsets * per_round,
        "linalg.snf_calls": calls["linalg.snf_diagonal"] * per_round,
        "linalg.snf_us_per_call": ratio(busy_t["linalg.snf_diagonal"] * 1e6,
                                        calls["linalg.snf_diagonal"]),
        "linalg.snf_share_of_sweep": ratio(snf_in_sweep, sweep_busy),
        "linalg.kernel_vectors": rec.kernel_vectors * per_round,
        "linalg.kernel_vectors_per_s": ratio(rec.kernel_vectors, enum_self),
        "linalg.kernel_enum_ms": enum_self * ms,
        "linalg.smith_normal_form_calls": calls["linalg.smith_normal_form"] * per_round,
        "linalg.smith_normal_form_ms": self_t["linalg.smith_normal_form"] * ms,
        "linalg.row_lattice_reduce_ms": self_t["linalg.row_lattice_reduce"] * ms,
        "flows.fold_ms": self_of(folded) * ms,
        "flows.brute_ms": self_of(brute) * ms,
        "flows.filter_ms": self_of(filtered) * ms,
        "flows.auto_enum_ratio": ratio(len(auto_enum), len(rec.auto)),
        "flows.circuits_ms": self_t["flows.circuits"] * ms,
        "flows.tensions_ms": self_t["flows.count_nz_tensions"] * ms,
        "flows.quasi_ms": self_t["flows.flow_quasipolynomial"] * ms,
        "flows.quasi_evaluations": quasi_evals * per_round,
        "flows.jaeger_ms": self_t["flows.jaeger_flow"] * ms,
        "flows.lift_ms": self_t["flows.lift_z2r_flow"] * ms,
        "tutte.tkr_ms": self_t["tutte.tkr_polynomial"] * ms,
        "tutte.qtkr_ms": self_t["tutte.q_tkr_polynomial"] * ms,
        "tutte.bott_ms": self_t["tutte.bott_r_polynomial"] * ms,
        "tutte.matroid_tutte_ms": self_t["tutte.matroid_tutte"] * ms,
        "poly.shifted_terms": calls["poly.add_shifted_term"] * per_round,
        "poly.expand_ms": self_t["poly.add_shifted_term"] * ms,
        "poly.format_ms": (self_t["poly.format_bivariate"]
                           + self_t["poly.format_univariate"]) * ms,
        "matroid.rank_calls": calls["matroid.RankOracle.rank"] * per_round,
        "matroid.rank_us_per_call": ratio(busy_t["matroid.RankOracle.rank"] * 1e6,
                                          calls["matroid.RankOracle.rank"]),
        "matroid.bridges_ms": self_t["matroid.bridges"] * ms,
        "matroid.connectivity_ms": self_t["matroid.facet_connectivity"] * ms,
        "matroid.coarboricity_ms": self_t["matroid.coarboricity"] * ms,
        "matroid.cover_ms": self_t["matroid.coforest_cover"] * ms,
        "matroid.fundamental_circuit_calls":
            calls["matroid.fundamental_circuit"] * per_round,
        "complexes.build_ms": self_t["complexes.build_complex"] * ms,
        "complexes.boundary_ms": self_t["complexes.boundary_matrix"] * ms,
        "complexes.components_ms": self_t["complexes.facet_components"] * ms,
        "io.parse_ms": self_t["io.parse_complex"] * ms,
        "cli.self_ms": self_t[REQUEST] * ms,
    }
    for name, unit, _ in PER_LAYER:
        if name in values and unit in ("ms", "us"):
            values[name] /= factor
        elif name in values and unit == "1/s":
            values[name] *= factor
    values.update(extra)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
