"""simflow benchmark: drive the real CLI in-process on seeded inputs.

    python3 perfbench/run.py --workload sweep|enum|small|all \
        --seed N --seconds S --trace 0|1

A workload is a fixed list of requests (one round) made from `--seed`.
One client runs rounds back to back (a closed loop) until `--seconds`
have passed and at least three rounds are complete. Each request is `simflow.cli.main(argv)` on a document
file with stdout captured, so it parses a fresh complex exactly as a
separate `simflow` process would.

Timed metrics are divided by the machine's slowdown, which a fixed
probe measures between requests (see `probe` and the README).

With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced rounds and reports the
per-layer metrics derived from the spans (see spans.py). Answers are
checked against independent references after the timed rounds, and
every round's stdout must equal the first round's byte for byte. The
last stdout line is one JSON object; the exit code is 1 when a check
failed. `--workload all` runs each workload in its own interpreter,
one after another. `--smoke` shrinks the inputs for the benchmark's
own tests.

Results, per-input properties and spans are written to perfbench/out/.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep", "enum", "small")
SETUP_REPEATS = 7
MIN_ROUNDS = 3  # every untraced run completes at least this many rounds
PROBE_MATRICES = 3  # about 1 ms of work per probe
PROBE_INTERVAL_S = 0.1  # one probe per 0.1 s of requests: about 1% of a round
# Probe time the timed metrics are scaled to: about its fastest time on
# the 2-CPU virtual machine where the baseline was recorded.
PROBE_REFERENCE_S = 0.0012
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import simflow\n"
    "for path in sys.argv[2:]:\n"
    "    with open(path, encoding='utf-8') as f: simflow.parse_complex(f.read())\n"
)


def load_program():
    """Import simflow from this checkout's src/, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "simflow", "cli.py")):
        print(f"perfbench: no simflow sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(1, HERE)
    import simflow

    if not os.path.abspath(simflow.__file__).startswith(SRC + os.sep):
        print(f"perfbench: simflow resolved to {simflow.__file__}", file=sys.stderr)
        sys.exit(2)


def run_request(cli, argv, rec=None, request_name=None):
    """(seconds, exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        span = rec.open(request_name) if rec is not None else None
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            if rec is not None:
                rec.close(span)
        elapsed = time.perf_counter() - t0
    return elapsed, rc, out.getvalue()


def probe():
    """Seconds taken by a fixed pure-Python integer elimination.

    On a shared machine the speed of one core drifts by a fifth over tens
    of seconds. The probe runs between requests and moves with that
    drift, so the timed metrics divide it out (see `speed`).
    """
    t0 = time.perf_counter()
    state = 12345
    for _ in range(PROBE_MATRICES):
        rows = []
        for _ in range(12):
            row = []
            for _ in range(12):
                state = (state * 1103515245 + 12345) % 2147483648
                row.append(state % 5 - 2)
            rows.append(row)
        for c in range(12):
            piv = next((r for r in rows if r[c]), None)
            if piv is None:
                continue
            p = piv[c]
            rows = [
                [p * a - r[c] * b for a, b in zip(r, piv)] if r is not piv and r[c] else r
                for r in rows
            ]
            rows = [[x % 1000003 for x in r] for r in rows]
    return time.perf_counter() - t0


def speed(probes):
    """Machine slowdown against the reference: mean probe time over
    PROBE_REFERENCE_S. Timed metrics are divided by it. The mean, not
    the median, because slowdowns come in bursts that a median of short
    probes skips."""
    return statistics.fmean(probes) / PROBE_REFERENCE_S


class Round:
    """One pass over the request list: executions, probe times, wall time
    without the probes, and whether it ran to the end."""

    def __init__(self):
        self.done = []
        self.probes = []
        self.wall = 0.0
        self.complete = True

    @property
    def factor(self):
        return speed(self.probes)


def run_round(cli, requests, deadline=None, rec=None, request_name=None):
    """Run the request list once; stop early at `deadline`. Between
    requests, one probe runs per PROBE_INTERVAL_S elapsed since the last
    probe, so the probes sample the round evenly in time."""
    rnd = Round()
    t0 = time.perf_counter()
    rnd.probes.append(probe())
    last = time.perf_counter()
    for j, argv in enumerate(requests):
        now = time.perf_counter()
        if deadline is not None and now >= deadline:
            rnd.complete = False
            break
        if now - last >= PROBE_INTERVAL_S:
            rnd.probes += [probe() for _ in range(int((now - last) / PROBE_INTERVAL_S))]
            last = time.perf_counter()
        rnd.done.append((j,) + run_request(cli, argv, rec, request_name))
    rnd.probes.append(probe())
    rnd.wall = time.perf_counter() - t0 - sum(rnd.probes)
    return rnd


def measure_setup(paths, repeats=SETUP_REPEATS):
    """Median seconds from a fresh interpreter to simflow imported and
    every input parsed and built, and the probe times taken around them."""
    times = []
    probes = []
    for _ in range(repeats):
        probes.append(probe())
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, *paths],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    probes.append(probe())
    return statistics.median(times), probes


def tail(latencies, per_round):
    """(value, percentile, samples) of the latency tail.

    The percentile is the highest one with ten requests beyond it in
    MIN_ROUNDS rounds, so it depends only on the workload's request list;
    a run with more rounds reads the same percentile (nearest rank), with
    more than ten requests beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    pct = 1.0 - 10.0 / (MIN_ROUNDS * per_round)
    rank = max(1, math.ceil(pct * n))
    return ordered[rank - 1], 100.0 * pct, n


def check_executions(workloads, flat, executions):
    """The executions that exited non-zero or gave a wrong answer.

    Each distinct stdout of a request is checked once against the
    reference; every execution must also equal the request's first one.
    """
    verdicts = {}
    first = {}
    failures = []
    for j, _, rc, stdout in executions:
        inp, key = flat[j]
        if (j, stdout) not in verdicts:
            try:
                verdicts[(j, stdout)] = workloads.check(inp, key, stdout), None
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                verdicts[(j, stdout)] = False, f"unparsable output: {exc!r}"
        ok, error = verdicts[(j, stdout)]
        same = first.setdefault(j, stdout) == stdout
        if rc != 0 or not ok or not same:
            failures.append({
                "request": j,
                "input": inp.name,
                "check": key,
                "exit": rc,
                "matches_reference": ok,
                "matches_first_round": same,
                "error": error,
                "stdout": stdout[:400],
            })
    return failures


def run_workload(name, seed, seconds, trace, smoke=False, reference_hook=None):
    """Run one workload in this process; returns the result dictionary."""
    load_program()
    from simflow import cli

    import spans as tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tag = f"{name}-seed{seed}" + ("-smoke" if smoke else "")
    inputs_list = workloads.build(name, seed, smoke)
    in_dir = os.path.join(OUT, f"{tag}-inputs")
    os.makedirs(in_dir, exist_ok=True)
    paths = []
    for inp in inputs_list:
        path = os.path.join(in_dir, inp.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inp.doc + "\n")
        paths.append(path)
    flat = []
    requests = []
    for inp, path in zip(inputs_list, paths):
        for argv, key in inp.requests:
            flat.append((inp, key))
            requests.append(argv + [path])

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "requests_per_round": len(requests),
    }
    executions = []
    if not trace:
        setup_raw, setup_probes = measure_setup(paths)
        deadline = time.perf_counter() + seconds
        rounds = []
        while True:
            rnd = run_round(
                cli, requests, deadline if len(rounds) >= MIN_ROUNDS else None
            )
            executions += rnd.done
            if rnd.complete:
                rounds.append(rnd)
            if not rnd.complete or (
                len(rounds) >= MIN_ROUNDS and time.perf_counter() >= deadline
            ):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        latencies = [lat / r.factor for r in rounds for _, lat, _, _ in r.done]
        raw = [lat for r in rounds for _, lat, _, _ in r.done]
        tail_value, tail_pct, tail_n = tail(latencies, len(requests))
        metrics = {
            "setup_s": setup_raw / speed(setup_probes),
            "wall_s": statistics.median(r.wall / r.factor for r in rounds),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": tail_value * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        per_request = {}
        for r in rounds:
            for j, lat, _, _ in r.done:
                per_request.setdefault(j, []).append(lat / r.factor)
        result.update(
            request_median_ms={
                f"{flat[j][0].name} {' '.join(requests[j][:-1])}":
                    statistics.median(v) * 1e3
                for j, v in sorted(per_request.items())
            },
            rounds=len(rounds),
            round_wall_s=[r.wall for r in rounds],
            round_speed=[r.factor for r in rounds],
            raw={
                "setup_s": setup_raw,
                "wall_s": statistics.median(r.wall for r in rounds),
                "latency_p50_ms": statistics.median(raw) * 1e3,
                "latency_tail_ms": tail(raw, len(requests))[0] * 1e3,
            },
            setup_speed=speed(setup_probes),
            latency_tail_percentile=tail_pct,
            latency_samples=tail_n,
        )
        reported = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
    else:
        rec = tracing.Recorder()
        request_name = rec.name_id(tracing.REQUEST)
        rounds = {False: [], True: []}
        stop = time.perf_counter() + seconds
        traced = False
        while time.perf_counter() < stop or not (rounds[False] and rounds[True]):
            if traced:
                with tracing.traced(rec):
                    rnd = run_round(cli, requests, None, rec, request_name)
            else:
                rnd = run_round(cli, requests)
            executions += rnd.done
            rounds[traced].append(rnd)
            traced = not traced
        factor = speed([p for r in rounds[True] for p in r.probes])
        walls = {k: statistics.median(r.wall / r.factor for r in v) for k, v in rounds.items()}
        extra = {
            "homology.sweep_jobs1_ms": 0.0,
            "homology.sweep_jobs2_ms": 0.0,
            "bench.trace_overhead_ratio": walls[True] / walls[False] - 1,
        }
        if name == "sweep":
            for jobs in (None, 2):
                total = 0.0
                probes = [probe()]
                for inp in inputs_list:
                    delta = inp.fresh()
                    t0 = time.perf_counter()
                    workloads.sf.subset_profile(delta, jobs=jobs)
                    elapsed = time.perf_counter() - t0
                    total += elapsed
                    probes += [probe() for _ in range(1 + int(elapsed / PROBE_INTERVAL_S))]
                extra[f"homology.sweep_jobs{jobs or 1}_ms"] = total * 1e3 / speed(probes)
        reported = tracing.per_layer(rec, len(rounds[True]), factor, extra)
        rec.write(os.path.join(OUT, f"{tag}-spans.tsv.gz"))
        result.update(
            traced_round_wall_s=[r.wall for r in rounds[True]],
            untraced_round_wall_s=[r.wall for r in rounds[False]],
            traced_speed=factor,
            spans=len(rec.name),
        )

    if reference_hook is not None:
        reference_hook(inputs_list)
    failures = check_executions(workloads, flat, executions)
    failed = len(failures)
    result["inputs"] = [dict(name=inp.name, **workloads.properties(inp)) for inp in inputs_list]
    result["attempted"] = len(executions)
    result["failed"] = failed
    result["failed_ratio"] = failed / max(len(executions), 1)
    result["failures"] = failures[:20]
    result["metrics"] = reported
    with open(os.path.join(OUT, f"{tag}-trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def summary_lines(result):
    name = result["workload"]
    lines = [
        f"{name} failed_ratio {result['failed_ratio']:.6g} ratio "
        f"({result['failed']} of {result['attempted']} requests)"
    ]
    if "latency_tail_percentile" in result:
        lines.append(
            f"{name} latency_tail_ms is p{result['latency_tail_percentile']:.1f} "
            f"of {result['latency_samples']} requests over {result['rounds']} rounds"
        )
    for key, metric in result["metrics"].items():
        lines.append(f"{name} {key} {metric['value']:.6g} {metric['unit']}")
    return lines


def final_line(result):
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def run_all(args):
    """Each workload in a fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        part = json.loads(lines[-1])
        ok = ok and part["correct"] and proc.returncode == 0
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for key, metric in part["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    combined["correct"] = ok
    print(json.dumps(combined))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        load_program()
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print("\n".join(summary_lines(result)))
    print(final_line(result), flush=True)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
