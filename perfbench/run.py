"""Benchmark of the alphadom solvers on one named workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload er-dense --seed 1 --seconds 20 --trace 0

The run writes the workload's graphs as files in an order drawn from
``--seed`` and then repeats whole rounds of operations (file loads and
solver calls through ``alphadom.bench.ALGORITHMS``) for about ``--seconds``.
Every output is checked by ``checker.py``.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` one untraced and one traced round run, and the metrics are the
per-layer ones.  The line before it holds the run's details: per-call
times, LP bounds, machine facts and, when traced, the tracing overhead.
"""
import os

# solve_lp's last bits move with the BLAS thread count: pin it before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
# Every timed call runs between two probe() calls.  On a shared host the
# speed of interpreter-bound code flips between states about 1.7x apart
# within seconds, which spread raw load, greedy and rrwc times 21-53%
# between runs; times PROBE_REF_S / mean probe time, the same calls spread
# far less (README).  The dense simplex inside rr spends its time in numpy
# updates that do not follow the probe (rescaling widened its spread from
# 0.19 to 0.41), so rr stays raw.
PROBE_LOOPS = 80_000
PROBE_REF_S = 0.010     # probe time on the reference machine (README)
UNSCALED = {"rr"}


def import_program():
    """Import alphadom from this checkout's ``src``, never from elsewhere."""
    package = SRC / "alphadom"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no alphadom sources at {package}")
    sys.path.insert(0, str(SRC))
    import alphadom
    if Path(alphadom.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: alphadom imported from {alphadom.__file__}, not {package}")


def probe() -> float:
    """Seconds a fixed interpreter loop takes now: the machine's current speed."""
    started = time.perf_counter()
    counts = {}
    for i in range(PROBE_LOOPS):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return time.perf_counter() - started


def scaled(samples, rescale: bool = True) -> float:
    """Median of wall times, rescaled to the probe's reference speed."""
    return statistics.median(took * PROBE_REF_S / speed if rescale else took
                             for took, speed in samples)


def family(algorithm: str) -> str:
    return "greedy" if algorithm.startswith("greedy") else algorithm


class Run:
    """State of one benchmark run: inputs, reference optima and results."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from workloads import WORKLOADS
        self.seed = seed
        self.workdir = workdir
        self.specs = WORKLOADS[workload]
        self.inputs = []
        self.setup_s: list[tuple[float, float]] = []
        self.optima: dict[tuple[str, object], float] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.weights: dict[str, list[int]] = {}
        self.bound_ratio: dict[str, list[float]] = {}
        self.calls: dict[tuple, list[tuple[float, float]]] = {}

    def setup(self) -> None:
        from workloads import write_inputs
        for _ in range(SETUP_REPEATS):
            speed = probe()
            started = time.perf_counter()
            inputs = []
            for spec in self.specs:
                ref = spec.draw()
                paths = write_inputs(ref, self.workdir, spec.name, self.seed)
                inputs.append((spec, ref, paths))
            took = time.perf_counter() - started
            self.setup_s.append((took, (speed + probe()) / 2))
        self.inputs = [(spec, ref, paths, ref.label_index()) for spec, ref, paths in inputs]

    def reference_optima(self) -> float:
        from checker import lp_optimum
        started = time.perf_counter()
        for spec, ref, _, _ in self.inputs:
            for alpha in spec.alphas:
                self.optima[spec.name, alpha] = lp_optimum(ref, alpha)
        return time.perf_counter() - started

    def check(self, what: str, fn, *args):
        from checker import CheckError
        try:
            return fn(*args)
        except CheckError as exc:
            self.errors.append(f"{what}: {exc}")
            return None

    def round(self, tracer=None) -> dict:
        """One round: every load and solver call of the workload, each timed
        from outside and checked after its clock stops."""
        import numpy as np
        from alphadom import bench, graph, io
        from checker import check_load, check_solution

        def operation(key, layer, **facts):
            return tracer.operation(key, layer, **facts) if tracer else contextlib.nullcontext()

        out = {"ops_s": 0.0, "ops": []}
        for block in range(max(spec.blocks for spec, *_ in self.inputs)):
            for spec, ref, (edge_path, weight_path), index in self.inputs:
                if block >= spec.blocks:
                    continue
                self.attempted += 1
                speed = probe()
                try:
                    with operation("load", None, graph=spec.name):
                        started = time.perf_counter()
                        g = io.ingest_graph(edge_path, weight_path)
                        instances = {a: graph.DominationInstance(g, a) for a in spec.alphas}
                        took = time.perf_counter() - started
                    speed = (speed + probe()) / 2
                except Exception:
                    self.failed += 1
                    traceback.print_exc(file=sys.stderr)
                    continue
                out["ops_s"] += took
                self.calls.setdefault(("load", spec), []).append((took, speed))
                to_ref = self.check(f"load {spec.name}", check_load, ref, g, index)
                if to_ref is None:
                    continue
                for alpha in spec.alphas:
                    bound = self.optima[spec.name, alpha]
                    for algorithm in spec.algorithms:
                        self.attempted += 1
                        speed = probe()
                        try:
                            with operation(algorithm, "bench", graph=spec.name,
                                           alpha=alpha) as span:
                                started = time.perf_counter()
                                solution = bench.ALGORITHMS[algorithm](
                                    instances[alpha],
                                    spec.solver_seed(self.seed, alpha, algorithm, block))
                                took = time.perf_counter() - started
                            speed = (speed + probe()) / 2
                        except Exception:
                            self.failed += 1
                            traceback.print_exc(file=sys.stderr)
                            continue
                        out["ops_s"] += took
                        self.calls.setdefault((algorithm, spec, alpha), []).append((took, speed))
                        members = to_ref[np.fromiter(solution.members, dtype=np.int64,
                                                     count=len(solution.members))]
                        weight = self.check(
                            f"{algorithm} on {spec.name} alpha={alpha}", check_solution,
                            ref, alpha, members, solution.total_weight, bound)
                        if weight is not None:
                            self.weights.setdefault(algorithm, []).append(weight)
                            self.bound_ratio.setdefault(algorithm, []).append(weight / bound)
                        if tracer:
                            out["ops"].append((span, spec, ref, alpha, g, to_ref, weight))
        return out


def end_to_end(run: Run) -> dict:
    """Times are per round: each (graph, alpha, algorithm) cell counts its
    per-round calls at the median of its (rescaled) call times in the run, so
    one call slowed by another tenant of the machine does not move the
    figure.  Weights are means over every call."""
    times = {"load_s": 0.0, "solve_s.greedy": 0.0, "solve_s.rr": 0.0, "solve_s.rrwc": 0.0}
    for (kind, spec, *_), samples in run.calls.items():
        name = "load_s" if kind == "load" else f"solve_s.{family(kind)}"
        times[name] += scaled(samples, family(kind) not in UNSCALED) * spec.blocks
    metrics = {"setup_s": (scaled(run.setup_s), "s")}
    metrics.update((name, (value, "s")) for name, value in times.items())
    for algorithm in ("greedy-s1", "greedy-s2", "greedy-s3", "rr", "rrwc"):
        values = run.weights.get(algorithm)
        metrics[f"weight.{algorithm}"] = (statistics.fmean(values) if values else None, "weight")
    return metrics


def per_layer(run: Run, traced: dict, tracer) -> tuple[dict, dict]:
    """Per-layer metrics of the traced round, plus the trace-only checks."""
    import numpy as np
    from alphadom.community import modularity
    from checker import (check_lp_objective, check_modularity, lp_optimum,
                         networkx_modularity)
    from tracer import LAYERS

    spans = tracer.spans

    def seconds(key):
        return sum(s.seconds for s in spans if s.key == key)

    def count(key):
        return sum(1 for s in spans if s.key == key)

    def total(key, fact):
        return sum(s.facts[fact] for s in spans if s.key == key)

    lp_ratios, louvain = [], {}
    passes_allowed = 0
    final_weight = 0
    for span, spec, ref, alpha, g, to_ref, weight in traced["ops"]:
        budget = max(1, (int(ref.degrees().max(initial=0)) - 1).bit_length())
        lps = tracer.within(span, "solve_lp")
        if span.key in ("rr", "rrwc") and weight is not None:
            final_weight += weight
        if span.key == "rr":
            passes_allowed += budget
            for lp in lps:
                run.check(f"rr LP on {spec.name} alpha={alpha}", check_lp_objective,
                          lp.facts["objective"], run.optima[spec.name, alpha], "global LP")
        if span.key != "rrwc":
            continue
        passes_allowed += budget * len(lps)
        for part_span in tracer.within(span, "louvain"):
            partition = part_span.facts["partition"]
            community_of = np.empty(ref.n, dtype=np.int64)
            community_of[to_ref] = partition.community_of
            key = (spec.name, partition.community_of)
            if key not in louvain:
                q = modularity(g, partition)
                run.check(f"modularity on {spec.name}", check_modularity, q,
                          networkx_modularity(ref, community_of))
                louvain[key] = {"k": partition.k, "modularity": q,
                                "largest": int(np.bincount(community_of).max()),
                                "optima": {}}
            entry = louvain[key]
            if alpha not in entry["optima"]:
                groups = [np.nonzero(community_of == c)[0] for c in range(partition.k)]
                entry["optima"][alpha] = [
                    lp_optimum(ref.induced(vs), alpha) if len(vs) > 1
                    else float(ref.weights[vs[0]]) for vs in groups]
            optima = entry["optima"][alpha]
            solved = sorted(lp.facts["objective"] for lp in lps)
            expected = sorted(o for o, c in zip(optima, np.bincount(community_of)) if c > 1)
            if len(solved) != len(expected):
                run.errors.append(f"rrwc on {spec.name}: {len(solved)} community LPs "
                                  f"solved, {len(expected)} communities of size > 1")
            for got, want in zip(solved, expected):
                run.check(f"community LP on {spec.name} alpha={alpha}",
                          check_lp_objective, got, want, "community LP")
            singletons = sum(o for o, c in zip(optima, np.bincount(community_of)) if c == 1)
            lp_ratios.append((sum(solved) + singletons) / run.optima[spec.name, alpha])

    louvain_spans = [s for s in spans if s.key == "louvain"]
    added_weight = total("repair", "added_weight")
    self_s = tracer.self_seconds()
    table = [
        ("lp.solve_s", "s", "solve_lp", lambda: seconds("solve_lp")),
        ("lp.solves", "count", "solve_lp", lambda: count("solve_lp")),
        ("lp.iterations", "count", "solve_lp", lambda: total("solve_lp", "iterations")),
        ("lp.vars", "count", "solve_lp", lambda: total("solve_lp", "vars")),
        ("lp.build_s", "s", "build_lp", lambda: seconds("build_lp")),
        ("community.louvain_s", "s", "louvain", lambda: seconds("louvain")),
        ("community.k", "count", "louvain", lambda: statistics.fmean(
            s.facts["partition"].k for s in louvain_spans)),
        ("community.largest", "count", "louvain", lambda: statistics.fmean(
            max(np.bincount(s.facts["partition"].community_of)) for s in louvain_spans)),
        ("community.lp_ratio", "ratio", "solve_lp", lambda: statistics.fmean(lp_ratios)),
        ("rounding.repair_added", "count", "repair", lambda: total("repair", "added")),
        ("rounding.repair_share", "ratio", "repair", lambda: added_weight / final_weight),
        ("rounding.passes", "count", "pass", lambda: count("pass")),
        ("rounding.pass_use", "ratio", "pass", lambda: count("pass") / passes_allowed),
        ("graph.build_s", "s", "build", lambda: seconds("build")),
        ("graph.builds", "count", "build", lambda: count("build")),
        ("graph.instance_s", "s", "instance", lambda: seconds("instance")),
        ("io.ingest_s", "s", "ingest", lambda: seconds("ingest")),
        ("graph.subgraph_s", "s", "subgraph", lambda: seconds("subgraph")),
        ("graph.subgraphs", "count", "subgraph", lambda: count("subgraph")),
        ("graph.verify_s", "s", "verify", lambda: seconds("verify")),
        ("graph.verifies", "count", "verify", lambda: count("verify")),
        ("greedy.s", "s", "greedy", lambda: seconds("greedy")),
        ("greedy.picked", "count", "greedy", lambda: total("greedy", "picked")),
    ] + [(f"{layer}.self_s", "s", None, lambda layer=layer: self_s[layer])
         for layer in LAYERS]

    missing = tracer.missing_keys()
    metrics = {}
    for name, unit, needs, compute in table:
        if needs in missing:
            metrics[name] = (None, unit)
            continue
        try:
            metrics[name] = (compute(), unit)
        except (KeyError, AttributeError, TypeError, ZeroDivisionError, statistics.StatisticsError):
            metrics[name] = (None, unit)
    summary = {name: {"k": e["k"], "largest": e["largest"], "modularity": e["modularity"]}
               for (name, _), e in louvain.items()}
    return metrics, summary


def machine_facts() -> dict:
    import platform
    from importlib.metadata import version
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{name: version(name) for name in ("numpy", "scipy", "networkx")},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        run = Run(args.workload, args.seed, workdir)
        run.setup()
        checker_s = run.reference_optima()
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        if args.trace:
            from tracer import Tracer
            untraced = run.round()
            tracer = Tracer()
            with tracer:
                traced = run.round(tracer)
            rounds = [untraced, traced]
            metrics, info["louvain"] = per_layer(run, traced, tracer)
            info["trace_overhead_s"] = traced["ops_s"] - untraced["ops_s"]
            info["trace_overhead_share"] = info["trace_overhead_s"] / untraced["ops_s"]
            info["trace_spans"] = len(tracer.spans)
            info["trace_wrapper_s"] = len(tracer.spans) * Tracer.span_cost()
            info["missing"] = tracer.missing
            results = HERE / "results"
            results.mkdir(exist_ok=True)
            with open(results / f"trace-{args.workload}-seed{args.seed}.jsonl", "w",
                      encoding="utf-8") as fh:
                for record in tracer.records():
                    fh.write(json.dumps(record, default=str) + "\n")
        else:
            rounds = []
            started = time.perf_counter()
            while True:
                rounds.append(run.round())
                elapsed = time.perf_counter() - started
                if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                    break
            metrics = end_to_end(run)
        info.update({
            "rounds": len(rounds),
            "setup_s": run.setup_s,
            "ops_s": [r["ops_s"] for r in rounds],
            "lp_bounds": {f"{g}@{a}": v for (g, a), v in run.optima.items()},
            "weight_over_bound": {k: statistics.fmean(v) for k, v in run.bound_ratio.items()},
            "checker_lp_s": checker_s,
            "calls": {"|".join(map(str, (k[0], k[1].name, *k[2:]))): v
                      for k, v in run.calls.items()},
            "errors": run.errors,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "machine": machine_facts(),
        })
        print(json.dumps(info, default=str))
        print(json.dumps({
            "correct": not run.errors,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
