"""Command-line front end.

Subcommands: ``generate`` (graph family + seed to files), ``solve`` (one
graph, one coverage rate, one algorithm), ``verify`` (feasibility check of a
solution file), ``bench`` (experiment config to CSV + JSON summary),
``communities`` (partition dump), and ``oracle`` (exact optimum on small
graphs).

Exit codes: 0 success, 1 usage or config error, 2 ingestion error,
3 contract violation (an infeasible solution where a feasible one is owed).
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import io as graph_io
from .bench import (ALGORITHMS, ContractViolationError, ExperimentConfig,
                    run_experiment, write_rows_csv, write_summary_json)
from .community import louvain
from .generators import FAMILIES, WeightSpec, assign_weights, family_params
from .graph import DominationInstance, as_alpha, deficiency, graph_stats
from .lp import build_lp, lp_text
from .oracle import InstanceTooLargeError, brute_force_opt

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INGEST = 2
EXIT_CONTRACT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(f"{self.prog}: error: {message}")


class SystemExit2(Exception):
    """Usage failure routed to exit code 1 instead of argparse's default 2."""


def _add_graph_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edges", help="edge list file (two labels per line)")
    p.add_argument("--weights", dest="weight_table",
                   help="weight table file (label and integer per line)")
    p.add_argument("--bundle", help="self-contained JSON graph bundle")


# generate's flag and help text for each generator parameter; the parameter
# name is the flag's argparse dest, and the usage line shows the flag's own
# spelling as its metavar
_GENERATE_FLAGS = {
    "n": ("--n", "vertex count"),
    "m": ("--m", "edge count"),
    "edges_per_new_vertex": ("--epnv", "edges per new vertex"),
    "triangle_prob": ("--triangle-prob", "triad-closure probability"),
    "l": ("--blocks", "community count"),
    "community_size": ("--block-size", "community size"),
    "p_in": ("--p-in", "intra-community edge probability"),
    "p_out": ("--p-out", "inter-community edge probability"),
}
_GENERATE_DEFAULTS = {"triangle_prob": 0.8}


def _at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer of at least {low}, not {text!r}")
        return value
    return parse


def _load_graph(args):
    if args.bundle:
        return graph_io.read_graph_bundle(args.bundle)
    if not args.edges:
        raise SystemExit2("one of --edges or --bundle is required")
    return graph_io.ingest_graph(args.edges, args.weight_table)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alphadom",
                     description="Low-weight alpha-rate dominating sets on weighted graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random graph and write it to files")
    gen.add_argument("family", choices=list(FAMILIES))
    gen.add_argument("--seed", type=_at_least(0), default=0)
    params = {name: kind for family in FAMILIES for name, kind in family_params(family).items()}
    for name, kind in params.items():
        flag, text = _GENERATE_FLAGS[name]
        users = ", ".join(family for family in FAMILIES if name in family_params(family))
        # SUPPRESS leaves a flag that was not given off the namespace, so a
        # default value cannot pass for a flag the family does not take
        gen.add_argument(flag, dest=name, metavar=flag[2:].replace("-", "_").upper(), type=kind,
                         default=argparse.SUPPRESS, help=f"{text} ({users})")
    gen.add_argument("--weight-range", default="1:71",
                     help="inclusive uniform weight range, e.g. 1:71")
    gen.add_argument("--out", required=True,
                     help="output prefix; writes <out>.edges and <out>.weights")

    solve = sub.add_parser("solve", help="run one algorithm on one graph")
    _add_graph_inputs(solve)
    solve.add_argument("--alpha", required=True,
                       help="coverage rate in (0,1]; accepts 1/4 or 0.25")
    solve.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    solve.add_argument("--seed", type=_at_least(0), default=0)
    solve.add_argument("--out", help="solution file (one vertex label per line)")
    solve.add_argument("--dump-lp", help="also write the relaxation in LP text format")

    verify = sub.add_parser("verify", help="check a solution file against a graph and alpha")
    _add_graph_inputs(verify)
    verify.add_argument("--alpha", required=True)
    verify.add_argument("--solution", required=True)

    bench = sub.add_parser("bench", help="run an experiment grid from a JSON config")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", required=True,
                       help="output prefix; writes <out>.csv and <out>.json")
    bench.add_argument("--no-timing", action="store_true",
                       help="zero the timing column for byte-exact comparisons")
    bench.add_argument("--jobs", type=_at_least(1), default=1,
                       help="worker processes, at most one per cell (default 1)")

    comm = sub.add_parser("communities", help="dump the detected partition as CSV")
    _add_graph_inputs(comm)
    comm.add_argument("--out", help="partition CSV (default stdout)")

    oracle = sub.add_parser("oracle", help="exact minimum-weight solution (small graphs only)")
    _add_graph_inputs(oracle)
    oracle.add_argument("--alpha", required=True)
    oracle.add_argument("--out", help="solution file for the optimum")

    return parser


def _listed(flags: list[str]) -> str:
    return " and ".join(flags) if len(flags) == 2 else ", ".join(flags)


def _cmd_generate(args) -> int:
    lo, _, hi = args.weight_range.partition(":")
    spec = WeightSpec(int(lo), int(hi or lo))
    wanted = family_params(args.family)
    foreign = [flag for name, (flag, _) in _GENERATE_FLAGS.items()
               if hasattr(args, name) and name not in wanted]
    if foreign:
        raise SystemExit2(f"{args.family} does not take {_listed(foreign)}")
    params = {name: getattr(args, name, _GENERATE_DEFAULTS.get(name)) for name in wanted}
    if any(value is None for value in params.values()):
        flags = [_GENERATE_FLAGS[name][0] for name in params if name not in _GENERATE_DEFAULTS]
        raise SystemExit2(f"{args.family} requires {_listed(flags)}")
    g = FAMILIES[args.family](**params, seed=args.seed)
    g = assign_weights(g, spec, args.seed + 1)
    graph_io.write_edge_list(g, args.out + ".edges")
    graph_io.write_weight_table(g, args.out + ".weights")
    stats = graph_stats(g)
    print(json.dumps({
        "vertices": stats.vertices, "edges": stats.edges, "components": stats.components,
        "min_degree": stats.min_degree, "max_degree": stats.max_degree,
        "avg_degree": round(stats.avg_degree, 4),
        "weight_range": [stats.min_weight, stats.max_weight],
    }))
    return EXIT_OK


def _cmd_solve(args) -> int:
    g = _load_graph(args)
    inst = DominationInstance(g, as_alpha(args.alpha))
    if args.dump_lp:
        with open(args.dump_lp, "w", encoding="utf-8") as fh:
            fh.write(lp_text(build_lp(inst)))
    started = time.perf_counter()
    solution = ALGORITHMS[args.algo](inst, args.seed)
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    report = deficiency(inst, solution)
    if not report.feasible:
        print(f"infeasible output: {len(report.shortfalls)} uncovered vertices", file=sys.stderr)
        return EXIT_CONTRACT
    if args.out:
        graph_io.write_solution(g, solution, args.out)
    print(json.dumps({
        "algorithm": args.algo, "alpha": str(inst.alpha), "size": len(solution),
        "weight": solution.total_weight, "time_ms": round(elapsed_ms, 3),
        "seed": args.seed, "feasible": True,
    }))
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args)
    inst = DominationInstance(g, as_alpha(args.alpha))
    solution = graph_io.read_solution(g, args.solution)
    report = deficiency(inst, solution)
    if report.feasible:
        print(json.dumps({"feasible": True, "size": len(solution),
                          "weight": solution.total_weight}))
        return EXIT_OK
    shortfalls = {g.label_of(v): l for v, l in sorted(report.shortfalls.items())}
    print(json.dumps({"feasible": False, "uncovered": len(shortfalls),
                      "shortfalls": shortfalls}))
    return EXIT_CONTRACT


def _cmd_bench(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    rows, summary = run_experiment(cfg, jobs=args.jobs)
    include_timing = not args.no_timing
    write_rows_csv(rows, args.out + ".csv", include_timing)
    write_summary_json(summary, args.out + ".json", include_timing)
    print(f"wrote {len(rows)} rows to {args.out}.csv")
    return EXIT_OK


def _cmd_communities(args) -> int:
    g = _load_graph(args)
    part = louvain(g)
    lines = ["vertex,community"]
    lines += [f"{g.label_of(v)},{part.community_of[v]}" for v in range(g.n)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = _load_graph(args)
    inst = DominationInstance(g, as_alpha(args.alpha))
    try:
        result = brute_force_opt(inst)
    except InstanceTooLargeError as exc:
        raise SystemExit2(str(exc)) from exc
    if args.out:
        graph_io.write_solution(g, result.opt_set, args.out)
    print(json.dumps({
        "opt_weight": result.opt_weight,
        "opt_size": len(result.opt_set),
        "members": [g.label_of(v) for v in result.opt_set.as_sorted_tuple()],
    }))
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "communities": _cmd_communities,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit2 as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (graph_io.IngestError, FileNotFoundError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INGEST
    except (ValueError, OSError, KeyError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except ContractViolationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
