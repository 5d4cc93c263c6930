"""Command-line interface: encode graphs, test isomorphism, dataset statistics,
synthetic dataset generation.

Every subcommand echoes its fully resolved configuration first, so any output
can be reproduced byte-for-byte by rerunning with the echoed values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .analysis import EXHAUSTIVE_EDGE_GUARD, dataset_stats, iso_test
from .engine import EDGE_MODES, ENDPOINT_MODES, VARIANTS, SortConfig, run, serialize_run
from .graphs import GraphFormatError, LabeledGraph, load_tudataset, parse_edge_list
from .reference import reference_run
from .synthetic import FAMILIES, generate, load_collection, write_collection
from .terms import DEFAULT_BIT_BUDGET, fold_term, r_combine


def _echo_config(command: str, **kv) -> None:
    print(f"config {json.dumps({'command': command, **kv}, sort_keys=True)}")


def _load_graph_file(path: Path) -> LabeledGraph:
    return parse_edge_list(path.read_text())


def _load_inputs(path: Path, name: Optional[str]) -> List[Tuple[LabeledGraph, Optional[int]]]:
    """A .graph file yields one graph; a directory yields a whole collection
    (TUDataset layout, generated manifest, or loose .graph files)."""
    if path.is_file():
        return [(_load_graph_file(path), None)]
    if path.is_dir():
        ds_name = name or path.name
        if (path / f"{ds_name}_A.txt").is_file():
            return load_tudataset(path, ds_name)
        if (path / "manifest.json").is_file():
            return load_collection(path)
        files = sorted(path.glob("*.graph"))
        if files:
            return [(_load_graph_file(f), None) for f in files]
        raise GraphFormatError(f"no recognizable graph data in {path}")
    raise GraphFormatError(f"no such input: {path}")


def _numeric_check(graph: LabeledGraph, result, bit_budget: int) -> str:
    """Replay the realized edge order with plain bignums
    (:func:`~nodeparse.reference.reference_run`, budgeted ``r_combine``) and
    compare against the term-side output.

    The W terms are then folded once per run, with one memo for all of the
    run's W entries. Each merge step looks up the value the replay computed
    for the same ``r_combine`` arguments, in both child orders, and calls
    ``r_combine`` only on a miss. ``r_combine`` is pure, so a hit gives the
    value a fresh evaluation would; it is injective, so a term field that
    differs from the replay misses and its mismatch still shows."""
    replayed = {}  # r_combine arguments -> value, for each replayed step

    def record(t1, t2, b):
        replayed[t1, t2, b] = y = r_combine(*t1, *t2, b, bit_budget)
        return y

    numeric, _, _ = reference_run(
        graph.num_vertices, graph.labels, result.edge_order, result.variant, record
    )

    def merge(node, left, right):
        l, r = node.left, node.right
        a, c = (left, l.h, l.m1, l.m2), (right, r.h, r.m1, r.m2)
        for key in ((a, c, node.b), (c, a, node.b)):
            if key in replayed:
                return replayed[key]
        return r_combine(*a, *c, node.b, bit_budget)

    memo = {}
    checked = 0
    for w_enc, (y_num, m1_num, m2_num) in zip(result.w, numeric):
        if (m1_num, m2_num) != (w_enc.m1, w_enc.m2):
            return "numeric-check FAILED (m-counter mismatch)"
        if y_num is None:
            continue
        if fold_term(w_enc.y, lambda leaf: 0, merge, memo) != y_num:
            return "numeric-check FAILED (y mismatch)"
        checked += 1
    suffix = "; overflow entries skipped" if checked < len(result.w) else ""
    return f"numeric-check ok ({checked}/{len(result.w)} encodings verified{suffix})"


def _cmd_encode(args) -> int:
    if args.bit_budget < 0:
        raise ValueError("--bit-budget must be >= 0")
    config = SortConfig(
        edge_mode=args.mode, endpoint_mode=args.sv, variant=args.variant, seed=args.seed
    )
    _echo_config(
        "encode",
        input=str(args.input),
        mode=config.edge_mode,
        sv=config.endpoint_mode,
        variant=config.variant,
        seed=config.seed,
        numeric_check=bool(args.numeric_check),
        name=args.name,
    )
    inputs = _load_inputs(Path(args.input), args.name)
    for idx, (graph, class_id) in enumerate(inputs):
        if len(inputs) > 1:
            suffix = "" if class_id is None else f" class {class_id}"
            print(f"graph {idx}{suffix}")
        result = run(graph, config)
        sys.stdout.write(serialize_run(result))
        if args.numeric_check:
            print(_numeric_check(graph, result, args.bit_budget))
    return 0


def _cmd_iso(args) -> int:
    config = SortConfig(edge_mode=args.mode, endpoint_mode=args.sv, seed=args.seed)
    _echo_config(
        "iso",
        a=str(args.file_a),
        b=str(args.file_b),
        k=args.k,
        mode=config.edge_mode,
        sv=config.endpoint_mode,
        seed=config.seed,
        guard_edges=args.guard_edges,
    )
    g = _load_graph_file(Path(args.file_a))
    h = _load_graph_file(Path(args.file_b))
    verdict = iso_test(g, h, k=args.k, config=config, guard_edges=args.guard_edges)
    print(f"verdict {verdict.status} samples_tried={verdict.samples_tried}")
    return verdict.exit_code


def _cmd_stats(args) -> int:
    modes = list(EDGE_MODES) if args.mode == "all" else [args.mode]
    _echo_config(
        "stats",
        dataset=str(args.dataset),
        mode=args.mode,
        seed=args.seed,
        name=args.name,
    )
    pairs = _load_inputs(Path(args.dataset), args.name)
    graphs = [g for g, _ in pairs]
    print(f"{'mode':<16} {'graphs':>7} {'median log10 edge-orders':>26} {'mean levels':>12}")
    for mode in modes:
        config = SortConfig(edge_mode=mode, seed=args.seed)
        stats = dataset_stats(graphs, config)
        print(
            f"{mode:<16} {stats['count']:>7} "
            f"{stats['median_log10_edge_orders']:>26.2f} "
            f"{stats['mean_levels']:>12.2f}"
        )
    return 0


def _cmd_gen(args) -> int:
    params = {
        key: getattr(args, key)
        for key in ("count", "n", "degree", "edge_prob")
        if getattr(args, key) is not None
    }
    if args.single_node_class2:
        params["single_node_class2"] = True
    _echo_config("gen", family=args.family, out=str(args.out), seed=args.seed, **params)
    pairs = generate(args.family, seed=args.seed, **params)
    manifest = write_collection(args.out, pairs, args.family, params, args.seed)
    print(f"wrote {len(pairs)} graphs to {manifest.parent}")
    return 0


def _add_sort_flags(parser: argparse.ArgumentParser, variant: bool = False) -> None:
    parser.add_argument("--mode", choices=EDGE_MODES, default="degs-and-labels")
    parser.add_argument("--sv", choices=ENDPOINT_MODES, default="random")
    parser.add_argument("--seed", type=int, default=0)
    if variant:
        parser.add_argument("--variant", choices=VARIANTS, default="npa")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodeparse",
        description="Isomorphism-injective multigraph encodings and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_encode = sub.add_parser("encode", help="encode a graph file or dataset directory")
    p_encode.add_argument("input")
    _add_sort_flags(p_encode, variant=True)
    p_encode.add_argument("--numeric-check", action="store_true",
                          help="cross-validate terms against plain bignums (small graphs)")
    p_encode.add_argument("--bit-budget", type=int, default=DEFAULT_BIT_BUDGET,
                          help="--numeric-check skips y-values wider than this many bits")
    p_encode.add_argument("--name", default=None, help="TUDataset name (defaults to directory name)")
    p_encode.set_defaults(handler=_cmd_encode)

    p_iso = sub.add_parser("iso", help="isomorphism verdict; exit 0 iso, 1 non-iso, 2 unknown")
    p_iso.add_argument("file_a")
    p_iso.add_argument("file_b")
    p_iso.add_argument("-K", dest="k", type=int, default=5, help="sampling budget")
    p_iso.add_argument("--guard-edges", type=int, default=EXHAUSTIVE_EDGE_GUARD,
                       help="largest edge count that the exact least-W search takes")
    _add_sort_flags(p_iso)
    p_iso.set_defaults(handler=_cmd_iso)

    p_stats = sub.add_parser("stats", help="redundancy/levels statistics over a dataset")
    p_stats.add_argument("dataset")
    p_stats.add_argument("--mode", choices=EDGE_MODES + ("all",), default="all")
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--name", default=None)
    p_stats.set_defaults(handler=_cmd_stats)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("family", choices=FAMILIES)
    p_gen.add_argument("out")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--count", type=int, default=None)
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--degree", type=int, default=None)
    p_gen.add_argument("--edge-prob", type=float, default=None)
    p_gen.add_argument("--single-node-class2", action="store_true")
    p_gen.set_defaults(handler=_cmd_gen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # downstream consumer closed the pipe (e.g. | head); exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (GraphFormatError, OSError, ValueError, RuntimeError) as exc:
        error = str(exc)
    except MemoryError:
        # e.g. a text key, which expands the term DAG into a tree (README).
        # Reported past the handler, once the failed frames are released.
        error = f"out of memory: this input is too large for {args.command}"
    print(f"error: {error}", file=sys.stderr)
    # iso reserves 0/1/2 for verdicts, so its failures use 4.
    return 4 if args.command == "iso" else 1


if __name__ == "__main__":
    sys.exit(main())
