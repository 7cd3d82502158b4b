"""Command-line entry point for reproducible batch runs.

Every subcommand validates its inputs, computes all artifacts in memory,
writes them in one pass and drops a run manifest next to the primary output.
Re-running the argv recorded in a manifest reproduces the artifacts byte for
byte; only the manifest's wall time differs.

Output rule: a subcommand's JSON document goes to ``-o`` when given, else to
stdout.  Two exceptions: ``gen`` writes its graph file to ``-o`` and prints
nothing; ``improve -o`` writes the improved map there and its trace document
to ``--trace`` (default ``<output>.trace.json``), and without ``-o`` prints
the trace and writes no file, even with ``--trace``.

Only two subcommands take ``--seed``: ``gen random`` (the seed of the random
permutation model) and ``cheeger`` (the seed of the Lanczos start vector).
Every other subcommand is deterministic without one.

Exit codes: 0 success, 1 structured domain error (printed as a JSON error
document), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


from . import __version__, groups
from .almost_auto import (
    ImprovementConfig,
    format_map_text,
    improve,
    label_automorphisms,
    parse_map_text,
)
from .clusters import cluster_group, lef_certificate
from .core_graph import (
    cayley_graph,
    connected_components,
    is_simple,
    loop_count,
    parse_graph,
    parse_table,
    rooted_ball,
    serialize_graph,
)
from .errors import SoficlabError
from .expansion import EXHAUSTIVE_LIMIT, cheeger_bounds, cheeger_exact, lambda2
from .sofic import parse_words_text, random_permutation_model, reduced_words, sofic_report

PROG = "soficlab"


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _add_improvement_flags(
    parser: argparse.ArgumentParser,
    delta_help: str = "delta of the hypotheses: seeds and improvements have at most delta * n bad edges",
):
    parser.add_argument("--alpha", type=float, default=None,
                        help="target expansion ratio for the sweep set (default: spectral lower bound estimate / 4)")
    parser.add_argument("--radius", type=int, default=ImprovementConfig.radius, help="good-ball radius")
    parser.add_argument("--steps", type=int, default=ImprovementConfig.smoothing_steps, help="smoothing steps")
    parser.add_argument("--delta", type=float, default=0.0, help=delta_help)
    parser.add_argument("--reference", type=Path, default=None,
                        help="graph file providing the reference ball (rooted at vertex 0); default: the input graph")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog=PROG, description=__doc__)
    top.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate graphs")
    gensub = gen.add_subparsers(dest="generator", required=True)
    gc = gensub.add_parser("cayley", help="Cayley graph of a built-in group or a table file")
    gc.add_argument("--group", help="preset name: z<n>, s<k>, d<n> or products like s4xz5")
    gc.add_argument("--table", type=Path, help="JSON file with a multiplication table")
    gc.add_argument("--gens", help="comma-separated element indices (default: preset generators)")
    gc.add_argument("-o", "--output", type=Path, required=True)
    gr = gensub.add_parser("random", help="random permutation model")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--pairs", type=int, default=2)
    gr.add_argument("-o", "--output", type=Path, required=True)
    gr.add_argument("--seed", type=int, default=0, help="random seed of the model (default 0)")

    ch = sub.add_parser("cheeger", help="exact Cheeger constant or spectral interval")
    ch.add_argument("graph", type=Path)
    ch.add_argument("--exact-limit", type=int, default=EXHAUSTIVE_LIMIT,
                    help="largest n for the exhaustive search over all subsets (default %(default)s); its table "
                         "holds 4 bytes per subset, 64 MB at n = 24; above it the spectral interval is reported")
    ch.add_argument("--tol", type=float, default=1e-10,
                    help="stop the Lanczos steps once the lambda2 estimate moves less than this between checks")
    ch.add_argument("--max-iter", type=int, default=10000, help="most Lanczos steps for lambda2")
    ch.add_argument("-o", "--output", type=Path)
    ch.add_argument("--seed", type=int, default=0, help="seed of the Lanczos start vector (default 0)")

    so = sub.add_parser("sofic", help="per-word defect report")
    so.add_argument("graph", type=Path)
    so.add_argument("--words", type=Path, help="word file: letters space-separated, '!' prefix = expects non-identity, '()' = empty word")
    so.add_argument("--max-len", type=int, default=4,
                    help="generate all reduced words up to this length when no word file is given")
    so.add_argument("-o", "--output", type=Path)

    im = sub.add_parser("improve", help="improve an almost automorphism")
    im.add_argument("graph", type=Path)
    im.add_argument("--map", type=Path, required=True, help="map file: one image per line")
    im.add_argument("-o", "--output", type=Path, help="improved map file")
    im.add_argument("--trace", type=Path, help="trace document (default: <output>.trace.json)")
    im.add_argument("--kappa", type=float, default=ImprovementConfig.kappa,
                    help="Kazhdan constant (user supplied); scales the trace's symmetric_difference_budget")
    _add_improvement_flags(im, "target defect fraction: the trace's target_met says if <= delta * n bad edges are left")

    cg = sub.add_parser("cluster-group", help="finite group of clusters of almost automorphisms")
    cg.add_argument("graph", type=Path)
    cg.add_argument("--map", type=Path, action="append", default=[], dest="maps",
                    help="seed map file; repeatable")
    cg.add_argument("--auto", action="store_true",
                    help="seed with all exact automorphisms (connected graphs)")
    cg.add_argument("--closure-bound", type=int, default=None)
    cg.add_argument("-o", "--output", type=Path)
    _add_improvement_flags(cg)

    lef = sub.add_parser("lef-check", help="LEF certificate for a word set")
    lef.add_argument("graph", type=Path)
    lef.add_argument("--gamma", required=True, help="comma-separated gamma label names")
    lef.add_argument("--words", type=Path, required=True, help="word file over the remaining labels")
    lef.add_argument("-o", "--output", type=Path)
    _add_improvement_flags(lef)

    rep = sub.add_parser("report", help="summary document for a graph file")
    rep.add_argument("graph", type=Path)
    rep.add_argument("-o", "--output", type=Path)

    return top


def _load_graph(path: Path):
    return parse_graph(path.read_text())


def _improvement_config(args, **fields) -> ImprovementConfig:
    reference = None
    if args.reference is not None:
        ref_graph = _load_graph(args.reference)
        reference = rooted_ball(ref_graph, 0, args.radius)
    return ImprovementConfig(
        alpha=args.alpha,
        radius=args.radius,
        smoothing_steps=args.steps,
        target_delta=args.delta,
        reference_ball=reference,
        **fields,
    )


def _element_index(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SoficlabError(f"--gens lists {token.strip()!r}, not an element index") from None


def _cmd_gen(args) -> tuple[None, list[tuple[Path, str]]]:
    if args.generator == "cayley":
        if (args.group is None) == (args.table is None):
            raise SoficlabError("gen cayley needs exactly one of --group / --table")
        if args.group is not None:
            table, default_gens = groups.preset_group(args.group)
        else:
            table, default_gens = parse_table(args.table.read_text())
        if args.gens:
            gen_indices = [_element_index(tok) for tok in args.gens.split(",") if tok.strip() != ""]
            if not gen_indices:
                raise SoficlabError("--gens lists no element")
        else:
            gen_indices = list(default_gens)
            if not gen_indices and args.group is not None:
                raise SoficlabError(f"the preset {args.group} has no default generators: pass --gens")
            if not gen_indices:
                raise SoficlabError("the table file lists no generators: pass --gens")
        g = cayley_graph(table, gen_indices)
    else:
        g = random_permutation_model(args.n, args.pairs, args.seed)
    return None, [(args.output, serialize_graph(g))]


def _cmd_cheeger(args) -> tuple[dict, None]:
    g = _load_graph(args.graph)
    sd = lambda2(g, tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    if g.n <= args.exact_limit:
        est = cheeger_exact(g, exhaustive_limit=args.exact_limit)
    else:
        est = cheeger_bounds(g, sd)
    doc = est.as_dict()
    doc.update(
        {
            "lambda2": sd.lambda2,
            "iterations": sd.iterations,
            "residual": sd.residual,
            "converged": sd.converged,
        }
    )
    return doc, None


def _cmd_sofic(args) -> tuple[dict, None]:
    g = _load_graph(args.graph)
    if args.words is not None:
        words = parse_words_text(args.words.read_text())
    else:
        words = reduced_words(g.gens, args.max_len, expects_identity=False)
        if not words:
            why = "the graph has no generators" if len(g.gens) == 0 else f"--max-len {args.max_len} allows no nonempty word"
            raise SoficlabError(f"no reduced words: {why}")
    return sofic_report(g, words).as_dict(), None


def _cmd_improve(args) -> tuple[dict, list[tuple[Path, str]]]:
    g = _load_graph(args.graph)
    c = parse_map_text(args.map.read_text())
    cfg = _improvement_config(args, kappa=args.kappa)
    improved, trace = improve(g, c, cfg)
    doc = trace.as_dict()
    if not args.output:
        return doc, []
    trace_path = args.trace if args.trace else args.output.with_name(args.output.name + ".trace.json")
    return doc, [(args.output, format_map_text(improved)), (trace_path, _dump(doc))]


def _cmd_cluster_group(args) -> tuple[dict, None]:
    g = _load_graph(args.graph)
    seeds = [parse_map_text(p.read_text()) for p in args.maps]
    if args.auto:
        seeds.extend(label_automorphisms(g))
    if not seeds:
        raise SoficlabError(f"--auto found no automorphism: the graph has n={g.n} vertices" if args.auto
                            else "no seed maps: pass --map or --auto")
    cfg = _improvement_config(args)
    return cluster_group(g, args.delta, seeds, cfg, closure_bound=args.closure_bound).as_dict(), None


def _cmd_lef_check(args) -> tuple[dict, None]:
    g = _load_graph(args.graph)
    gamma = [tok.strip() for tok in args.gamma.split(",") if tok.strip()]
    words = parse_words_text(args.words.read_text())
    cfg = _improvement_config(args)
    return lef_certificate(g, gamma, words, args.delta, cfg).as_dict(), None


def _cmd_report(args) -> tuple[dict, None]:
    g = _load_graph(args.graph)
    count, _ = connected_components(g)
    names, inverse = g.gens.symbols, g.gens.inverse
    doc = {
        "n": g.n,
        "degree": g.degree,
        "symbols": list(names),
        "inverse_pairs": [[names[i], names[inverse[i]]] for i in g.gens.pair_representatives()],
        "connected": count <= 1,
        "components": count,
        "simple": is_simple(g),
        "loops": loop_count(g),
    }
    return doc, None


_HANDLERS = {
    "gen": _cmd_gen,
    "cheeger": _cmd_cheeger,
    "sofic": _cmd_sofic,
    "improve": _cmd_improve,
    "cluster-group": _cmd_cluster_group,
    "lef-check": _cmd_lef_check,
    "report": _cmd_report,
}


def _input_paths(args) -> list[str]:
    paths = []
    for name in ("graph", "map", "words", "reference", "table"):
        value = getattr(args, name, None)
        if isinstance(value, Path):
            paths.append(str(value))
    for p in getattr(args, "maps", []) or []:
        paths.append(str(p))
    return paths


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    start = time.perf_counter()
    try:
        doc, outputs = _HANDLERS[args.command](args)
    except (SoficlabError, ValueError, OSError, KeyError, MemoryError) as exc:
        sys.stdout.write(_dump({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1
    wall = time.perf_counter() - start
    if outputs is None:  # the document is the artifact
        outputs = [(args.output, _dump(doc))] if args.output else []
    for path, text in outputs:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    if outputs:
        manifest = {
            "command": args.command,
            "argv": list(argv),
            "inputs": _input_paths(args),
            "outputs": [str(p) for p, _ in outputs],
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "wall_time_s": wall,
        }
        primary = outputs[0][0]
        manifest_path = primary.with_name(primary.name + ".manifest.json")
        manifest_path.write_text(_dump(manifest))
    else:
        sys.stdout.write(_dump(doc))
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
