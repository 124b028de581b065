"""Command-line entry points: ``kronspec generate | estimate | experiment | figure | theory``.

Bad input is a ``graphs.InputError``: a value that a library entry rule rejects, or a file
named on the command line that cannot be opened, read or parsed, led by its path. ``main``
prints it as one ``error:`` line with exit status 2; other exceptions keep their traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

import numpy as np

from .checks import theory_suite
from .estimators import Estimator, Ordering, OrderingKind
from .generators import DEFAULT_WS_BETA, MODELS, GeneratorSpec, generate_connected
from .graphs import (
    Graph, InputError, _as_int, read_edge_list, require_no_isolated_vertex, write_edge_list,
)
from .experiments import (
    FIGURES, ExperimentConfig, measure_pair, reproduce_figure, run_experiment, write_csv,
)


@contextlib.contextmanager
def _reading(path: str):
    """Raise a ValueError or OSError from the block, which opens, reads and parses the
    file ``path``, as an InputError led by ``path``."""
    try:
        yield
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None


def _read_factor(path: str) -> Graph:
    """The factor in edge-list file ``path``, which needs every degree >= 1 to be estimated."""
    with _reading(path):
        g = read_edge_list(path)
        require_no_isolated_vertex(g)
    return g


def _cmd_generate(args) -> int:
    g = generate_connected(GeneratorSpec(args.model, args.n, args.density, args.seed, args.ws_beta))
    write_edge_list(g, args.output)
    print(f"wrote {args.output}: n={g.n} m={g.edge_count}")
    return 0


def _cmd_estimate(args) -> int:
    g1, g2 = _read_factor(args.factor1), _read_factor(args.factor2)
    seed = _as_int("--seed", args.seed, 0)
    # the output format: an estimate_<key> column and an ordering_<key> note entry each
    columns = {"sayama": Estimator.SAYAMA_LAPLACIAN, "normalized": Estimator.NORMALIZED_LAPLACIAN}
    explicit = Ordering(args.ordering, seed) if args.ordering else None
    exact, orderings, estimates, _ = measure_pair(g1, g2, columns.values(), explicit, seed, False)
    note = " ".join(f"ordering_{k}={orderings[e].kind.value}" for k, e in columns.items())
    table = {"rank": range(1, len(exact) + 1), "exact": exact}
    table |= {f"estimate_{k}": np.sort(estimates[e]) for k, e in columns.items()}
    write_csv(args.output or sys.stdout, f"{note} seed={seed}", table)
    if args.output:
        print(f"wrote {args.output}: {len(exact)} eigenvalues")
    return 0


def _cmd_experiment(args) -> int:
    with _reading(args.config), open(args.config) as fh:
        config = ExperimentConfig.from_dict(json.load(fh))
    if args.output_dir:
        config = dataclasses.replace(config, output_dir=args.output_dir)
    if config.output_dir is None:
        raise InputError("no output_dir in config and no --output-dir given")
    bundle = run_experiment(config)
    print(f"wrote {len(bundle.files)} files to {config.output_dir}")
    return 0


def _given(args, *names) -> dict:
    """The keyword arguments among ``names`` in ``args``: a flag whose default is
    argparse.SUPPRESS is left out unless given, so the library states its default."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _cmd_figure(args) -> int:
    options = {"runs_override": args.runs, **_given(args, "master_seed")}
    manifest = reproduce_figure(args.figure_id, args.output_dir, **options)
    print(f"wrote {len(manifest['panels'])} panels to {args.output_dir}")
    return 0


def _cmd_theory(args) -> int:
    report = theory_suite(**_given(args, "output_dir", "seed", "draws", "graphs"))
    for name, entry in sorted(report.items()):
        if isinstance(entry, dict):
            print(f"{'PASS' if entry['pass'] else 'FAIL'}  {name}")
    if args.output_dir:
        print(f"report written to {args.output_dir}/theory_report.json")
    return 0 if report["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronspec",
        description="Estimate Laplacian spectra of Kronecker products of graphs from factor spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit one connected random graph as an edge list")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ws-beta", type=float, default=DEFAULT_WS_BETA)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("estimate", help="estimated and exact product spectra for two edge lists")
    p.add_argument("factor1")
    p.add_argument("factor2")
    p.add_argument(
        "--ordering",
        default=None,
        choices=[k.value for k in OrderingKind],
        help="one ordering for both estimates (default: Correlated for Sayama, "
        "Uncorrelated seeded by --seed for the normalized estimate, as in experiment runs)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a JSON experiment config")
    p.add_argument("config")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("figure", help="reproduce one reference figure, one report bundle per panel")
    p.add_argument("figure_id", choices=sorted(FIGURES))
    p.add_argument("--output-dir", "-o", required=True)
    p.add_argument("--master-seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--runs", type=int, default=None, help="override the per-panel run count")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser(
        "theory", help="verify the closed forms and bounds", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--output-dir", "-o", default=None)
    p.add_argument("--seed", type=int)
    p.add_argument("--draws", type=int, help="Monte-Carlo draws for the ER expectation")
    p.add_argument("--graphs", type=int, help="graphs in the nonnegativity sweep")
    p.set_defaults(func=_cmd_theory)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
