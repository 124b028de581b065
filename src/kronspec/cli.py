"""Command-line entry points.

Subcommands:

* ``generate``   one connected random graph, written as an edge list
* ``estimate``   estimated and exact product spectra for two edge lists
* ``experiment`` full run grid from a JSON config file
* ``figure``     one reference figure, one report bundle per panel
* ``theory``     the closed-form/bound verification report
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .estimators import Estimator, Ordering, OrderingKind
from .generators import DEFAULT_WS_BETA, MODELS, GeneratorSpec, generate_connected
from .graphs import KroneckerLaplacian, read_edge_list, write_edge_list
from .experiments import (
    ExperimentConfig,
    FIGURES,
    estimate_spectrum,
    reproduce_figure,
    run_experiment,
    theory_suite,
    write_csv,
)
from .spectral import factor_spectra, product_spectrum


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(
        model=args.model,
        n=args.n,
        target_density=args.density,
        seed=args.seed,
        ws_beta=args.ws_beta,
    )
    g = generate_connected(spec)
    write_edge_list(g, args.output)
    print(f"wrote {args.output}: n={g.n} m={g.edge_count}")
    return 0


def _cmd_estimate(args) -> int:
    g1 = read_edge_list(args.factor1)
    g2 = read_edge_list(args.factor2)
    ordering = Ordering(kind=args.ordering, randomization_seed=args.seed)
    f1, f2 = factor_spectra(g1), factor_spectra(g2)
    exact = product_spectrum(KroneckerLaplacian(g1, g2))
    sayama, normalized = (
        np.sort(estimate_spectrum(estimator, f1, f2, ordering)).tolist()
        for estimator in (Estimator.SAYAMA_LAPLACIAN, Estimator.NORMALIZED_LAPLACIAN)
    )
    rows = (
        f"{k},{e!r},{s!r},{n!r}"
        for k, (e, s, n) in enumerate(zip(exact.tolist(), sayama, normalized), start=1)
    )
    write_csv(
        args.output or sys.stdout,
        f"ordering={ordering.kind.value}",
        "rank,exact,estimate_sayama,estimate_normalized",
        rows,
    )
    if args.output:
        print(f"wrote {args.output}: {len(exact)} eigenvalues")
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        data = json.load(fh)
    config = ExperimentConfig.from_dict(data)
    if args.output_dir:
        config = dataclasses.replace(config, output_dir=args.output_dir)
    if config.output_dir is None:
        print("error: no output_dir in config and no --output-dir given", file=sys.stderr)
        return 2
    bundle = run_experiment(config)
    print(f"wrote {len(bundle.files)} files to {config.output_dir}")
    return 0


def _cmd_figure(args) -> int:
    manifest = reproduce_figure(
        args.figure_id, args.output_dir, master_seed=args.master_seed, runs_override=args.runs
    )
    print(f"wrote {len(manifest['panels'])} panels to {args.output_dir}")
    return 0


def _cmd_theory(args) -> int:
    report = theory_suite(
        output_dir=args.output_dir,
        seed=args.seed,
        er_draws=args.draws,
        graph_count=args.graphs,
    )
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
    p.add_argument("--ordering", default="Correlated", choices=[k.value for k in OrderingKind])
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
    p.add_argument("--master-seed", type=int, default=1729)
    p.add_argument("--runs", type=int, default=None, help="override the per-panel run count")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("theory", help="verify the closed forms and bounds")
    p.add_argument("--output-dir", "-o", default=None)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--draws", type=int, default=100, help="Monte-Carlo draws for the ER expectation")
    p.add_argument("--graphs", type=int, default=1000, help="graphs in the nonnegativity sweep")
    p.set_defaults(func=_cmd_theory)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
