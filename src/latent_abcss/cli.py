"""Command-line pipeline: gendata, train, invert, evaluate, oracle-posterior.

Every command is a pure function of its config file, input artifacts and
seeds, so reruns are byte-identical.  Exit codes: 0 ok, 2 config error,
3 numerical failure, 4 diagnostic failure (artifacts still written).

Heavy imports are deferred until after thread setup so ``--threads`` (or the
LATENT_ABCSS_THREADS environment variable) can pin the BLAS pool before
numpy loads.  That pool is the package's only parallelism; it starts no
thread of its own.  Processes that share a host run fastest with a count of 1
each.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_DIAGNOSTIC = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latent-abcss",
        description="Likelihood-free inversion pipeline over declared file artifacts.",
    )
    parser.add_argument("--threads", type=int, default=None, help="BLAS/OpenMP thread count")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="pipeline config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gendata", help="sample training/test couples and the ray matrix")
    add_common(p)
    p.add_argument("--train-size", type=int, default=None)

    p = sub.add_parser("train", help="train the joint generative model")
    add_common(p)
    p.add_argument("--dataset", required=True, help="gendata output directory")
    p.add_argument("--latent-dim", type=int, default=None)

    p = sub.add_parser("invert", help="run a full inversion with tolerance selection")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--yobs", required=True, help="observed travel-time array artifact")
    p.add_argument("--dataset", required=True)
    p.add_argument("--truth", default=None, help="true field array artifact (for metrics)")
    p.add_argument("--oracle", action="store_true", help="compare against the exact posterior")
    p.add_argument("--eps-grid", default=None, help='log-spaced tolerance grid "min,max,count"')
    p.add_argument("--noise-std", type=float, default=None, help="oracle noise std (needs --oracle)")

    p = sub.add_parser("evaluate", help="aggregate RMSE pairings across inversions")
    p.add_argument("--runs", nargs="+", required=True, help="inversion output directories")
    p.add_argument("--out", required=True, help="aggregate CSV path")

    p = sub.add_parser("oracle-posterior", help="exact Gaussian posterior artifacts")
    add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--yobs", required=True)
    return parser


def _set_threads(n: int | None) -> None:
    """Export the thread count to the BLAS/OpenMP pools.

    Raises:
        ValueError: if the count (``--threads`` first, else the environment
            variable) is not a positive integer.
    """
    source, value = "--threads", n
    if value is None:
        source, value = "LATENT_ABCSS_THREADS", os.environ.get("LATENT_ABCSS_THREADS")
    if value is None:
        return
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(count)


def _load_config(args) -> "PipelineConfig":
    from .workflows import ConfigError, PipelineConfig

    cfg = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    overrides = {}
    for name in ("seed", "train_size", "noise_std", "latent_dim"):
        if getattr(args, name, None) is not None:
            overrides[name] = getattr(args, name)
    if getattr(args, "eps_grid", None):
        parts = args.eps_grid.split(",")
        usage = '--eps-grid expects "min,max,count"'
        if len(parts) != 3:
            raise ConfigError(usage)
        try:
            overrides["eps_min"] = float(parts[0])
            overrides["eps_max"] = float(parts[1])
            overrides["eps_count"] = int(parts[2])
        except ValueError as err:
            raise ConfigError(f"{usage}: {err}") from err
    if overrides:
        doc = cfg.to_dict()
        doc.update(overrides)
        cfg = PipelineConfig.from_dict(doc)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _set_threads(args.threads)
    except ValueError as err:
        print(f"config error [{args.command}]: {err}", file=sys.stderr)
        return EXIT_CONFIG

    from .jgnn import TrainingDiverged
    from .workflows import (
        ConfigError,
        DiagnosticFailure,
        compute_oracle_posterior,
        evaluate_runs,
        generate_dataset,
        invert_artifacts,
        train_from_dataset,
    )

    try:
        if args.command == "gendata":
            cfg = _load_config(args)
            manifest = generate_dataset(cfg, args.out)
            print(f"gendata: wrote {manifest['n_train']} train + {manifest['n_test']} test couples to {args.out}")
        elif args.command == "train":
            cfg = _load_config(args)
            ckpt = train_from_dataset(cfg, args.dataset, args.out)
            print(f"train: checkpoint at {ckpt}")
        elif args.command == "invert":
            if args.noise_std is not None and not args.oracle:
                # only the exact posterior reads noise_std; the sampler never does
                raise ConfigError("--noise-std sets the oracle's noise and needs --oracle")
            cfg = _load_config(args)
            result = invert_artifacts(
                cfg,
                args.checkpoint,
                args.yobs,
                args.dataset,
                args.out,
                truth_path=args.truth,
                oracle=args.oracle,
            )
            print(
                "invert: selected eps_n="
                f"{result.selected_eps_n:.4g} ns (stagnation {result.stagnation_eps_n:.4g} ns), "
                f"artifacts in {args.out}"
            )
        elif args.command == "evaluate":
            report = evaluate_runs(args.runs, args.out)
            print(f"evaluate: {len(report['rows'])} rows -> {report['aggregate_csv']}")
        elif args.command == "oracle-posterior":
            cfg = _load_config(args)
            compute_oracle_posterior(cfg, args.dataset, args.yobs, args.out)
            print(f"oracle-posterior: artifacts in {args.out}")
    except ConfigError as err:
        print(f"config error [{args.command}]: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DiagnosticFailure as err:
        print(f"diagnostic failure [{args.command}]: {err}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except (ValueError, TrainingDiverged, FloatingPointError) as err:
        # every ValueError past ConfigError, NotPositiveDefiniteError included
        print(f"numerical failure [{args.command}]: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
