"""Command line interface: run experiments, verify identities, trace report."""

import argparse
import dataclasses
import json
import logging
import sys

from .experiments import ExperimentConfig, run_experiment
from .fortin import fortin_report
from .verify import run_verification

_RUN_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bdmadapt",
        description="Adaptive BDM mixed finite elements with superconvergent "
                    "postprocessing and built-in error estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a convergence experiment")
    run.add_argument("--experiment", choices=("smooth", "lshape", "advdiff"),
                     default=None)
    run.add_argument("--p", dest="p_list", type=int, nargs="+", default=None,
                     metavar="P")
    run.add_argument("--mode", choices=("uniform", "adaptive"), default=None)
    run.add_argument("--theta", type=float, default=None)
    run.add_argument("--iters", dest="iterations", type=int, default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--estimator", dest="marker",
                     choices=("eta", "eta_tilde"), default=None)
    run.add_argument("--dump-meshes", dest="dump_meshes",
                     action="store_true", default=None)
    run.add_argument("--initial-elements", dest="initial_elements", type=int,
                     default=None)
    run.add_argument("--max-elements", dest="max_elements", type=int,
                     default=None)
    run.add_argument("--config", default=None,
                     help="JSON file mirroring the flags; flags override it")

    ver = sub.add_parser("verify", help="run the identity/property suites")
    ver.add_argument("--out", default=None)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--full", action="store_true",
                     help="larger randomized sample sizes")

    fort = sub.add_parser("fortin", help="biorthogonal trace system report")
    fort.add_argument("--out", default=None)
    fort.add_argument("--samples", type=int, default=100)
    fort.add_argument("--seed", type=int, default=20240601)
    return parser


def _read_config(path, parser) -> dict:
    """The settings of a --config file; a usage error names what is wrong."""
    try:
        with open(path) as fh:
            settings = json.load(fh)
    except OSError as exc:
        parser.error(f"cannot read config file {path}: {exc.strerror}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        parser.error(f"config file {path} is not JSON: {exc}")
    if not isinstance(settings, dict):
        parser.error(f"config file {path} must hold a JSON object, "
                     f"got {type(settings).__name__}")
    return settings


def _cmd_run(args, parser) -> int:
    settings = _read_config(args.config, parser) if args.config else {}
    for key in _RUN_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    try:
        config = ExperimentConfig.from_dict(settings)
    except ValueError as exc:
        parser.error(str(exc))
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    summary = run_experiment(config)
    print(f"artifacts written to {config.out}")
    for p, entry in summary["per_degree"].items():
        slopes = {k: None if v is None else round(v, 3)
                  for k, v in entry["slopes"].items()}
        print(f"  p={p}: Nel={entry['final_elements']} slopes={slopes}")
    if summary["io_errors"]:
        print(f"  {len(summary['io_errors'])} artifact write failures",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(seed=args.seed, quick=not args.full)
    for check in report["checks"]:
        state = "PASS" if check["passed"] else "FAIL"
        print(f"[{state}] {check['name']}: {check['detail']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if report["passed"] else 1


def _cmd_fortin(args, parser) -> int:
    try:
        report = fortin_report(n_samples=args.samples, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"A = {report['A']}")
    print(f"det A = {report['det_A']:.6e}")
    print("biorthogonality residual (reference): "
          f"{report['reference_biorthogonality_residual']:.2e}")
    print("biorthogonality residual (random triangles): "
          f"{report['physical_biorthogonality_residual']:.2e}")
    print(f"projection stability constant: {report['stability_constant']:.4f}")
    for p, entry in report["trace_inequality"].items():
        print(f"trace inequality p={p}: max constant "
              f"{entry['max_constant']:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args, parser)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_fortin(args, parser)


if __name__ == "__main__":
    sys.exit(main())
