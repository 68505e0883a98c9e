"""Command-line entry point: gen-data / train / eval / export-op / verify,
driven by a JSON config with dotted-key overrides.

Exit codes: 0 ok, 2 config error, 3 data error, 4 training divergence
or failed inference (a non-finite model output, an operator-error norm
ARPACK cannot converge), 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import checks, pipeline
from .container import write_tensors
from .errors import (
    ConditioningError,
    ConfigError,
    DataError,
    DomainError,
    InferenceError,
    TrainingError,
)
from .model import MetaModel, export_operator

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4
EXIT_VERIFY = 5


def _cmd_gen_data(args) -> int:
    cfg = pipeline.load_config(args.config, args.set)
    t0 = time.time()
    summary = pipeline.generate_dataset(cfg, args.out, threads=args.threads)
    pipeline.write_run_json(args.out, cfg.to_dict(), {
        "command": "gen-data", "wall_time": time.time() - t0,
        "max_residual": summary["max_residual"]})
    print(f"wrote {summary['n_eta']} parameter draws x {summary['n_f']} "
          f"sources to {args.out} (max residual {summary['max_residual']:.2e})")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = pipeline.load_config(args.config, args.set)
    t0 = time.time()
    train_set = pipeline.load_sampleset(args.data, "train")
    test_set = pipeline.load_sampleset(args.data, "test")
    mdl = MetaModel(cfg.model)
    pipeline.check_geometry(mdl, train_set.problem)
    metrics = pipeline.train(mdl, train_set, test_set, cfg.training)
    if cfg.training.operator_samples > 0:
        k = min(cfg.training.operator_samples, test_set.n_eta)
        metrics.operator_error = pipeline.operator_error(
            mdl, test_set.problem, test_set.eta[:k])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.save_checkpoint(mdl, out)
    metrics.save(out)
    pipeline.write_run_json(out, cfg.to_dict(), {
        "command": "train", "wall_time": time.time() - t0,
        "epochs": metrics.epochs, "stop_reason": metrics.stop_reason})
    print(f"trained {metrics.epochs} epochs ({metrics.stop_reason}); "
          f"train eps {metrics.train_error:.3e}, "
          f"test eps {metrics.test_error:.3e}, "
          f"operator eps {metrics.operator_error}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.operator_samples < 0:
        raise ConfigError(f"--operator-samples must be >= 0, "
                          f"got {args.operator_samples}")
    t0 = time.time()
    mdl = pipeline.load_checkpoint(args.model)
    results = {}
    train_set = pipeline.load_sampleset(args.data, "train", check=args.check)
    test_set = pipeline.load_sampleset(args.data, "test", check=args.check)
    pipeline.check_geometry(mdl, test_set.problem)
    results["train_error"] = pipeline.evaluate(mdl, train_set)
    results["test_error"] = pipeline.evaluate(mdl, test_set)
    if args.operator_samples > 0:
        k = min(args.operator_samples, test_set.n_eta)
        results["operator_error"] = pipeline.operator_error(
            mdl, test_set.problem, test_set.eta[:k])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.json", "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    pipeline.write_run_json(out, mdl.describe(), {
        "command": "eval", "wall_time": time.time() - t0, **results})
    print(json.dumps(results, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_export_op(args) -> int:
    t0 = time.time()
    mdl = pipeline.load_checkpoint(args.model)
    ss = pipeline.load_sampleset(args.data, args.split)
    pipeline.check_geometry(mdl, ss.problem)
    if not 0 <= args.index < ss.n_eta:
        raise DataError(f"eta index {args.index} outside 0..{ss.n_eta - 1}")
    eta = ss.eta[args.index]
    g_nn = export_operator(mdl, eta)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_tensors(out, {"G": g_nn, "eta": eta})
    pipeline.write_run_json(out.parent, mdl.describe(), {
        "command": "export-op", "wall_time": time.time() - t0,
        "split": args.split, "index": args.index})
    print(f"wrote {g_nn.shape[0]}x{g_nn.shape[1]} operator to {out}")
    return EXIT_OK


def _cmd_verify(_args) -> int:
    results = checks.run_all()
    width = max(len(name) for name, _, _ in results)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nswave",
        description="compressed solution operators via the nonstandard "
                    "wavelet form: data generation, training, evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="JSON run configuration")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dotted-key config override (JSON value)")

    p = sub.add_parser("gen-data", help="generate and persist a dataset")
    add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes (>= 1, at most one per draw) "
                        "that generate and certify the parameter draws")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset")
    add_common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="metrics output directory")
    p.add_argument("--operator-samples", type=int, default=0,
                   help="number of test etas for the operator error")
    p.add_argument("--check", action="store_true",
                   help="re-verify dataset residuals on load")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("export-op", help="export the dense learned operator")
    p.add_argument("--model", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--index", type=int, default=0, help="eta index")
    p.add_argument("--out", required=True, help="output NSTF1 file")
    p.set_defaults(func=_cmd_export_op)

    p = sub.add_parser("verify", help="run the oracle suites")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # an array too large: numpy names its size
        print(f"config error: out of memory: "
              f"{str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:
        print(f"config error: a size too large to index: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ConditioningError, DomainError, OSError,
            json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except InferenceError as exc:
        print(f"inference failed: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
