"""Command-line surface: reproducible evaluation, fitting, and planning runs.

Every run that writes files embeds a manifest (command, input paths with
content hashes, echoed options, tool version, seed) in its JSON report;
curve files reference that report by name. Writes go through a temp file
and os.replace, so a failed run leaves nothing partial behind. Identical
inputs and seed produce byte-identical outputs regardless of output
directory.

Exit codes: 0 success, 1 usage, 2 data or I/O failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import asdict
from fractions import Fraction
from math import fsum

import numpy as np

from . import __version__
from .core import (DataError, NumericError, SweepConfig, expand_sweep,
                   filter_by, parse_observations)
from .fit import (FitOptions, JointLawFit, fit_dim_law, fit_from_report,
                  fit_joint_law, fit_to_report, predict_dim, predict_joint)
from .metrics import (EvalConfig, contrastive_entropy_records,
                      parse_score_records)
from .plan import BudgetSpec, budget_curve, optimal_allocation

CURVE_SAMPLES = 100


class UsageError(Exception):
    """Bad flag combination detected after argparse; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors by default; the contract
    # reserves 2 for data failures, so force status 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid multiplier {text!r}: {exc}")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest(command: str, input_paths: list[str], options: dict,
              seed: int) -> dict:
    # Input paths are recorded as given; output paths are deliberately not
    # recorded so the same run is byte-identical under any --output-dir.
    return {
        "command": command,
        "inputs": [{"path": p, "sha256": _sha256(p)} for p in input_paths],
        "options": options,
        "seed": seed,
        "tool": "embedscale",
        "version": __version__,
    }


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-embedscale-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj: dict):
    # allow_nan=False: a NaN or infinity fails the run (ValueError, exit 2)
    # instead of landing in a report that strict JSON readers reject.
    _write_atomic(path, json.dumps(obj, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    return repr(float(value))


def cmd_eval_ce(args) -> int:
    text = _read_text(args.scores)
    records = parse_score_records(text)
    if not records:
        raise DataError(f"{args.scores}: no query records")
    cfg = EvalConfig(temperature=args.tau, rng_seed=args.seed)
    entropies = contrastive_entropy_records(records, cfg.temperature)
    per_query = [{"query_id": rec.query_id, "entropy": value}
                 for rec, value in zip(records, entropies)]
    # The formula of contrastive_entropy_dataset, without scoring again.
    dataset_entropy = fsum(entropies) / len(entropies)
    report = {
        "dataset_entropy": dataset_entropy,
        "n_queries": len(records),
        "per_query": per_query,
        "temperature": args.tau,
        "manifest": _manifest("eval-ce", [args.scores],
                              {"tau": args.tau}, args.seed),
    }
    _write_json(os.path.join(args.output_dir, "eval_ce_report.json"), report)
    print(_fmt(dataset_entropy))
    return 0


def _resolve_table(path: str, model: str | None, dataset: str | None):
    table = parse_observations(_read_text(path))
    if dataset is None:
        if len(table.datasets) > 1:
            raise DataError(
                f"table has datasets {table.datasets}; pass --dataset"
            )
        dataset = table.datasets[0]
    return filter_by(table, model_name=model, dataset=dataset)


def _dim_curve_lines(fit, dims: list[int]) -> list[str]:
    lo, hi = min(dims), max(dims)
    grid = np.geomspace(lo, hi, CURVE_SAMPLES) if lo < hi else np.asarray([float(lo)])
    return [f"{_fmt(d)} {_fmt(predict_dim(fit, float(d)))}" for d in grid]


def _joint_curve_blocks(fit, table) -> list[str]:
    blocks = []
    for name in table.model_names:
        rows = [r for r in table if r.model_name == name]
        dims = [r.embed_dim for r in rows]
        n_params = rows[0].n_params
        lo, hi = min(dims), max(dims)
        grid = (np.geomspace(lo, hi, CURVE_SAMPLES)
                if lo < hi else np.asarray([float(lo)]))
        lines = [f"# model {name} n_params {_fmt(n_params)}"]
        lines += [f"{_fmt(d)} {_fmt(predict_joint(fit, float(d), n_params))}"
                  for d in grid]
        blocks.append("\n".join(lines))
    return blocks


def cmd_fit(args) -> int:
    table = _resolve_table(args.observations, args.model, args.dataset)
    opts = FitOptions(seed=args.seed)
    if args.law == "dim":
        fit = fit_dim_law(table, opts)
    else:
        fit = fit_joint_law(table, opts)
    report = fit_to_report(fit, opts)
    report["manifest"] = _manifest(
        "fit", [args.observations],
        {"law": args.law, "model": args.model, "dataset": args.dataset},
        args.seed,
    )
    header = [
        "# embedscale fitted-curve samples",
        "# manifest: fit_report.json",
        "# columns: dim predicted_entropy",
    ]
    if args.law == "dim":
        body = "\n".join(_dim_curve_lines(fit, [r.embed_dim for r in table]))
    else:
        body = "\n\n".join(_joint_curve_blocks(fit, table))

    # All artifacts are built before the first write so a failure cannot
    # leave a partial run on disk.
    _write_json(os.path.join(args.output_dir, "fit_report.json"), report)
    _write_atomic(os.path.join(args.output_dir, "fit_curve.dat"),
                  "\n".join(header) + "\n" + body + "\n")

    params = report["parameters"]
    summary = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items())
                       if isinstance(v, float))
    print(f"{args.law} law fit: {summary} r2={_fmt(fit.r2)}")
    return 0


def cmd_predict(args) -> int:
    fit = fit_from_report(json.loads(_read_text(args.fit_report)))
    if args.dim < 1:
        raise UsageError("--dim must be >= 1")
    if isinstance(fit, JointLawFit):
        if args.params is None:
            raise UsageError("--params is required for a joint-law report")
        value = predict_joint(fit, args.dim, args.params)
    else:
        value = predict_dim(fit, args.dim)
    print(_fmt(value))
    return 0


def cmd_plan(args) -> int:
    fit = fit_from_report(json.loads(_read_text(args.fit_report)))
    if not isinstance(fit, JointLawFit):
        raise DataError("plan requires a joint-law fit report")
    allocations = []
    curves = []
    for budget in args.budget:
        spec = BudgetSpec(total_flops=budget, query_tokens=args.tokens,
                          corpus_size=args.corpus, regime=args.regime)
        alloc = optimal_allocation(fit, spec)
        allocations.append({"budget": budget, "regime": args.regime,
                            "corpus_size": args.corpus,
                            "query_tokens": args.tokens, **asdict(alloc)})
        if args.curve:
            curves.append((budget, budget_curve(fit, spec, args.curve)))
    report = {
        "allocations": allocations,
        "notes": "ann scoring cost uses the natural logarithm of corpus size",
        "manifest": _manifest(
            "plan", [args.fit_report],
            {"budget": args.budget, "tokens": args.tokens,
             "corpus": args.corpus, "regime": args.regime,
             "curve": args.curve or []},
            args.seed,
        ),
    }
    _write_json(os.path.join(args.output_dir, "plan_report.json"), report)

    for index, (budget, curve) in enumerate(curves, start=1):
        lines = [
            "# embedscale budget-curve samples",
            "# manifest: plan_report.json",
            f"# budget {_fmt(budget)}",
            "# columns: dim predicted_entropy",
        ]
        if curve.skipped:
            lines.append("# infeasible dims skipped: "
                         + " ".join(_fmt(d) for d in curve.skipped))
        lines += [f"{_fmt(d)} {_fmt(v)}" for d, v in curve.points]
        _write_atomic(
            os.path.join(args.output_dir, f"plan_curve_{index:02d}.dat"),
            "\n".join(lines) + "\n",
        )

    for alloc in allocations:
        print(f"budget={_fmt(alloc['budget'])} "
              f"d_hat={alloc['d_hat_rounded']} "
              f"n_hat={_fmt(alloc['n_hat_rounded'])} "
              f"gamma={_fmt(alloc['gamma'])}")
    return 0


def cmd_sweep_dims(args) -> int:
    cfg = SweepConfig(base_hidden=args.hidden,
                      multipliers=tuple(args.multipliers))
    print(" ".join(str(d) for d in expand_sweep(cfg)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="embedscale",
        description="Scaling-law fitting, contrastive-entropy evaluation, "
                    "and FLOPs-budgeted capacity planning for dense "
                    "retrieval embeddings.",
    )
    parser.add_argument("--version", action="version",
                        version=f"embedscale {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-ce", help="contrastive entropy of a JSONL score file")
    p.add_argument("scores", help="QueryScoreRecord JSONL file")
    p.add_argument("--tau", type=float, default=None,
                   help="temperature applied as score/tau")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_eval_ce)

    p = sub.add_parser("fit", help="fit a scaling law to an observation CSV")
    p.add_argument("observations", help="observation CSV file")
    p.add_argument("--law", choices=("dim", "joint"), required=True)
    p.add_argument("--model", default=None,
                   help="restrict to one model name")
    p.add_argument("--dataset", default=None,
                   help="dataset tag (required when the CSV has several)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="evaluate a fitted law at a point")
    p.add_argument("fit_report", help="fit report JSON file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--params", type=float, default=None,
                   help="model size in raw parameters (joint law only)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("plan", help="optimal (N, D) under per-query FLOPs budgets")
    p.add_argument("fit_report", help="joint-law fit report JSON file")
    p.add_argument("--budget", type=float, nargs="+", required=True,
                   help="per-query FLOPs budget(s)")
    p.add_argument("--tokens", type=int, required=True,
                   help="query length in tokens")
    p.add_argument("--corpus", type=int, required=True,
                   help="corpus size in documents")
    p.add_argument("--regime", choices=("exhaustive", "ann"),
                   default="exhaustive")
    p.add_argument("--curve", type=int, nargs="+", default=None,
                   help="also write entropy-vs-dim curves at these dims")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep-dims", help="expand a dimension sweep")
    p.add_argument("--hidden", type=int, required=True,
                   help="encoder native hidden size")
    p.add_argument("--multipliers", type=_fraction, nargs="+", required=True,
                   help="rational multipliers, e.g. 1/4 1/2 1 2")
    p.set_defaults(func=cmd_sweep_dims)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"embedscale: error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"embedscale: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError, ValueError) as exc:
        print(f"embedscale: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
