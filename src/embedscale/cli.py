"""Command-line surface: reproducible evaluation, fitting, and planning runs.

Commands compute and main publishes. Each cmd_* function returns its files
({name: content}) and its stdout text, and neither writes nor prints. main
adds a manifest (command, input path with its content hash, echoed options,
tool version) to the command's one report, the dict among its files; it
echoes every parsed option except the input path and --output-dir. Curve
files reference that report by name. main writes all the files at once,
each through a temp file and os.replace, and prints only after that, so a
failed run prints nothing and leaves nothing behind: no temp file, no new
file, no directory it made, and the files of an earlier run in its output
directory as they were. Each file gets the mode open(path, "w") gives a new
file, 0o666 less the umask (0o644 under the usual umask 0o022), also when
it replaces an earlier run's file. Reports are encoded by _dump, as
json.dump(indent=2, sort_keys=True) would encode them, straight into their
temp files, so no report's text is ever held whole in memory; eval-ce's
rows are made one at a time from its two columns (query ids, entropies)
as they are written. Identical inputs produce byte-identical outputs
regardless of output directory, and eval-ce's, which it scores on every
CPU (metrics.score_file), regardless of how many there are. Every input
must be a regular file (core.read_lines checks), so that a manifest's hash
reads the bytes the command read. Both laws go through the same commands:
--law names one of law.LAWS, and predict and plan read either law's report
through one reader.

Each command imports only what it runs. Every command loads core and law;
eval-ce alone loads metrics, fit alone loads fit, and plan alone loads
plan, each from inside its command function. hashlib (and OpenSSL) loads
only to hash an input of 1 MiB or more, json only to read JSON (eval-ce's
records, through metrics, and a fit report; reports quote their strings
with _json, json's C accelerator, where CPython has it), csv only for fit,
fractions only for sweep-dims and shutil only to copy a file where hard
links fail. No command loads numpy.

Exit codes: 0 success, 1 usage, 2 data or I/O failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import isfinite, log10

from . import __version__
from .core import (DataError, NumericError, expand_sweep, filter_by,
                   parse_observations, read_lines)
from .law import JOINT_LAW, LAWS, fit_from_report, fit_to_report, predict

CURVE_SAMPLES = 100
# CPython's own SHA-256 hashes about 5x slower than OpenSSL, whose libcrypto
# takes 4-6 ms and 3.7 MB of RSS to load: they break even near 1 MiB.
_OPENSSL_MIN_BYTES = 1 << 20


class UsageError(Exception):
    """Bad flag combination detected after argparse; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors by default; the contract
    # reserves 2 for data failures, so force status 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # argparse drops an OSError from any stream; help or the version that
    # stdout refuses fails the run (exit 2), as a command's text does.
    def _print_message(self, message, file=None):
        if file is not sys.stdout or not message:
            return super()._print_message(message, file)
        file.write(message)
        file.flush()


def _fraction(text: str):
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid multiplier {text!r}: {exc}")


def _sha256(path: str) -> str:
    import importlib
    with open(path, "rb") as fh:
        small = os.fstat(fh.fileno()).st_size < _OPENSSL_MIN_BYTES
        for name in ("_sha2", "_sha256") if small else ():  # 3.12+, 3.10-3.11
            try:
                digest = importlib.import_module(name).sha256()
                break
            except ImportError:
                pass
        else:
            import hashlib
            digest = hashlib.sha256()
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest(args) -> dict:
    # The input path is recorded as given; output paths are deliberately not
    # recorded so the same run is byte-identical under any --output-dir.
    return {
        "command": args.command,
        "inputs": [{"path": args.input, "sha256": _sha256(args.input)}],
        "options": {k: v for k, v in vars(args).items()
                    if k not in ("command", "func", "input", "output_dir")},
        "tool": "embedscale",
        "version": __version__,
    }


def _new_file(directory: str) -> tuple[int, str]:
    """Create and open a file of a fresh random name in directory.

    open() creates it with mode 0o666 and the umask applied, as
    open(path, "w") would a new file; tempfile.mkstemp would give 0o600.
    """
    while True:
        path = os.path.join(directory, ".tmp-embedscale-" + os.urandom(8).hex())
        try:
            return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                           | getattr(os, "O_BINARY", 0), 0o666), path
        except FileExistsError:
            pass


def _dump(value, fh):
    """Write value to fh as json.dump(value, fh, indent=2, sort_keys=True,
    allow_nan=False) writes it, then a newline, in pieces of at most 512
    chunks, so its text is never held whole.

    Dict keys must be str. Any iterable that is not a str or a dict is an
    array, a generator included, so a caller can hand over rows one at a
    time. A NaN or infinity raises json's ValueError where it is met.
    """
    try:    # json's own C quoter, without the rest of json
        from _json import encode_basestring_ascii as quote
    except ImportError:
        from json.encoder import encode_basestring_ascii as quote
    chunks = []
    append = chunks.append

    def flush():
        fh.write("".join(chunks))
        chunks.clear()

    def put(value, indent):
        if isinstance(value, float):
            if not isfinite(value):
                raise ValueError("Out of range float values are not JSON "
                                 f"compliant: {value!r}")
            append(float.__repr__(value))
        elif isinstance(value, str):
            append(quote(value))
        elif value is None:
            append("null")
        elif value is True or value is False:
            append("true" if value else "false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, dict):
            inner, sep = indent + "  ", "{"
            for key, item in sorted(value.items()):
                append(f"{sep}{inner}{quote(key)}: ")
                put(item, inner)
                sep = ","
                if len(chunks) >= 512:
                    flush()
            append("{}" if sep == "{" else indent + "}")
        else:
            inner, sep = indent + "  ", "["
            for item in value:
                append(sep + inner)
                put(item, inner)
                sep = ","
                if len(chunks) >= 512:
                    flush()
            append("[]" if sep == "[" else indent + "]")

    put(value, "\n")
    append("\n")
    flush()


def _write_files(directory: str, files: dict[str, str | dict], publish):
    """Write a command's {file name: content} set into directory, then call
    publish(): all or nothing.

    A str is written as it is. A dict is a report: _dump encodes it
    (indent 2, sorted keys, then a newline) piece by piece into the temp
    file, so its text is never held whole. A NaN or infinity in a report
    raises ValueError (exit 2) instead of landing in a file that strict
    JSON readers reject.

    Every file goes to a temp file first, and every file it will replace
    gets a second name (a hard link, or a copy where links are not
    supported), before the first os.replace; publish() runs after the
    last. On a failure, in publish() too, the files already moved in are
    put back as they were (or removed, if they are new), the temp files and
    second names are removed, and so are the directories this call made.
    """
    directory = path = os.path.abspath(directory)
    made = []      # the directories makedirs will create, innermost first
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    targets = [os.path.join(directory, name) for name in files]
    temps, saved, placed = [], {}, []
    try:
        for content, target in zip(files.values(), targets):
            fd, tmp = _new_file(directory)
            temps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                if isinstance(content, str):
                    fh.write(content)
                else:
                    _dump(content, fh)
            if os.path.lexists(target):
                saved[target] = tmp + ".old"
                try:
                    os.link(target, saved[target], follow_symlinks=False)
                except OSError:
                    import shutil
                    shutil.copy2(target, saved[target], follow_symlinks=False)
        for tmp, target in zip(temps, targets):
            os.replace(tmp, target)
            placed.append(target)
        publish()
    except BaseException:
        for target in placed:
            if target in saved:
                os.replace(saved.pop(target), target)
            else:
                os.unlink(target)
        for leftover in temps + list(saved.values()):
            if os.path.lexists(leftover):
                os.unlink(leftover)
        for path in made:
            os.rmdir(path)
        raise
    for old in saved.values():
        os.unlink(old)


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    return repr(float(value))


def cmd_eval_ce(args):
    from .metrics import mean_entropy, score_file
    # score_file checks the temperature before the first line is read, then
    # scores the records on every CPU into two columns, ids and entropies.
    ids, entropies = score_file(args.input, args.tau)
    if not ids:
        raise DataError(f"{args.input}: no query records")
    # The formula of contrastive_entropy_dataset, without scoring again.
    dataset_entropy = mean_entropy(entropies)
    report = {
        "dataset_entropy": dataset_entropy,
        "n_queries": len(ids),
        # Rows made one at a time as _dump writes them: only one is held.
        "per_query": ({"query_id": qid, "entropy": entropy}
                      for qid, entropy in zip(ids, entropies)),
        "temperature": args.tau,
    }
    return {"eval_ce_report.json": report}, _fmt(dataset_entropy)


def _resolve_table(path: str, model: str | None, dataset: str | None):
    table = parse_observations(read_lines(path))
    if dataset is None:
        if len(table.datasets) > 1:
            raise DataError(
                f"table has datasets {table.datasets}; pass --dataset"
            )
        dataset = table.datasets[0]
    return filter_by(table, model_name=model, dataset=dataset)


def _read_fit(path: str):
    import json
    text = "".join(read_lines(path))
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: not a JSON fit report: {exc}") from None
    return fit_from_report(obj)


def _geomspace(lo: float, hi: float, num: int) -> list[float]:
    """num points from lo to hi, evenly spaced in log10, with exact ends."""
    log_lo = log10(lo)
    step = (log10(hi) - log_lo) / (num - 1)
    grid = [10.0 ** (log_lo + i * step) for i in range(num)]
    grid[0], grid[-1] = float(lo), float(hi)
    return grid


def _curve_file(kind: str, report: str, notes: list[str], lines: list[str]) -> str:
    """A curve file's text: the header, naming the report it belongs to, then lines."""
    return "\n".join([f"# embedscale {kind} samples", f"# manifest: {report}",
                      *notes, "# columns: dim predicted_entropy", *lines]) + "\n"


def _curve_blocks(fit, table) -> list[str]:
    """Each model's fitted curve; a joint-law block names its model."""
    blocks = []
    for name in table.model_names:
        rows = [r for r in table if r.model_name == name]
        dims = [r.embed_dim for r in rows]
        n_params = rows[0].n_params
        lo, hi = min(dims), max(dims)
        grid = _geomspace(lo, hi, CURVE_SAMPLES) if lo < hi else [float(lo)]
        lines = ([f"# model {name} n_params {_fmt(n_params)}"]
                 if fit.model is JOINT_LAW else [])
        lines += [f"{_fmt(d)} {_fmt(predict(fit, d, n_params))}"
                  for d in grid]
        blocks.append("\n".join(lines))
    return blocks


def cmd_fit(args):
    from .fit import DECREMENT_TOLERANCE, MAX_ITERS, fit_law
    table = _resolve_table(args.input, args.model, args.dataset)
    fit = fit_law(table, LAWS[args.law])
    report = fit_to_report(fit)
    report["options"] = {"max_iters": MAX_ITERS,
                         "decrement_tolerance": DECREMENT_TOLERANCE}
    curves = _curve_file("fitted-curve", "fit_report.json", [],
                         ["\n\n".join(_curve_blocks(fit, table))])
    summary = " ".join(f"{k}={_fmt(v)}"
                       for k, v in sorted(report["parameters"].items())
                       if isinstance(v, float))
    return ({"fit_report.json": report, "fit_curve.dat": curves},
            f"{args.law} law fit: {summary} r2={_fmt(fit.r2)}")


def cmd_predict(args):
    fit = _read_fit(args.input)
    if args.dim < 1:
        raise UsageError("--dim must be >= 1")
    if fit.model is JOINT_LAW and args.params is None:
        raise UsageError("--params is required for a joint-law report")
    return {}, _fmt(predict(fit, args.dim, args.params))


def cmd_plan(args):
    from .plan import BudgetSpec, budget_curve, optimal_allocation
    fit = _read_fit(args.input)
    if fit.model is not JOINT_LAW:
        raise DataError("plan requires a joint-law fit report")
    allocations, summary = [], []
    files = {"plan_report.json": {
        "allocations": allocations,
        "notes": "ann scoring cost uses the natural logarithm of corpus size"}}
    for index, budget in enumerate(args.budget, start=1):
        spec = BudgetSpec(total_flops=budget, query_tokens=args.tokens,
                          corpus_size=args.corpus, regime=args.regime)
        alloc = optimal_allocation(fit, spec)
        allocations.append({"budget": budget, "regime": args.regime,
                            "corpus_size": args.corpus,
                            "query_tokens": args.tokens,
                            **{name: getattr(alloc, name) for name in alloc._fields}})
        summary.append(f"budget={_fmt(budget)} d_hat={alloc.d_hat_rounded} "
                     f"n_hat={_fmt(alloc.n_hat_rounded)} gamma={_fmt(alloc.gamma)}")
        if args.curve:
            curve = budget_curve(fit, spec, args.curve)
            samples = [f"{_fmt(d)} {_fmt(v)}" for d, v in curve.points]
            if curve.skipped:
                samples.insert(0, "# infeasible dims skipped: "
                               + " ".join(map(_fmt, curve.skipped)))
            files[f"plan_curve_{index:02d}.dat"] = _curve_file(
                "budget-curve", "plan_report.json", [f"# budget {_fmt(budget)}"],
                samples)
    return files, "\n".join(summary)


def cmd_sweep_dims(args):
    return {}, " ".join(str(d) for d in expand_sweep(args.hidden, args.multipliers))


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
    p.add_argument("input", metavar="scores", help="QueryScoreRecord JSONL file")
    p.add_argument("--tau", type=float, default=None,
                   help="temperature applied as score/tau")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_eval_ce)

    p = sub.add_parser("fit", help="fit a scaling law to an observation CSV")
    p.add_argument("input", metavar="observations", help="observation CSV file")
    p.add_argument("--law", choices=tuple(LAWS), required=True)
    p.add_argument("--model", default=None,
                   help="restrict to one model name")
    p.add_argument("--dataset", default=None,
                   help="dataset tag (required when the CSV has several)")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="evaluate a fitted law at a point")
    p.add_argument("input", metavar="fit_report", help="fit report JSON file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--params", type=float, default=None,
                   help="model size in raw parameters (joint law only)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("plan", help="optimal (N, D) under per-query FLOPs budgets")
    p.add_argument("input", metavar="fit_report",
                   help="joint-law fit report JSON file")
    p.add_argument("--budget", type=float, nargs="+", required=True,
                   help="per-query FLOPs budget(s)")
    p.add_argument("--tokens", type=int, required=True,
                   help="query length in tokens")
    p.add_argument("--corpus", type=int, required=True,
                   help="corpus size in documents")
    p.add_argument("--regime", choices=("exhaustive", "ann"),
                   default="exhaustive")
    p.add_argument("--curve", type=int, nargs="+", default=[],
                   help="also write entropy-vs-dim curves at these dims")
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
    try:
        args = build_parser().parse_args(argv)
        files, text = args.func(args)
        if files:
            report = next(c for c in files.values() if isinstance(c, dict))
            report["manifest"] = _manifest(args)
            # A stdout that refuses the text fails the run, and so puts
            # the files back.
            _write_files(args.output_dir, files, lambda: print(text, flush=True))
        else:
            print(text, flush=True)     # a stdout that refuses it fails the run
        return 0
    except UsageError as exc:
        code, message = 1, f"error: {exc}"
    except NumericError as exc:
        code, message = 3, f"numeric failure: {exc}"
    except (OSError, ValueError) as exc:    # DataError is a ValueError
        code, message = 2, str(exc)
    try:
        print(f"embedscale: {message}", file=sys.stderr)
    except OSError:             # a stderr that refuses it leaves the code as it is
        pass
    return code
