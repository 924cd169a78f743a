"""The benchmark's workloads: seeded inputs, the operations run on them, and
the checks of every operation's output.

Each workload stresses other layers of embedscale (cli, core, metrics,
embed, fit, plan), so a change to one layer shows on one workload and is
predicted not to move the others:

  eval-scores     JSONL ingestion and the entropy kernel (cli, metrics)
  fit-laws        the multistart Levenberg-Marquardt engine (core, fit)
  plan-budgets    the budget planner (fit, plan)
  embed-pipeline  matrix I/O, projection, scoring and sampling (embed, metrics)

The three CLI workloads run one `python -m embedscale ...` per operation;
embed-pipeline has no CLI entry and runs library calls in worker.py.
Inputs depend only on the seed. Input paths are given relative to the
checkout root, so reports (whose manifests echo input paths) are
byte-identical across checkouts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

FIXTURE_TABLES = ("obs_bert_msmarco.csv", "obs_bert_trecdl.csv",
                  "obs_ettin_msmarco.csv", "obs_ettin_trecdl.csv")
FIXTURE_REPORT = "fit_report_bert_trecdl.json"   # a plan input, never a fit reference


class SetupError(Exception):
    """The workload's inputs could not be made; the run stops without a result."""


@dataclass
class Op:
    """One operation. Ops sharing a key read the same input and must write
    byte-identical reports."""

    key: str
    argv: list            # arguments after `python -m embedscale`
    out_dir: str          # relative to the checkout root
    report: str
    items: int            # queries, fits or budgets this op serves


@dataclass
class Context:
    root: Path            # the checkout
    work: Path            # this workload's scratch directory, inside root
    seed: int
    run_cli: object = None    # callable(argv) -> (exit code, stdout, stderr), for set-up

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))


def check_cli_output(op: Op, code, stderr: str, first: dict) -> str | None:
    """Exit code, no traceback, NaN-free report, the same bytes for one key.

    first maps each key to the digest of its first report.
    """
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-200:]}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    try:
        data = (Path(op.out_dir) / op.report).read_bytes()
    except OSError as exc:
        return f"no report: {exc}"
    digest = hashlib.sha256(data).hexdigest()
    if first.setdefault(op.key, digest) != digest:
        return "report bytes differ from the first op on this input"
    return oracles.load_report(data.decode("utf-8"))[1]


class CliWorkload:
    """Writes its inputs and lists its ops on construction; checks outputs."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.ops = []
        self.notes = {}       # key -> {name: count}, facts about correct outputs

    def shapes(self) -> dict:
        raise NotImplementedError

    def check_op(self, op: Op, stdout: str, report: dict) -> str | None:
        """Checks that need only this op's own output."""
        return None

    def check_key(self, key: str, stdout: str, report: dict) -> str | None:
        """Oracle checks, run once per key on its first report."""
        return None


# -- eval-scores -------------------------------------------------------------

TAU = 0.02
# (name, queries, negatives per query, (min, max) positives per query).
# The totals are alike; the shapes trade per-record cost against per-score cost.
EVAL_SHAPES = (("q2000-n256", 2000, 256, (1, 3)),
               ("q250-n2048", 250, 2048, (1, 1)),
               ("q8000-n32", 8000, 32, (1, 4)))


def write_score_file(path: Path, rng, queries: int, negatives: int, pos_range):
    """Cosine-like scores: positives near 0.55, negatives near 0.3."""
    counts = rng.integers(pos_range[0], pos_range[1] + 1, size=queries)
    pos = rng.normal(0.55, 0.08, size=int(counts.sum())).tolist()
    neg = rng.normal(0.30, 0.08, size=(queries, negatives)).tolist()
    records = []
    lines = []
    start = 0
    for i, c in enumerate(counts.tolist()):
        p = pos[start:start + c]
        start += c
        records.append((p, neg[i]))
        lines.append(json.dumps({"query_id": f"q{i:05d}", "positives": p,
                                 "negatives": neg[i]}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return records


class EvalScores(CliWorkload):
    def __init__(self, ctx: Context):
        super().__init__(ctx)
        rng = np.random.default_rng([ctx.seed, 1])
        inputs = ctx.work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.records = {}
        for name, queries, negatives, pos_range in EVAL_SHAPES:
            path = inputs / f"{name}.jsonl"
            self.records[name] = write_score_file(path, rng, queries, negatives, pos_range)
            self.ops.append(Op(name, ["eval-ce", ctx.rel(path), "--tau", repr(TAU),
                                      "--output-dir", ctx.rel(ctx.work / "out" / name)],
                               ctx.rel(ctx.work / "out" / name), "eval_ce_report.json",
                               queries))

    def shapes(self) -> dict:
        return {"tau": TAU, "files": [
            {"name": n, "queries": q, "negatives": k, "positives_per_query": list(p)}
            for n, q, k, p in EVAL_SHAPES]}

    def check_op(self, op, stdout, report):
        try:
            printed = float(stdout.split()[-1])
        except (IndexError, ValueError):
            return f"no entropy printed: {stdout[:80]!r}"
        if printed != report.get("dataset_entropy"):
            return f"printed entropy {printed!r} != report {report.get('dataset_entropy')!r}"
        if report.get("n_queries") != op.items:
            return f"n_queries {report.get('n_queries')!r}, expected {op.items}"
        return None

    def check_key(self, key, stdout, report):
        expected, per_query = oracles.entropy_oracle(self.records[key], TAU)
        reason = oracles.check_entropy(report["dataset_entropy"], expected)
        if reason:
            return reason
        for entry, want in zip(report["per_query"], per_query.tolist()):
            reason = oracles.check_entropy(entry["entropy"], want,
                                           oracles.QUERY_ENTROPY_ATOL)
            if reason:
                return f"query {entry['query_id']}: {reason}"
        return None


# -- fit-laws ----------------------------------------------------------------

GEN_MODELS = 6
GEN_DIMS = (32, 64, 128, 256, 512, 1024, 2048, 4096)
GEN_NOISE = 0.01


def read_table(path: Path) -> list:
    """Rows (model, dim, n_params, entropy) of an observation CSV."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    return [(r["model_name"], int(r["embed_dim"]), float(r["n_params"]),
             float(r["entropy"])) for r in csv.DictReader(lines)]


def write_joint_table(path: Path, rng, tag: str) -> dict:
    """A table drawn from a known joint law with 1 % multiplicative noise.

    Returns the generating parameters. The parameter ranges bracket the
    fixture fits, so the engine sees realistic curvature.
    """
    params = {"a_coeff": float(rng.uniform(40.0, 120.0)),
              "b_coeff": float(rng.uniform(1.0, 4.0)),
              "alpha": float(rng.uniform(1.0, 1.5)),
              "beta": float(rng.uniform(0.6, 1.0)),
              "delta": float(rng.uniform(0.2, 0.4))}
    sizes = np.geomspace(4e6, 3e8, GEN_MODELS) * rng.uniform(0.8, 1.25, GEN_MODELS)
    lines = [f"# generated from a known joint law, {tag}",
             "model_name,n_params,embed_dim,dataset,entropy"]
    for m, n in enumerate(np.round(sizes)):
        for d in GEN_DIMS:
            y = float(oracles.joint_law(params, d, n)) * (1.0 + GEN_NOISE * rng.standard_normal())
            lines.append(f"Gen-M{m},{int(n)},{d},synthetic,{y!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return params


def dim_reference(params: dict, n_params: float) -> dict:
    """The joint law restricted to one model is a dimension law."""
    size_term = params["b_coeff"] * (n_params / 1e6) ** -params["beta"]
    return {"a_coeff": params["a_coeff"], "alpha": params["alpha"],
            "delta": params["delta"] + size_term}


class FitLaws(CliWorkload):
    def __init__(self, ctx: Context):
        super().__init__(ctx)
        rng = np.random.default_rng([ctx.seed, 2])
        inputs = ctx.work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        tables = [(Path(name).stem, ctx.root / "tests" / "data" / name, None)
                  for name in FIXTURE_TABLES]
        for k in range(2):
            path = inputs / f"gen{k}.csv"
            tables.append((path.stem, path, write_joint_table(path, rng, f"table {k}")))
        self.tables = {}
        for stem, path, params in tables:
            rows = read_table(path)
            if not rows:
                raise SetupError(f"{path}: no observations")
            models = [r[0] for r in rows]
            model = max(dict.fromkeys(models), key=models.count)
            self.tables[stem] = (rows, model, params)
            for law in ("joint", "dim"):
                key = f"{stem}-{law}"
                out = ctx.rel(ctx.work / "out" / key)
                argv = ["fit", ctx.rel(path), "--law", law]
                if law == "dim":
                    argv += ["--model", model]
                self.ops.append(Op(key, argv + ["--output-dir", out], out,
                                   "fit_report.json", 1))

    def shapes(self) -> dict:
        return {stem: {"rows": len(rows), "models": len({r[0] for r in rows}),
                       "dim_law_model": model}
                for stem, (rows, model, _) in self.tables.items()}

    def check_key(self, key, stdout, report):
        stem, law = key.rsplit("-", 1)
        rows, model, params = self.tables[stem]
        if law == "dim":
            rows = [r for r in rows if r[0] == model]
            if params is not None:
                params = dim_reference(params, rows[0][2])
        return oracles.check_fit(report, law, [r[1:] for r in rows], params)


# -- plan-budgets ------------------------------------------------------------

TOKENS = 32
N_BUDGETS = 100
BUDGET_RANGE = (1e9, 1e13)
CURVE_DIMS = (16, 32, 64, 128, 256, 512, 1024, 2048)
# Exhaustive scoring at two corpus sizes alternating with the ANN proxy.
PLAN_REGIMES = (("exhaustive", 10**5), ("ann", 10**9), ("exhaustive", 10**7))


def seeded_budgets(rng) -> list:
    """Geometric budgets, each jittered within its own step, inside the range.

    Every budget is feasible: at 1e9 FLOPs, dimension 16 and a 1e6-parameter
    encoder both fit for every corpus size used here.
    """
    lo, hi = (math.log(b) for b in BUDGET_RANGE)
    step = (hi - lo) / N_BUDGETS
    offsets = lo + step * (np.arange(N_BUDGETS) + rng.uniform(0.0, 1.0, N_BUDGETS))
    return [float(b) for b in np.exp(offsets)]


class PlanBudgets(CliWorkload):
    def __init__(self, ctx: Context):
        super().__init__(ctx)
        rng = np.random.default_rng([ctx.seed, 3])
        inputs = ctx.work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        table = inputs / "gen.csv"
        write_joint_table(table, rng, "plan input")
        sources = [ctx.root / "tests" / "data" / FIXTURE_TABLES[0], table]
        self.reports = {}
        for source in sources:
            out = inputs / f"fit-{source.stem}"
            code, _, stderr = ctx.run_cli(["fit", ctx.rel(source), "--law", "joint",
                                           "--output-dir", ctx.rel(out)])
            if code != 0:
                raise SetupError(f"fit of {source} exited {code}: {stderr.strip()}")
            self.reports[source.stem] = out / "fit_report.json"
        self.reports["fixture-trecdl"] = ctx.root / "tests" / "data" / FIXTURE_REPORT
        self.budgets = seeded_budgets(rng)
        self.params = {}
        for name, path in self.reports.items():
            report, reason = oracles.load_report(path.read_text(encoding="utf-8"))
            if reason:
                raise SetupError(f"{path}: {reason}")
            self.params[name] = report["parameters"]
            for regime, corpus in PLAN_REGIMES:
                key = f"{name}-{regime}-{corpus:.0e}"
                out = ctx.rel(ctx.work / "out" / key)
                self.ops.append(Op(
                    key,
                    ["plan", ctx.rel(path), "--budget", *map(repr, self.budgets),
                     "--tokens", str(TOKENS), "--corpus", str(corpus),
                     "--regime", regime, "--curve", *map(str, CURVE_DIMS),
                     "--output-dir", out],
                    out, "plan_report.json", N_BUDGETS))

    def shapes(self) -> dict:
        return {"reports": sorted(self.reports), "budgets": N_BUDGETS,
                "budget_range": list(BUDGET_RANGE), "tokens": TOKENS,
                "regimes": [list(r) for r in PLAN_REGIMES],
                "curve_dims": list(CURVE_DIMS)}

    def check_op(self, op, stdout, report):
        if len(report.get("allocations", ())) != N_BUDGETS:
            return f"{len(report.get('allocations', ()))} allocations, expected {N_BUDGETS}"
        return None

    def check_key(self, key, stdout, report):
        name, regime, corpus = key.rsplit("-", 2)
        args = (report, self.params[name], TOKENS, int(float(corpus)), regime)
        self.notes[key] = {"plan.missed_optima": oracles.missed_optima(*args)}
        return oracles.check_plan(*args)


# -- embed-pipeline ----------------------------------------------------------

EMBED_QUERIES = 500
EMBED_DOCS = 2500          # text save and load dominate; sized so set-up stays near 10 s
EMBED_HIDDEN = 384
EMBED_DIMS = (64, 256)        # projection sizes, alternating op by op
EMBED_NEGATIVES = 255
EMBED_TAU = 0.05


def write_matrix(path: Path, data: np.ndarray, prefix: str):
    """The `id v1 ... vd` text format with round-trip exact floats."""
    ids = np.arange(data.shape[0], dtype=float)[:, None]
    fmt = [prefix + "%05d"] + ["%.17g"] * data.shape[1]
    np.savetxt(path, np.hstack([ids, data]), fmt=fmt)


def embed_inputs(ctx: Context) -> dict:
    """Docs, queries near 1-3 relevant docs each, and the relevance labels."""
    rng = np.random.default_rng([ctx.seed, 4])
    inputs = ctx.work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    docs = rng.standard_normal((EMBED_DOCS, EMBED_HIDDEN))
    qrels = {}
    queries = np.empty((EMBED_QUERIES, EMBED_HIDDEN))
    for i in range(EMBED_QUERIES):
        rel = rng.choice(EMBED_DOCS, size=int(rng.integers(1, 4)), replace=False)
        queries[i] = docs[rel].mean(axis=0) + rng.standard_normal(EMBED_HIDDEN)
        qrels[f"q{i:05d}"] = [f"d{j:05d}" for j in sorted(rel.tolist())]
    paths = {"docs": inputs / "docs.txt", "queries": inputs / "queries.txt",
             "qrels": inputs / "qrels.json"}
    for name, data in (("docs", docs), ("queries", queries)):
        write_matrix(paths[name], data, name[0])
        np.save(paths[name].with_suffix(".npy"), data)   # the checks' reference copy
    paths["qrels"].write_text(json.dumps(qrels), encoding="utf-8")
    return {k: ctx.rel(v) for k, v in paths.items()}


def embed_shapes() -> dict:
    return {"queries": EMBED_QUERIES, "docs": EMBED_DOCS, "hidden": EMBED_HIDDEN,
            "projected_dims": list(EMBED_DIMS), "negatives": EMBED_NEGATIVES,
            "tau": EMBED_TAU}


CLI_WORKLOADS = {"eval-scores": EvalScores, "fit-laws": FitLaws,
                 "plan-budgets": PlanBudgets}
WORKLOADS = (*CLI_WORKLOADS, "embed-pipeline")
