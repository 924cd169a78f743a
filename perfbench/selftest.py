"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about two minutes on two cores. It

  * checks that BENCHMARK.json names the same workloads, metrics and units
    as run.py;
  * runs every workload for a single timed op, untraced and traced, and
    requires every metric to be printed with its unit, a result line with
    exactly the contract's keys, and fail_ratio 0;
  * feeds each checker a perturbed answer (an entropy, a residual norm, an
    allocation or a score off by a factor 1 + 1e-6, a fit parameter off by
    1 + 1e-3) and requires it to be refused.

Exits 0 when all of this holds and 1 otherwise, printing what failed.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
import run
import workloads

PERTURB = 1.0 + 1e-6
SEED = 7
ROOT = Path.cwd()
problems = []


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        problems.append(what)


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match run.py")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(listed == table, f"BENCHMARK.json {key} names and units match run.py")


def run_once(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    what = f"{workload} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0 and bool(lines),
           f"{what}: exit 0 ({proc.returncode}) {proc.stderr.strip()[-300:]}")
    if proc.returncode != 0 or not lines:
        return
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result line has exactly the contract's keys")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{what}: correct, {result['failed']} of {result['attempted']} failed")
    expect(any(line.endswith("fail_ratio 0") for line in lines),
           f"{what}: fail_ratio 0 printed")
    table = run.PER_LAYER if trace else run.END_TO_END
    for name, unit in table.items():
        printed = any(line.startswith(name + " ") and line.endswith(" " + unit)
                      for line in lines)
        metric = result["metrics"].get(name, {})
        expect(printed and metric.get("unit") == unit
               and isinstance(metric.get("value"), (int, float)),
               f"{what}: {name} printed and reported in {unit}")
    expect(set(result["metrics"]) == set(table), f"{what}: no metric beyond BENCHMARK.json")
    return result


def report_of(wl, index=0) -> tuple:
    op = wl.ops[index]
    return op, json.loads((ROOT / op.out_dir / op.report).read_text())


def check_perturbed():
    """Each checker accepts the real output and refuses a perturbed one.

    Uses the outputs that the runs above left in the work dirs; rebuilding a
    workload with the same seed rewrites identical inputs.
    """
    runner = run.Runner(ROOT, "plan-budgets", SEED)

    def context(name):
        return workloads.Context(ROOT, ROOT / run.WORK_DIR / name, SEED, runner.run_cli)

    wl = workloads.EvalScores(context("eval-scores"))
    op, report = report_of(wl)
    expect(wl.check_key(op.key, "", report) is None, "eval-scores oracle accepts the report")
    bad = copy.deepcopy(report)
    bad["dataset_entropy"] *= PERTURB
    expect(wl.check_key(op.key, "", bad) is not None, "eval-scores refuses entropy x (1+1e-6)")
    bad = copy.deepcopy(report)
    bad["per_query"][0]["entropy"] *= PERTURB
    expect(wl.check_key(op.key, "", bad) is not None, "eval-scores refuses one query's entropy")

    wl = workloads.FitLaws(context("fit-laws"))
    op, report = report_of(wl)
    expect(wl.check_key(op.key, "", report) is None, "fit-laws checks accept the report")
    # At an optimum the SSE moves only to second order in the parameters,
    # so a parameter is moved by 1e-3 to shift the SSE well past SSE_RTOL.
    for field in ("alpha", "delta"):
        bad = copy.deepcopy(report)
        bad["parameters"][field] *= 1.0 + 1e-3
        expect(wl.check_key(op.key, "", bad) is not None,
               f"fit-laws refuses {field} x (1+1e-3)")
    bad = copy.deepcopy(report)
    bad["residual_norm"] *= PERTURB
    expect(wl.check_key(op.key, "", bad) is not None, "fit-laws refuses residual_norm x (1+1e-6)")

    wl = workloads.PlanBudgets(context("plan-budgets"))
    runner.close()                  # its fits were the last commands run
    op, report = report_of(wl)
    expect(wl.check_key(op.key, "", report) is None, "plan-budgets checks accept the report")
    bad = copy.deepcopy(report)
    bad["allocations"][50]["predicted_entropy"] *= PERTURB
    expect(wl.check_key(op.key, "", bad) is not None,
           "plan-budgets refuses predicted_entropy x (1+1e-6)")
    bad = copy.deepcopy(report)
    bad["allocations"][50]["enc_flops"] *= PERTURB
    expect(wl.check_key(op.key, "", bad) is not None, "plan-budgets refuses an overspent budget")

    rng = np.random.default_rng(SEED)
    records = [(rng.normal(0.5, 0.1, 2).tolist(), rng.normal(0.3, 0.1, 64).tolist())
               for _ in range(50)]
    entropy, _ = oracles.entropy_oracle(records, workloads.EMBED_TAU)
    expect(oracles.check_entropy(entropy * PERTURB, entropy) is not None,
           "embed-pipeline refuses entropy x (1+1e-6)")
    q, d = rng.standard_normal((20, 8)), rng.standard_normal((30, 8))
    scores = oracles.cosine_scores(q, d)
    expect(oracles.check_scores(scores, q, d) is None, "embed-pipeline accepts numpy cosines")
    scores[3, 4] *= PERTURB
    expect(oracles.check_scores(scores, q, d) is not None,
           "embed-pipeline refuses a score x (1+1e-6)")


def main() -> int:
    check_benchmark_json()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            run_once(workload, trace)
    check_perturbed()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
