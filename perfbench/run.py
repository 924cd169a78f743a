"""embedscale's benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It drives the checkout's own src/ from
outside, in a closed loop with one client: one operation in flight, issued
by this single process, the next only after the previous one returned.

--trace 0 measures the end-to-end metrics. Each CLI op is a fresh
`python -m embedscale ...` (interpreter start-up included); embed-pipeline
ops are library calls inside one worker process. --trace 1 runs every op
in-process, alternately plain and wrapped by tracer.py, and reports the
per-layer metrics. Every op's output is checked (workloads.py, oracles.py);
an op whose output is wrong counts as failed.

Inputs are made from --seed alone. A later claim of a gain is confirmed by a
run with a second seed that was not used while the change was written.
The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the lines before it give the provenance and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

import oracles
import probe
import workloads

SETUP_REPEATS = {          # setup_s is the median of this many full set-ups;
    "eval-scores": 5,      # the shorter they are, the noisier, so the more
    "fit-laws": 9,
    "plan-budgets": 5,
    "embed-pipeline": 5,
}
STARTUP_SAMPLES = 5        # `--version` runs behind cli.startup_s
P90_MIN_OPS = 100          # op_p90_s needs ten samples beyond the 90th percentile
WORK_DIR = ".perfbench_work"
BLAS_THREADS = "1"         # one op in flight: numpy's BLAS gets one thread too

END_TO_END = {             # name -> unit; BENCHMARK.json lists the same
    "setup_s": "s",
    "op_p50_ref_s": "ref_s",
    "ops_per_ref_s": "1/ref_s",
    "items_per_ref_s": "1/ref_s",
    "cpu_per_op_ref_s": "ref_s",
    "peak_rss_mb": "MB",
}
ITEMS = {"eval-scores": "queries", "fit-laws": "fits", "plan-budgets": "budgets",
         "embed-pipeline": "queries"}


class Child:
    """A worker process's exit code, wall time and CPU time."""

    def __init__(self, argv, env, cwd, stdout, stderr):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=stderr)
        self.proc = proc
        self.start = start

    def wait(self):
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.wall = time.perf_counter() - self.start
        self.code = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        return self


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.work = root / WORK_DIR / workload
        self.workload, self.seed = workload, seed
        self.spawner = None
        self.env = dict(os.environ, OMP_NUM_THREADS=BLAS_THREADS,
                        OPENBLAS_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def fresh(self, clock=None) -> workloads.Context:
        """An empty work dir. With a clock, each set-up command splits it."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

        def run_cli(argv):
            outcome = self.run_cli(argv)
            if clock is not None:
                clock.split()
            return outcome
        return workloads.Context(self.root, self.work, self.seed, run_cli)

    def cli(self, argv) -> types.SimpleNamespace:
        """Run `python -m embedscale argv`, output to files in the work dir.

        spawner.py starts it, so that its peak RSS is its own. Returns its
        exit code, wall and CPU seconds and peak RSS: code, wall, cpu, rss_mb.
        """
        if self.spawner is None:
            self.spawner = subprocess.Popen(
                [sys.executable, "-I", str(Path(__file__).with_name("spawner.py"))],
                env=self.env, cwd=self.root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True)
        command = {"argv": [sys.executable, "-m", "embedscale", *argv],
                   "stdout": str(self.work / "stdout"), "stderr": str(self.work / "stderr")}
        self.spawner.stdin.write(json.dumps(command) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner.py exited with code {self.spawner.wait()}")
        return types.SimpleNamespace(**json.loads(reply))

    def close(self):
        """Stop the spawner and wait for it."""
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait()
            self.spawner.stdout.close()
            self.spawner = None

    def run_cli(self, argv):
        child = self.cli(argv)
        return child.code, *self.outputs()

    def outputs(self):
        return tuple((self.work / name).read_text(encoding="utf-8", errors="replace")
                     for name in ("stdout", "stderr"))

    def worker(self, spec: dict) -> Child:
        """Start worker.py; returns once it has printed READY (or died).

        The READY line carries the probe the worker ran after its warm-up op.
        """
        spec = dict(spec, workload=self.workload, seed=self.seed,
                    result=str(self.work / "worker-result.json"))
        spec_path = self.work / "worker-spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        err = open(self.work / "worker-stderr", "wb")
        try:
            child = Child([sys.executable, str(Path(__file__).with_name("worker.py")),
                           str(spec_path)], self.env, self.root, subprocess.PIPE, err)
        finally:
            err.close()
        ready = child.proc.stdout.readline().split()
        child.ready = ready[:1] == [b"READY"]
        child.probe_s = float(ready[1]) if child.ready else None
        return child

    def finish_worker(self, child: Child) -> dict | None:
        """Wait for the worker; its results, or None after a set-up-only start."""
        child.proc.stdout.read()
        child.proc.stdout.close()
        child.wait()
        if child.code != 0 or not child.ready:
            detail = (self.work / "worker-stderr").read_text(errors="replace")
            raise workloads.SetupError(f"worker exited {child.code}: {detail.strip()[-2000:]}")
        path = self.work / "worker-result.json"
        return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


# -- untraced runs -----------------------------------------------------------

def timed_setups(setup, repeats: int) -> list:
    """(plain, reference) seconds of `repeats` calls of setup(clock, last).

    A set-up splits its clock (probe.RefClock) after each of its steps and
    ends at the last split.
    """
    setups, probe_s = [], probe.probe()
    for k in range(repeats):
        clock = probe.RefClock(probe_s)
        setup(clock, k == repeats - 1)
        setups.append((clock.wall, clock.ref_wall))
        probe_s = clock.probe_s
    return setups


def run_cli_workload(r: Runner, seconds: float) -> tuple[dict, dict]:
    built = []

    def setup(clock, last):
        built[:] = [workloads.CLI_WORKLOADS[r.workload](r.fresh(clock))]
        clock.split()                           # input generation, if no fit ran
        r.cli(built[0].ops[0].argv)
        clock.split()                           # the warm-up op

    setups = timed_setups(setup, SETUP_REPEATS[r.workload])
    wl = built[0]
    first, stdouts, records = {}, {}, []
    deadline = time.perf_counter() + seconds
    i = 0
    before = probe.probe()
    while i == 0 or time.perf_counter() < deadline:
        op = wl.ops[i % len(wl.ops)]
        i += 1
        child = r.cli(op.argv)
        after = probe.probe()
        stdout, stderr = r.outputs()
        reason = workloads.check_cli_output(op, child.code, stderr, first)
        stdouts.setdefault(op.key, stdout)
        scale = probe.REF_S * 2 / (before + after)
        records.append({"key": op.key, "wall_s": child.wall, "cpu_s": child.cpu,
                        "ref_wall_s": child.wall * scale, "ref_cpu_s": child.cpu * scale,
                        "rss_mb": child.rss_mb, "items": op.items, "failed": reason})
        before = after
    verify_keys(wl, stdouts, records)
    outcome = summarize(records, setups)
    outcome["extra"].update(note_metrics(wl, records))
    return outcome, wl.shapes()


def run_embed_workload(r: Runner, seconds: float) -> tuple[dict, dict]:
    """A set-up ends when its worker is READY; the last worker then runs the
    timed ops at once. The peak RSS is the one the worker read before it
    checked any output."""
    children = []

    def setup(clock, last):
        inputs = workloads.embed_inputs(r.fresh())
        clock.split()
        child = r.worker({"inputs": inputs, "out_dir": str(r.work / "out"),
                          "trace": False, "seconds": seconds, "setup_only": not last})
        children.append(child)
        if child.ready:
            clock.split(child.probe_s)
        if not last:
            r.finish_worker(child)              # off the clock

    setups = timed_setups(setup, SETUP_REPEATS[r.workload])
    result = r.finish_worker(children[-1])
    for rec in result["ops"]:
        rec["rss_mb"] = result["peak_rss_mb"]
    return summarize(result["ops"], setups), workloads.embed_shapes()


def verify_keys(wl, stdouts: dict, records: list):
    """Oracle checks on each key's report; a wrong answer fails all its ops."""
    for op in {op.key: op for op in wl.ops}.values():
        if op.key not in stdouts:
            continue
        try:
            report, reason = oracles.load_report(
                (wl.ctx.root / op.out_dir / op.report).read_text(encoding="utf-8"))
        except OSError as exc:
            reason = f"no report: {exc}"
        if reason is None:
            reason = (wl.check_op(op, stdouts[op.key], report)
                      or wl.check_key(op.key, stdouts[op.key], report))
        if reason:
            for rec in records:
                if rec["key"] == op.key:
                    rec["failed"] = rec["failed"] or reason


def note_metrics(wl, records: list) -> dict:
    """Per-op means of what the checks noted about each key's output."""
    out = {}
    for rec in records:
        for name, count in wl.notes.get(rec["key"], {}).items():
            out[name] = out.get(name, 0) + count / len(records)
    return out


def summarize(records: list, setups: list) -> dict:
    """End-to-end metrics over a balanced mix: every input weighs the same,
    however many ops the run reached on it. Inputs differ in cost by up to
    3x, so a plain median over ops would jump between them.

    The bounded figures are in reference seconds (probe.py): each op's wall
    and CPU time scaled by REF_S over the mean of the probes run just before
    and just after it, or step by step (probe.RefClock) for embed-pipeline
    ops and for set-ups. setup_s is in reference seconds too, under the unit
    "s" that BENCHMARK.json requires of it. The same figures in plain
    seconds are printed beside them.
    """
    timed = [rec for rec in records if rec["wall_s"] is not None]
    by_key = {}
    for rec in timed:
        by_key.setdefault(rec["key"], []).append(rec)
    keys = by_key.values()

    def mean(values):
        return sum(values) / len(values)

    def figures(wall, cpu):
        pass_s = sum(mean([r[wall] for r in recs]) for recs in keys)
        return (mean([statistics.median(r[wall] for r in recs) for recs in keys]),
                len(by_key) / pass_s,
                sum(recs[0]["items"] for recs in keys) / pass_s,
                mean([mean([r[cpu] for r in recs]) for recs in keys]))

    ref = figures("ref_wall_s", "ref_cpu_s")
    raw = figures("wall_s", "cpu_s")
    metrics = {"setup_s": statistics.median(ref for _, ref in setups)}
    metrics.update(zip(("op_p50_ref_s", "ops_per_ref_s", "items_per_ref_s",
                        "cpu_per_op_ref_s"), ref))
    metrics["peak_rss_mb"] = max(rec["rss_mb"] for rec in timed)
    walls = [rec["wall_s"] for rec in timed]
    extra = {"ops": len(walls), "inputs": len(by_key),
             "setup_plain_s": statistics.median(plain for plain, _ in setups)}
    extra.update(zip(("op_p50_s", "ops_per_s", "items_per_s", "cpu_per_op_s"), raw))
    extra["probe_p50_s"] = statistics.median(   # the probe time each op was scaled by
        probe.REF_S * rec["wall_s"] / rec["ref_wall_s"] for rec in timed)
    if len(walls) >= P90_MIN_OPS:
        extra["op_p90_s"] = statistics.quantiles(walls, n=10)[-1]
    return {"metrics": metrics, "extra": extra, "records": records}


# -- traced runs -------------------------------------------------------------

PER_LAYER = {              # name -> unit; BENCHMARK.json lists the same
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "B",
    "core.self_s": "s",
    "core.parse_observations.self_s": "s",
    "core.parse_observations.rows": "count",
    "core.filter_by.self_s": "s",
    "metrics.self_s": "s",
    "metrics.parse_score_records.self_s": "s",
    "metrics.parse_score_records.scores": "count",
    "metrics.entropy.self_s": "s",
    "metrics.kernel_calls_per_positive": "ratio",
    "metrics.sample_negatives.self_s": "s",
    "metrics.sample_negatives.calls": "count",
    "embed.self_s": "s",
    "embed.save_matrix.self_s": "s",
    "embed.load_matrix.self_s": "s",
    "embed.matrix_bytes": "B",
    "embed.project.self_s": "s",
    "embed.score_pairs.self_s": "s",
    "embed.score_pairs.flops": "flop",
    "embed.l2_normalize.calls": "count",
    "fit.self_s": "s",
    "fit.least_squares.self_s": "s",
    "fit.least_squares.calls": "count",
    "fit.starts": "count",
    "fit.winner_iterations": "count",
    "fit.fit_from_report.self_s": "s",
    "fit.predict_joint.calls": "count",
    "plan.self_s": "s",
    "plan.optimal_allocation.self_s": "s",
    "plan.objective_evals_per_budget": "count",
    "plan.budget_curve.self_s": "s",
    "plan.missed_optima": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(trace: dict, ops: list, startup_s: float, notes: dict) -> dict:
    """Per-op layer figures from the traced ops; 0 where a layer is not reached."""
    n = sum(1 for rec in ops if "traced_s" in rec)
    self_s, calls, values, nested = (trace[k] for k in ("self_s", "calls", "values", "nested"))

    def total(table, match):
        return sum(v for k, v in table.items() if match(k))

    def own(name):                      # self time of one function, per op
        return total(self_s, lambda k: k == name) / n

    def layer(module):                  # self time of a whole module, per op
        return total(self_s, lambda k: k.startswith(module + ".")) / n

    def per_op(table, name):
        return table.get(name, 0) / n

    def observed(prefix, suffix):       # values the tracer read off results
        return total(values, lambda k: k.startswith(prefix) and k.endswith(suffix))

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "cli.startup_s": startup_s,
        "cli.self_s": layer("cli"),
        "cli.report_bytes": per_op(values, "cli.report_bytes"),
        "core.self_s": layer("core"),
        "core.parse_observations.self_s": own("core.parse_observations"),
        "core.parse_observations.rows": observed("core.parse_observations", ".rows") / n,
        "core.filter_by.self_s": own("core.filter_by"),
        "metrics.self_s": layer("metrics"),
        "metrics.parse_score_records.self_s": own("metrics.parse_score_records"),
        "metrics.parse_score_records.scores":
            observed("metrics.parse_score_records", ".scores") / n,
        "metrics.entropy.self_s":
            total(self_s, lambda k: k.startswith("metrics.contrastive_entropy")) / n,
        "metrics.kernel_calls_per_positive": ratio(
            calls.get("metrics.contrastive_entropy_single", 0),
            observed("metrics.contrastive_entropy_dataset", ".positives_in")),
        "metrics.sample_negatives.self_s": own("metrics.sample_negatives"),
        "metrics.sample_negatives.calls": per_op(calls, "metrics.sample_negatives"),
        "embed.self_s": layer("embed"),
        "embed.save_matrix.self_s": own("embed.save_matrix"),
        "embed.load_matrix.self_s": own("embed.load_matrix"),
        "embed.matrix_bytes": per_op(values, "embed.matrix_bytes"),
        "embed.project.self_s": own("embed.project"),
        "embed.score_pairs.self_s": own("embed.score_pairs"),
        "embed.score_pairs.flops": observed("embed.score_pairs", ".flops") / n,
        "embed.l2_normalize.calls": per_op(calls, "embed.l2_normalize"),
        "fit.self_s": layer("fit"),
        "fit.least_squares.self_s": own("fit.least_squares"),
        "fit.least_squares.calls": per_op(calls, "fit.least_squares"),
        "fit.starts": observed("fit.", ".starts") / n,
        "fit.winner_iterations": observed("fit.", ".winner_iterations") / n,
        "fit.fit_from_report.self_s": own("fit.fit_from_report"),
        "fit.predict_joint.calls": per_op(calls, "fit.predict_joint"),
        "plan.self_s": layer("plan"),
        "plan.optimal_allocation.self_s": own("plan.optimal_allocation"),
        "plan.objective_evals_per_budget": ratio(
            nested.get("plan.optimal_allocation>fit.predict_joint", 0),
            calls.get("plan.optimal_allocation", 0)),
        "plan.budget_curve.self_s": own("plan.budget_curve"),
        "plan.missed_optima": notes.get("plan.missed_optima", 0.0),
        "trace.overhead_s": statistics.median(
            rec["traced_s"] - rec["wall_s"] for rec in ops if "traced_s" in rec),
    }


def run_traced(r: Runner, seconds: float) -> tuple[dict, dict]:
    ctx = r.fresh()
    if r.workload == "embed-pipeline":
        wl, shapes = None, workloads.embed_shapes()
        spec = {"inputs": workloads.embed_inputs(ctx), "out_dir": str(r.work / "out")}
    else:
        wl = workloads.CLI_WORKLOADS[r.workload](ctx)
        shapes = wl.shapes()
        spec = {"ops": [vars(op) for op in wl.ops]}
    startup = statistics.median(r.cli(["--version"]).wall for _ in range(STARTUP_SAMPLES))
    child = r.worker(dict(spec, trace=True, seconds=seconds))
    result = r.finish_worker(child)
    notes = {}
    if wl is not None:
        verify_keys(wl, result["stdout"], result["ops"])
        notes = note_metrics(wl, result["ops"])
    return {"metrics": layer_metrics(result["trace"], result["ops"], startup, notes),
            "extra": {"ops": len(result["ops"]), "spans": result["trace"]["spans"],
                      "counted": result["trace"]["counted"]},
            "records": result["ops"]}, shapes


# -- provenance and output ---------------------------------------------------

def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def provenance(root: Path, args, shapes) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k, "unset") + f" (children: {BLAS_THREADS})"
                         for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")},
        "platform": platform.platform(), "commit": git_commit(root),
        "clients": "closed loop, 1 client, 1 op in flight",
        "shapes": shapes,
        "confirm": "confirm a claimed gain with a seed not used while writing the change",
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "embedscale" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/embedscale; run from a checkout root",
              file=sys.stderr)
        return 2
    r = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            outcome, shapes = run_traced(r, args.seconds)
            units = PER_LAYER
        elif args.workload == "embed-pipeline":
            outcome, shapes = run_embed_workload(r, args.seconds)
            units = END_TO_END
        else:
            outcome, shapes = run_cli_workload(r, args.seconds)
            units = END_TO_END
    except workloads.SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        r.close()
    records = outcome["records"]
    failed = [rec for rec in records if rec["failed"]]
    prov = provenance(root, args, shapes)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for rec in failed[:5]:
        print(f"failed {rec['key']}: {rec['failed']}")
    print(f"ops {len(records)} ({ITEMS[args.workload]} as items), "
          f"fail_ratio {len(failed) / len(records):.6g}")
    for name, value in outcome["extra"].items():
        if name not in ("ops", "counted") and name not in outcome["metrics"]:
            print(f"{name} {value!r}")
    for name, value in outcome["metrics"].items():
        print(f"{name} {value!r} {units[name]}")
    line = {"correct": not failed, "attempted": len(records), "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in outcome["metrics"].items()}}
    (r.work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(line, provenance=prov, extra=outcome["extra"]), indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
