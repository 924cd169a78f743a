"""Child process that runs operations in-process against embedscale.

    python perfbench/worker.py SPEC.json

run.py starts it with PYTHONPATH pointing at the checkout's src/. It serves
two cases:

  * embed-pipeline, which has no CLI entry: every op is a chain of library
    calls (load, save, project, score, sample negatives, entropy, ranking);
  * the traced run of every workload: CLI ops call embedscale.cli.main(argv)
    here, so the tracer can wrap the functions each module calls.

After one warm-up op and a probe the worker prints READY and the probe's
time on stdout; the time until then is part of the workload's set-up. Each
op is timed in reference seconds by a probe.RefClock: an embed-pipeline op
step by step, a CLI op as one step. The traced loop runs each op three
times in a row: plain, in the tracer's timing pass (the difference is the
tracer's overhead), and in its counting pass. Results, the worker's peak
RSS, and in a traced run the spans and counts, are written to the spec's
result path at the end.

embed-pipeline's outputs are checked only after the loop, and after the
peak RSS is read: during it each op's outputs are fingerprinted, and the
first of each projection size is saved for the oracles.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracles
import probe
import workloads


def peak_rss_mb() -> float:
    """This process's own peak RSS. On Linux ru_maxrss starts from the
    high-water mark of the parent, run.py, so VmHWM is read instead."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(path: str) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class CliOp:
    """One CLI op run through embedscale.cli.main in this process."""

    def __init__(self, cli, spec: dict):
        self.cli = cli
        self.spec = workloads.Op(**spec)
        self.key, self.items = self.spec.key, self.spec.items

    def __call__(self, split=None) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(self.spec.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:       # what `python -m embedscale` would print
                traceback.print_exc()
                code = 1
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def account(self, values):
        values["cli.report_bytes"] += tree_bytes(self.spec.out_dir)


class EmbedPipeline:
    """One embed-pipeline op per projection size, alternating."""

    def __init__(self, spec: dict):
        from embedscale import embed, metrics
        self.embed, self.metrics = embed, metrics
        self.paths = spec["inputs"]
        self.seed = spec["seed"]
        self.out_dir = spec["out_dir"]
        self.saved = os.path.join(self.out_dir, "docs_saved.txt")
        os.makedirs(self.out_dir, exist_ok=True)
        with open(self.paths["qrels"], encoding="utf-8") as fh:
            self.qrels = json.load(fh)
        rng = np.random.default_rng([self.seed, 5])
        hidden = workloads.EMBED_HIDDEN
        self.projections = {
            dim: embed.Projection(rng.standard_normal((dim, hidden)) / np.sqrt(hidden),
                                  0.01 * rng.standard_normal(dim))
            for dim in workloads.EMBED_DIMS}
        self.ops = [self.op(dim) for dim in workloads.EMBED_DIMS]
        self.fingerprints = {}      # key -> digest of its first op's outputs

    def op(self, dim: int):
        def run(split=lambda: None) -> dict:
            try:
                return self.pipeline(dim, split)
            except Exception:       # a failed op, not a failed run
                return {"code": 1, "stderr": traceback.format_exc()}
        run.key = f"dim{dim}"
        run.items = workloads.EMBED_QUERIES
        run.account = self.account
        return run

    def pipeline(self, dim: int, split) -> dict:
        """The op; split() marks the ends of its steps for the timing."""
        embed, metrics = self.embed, self.metrics
        queries = embed.load_matrix(self.paths["queries"])
        docs = embed.load_matrix(self.paths["docs"])
        split()
        embed.save_matrix(docs, self.saved)
        split()
        proj = self.projections[dim]
        pq, pd = embed.project(queries, proj), embed.project(docs, proj)
        scores = embed.score_pairs(pq, pd, normalize=True)
        split()
        column = {doc_id: j for j, doc_id in enumerate(docs.ids)}
        records, rr, recall = [], [], []
        top = np.argpartition(-scores, 100, axis=1)[:, :100]
        for i, qid in enumerate(queries.ids):
            relevant = self.qrels[qid]
            negatives = metrics.sample_negatives(
                docs.ids, set(relevant), workloads.EMBED_NEGATIVES,
                seed=self.seed * 1_000_003 + i)
            row = scores[i]
            records.append(metrics.QueryScoreRecord(
                query_id=qid,
                positives=tuple(row[[column[r] for r in relevant]].tolist()),
                negatives=tuple(row[[column[n] for n in negatives]].tolist())))
            best = top[i][np.argsort(-row[top[i]], kind="stable")]
            ranked = [docs.ids[j] for j in best]
            rr.append(metrics.rr_at_k(ranked, set(relevant), 10))
            recall.append(metrics.recall_at_k(ranked, set(relevant), 100))
        split()
        entropy = metrics.contrastive_entropy_dataset(
            records, metrics.EvalConfig(temperature=workloads.EMBED_TAU))
        return {"code": 0, "entropy": entropy, "mrr": float(np.mean(rr)),
                "recall": float(np.mean(recall)), "scores": scores,
                "records": records, "pq": pq.data, "pd": pd.data,
                "docs": docs.data, "queries": queries.data}

    def account(self, values):
        values["embed.matrix_bytes"] += sum(
            os.path.getsize(p) for p in (self.paths["queries"], self.paths["docs"],
                                         self.saved))

    def record(self, key: str, result: dict) -> str | None:
        """Keep what verify() needs without holding a result in memory.

        The first result of each key is written to the out dir; a later one
        must match its fingerprint bit for bit. The oracles run only in
        verify(), after the peak RSS is taken, so no check's arrays count
        towards it.
        """
        if result["code"] != 0:
            return result["stderr"].strip().splitlines()[-1]
        digest = self.fingerprint(result)
        if key not in self.fingerprints:
            self.fingerprints[key] = digest
            self.save(key, result)
        elif digest != self.fingerprints[key]:
            return "outputs differ from the first op with the same projection"
        return None

    def fingerprint(self, result: dict) -> str:
        """Digest of every output and of the saved docs file, copying no array."""
        h = hashlib.sha256(repr((result["entropy"], result["mrr"], result["recall"],
                                 [r.query_id for r in result["records"]])).encode())
        for name in ("scores", "pq", "pd", "docs", "queries"):
            h.update(np.ascontiguousarray(result[name]).data)
        for side in ("positives", "negatives"):
            for part in record_arrays(result["records"], side):
                h.update(part.data)
        with open(self.saved, "rb") as fh:
            h.update(hashlib.file_digest(fh, "sha256").digest())
        return h.hexdigest()

    def save(self, key: str, result: dict):
        folder = os.path.join(self.out_dir, key)
        os.makedirs(folder, exist_ok=True)
        for name in ("scores", "pq", "pd", "docs", "queries"):
            np.save(os.path.join(folder, name + ".npy"), result[name])
        for side in ("positives", "negatives"):
            values, lengths = record_arrays(result["records"], side)
            np.save(os.path.join(folder, side + ".npy"), values)
            np.save(os.path.join(folder, side + "_lengths.npy"), lengths)
        with open(os.path.join(folder, "entropy.json"), "w", encoding="utf-8") as fh:
            json.dump(result["entropy"], fh)

    def verify(self) -> dict:
        """Key -> why its first outputs are wrong, checked against numpy."""
        reasons = {}
        reference = {name: np.load(os.path.splitext(self.paths[name])[0] + ".npy")
                     for name in ("queries", "docs")}
        if not np.array_equal(self.embed.load_matrix(self.saved).data, reference["docs"]):
            reasons = dict.fromkeys(self.fingerprints,
                                    "load_matrix(save_matrix(docs)) is not bit-exact")
        for key in self.fingerprints:
            folder = os.path.join(self.out_dir, key)

            def load(name):
                return np.load(os.path.join(folder, name + ".npy"))
            with open(os.path.join(folder, "entropy.json"), encoding="utf-8") as fh:
                entropy = json.load(fh)
            records = zip(*(np.split(load(side), np.cumsum(load(side + "_lengths"))[:-1])
                            for side in ("positives", "negatives")))
            expected, _ = oracles.entropy_oracle(
                [(p.tolist(), n.tolist()) for p, n in records], workloads.EMBED_TAU)
            reason = (oracles.check_entropy(entropy, expected)
                      or oracles.check_scores(load("scores"), load("pq"), load("pd")))
            for name, bits in reference.items():
                if not reason and not np.array_equal(load(name), bits):
                    reason = f"load_matrix({name}) differs from the generated matrix"
            if reason:
                reasons[key] = reason
        return reasons


def record_arrays(records, side: str) -> tuple:
    """One side's scores of all records, flat, and each record's count."""
    lengths = np.fromiter((len(getattr(r, side)) for r in records), np.int64,
                          count=len(records))
    values = np.fromiter(itertools.chain.from_iterable(getattr(r, side) for r in records),
                         float, count=int(lengths.sum()))
    return values, lengths


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import embedscale
    from embedscale import cli

    if spec["workload"] == "embed-pipeline":
        pipeline = EmbedPipeline(spec)
        ops, check = pipeline.ops, lambda op, result: pipeline.record(op.key, result)
    else:
        pipeline = None
        ops = [CliOp(cli, op) for op in spec["ops"]]
        first = {}

        def check(op, result):
            return workloads.check_cli_output(op.spec, result["code"],
                                              result["stderr"], first)

    warm = ops[0]()
    warm_probe = probe.probe()
    print(f"READY {warm_probe!r}", flush=True)
    if spec.get("setup_only"):
        return 0
    records, stdouts = [], {}
    reason = check(ops[0], warm)
    if reason:
        records.append({"key": ops[0].key, "wall_s": None, "items": ops[0].items,
                        "failed": reason})
    del warm
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(embedscale)
        tracer.calibrate(ops[0])
    deadline = time.perf_counter() + spec["seconds"]
    i = 0
    probe_s = probe.probe()
    while i == 0 or time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        i += 1
        clock = probe.RefClock(probe_s)
        result = op(clock.split)
        clock.split()
        probe_s = clock.probe_s
        entry = {"key": op.key, "wall_s": clock.wall, "cpu_s": clock.cpu,
                 "ref_wall_s": clock.ref_wall, "ref_cpu_s": clock.ref_cpu,
                 "items": op.items, "failed": check(op, result)}
        if tracer is not None:
            with tracer.timing():
                start = time.perf_counter()
                result = op()
                entry["traced_s"] = time.perf_counter() - start
            entry["failed"] = entry["failed"] or check(op, result)
            with tracer.counting():
                result = op()
            entry["failed"] = entry["failed"] or check(op, result)
            op.account(tracer.values)
        stdouts.setdefault(op.key, result.get("stdout", ""))
        records.append(entry)
        del result            # keep the last op's arrays out of the next op's peak RSS
    out = {"ops": records, "stdout": stdouts, "peak_rss_mb": peak_rss_mb()}
    if pipeline is not None:
        reasons = pipeline.verify()
        for entry in records:
            entry["failed"] = entry["failed"] or reasons.get(entry["key"])
    if tracer is not None:
        out["trace"] = {
            "self_s": tracer.self_times(), "calls": tracer.calls,
            "nested": {f"{outer}>{inner}": n for (outer, inner), n in tracer.nested.items()},
            "values": tracer.values, "counted": sorted(tracer.hot),
            "spans": len(tracer.spans)}
        with open(spec["result"] + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
