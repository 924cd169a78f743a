import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import stat
import subprocess
import sys
import tempfile
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import force_parts, no_child_left
from embedscale import (EvalConfig, __version__, contrastive_entropy_dataset,
                        contrastive_entropy_query, fit_from_report, predict)
from embedscale.cli import _dump, _manifest, _sha256, _write_files, main
from embedscale.metrics import _parse_line


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_jsonl(path):
    """Every record of a JSONL score file, each line parsed as eval-ce parses it."""
    with open(path, encoding="utf-8", newline=None) as fh:
        lines = enumerate(fh, start=1)
        return [rec for lineno, line in lines if (rec := _parse_line(lineno, line))]


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class TestEvalCe:
    def test_uniform_scores_give_log_count(self, tmp_path, capsys):
        scores = tmp_path / "scores.jsonl"
        write_jsonl(scores, [{"query_id": "q0", "positives": [0.3],
                              "negatives": [0.3] * 256}])
        code, out, _ = run(["eval-ce", str(scores),
                            "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        assert float(out) == pytest.approx(math.log(257.0), rel=1e-12)

    def test_report_contents_and_manifest(self, tmp_path, capsys):
        scores = tmp_path / "scores.jsonl"
        write_jsonl(scores, [{"query_id": "q0", "positives": [1.0],
                              "negatives": [0.0]}])
        code, out, _ = run(["eval-ce", str(scores), "--tau", "0.5",
                            "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        report = json.loads((tmp_path / "eval_ce_report.json").read_text())
        assert report["n_queries"] == 1
        assert report["per_query"][0]["query_id"] == "q0"
        assert report["dataset_entropy"] == float(out)
        assert report["temperature"] == 0.5
        manifest = report["manifest"]
        assert manifest["tool"] == "embedscale"
        assert manifest["version"] == __version__
        assert manifest["inputs"][0]["sha256"] == hashlib.sha256(
            scores.read_bytes()).hexdigest()
        assert manifest["options"]["tau"] == 0.5

    def test_tau_flag_equals_prescaled_scores(self, tmp_path, capsys):
        tau = 0.02
        raw = [0.41, -0.13, 0.38, 0.05]
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_jsonl(a, [{"query_id": "q", "positives": [raw[0]],
                         "negatives": raw[1:]}])
        write_jsonl(b, [{"query_id": "q", "positives": [raw[0] / tau],
                         "negatives": [s / tau for s in raw[1:]]}])
        _, out_a, _ = run(["eval-ce", str(a), "--tau", repr(tau),
                           "--output-dir", str(tmp_path / "da")], capsys)
        _, out_b, _ = run(["eval-ce", str(b),
                           "--output-dir", str(tmp_path / "db")], capsys)
        assert out_a == out_b

    def test_matches_library_on_fixture(self, data_dir, tmp_path, capsys):
        fixture = data_dir / "scores_small.jsonl"
        code, out, _ = run(["eval-ce", str(fixture),
                            "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        expected = contrastive_entropy_dataset(read_jsonl(fixture), EvalConfig())
        assert float(out) == expected

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(["eval-ce", str(tmp_path / "nope.jsonl")], capsys)
        assert code == 2
        assert "nope.jsonl" in err

    @pytest.mark.parametrize("tau, scores", [
        ("1e-310", ([0.5], [0.1])),
        ("0.5", ([1e308], [-1e308])),
    ])
    def test_non_finite_entropy_is_numeric_error(self, tmp_path, capsys, tau,
                                                 scores):
        path = tmp_path / "scores.jsonl"
        write_jsonl(path, [{"query_id": "q", "positives": scores[0],
                            "negatives": scores[1]}])
        code, out, err = run(["eval-ce", str(path), "--tau", tau,
                              "--output-dir", str(tmp_path / "out")], capsys)
        assert code == 3
        assert out == ""
        assert "numeric failure" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tau", ["inf", "nan"])
    def test_non_finite_tau_is_data_error(self, tmp_path, capsys, tau):
        path = tmp_path / "scores.jsonl"
        write_jsonl(path, [{"query_id": "q", "positives": [0.5],
                            "negatives": [0.1, 0.2]}])
        code, out, err = run(["eval-ce", str(path), "--tau", tau,
                              "--output-dir", str(tmp_path / "out")], capsys)
        assert code == 2
        assert out == ""
        assert "temperature must be positive and finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tau", ["0", "-1", "inf"])
    def test_bad_tau_is_checked_before_the_first_line(self, tmp_path, capsys, tau):
        # An empty file has no records, but the temperature is the first fault.
        path = tmp_path / "scores.jsonl"
        path.write_bytes(b"")
        code, out, err = run(["eval-ce", str(path), "--tau", tau,
                              "--output-dir", str(tmp_path / "out")], capsys)
        assert (code, out) == (2, "")
        assert "temperature must be positive and finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", [
        '{"query_id": "q", "positives": [1' + "0" * 400 + '], "negatives": [0]}',
        "[" * 100_000,
    ])
    def test_unparsable_line_is_data_error(self, tmp_path, line):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"query_id": "a", "positives": [1], "negatives": [0]}\n'
                        + line + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "embedscale", "eval-ce", str(path),
             "--output-dir", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "line 2" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_line_separator_inside_a_string_is_kept(self, tmp_path, capsys,
                                                    separator):
        # ensure_ascii=False writes the separator as the raw character.
        qid = f"a{separator}b"
        path = tmp_path / "scores.jsonl"
        path.write_text(json.dumps({"query_id": qid, "positives": [1.0],
                                    "negatives": [0.0]}, ensure_ascii=False)
                        + "\n", encoding="utf-8")
        code, _, err = run(["eval-ce", str(path),
                            "--output-dir", str(tmp_path / "out")], capsys)
        assert (code, err) == (0, "")
        report = json.loads((tmp_path / "out" / "eval_ce_report.json").read_text())
        assert report["per_query"][0]["query_id"] == qid

    @pytest.mark.parametrize("text", ["", "\n", "\n  \n\t\r\n"],
                             ids=["empty", "one-blank-line", "whitespace-lines"])
    def test_no_records_is_data_error(self, tmp_path, capsys, text):
        path = tmp_path / "scores.jsonl"
        path.write_bytes(text.encode())
        code, out, err = run(["eval-ce", str(path),
                              "--output-dir", str(tmp_path / "out")], capsys)
        assert (code, out) == (2, "")
        assert "no query records" in err
        assert not (tmp_path / "out").exists()

    def test_blank_lines_are_skipped_but_counted(self, tmp_path, capsys):
        path = tmp_path / "scores.jsonl"
        path.write_text('\n{"query_id": "a", "positives": [1], "negatives": [0]}\n'
                        '\n  \n{"query_id": "b"}\n')
        code, out, err = run(["eval-ce", str(path),
                              "--output-dir", str(tmp_path / "out")], capsys)
        assert (code, out) == (2, "")
        assert "line 5: missing keys" in err

    def test_first_faulty_record_in_file_order_decides(self, tmp_path, capsys):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"query_id": "a", "positives": [1], "negatives": []}\n'
                        '{"query_id": "b", "positives": [1], "negatives": [0]}\n'
                        "not json\n")
        code, out, err = run(["eval-ce", str(path),
                              "--output-dir", str(tmp_path / "out")], capsys)
        assert (code, out) == (2, "")
        assert "query 'a': negatives must be nonempty" in err
        assert "line 3" not in err
        assert not (tmp_path / "out").exists()

    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        import tracemalloc

        import embedscale.metrics  # noqa: F401  loaded before tracing starts
        rng = random.Random(5)
        path = tmp_path / "scores.jsonl"
        write_jsonl(path, ({"query_id": f"q{i}", "positives": [rng.gauss(0.5, 0.1)],
                            "negatives": [rng.gauss(0.3, 0.1) for _ in range(512)]}
                           for i in range(300)))
        size = path.stat().st_size
        assert size > 2_000_000
        tracemalloc.start()
        try:
            code = main(["eval-ce", str(path), "--output-dir", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        # Reading the whole file held about 3.6 times its size.
        assert peak < size / 2

    @pytest.mark.parametrize("parts", [1, 2])
    def test_memory_per_query_is_two_column_entries(self, tmp_path, monkeypatch,
                                                    parts):
        import tracemalloc

        # Loaded before tracing starts: the manifest's hash of an input of
        # 1 MiB or more, the encoder's string quoting and the scorer.
        import hashlib  # noqa: F401
        import json.encoder  # noqa: F401

        import embedscale.metrics  # noqa: F401
        queries = 20_000
        rng = random.Random(30)
        path = tmp_path / "scores.jsonl"
        write_jsonl(path, ({"query_id": f"q{i:05d}", "positives": [rng.gauss(0.5, 0.1)],
                            "negatives": [rng.gauss(0.3, 0.1) for _ in range(4)]}
                           for i in range(queries)))
        force_parts(monkeypatch, parts)
        tracemalloc.start()
        try:
            code = main(["eval-ce", str(path), "--output-dir", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        # Two column entries per query, an id and an entropy, traced at
        # about 81 B a query with the id's str; a (query id, entropy) tuple,
        # a float and a report dict per query traced at about 335 B.
        assert peak < 150 * queries


def eval_scores_shape(path, seed, queries, negatives, positives):
    """A score file of the benchmark's eval-scores shape, from seed alone."""
    rng = random.Random(seed)
    write_jsonl(path, ({"query_id": f"q{i:05d}",
                        "positives": [rng.gauss(0.55, 0.08)
                                      for _ in range(rng.randint(*positives))],
                        "negatives": [rng.gauss(0.3, 0.08) for _ in range(negatives)]}
                       for i in range(queries)))


def run_in_parts(monkeypatch, parts, argv, capsys):
    """eval-ce's exit code, stdout, stderr and files with P forced to parts."""
    force_parts(monkeypatch, parts)
    code, out, err = run(argv, capsys)
    out_dir = Path(argv[argv.index("--output-dir") + 1])
    files = ({p.name: p.read_bytes() for p in out_dir.iterdir()}
             if out_dir.exists() else None)
    return code, out, err, files


class TestEvalCeParts:
    """eval-ce scores part k of P, the lines that begin in the k-th P-th of
    the file (core._part_lines), P - 1 of them in forked children; every P
    gives the same bytes and the same first fault."""

    @pytest.mark.parametrize("source", [
        "scores_small.jsonl", "odd-lines", "q2000-n256", "q250-n2048", "q8000-n32"])
    def test_same_bytes_for_every_part_count(self, data_dir, tmp_path, capsys,
                                             monkeypatch, source):
        shapes = {"q2000-n256": (2000, 256, (1, 3)), "q250-n2048": (250, 2048, (1, 1)),
                  "q8000-n32": (8000, 32, (1, 4))}
        path = tmp_path / "scores.jsonl"
        if source in shapes:
            eval_scores_shape(path, 2201, *shapes[source])
        elif source == "odd-lines":
            # Blank lines, CRLF ends, and ids holding \n and a lone surrogate.
            path.write_bytes(
                b'\r\n{"query_id": "a\\nb", "positives": [1, 0.5], "negatives": [0]}\r\n'
                b'\r\n  \r\n{"query_id": "\\ud800", "positives": [2], "negatives": [1, 3]}\r\n'
                b'{"query_id": "c", "positives": [0.25], "negatives": [0.5]}\n\n')
        else:
            path.write_bytes((data_dir / source).read_bytes())
        monkeypatch.chdir(tmp_path)
        runs = [run_in_parts(monkeypatch, parts, ["eval-ce", path.name, "--tau", "0.02",
                                                  "--output-dir", f"out{parts}"], capsys)
                for parts in (1, 2, 3)]
        assert runs[0][0] == 0 and runs[0][2] == ""
        assert runs[1] == runs[0] and runs[2] == runs[0]
        report = json.loads(runs[0][3]["eval_ce_report.json"])
        expected = [(rec.query_id, contrastive_entropy_query(rec, 0.02))
                    for rec in read_jsonl(path)]
        assert [(row["query_id"], row["entropy"])
                for row in report["per_query"]] == expected

    @pytest.mark.parametrize("lines, code, message", [
        ([b'{"query_id": "a", "positives": [1], "negatives": []}',
          b'{"query_id": "b", "positives": [1], "negatives": [0]}', b"not json"],
         2, "query 'a': negatives must be nonempty"),
        ([b'{"query_id": "a", "positives": [1], "negatives": [0]}',
          b'{"query_id": "b", "positives": [1e308], "negatives": [-1e308]}',
          b'{"query_id": "c", "positives": [1], "negatives": [0]}',
          b'{"query_id": "d", "positives": [1]}'],
         3, "numeric failure"),
        ([b'{"query_id": "a", "positives": [1], "negatives": [0]}',
          b'{"query_id": "b", "positives": [1], "negatives": [0]}\xff',
          b'{"query_id": "c", "positives": [1], "negatives": [0]}', b"not json"],
         2, "not UTF-8 text: line 2"),
        ([b'{"query_id": "a", "positives": [1], "negatives": [0]}',
          b'{"query_id": "b"}',
          b'{"query_id": "c", "positives": [1], "negatives": [0]}\xff'],
         2, "line 2: missing keys"),
    ], ids=["no-negatives-then-bad-json", "numeric-then-data", "utf8-then-bad-json",
            "bad-record-then-utf8"])
    def test_first_fault_in_file_order_for_every_part_count(
            self, tmp_path, capsys, monkeypatch, lines, code, message):
        path = tmp_path / "scores.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        runs = [run_in_parts(monkeypatch, parts,
                             ["eval-ce", str(path), "--tau", "0.5", "--output-dir",
                              str(tmp_path / "out")], capsys)
                for parts in (1, 2, 3)]
        assert runs[0][:2] == (code, "") and runs[0][3] is None
        assert message in runs[0][2]
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_same_bytes_with_more_parts_than_lines(self, tmp_path, capsys,
                                                   monkeypatch):
        # At P = 5 three parts of a 2-line file hold no line.
        path = tmp_path / "scores.jsonl"
        path.write_bytes(b'{"query_id": "a", "positives": [1], "negatives": [0, 2]}\n'
                         b'{"query_id": "b", "positives": [0.5], "negatives": [1]}\n')
        runs = [run_in_parts(monkeypatch, parts,
                             ["eval-ce", str(path), "--output-dir",
                              str(tmp_path / f"out{parts}")], capsys)
                for parts in (1, 5)]
        assert runs[0][0] == 0 and runs[0][2] == ""
        assert runs[1] == runs[0]

    def test_one_reader_reads_again_only_after_a_fault(self, tmp_path, capsys,
                                                      monkeypatch):
        import embedscale.core as core
        part_lines, calls = core._part_lines, []

        def counted(path, part, parts, size):
            calls.append((part, parts))
            return part_lines(path, part, parts, size)
        monkeypatch.setattr(core, "_part_lines", counted)
        path = tmp_path / "scores.jsonl"
        eval_scores_shape(path, 11, 30, 8, (1, 2))
        for parts in (1, 2, 3):
            calls.clear()
            code, _, err, files = run_in_parts(
                monkeypatch, parts, ["eval-ce", str(path), "--output-dir",
                                     str(tmp_path / f"ok{parts}")], capsys)
            assert (code, err, calls) == (0, "", [(0, parts)]) and files
        # The last line is in the last part, which a child scores at P = 2
        # and 3; this process reads the file again, as one part.
        lines = path.read_bytes().splitlines(keepends=True)
        lines[-1] = b'{"query_id": "x"}\n'
        path.write_bytes(b"".join(lines))
        for parts in (2, 3):
            calls.clear()
            code, out, err, files = run_in_parts(
                monkeypatch, parts, ["eval-ce", str(path), "--output-dir",
                                     str(tmp_path / "bad")], capsys)
            assert (code, out, files) == (2, "", None)
            assert calls == [(0, parts), (0, 1)]
            assert f"line {len(lines)}: missing keys" in err

    def test_no_process_is_left_behind(self, data_dir, tmp_path, capsys,
                                       monkeypatch):
        import signal

        import embedscale.core as core
        part_lines = core._part_lines
        path = tmp_path / "scores.jsonl"
        eval_scores_shape(path, 5, 60, 8, (1, 2))

        def argv(out):
            return ["eval-ce", str(path), "--output-dir", str(tmp_path / out)]

        def in_children(action):
            def wrapped(path, part, parts, size):
                if part:
                    action()
                return part_lines(path, part, parts, size)
            monkeypatch.setattr(core, "_part_lines", wrapped)

        # Success, then a fault on line 1, which part 0 scores in this process.
        code, _, _, files = run_in_parts(monkeypatch, 3, argv("ok"), capsys)
        assert code == 0 and files and no_child_left()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"query_id": "x"}\n' + path.read_bytes())
        code, out, err, files = run_in_parts(
            monkeypatch, 3, ["eval-ce", str(bad), "--output-dir",
                             str(tmp_path / "bad")], capsys)
        assert (code, out, files) == (2, "", None) and "line 1: missing keys" in err
        assert no_child_left()

        # This process stopped while its children still score: they are
        # killed, not waited for.
        def interrupt(path, part, parts, size):
            if not part:
                raise KeyboardInterrupt
            time.sleep(60)
        monkeypatch.setattr(core, "_part_lines", interrupt)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_in_parts(monkeypatch, 3, argv("interrupted"), capsys)
        assert time.monotonic() - start < 30
        assert no_child_left() and not (tmp_path / "interrupted").exists()

        # A child that raises, or is killed, before sending its rows: this
        # process scores the file again, as at P = 1.
        monkeypatch.setattr(core, "_part_lines", part_lines)
        expected = run_in_parts(monkeypatch, 1, argv("one"), capsys)
        assert expected[0] == 0 and expected[3]

        def boom():
            raise RuntimeError("boom")
        for action, how in ((boom, "raise"),
                            (lambda: os.kill(os.getpid(), signal.SIGKILL), "kill")):
            in_children(action)
            assert run_in_parts(monkeypatch, 3, argv(how), capsys) == expected
            assert no_child_left()

    def test_a_process_with_threads_scores_alone(self, data_dir, tmp_path,
                                                 capsys, monkeypatch):
        import threading

        import embedscale.core as core
        part_lines = core._part_lines

        def no_children(path, part, parts, size):
            assert part == 0 and parts == 1
            return part_lines(path, part, parts, size)
        monkeypatch.setattr(core, "_part_lines", no_children)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            code, out, err, files = run_in_parts(
                monkeypatch, 3, ["eval-ce", str(data_dir / "scores_small.jsonl"),
                                 "--output-dir", str(tmp_path / "out")], capsys)
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive()
        assert (code, err) == (0, "") and "eval_ce_report.json" in files


class TestNonRegularInput:
    @pytest.mark.parametrize("argv", [
        ["eval-ce", "--output-dir"],
        ["fit", "--law", "joint", "--output-dir"],
        ["plan", "--budget", "1e9", "--tokens", "32", "--corpus", "100000",
         "--output-dir"],
    ], ids=lambda argv: argv[0])
    def test_fifo_is_data_error(self, tmp_path, argv):
        # Nothing writes to the FIFO: opening it would block.
        fifo = tmp_path / "input"
        os.mkfifo(fifo)
        proc = subprocess.run(
            [sys.executable, "-m", "embedscale", argv[0], str(fifo), *argv[1:],
             str(tmp_path / "out")], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"embedscale: {fifo}: not a regular file\n"
        assert not (tmp_path / "out").exists()

    def test_pipe_is_data_error(self, data_dir, tmp_path):
        # Hashing the manifest's input once read the pipe again, empty.
        proc = subprocess.run(
            [sys.executable, "-m", "embedscale", "eval-ce", "/dev/stdin",
             "--output-dir", str(tmp_path / "out")],
            input=(data_dir / "scores_small.jsonl").read_text(),
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "embedscale: /dev/stdin: not a regular file\n"
        assert not (tmp_path / "out").exists()


class TestNonUtf8Input:
    @pytest.mark.parametrize("argv", [
        ["eval-ce", "scores_small.jsonl"],
        ["fit", "obs_bert_trecdl.csv", "--law", "joint"],
        ["plan", "fit_report_bert_trecdl.json", "--budget", "1e9",
         "--tokens", "32", "--corpus", "100000"],
        ["predict", "fit_report_bert_trecdl.json", "--dim", "128",
         "--params", "1e8"],
    ], ids=lambda argv: argv[0])
    def test_names_the_file_and_line(self, data_dir, tmp_path, capsys, argv):
        command, source, *flags = argv
        lines = (data_dir / source).read_bytes().split(b"\n")
        lines[1] += b"\xff"
        path = tmp_path / source
        path.write_bytes(b"\n".join(lines))
        argv = [command, str(path), *flags]
        if command != "predict":
            argv += ["--output-dir", str(tmp_path / "out")]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert f"{path}: not UTF-8 text: line 2: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestFit:
    def test_dim_fit_writes_report_and_curve(self, data_dir, tmp_path, capsys):
        code, out, _ = run([
            "fit", str(data_dir / "obs_bert_msmarco.csv"), "--law", "dim",
            "--model", "BERT-L8-H512-A8", "--dataset", "msmarco",
            "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        assert out.startswith("dim law fit:")
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert report["law"] == "dim"
        assert set(report["parameters"]) == {"a_coeff", "alpha", "delta"}
        assert report["converged"] is True
        assert report["manifest"]["options"]["law"] == "dim"
        assert report["options"] == {"decrement_tolerance": 1e-15,
                                     "max_iters": 500}
        curve = (tmp_path / "fit_curve.dat").read_text().splitlines()
        assert curve[0] == "# embedscale fitted-curve samples"
        assert curve[1] == "# manifest: fit_report.json"
        samples = [ln for ln in curve if ln and not ln.startswith("#")]
        assert len(samples) == 100
        # Samples must lie on the reported law exactly.
        fit = fit_from_report(report)
        d, value = (float(tok) for tok in samples[0].split())
        assert value == predict(fit, d)

    def test_joint_fit_curve_has_model_blocks(self, data_dir, tmp_path,
                                              capsys):
        code, _, _ = run([
            "fit", str(data_dir / "obs_ettin_msmarco.csv"), "--law", "joint",
            "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        curve = (tmp_path / "fit_curve.dat").read_text()
        assert curve.count("# model ") == 6

    def test_joint_on_single_model_fails(self, data_dir, tmp_path, capsys):
        code, _, err = run([
            "fit", str(data_dir / "obs_bert_msmarco.csv"), "--law", "joint",
            "--model", "BERT-L8-H512-A8", "--output-dir", str(tmp_path)],
            capsys)
        assert code == 2
        assert "dim law" in err
        assert not list(tmp_path.iterdir())

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("model_name,n_params,embed_dim,dataset,entropy\n"
                       "m1,1000000,64,bench,0.5\n"
                       "m1,1000000,xx,bench,0.5\n")
        code, _, err = run(["fit", str(bad), "--law", "dim",
                            "--output-dir", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "line 3" in err
        assert not (tmp_path / "out").exists()

    def test_multi_dataset_needs_flag(self, data_dir, tmp_path, capsys):
        merged = tmp_path / "merged.csv"
        a = (data_dir / "obs_bert_msmarco.csv").read_text()
        b = (data_dir / "obs_bert_trecdl.csv").read_text()
        body = [ln for ln in b.splitlines()
                if ln and not ln.startswith(("#", "model_name"))]
        merged.write_text(a + "\n".join(body) + "\n")
        code, _, err = run(["fit", str(merged), "--law", "joint",
                            "--output-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "--dataset" in err


class TestPredict:
    def test_dim_report_asymptote(self, data_dir, tmp_path, capsys):
        run(["fit", str(data_dir / "obs_bert_msmarco.csv"), "--law", "dim",
             "--model", "BERT-L8-H512-A8", "--dataset", "msmarco",
             "--output-dir", str(tmp_path)], capsys)
        report_path = tmp_path / "fit_report.json"
        code, out, _ = run(["predict", str(report_path),
                            "--dim", "1000000000"], capsys)
        assert code == 0
        delta = json.loads(report_path.read_text())["parameters"]["delta"]
        assert float(out) == pytest.approx(delta, abs=1e-9)

    def test_joint_report_value(self, data_dir, capsys):
        report_path = data_dir / "fit_report_bert_trecdl.json"
        code, out, _ = run(["predict", str(report_path), "--dim", "512",
                            "--params", "109482240"], capsys)
        assert code == 0
        fit = fit_from_report(json.loads(report_path.read_text()))
        assert float(out) == predict(fit, 512, 109482240)

    def test_joint_needs_params(self, data_dir, capsys):
        code, _, err = run(["predict",
                            str(data_dir / "fit_report_bert_trecdl.json"),
                            "--dim", "512"], capsys)
        assert code == 1
        assert "--params" in err

    @pytest.mark.parametrize("digits", [300, 400])
    def test_power_past_the_doubles_is_finite(self, data_dir, capsys, digits):
        # D**alpha overflows (and past 400 digits D is no double at all),
        # so the value is delta + b * 100**-beta.
        path = data_dir / "fit_report_bert_trecdl.json"
        code, out, err = run(["predict", str(path), "--dim", "1" + "0" * digits,
                              "--params", "1e8"], capsys)
        assert (code, err) == (0, "")
        fit = fit_from_report(json.loads(path.read_text()))
        assert float(out) == pytest.approx(fit.delta + fit.b_coeff / 100 ** fit.beta,
                                           rel=1e-15)

    @pytest.mark.parametrize("params", ["inf", "1e400"])
    def test_infinite_params_is_data_error(self, data_dir, capsys, params):
        # At N = inf the law is only its limit, delta + A / D^alpha.
        code, out, err = run(["predict",
                              str(data_dir / "fit_report_bert_trecdl.json"),
                              "--dim", "512", "--params", params], capsys)
        assert (code, out) == (2, "")
        assert "n_params must be positive and finite" in err

    def test_dim_lower_bound(self, data_dir, capsys):
        code, _, err = run(["predict",
                            str(data_dir / "fit_report_bert_trecdl.json"),
                            "--dim", "0", "--params", "1e8"], capsys)
        assert code == 1
        assert ">= 1" in err

    def test_report_outside_the_fit_range_is_data_error(self, data_dir, tmp_path):
        obj = json.loads((data_dir / "fit_report_bert_trecdl.json").read_text())
        path = tmp_path / "report.json"
        path.write_text(json.dumps(dict(obj, r2=1.5)))
        proc = subprocess.run(
            [sys.executable, "-m", "embedscale", "predict", str(path),
             "--dim", "512", "--params", "1e8"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr
        assert "r2 must be <= 1" in proc.stderr


def exact_law(params, d, n_params):
    """The joint law at (d, n_params), in 40-digit decimal arithmetic."""
    a, b, alpha, beta, delta = map(Decimal, params)
    with localcontext() as ctx:
        ctx.prec = 40
        n = Decimal(n_params) / Decimal(10 ** 6)
        return a * (+Decimal(d)) ** -alpha + b * n ** -beta + delta


class TestPredictProperties:
    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(1, 10 ** 4000),
           params=st.floats(min_value=0.0, exclude_min=True))
    @example(dim=10 ** 300, params=1e8)
    @example(dim=1, params=5e-324)
    @example(dim=512, params=math.inf)
    def test_exit_code_follows_exact_value(self, data_dir, dim, params):
        path = data_dir / "fit_report_bert_trecdl.json"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["predict", str(path), "--dim", str(dim),
                         "--params", repr(params)])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3) and "Traceback" not in err
        fit = fit_from_report(json.loads(path.read_text()))
        exact = exact_law(fit.params, dim, params)
        if code == 3:
            assert exact > Decimal(sys.float_info.max) * Decimal("0.999999")
        if code == 0:
            assert float(out) == pytest.approx(float(exact), rel=1e-12)


MALFORMED_REPORTS = {
    "deep nesting": lambda obj: "[" * 100_000,
    "list parameters": lambda obj: json.dumps(dict(obj, parameters=[1, 2])),
    "nan delta": lambda obj: json.dumps(
        dict(obj, parameters=dict(obj["parameters"], delta=math.nan))),
    "param_unit": lambda obj: json.dumps(
        dict(obj, parameters=dict(obj["parameters"], param_unit="billions"))),
}


class TestMalformedReport:
    @pytest.mark.parametrize("command", ["predict", "plan"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
    def test_is_data_error(self, data_dir, tmp_path, capsys, case, command):
        obj = json.loads((data_dir / "fit_report_bert_trecdl.json").read_text())
        path = tmp_path / "report.json"
        path.write_text(MALFORMED_REPORTS[case](obj))
        args = {"predict": ["--dim", "512", "--params", "1e8"],
                "plan": ["--budget", "1e9", "--tokens", "32", "--corpus",
                         "100000", "--output-dir", str(tmp_path / "out")]}
        code, out, err = run([command, str(path), *args[command]], capsys)
        assert code == 2, err
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["predict", "plan"])
    @pytest.mark.parametrize("edit", [
        ("parameters", "alpha", True), ("r2", math.nan), ("n_points", "many"),
        ("warnings", "abc")], ids=["bool-alpha", "nan-r2", "text-n-points",
                                   "text-warnings"])
    def test_field_of_the_wrong_type_is_data_error(self, data_dir, tmp_path,
                                                   capsys, edit, command):
        obj = json.loads((data_dir / "fit_report_bert_trecdl.json").read_text())
        *keys, value = edit
        target = obj if len(keys) == 1 else obj[keys[0]]
        target[keys[-1]] = value
        path = tmp_path / "report.json"
        path.write_text(json.dumps(obj))
        args = {"predict": ["--dim", "512", "--params", "1e8"],
                "plan": ["--budget", "1e9", "--tokens", "32", "--corpus",
                         "100000", "--output-dir", str(tmp_path / "out")]}
        code, out, err = run([command, str(path), *args[command]], capsys)
        assert (code, out) == (2, "")
        assert f"{keys[-1]} must be " in err
        assert not (tmp_path / "out").exists()


class TestPlan:
    def test_rounding_and_summary(self, data_dir, tmp_path, capsys):
        code, out, _ = run([
            "plan", str(data_dir / "fit_report_bert_trecdl.json"),
            "--budget", "1e9", "--tokens", "32", "--corpus", "10000000",
            "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        report = json.loads((tmp_path / "plan_report.json").read_text())
        (alloc,) = report["allocations"]
        assert alloc["d_hat_rounded"] % 8 == 0
        assert alloc["n_hat_rounded"] % 1e6 == 0
        assert f"d_hat={alloc['d_hat_rounded']}" in out
        assert "natural logarithm" in report["notes"]

    def test_ann_buys_more_dimension(self, data_dir, tmp_path, capsys):
        args = ["plan", str(data_dir / "fit_report_bert_trecdl.json"),
                "--budget", "1e9", "--tokens", "32", "--corpus", "10000000"]
        _, _, _ = run(args + ["--output-dir", str(tmp_path / "ex")], capsys)
        _, _, _ = run(args + ["--regime", "ann",
                              "--output-dir", str(tmp_path / "ann")], capsys)
        read = lambda d: json.loads(
            (tmp_path / d / "plan_report.json").read_text())["allocations"][0]
        assert read("ann")["d_hat_rounded"] > read("ex")["d_hat_rounded"]

    def test_curve_files_per_budget(self, data_dir, tmp_path, capsys):
        code, _, _ = run([
            "plan", str(data_dir / "fit_report_bert_trecdl.json"),
            "--budget", "1e10", "1e11", "--tokens", "32",
            "--corpus", "10000000", "--curve", "32", "64", "128", "1024",
            "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        # 2*1e7*1024 = 2.048e10 exceeds the first budget, so the 1e10 curve
        # drops D=1024 into the skipped comment; the 1e11 curve keeps it.
        first = (tmp_path / "plan_curve_01.dat").read_text().splitlines()
        second = (tmp_path / "plan_curve_02.dat").read_text().splitlines()
        for lines in (first, second):
            assert lines[1] == "# manifest: plan_report.json"
        assert len([ln for ln in first if not ln.startswith("#")]) == 3
        assert any("skipped: 1024.0" in ln for ln in first)
        assert len([ln for ln in second if not ln.startswith("#")]) == 4

    def test_rejects_dim_law_report(self, data_dir, tmp_path, capsys):
        run(["fit", str(data_dir / "obs_bert_msmarco.csv"), "--law", "dim",
             "--model", "BERT-L8-H512-A8", "--dataset", "msmarco",
             "--output-dir", str(tmp_path)], capsys)
        code, _, err = run([
            "plan", str(tmp_path / "fit_report.json"), "--budget", "1e9",
            "--tokens", "32", "--corpus", "10000000",
            "--output-dir", str(tmp_path / "plan")], capsys)
        assert code == 2
        assert "joint" in err
        assert not (tmp_path / "plan").exists()


    def test_infeasible_budget_is_data_error(self, data_dir, tmp_path,
                                              capsys):
        # N = 1e6 and D = 8 alone cost 2e6*32 + 8*2*1000 FLOPs, far above 10.
        code, _, err = run([
            "plan", str(data_dir / "fit_report_bert_trecdl.json"),
            "--budget", "10", "--tokens", "32", "--corpus", "1000",
            "--output-dir", str(tmp_path / "plan")], capsys)
        assert code == 2
        assert "smallest allocation" in err
        assert not (tmp_path / "plan").exists()

    def test_overflowing_law_is_numeric_error(self, data_dir, tmp_path,
                                             capsys):
        report = json.loads(
            (data_dir / "fit_report_bert_trecdl.json").read_text())
        # Each term is about 1e308 at every allocation, so their sum is inf.
        report["parameters"].update(a_coeff=1e308, b_coeff=1e308,
                                    alpha=1e-3, beta=1e-3)
        path = tmp_path / "fit_report.json"
        path.write_text(json.dumps(report))
        proc = subprocess.run(
            [sys.executable, "-m", "embedscale", "plan", str(path),
             "--budget", "1e9", "--tokens", "32", "--corpus", "10000000",
             "--output-dir", str(tmp_path / "plan")],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "numeric failure" in proc.stderr
        assert not (tmp_path / "plan").exists()

    def test_power_past_the_doubles_is_planned(self, data_dir, tmp_path,
                                               capsys):
        # D**alpha and N**beta overflow at this budget; their terms are ~0.
        path = data_dir / "fit_report_bert_trecdl.json"
        code, out, _ = run(["plan", str(path), "--budget", "1e300",
                            "--tokens", "32", "--corpus", "100000",
                            "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        report = json.loads((tmp_path / "plan_report.json").read_text())
        [alloc] = report["allocations"]
        delta = fit_from_report(json.loads(path.read_text())).delta
        assert alloc["predicted_entropy"] == pytest.approx(delta, rel=1e-12)


BIG = 10 ** 400
COUNTS = st.one_of(st.integers(-2, 10 ** 9), st.integers(1, 10 ** 500))


def run_quietly(argv):
    """main(argv) with stdout and stderr captured: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestPlanProperties:
    @settings(max_examples=60, deadline=None)
    @given(tokens=COUNTS, corpus=COUNTS,
           curve=st.none() | st.lists(COUNTS, min_size=1, max_size=3),
           budget=st.sampled_from(["1e9", "3.162e10", "1e300"]),
           regime=st.sampled_from(["exhaustive", "ann"]))
    @example(tokens=BIG, corpus=1000, curve=None, budget="1e9", regime="exhaustive")
    @example(tokens=32, corpus=1000, curve=[BIG], budget="1e9", regime="exhaustive")
    @example(tokens=32, corpus=BIG, curve=None, budget="1e9", regime="exhaustive")
    @example(tokens=32, corpus=BIG, curve=[64], budget="1e9", regime="ann")
    def test_integer_flags_end_in_a_documented_code(self, data_dir, tokens,
                                                    corpus, curve, budget,
                                                    regime):
        argv = ["plan", str(data_dir / "fit_report_bert_trecdl.json"),
                "--budget", budget, "--tokens", str(tokens),
                "--corpus", str(corpus), "--regime", regime]
        if curve:
            argv += ["--curve", *map(str, curve)]
        with tempfile.TemporaryDirectory() as out:
            code, _, err = run_quietly(argv + ["--output-dir", out])
            assert code in (0, 2, 3) and "Traceback" not in err
            assert (code == 0) == (Path(out, "plan_report.json").exists())
        if tokens == BIG or (corpus == BIG and regime == "exhaustive"):
            assert code == 2


def observation_csv(rising=False):
    """Two models over seven dimensions on a joint law, or entropy rising
    linearly in dimension from 0.10 to 0.16 (the degrading case)."""
    lines = ["model_name,n_params,embed_dim,dataset,entropy"]
    for name, n_params in (("m1", 4.39e6), ("m2", 1.1e8)):
        for i, d in enumerate((32, 64, 128, 256, 512, 1024, 2048)):
            y = (0.10 + 0.01 * i if rising
                 else 80.0 / d ** 1.3 + 2.0 / (n_params / 1e6) ** 0.8 + 0.05)
            lines.append(f"{name},{n_params!r},{d},ms,{y!r}")
    return lines


CSV_FIELDS = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "inf", "1e400", "0", "-1", "5e-324",
                     "1e308", str(BIG), "1" * 5000, "m1", "m2", "ms", "x"]))


@st.composite
def mutated_observations(draw):
    """A fittable observation CSV, or a rising one, with a few edits."""
    lines = observation_csv(rising=draw(st.booleans()))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(1, len(lines) - 1))
        op = draw(st.sampled_from(["field", "delete", "duplicate", "scale"]))
        fields = lines[i].split(",")
        if op == "field":
            fields[draw(st.integers(0, 4))] = draw(CSV_FIELDS)
            lines[i] = ",".join(fields)
        elif op == "delete" and len(lines) > 2:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "scale":
            try:
                entropy = float(fields[4])
            except (IndexError, ValueError):
                continue  # an earlier "field" edit left it unparsable
            factor = draw(st.floats(1e-6, 1e6))
            lines[i] = ",".join(fields[:4] + [repr(entropy * factor)])
    return "\n".join(lines) + "\n"


def assert_finite_artifacts(out):
    report = Path(out, "fit_report.json").read_text()
    assert "NaN" not in report and "Infinity" not in report
    json.loads(report)
    for line in Path(out, "fit_curve.dat").read_text().splitlines():
        if line and not line.startswith("#"):
            assert all(math.isfinite(float(tok)) for tok in line.split()), line


class TestFitProperties:
    @settings(max_examples=60, deadline=None)
    @given(text=mutated_observations(), law=st.sampled_from(["dim", "joint"]))
    @example(text="\n".join(observation_csv()) + "\n", law="joint")
    @example(text="\n".join(observation_csv(rising=True)) + "\n", law="dim")
    def test_fit_ends_in_a_documented_code(self, text, law):
        with tempfile.TemporaryDirectory() as out:
            path = Path(out, "obs.csv")
            path.write_text(text)
            argv = ["fit", str(path), "--law", law,
                    "--output-dir", str(Path(out, "fit"))]
            if law == "dim":
                argv += ["--model", "m1"]
            code, _, err = run_quietly(argv)
            assert code in (0, 2, 3) and "Traceback" not in err
            if code == 0:
                assert_finite_artifacts(Path(out, "fit"))
            else:
                assert not Path(out, "fit").exists()

    def test_rising_series_is_numeric_error(self, tmp_path, capsys):
        # The earlier engine returned a flat fit at the mean here, with
        # residual norm 0.0529150262212918; no law with a positive
        # coefficient fits a series that rises with dimension.
        path = tmp_path / "rising.csv"
        path.write_text("\n".join(observation_csv(rising=True)) + "\n")
        code, _, err = run(["fit", str(path), "--law", "dim", "--model", "m1",
                            "--output-dir", str(tmp_path / "fit")], capsys)
        assert code == 3
        assert "positive coefficients" in err
        assert not (tmp_path / "fit").exists()

    def test_dimension_past_the_doubles_is_data_error(self, tmp_path, capsys):
        lines = observation_csv()
        lines[3] = f"m1,4390000.0,{BIG},ms,0.3"
        path = tmp_path / "big.csv"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(["fit", str(path), "--law", "dim", "--model", "m1",
                            "--output-dir", str(tmp_path / "fit")], capsys)
        assert code == 2
        assert "line 4" in err and "largest double" in err


SCORES = st.floats(min_value=-60, max_value=60).map(repr)
ODD_SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers().map(str),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                     str(BIG), "1" * 5000, "8e307", "-8e307",
                     "1.7976931348623157e308", "5e-324", "-0", "true", "false",
                     "null", '"0.5"', "[]", "{}", "[0.5]"]))
ODD_VALUES = st.sampled_from(['"q"', '""', "7", "null", "true", "{}", "[[0.5]]",
                              "[" * 5000 + "]" * 5000])
TAUS = st.one_of(
    st.none(),
    st.floats(min_value=1e-6, max_value=1e6).map(repr),
    st.sampled_from(["5e-324", "1e-310", "1e-300", "1e300",
                     "1.7976931348623157e308", "1e400", "inf", "-inf", "nan",
                     "0", "-0", "-1"]))


@st.composite
def mutated_score_lines(draw):
    """eval-ce JSONL of one to four records, with a few edits."""
    keys = ("query_id", "positives", "negatives")
    records = [{"query_id": f'"q{i}"',
                "positives": draw(st.lists(SCORES, min_size=1, max_size=3)),
                "negatives": draw(st.lists(SCORES, min_size=1, max_size=6))}
               for i in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 3))):
        rec = draw(st.sampled_from(records))
        key = draw(st.sampled_from(keys))
        op = draw(st.sampled_from(["score", "empty", "value", "delete"]))
        if op == "score" and isinstance(rec.get(key), list) and rec[key]:
            rec[key][draw(st.integers(0, len(rec[key]) - 1))] = draw(ODD_SCORES)
        elif op == "empty" and key != "query_id":
            rec[key] = []
        elif op == "value":
            rec[key] = draw(ODD_VALUES)
        elif op == "delete":
            rec.pop(key, None)
    lines = ["{" + ", ".join(
        f'"{k}": ' + (v if isinstance(v, str) else "[" + ", ".join(v) + "]")
        for k, v in rec.items()) + "}" for rec in records]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
            ["", "not json", "[0.5]", '"q"', "{", "[" * 5000])))
    return "\n".join(lines) + "\n"


def reject_constant(name):
    raise AssertionError(f"{name} in a report")


class TestEvalCeProperties:
    @settings(max_examples=60, deadline=None)
    @given(text=mutated_score_lines(), tau=TAUS)
    # Per-positive, then per-query entropies whose sum overflows a double.
    @example(text='{"query_id": "a", "positives": [-8e307, -8e307], '
                  '"negatives": [8e307]}\n', tau=None)
    @example(text='{"query_id": "a", "positives": [-8e307], "negatives": [8e307]}\n'
                  '{"query_id": "b", "positives": [-8e307], "negatives": [8e307]}\n',
             tau=None)
    @example(text='{"query_id": "a", "positives": [0.5], "negatives": [0.1]}\n',
             tau="5e-324")
    def test_eval_ce_ends_in_a_documented_code(self, text, tau):
        with tempfile.TemporaryDirectory() as out:
            path = Path(out, "scores.jsonl")
            path.write_text(text)
            argv = ["eval-ce", str(path), "--output-dir", str(Path(out, "eval"))]
            if tau is not None:
                argv.append(f"--tau={tau}")
            code, stdout, err = run_quietly(argv)
            assert code in (0, 2, 3) and "Traceback" not in err
            if code == 0:
                report = Path(out, "eval", "eval_ce_report.json").read_text()
                obj = json.loads(report, parse_constant=reject_constant)
                assert float(stdout) == obj["dataset_entropy"]
                assert obj["n_queries"] == len(obj["per_query"]) > 0
            else:
                assert stdout == "" and not Path(out, "eval").exists()


class TestSweepDims:
    def test_standard_ladder(self, capsys):
        code, out, _ = run(["sweep-dims", "--hidden", "512", "--multipliers",
                            "1/4", "1/2", "1", "2", "4", "8", "16"], capsys)
        assert code == 0
        assert out.strip() == "128 256 512 1024 2048 4096 8192"

    def test_fractional_floor(self, capsys):
        code, out, _ = run(["sweep-dims", "--hidden", "768",
                            "--multipliers", "1/16"], capsys)
        assert code == 0
        assert out.strip() == "48"

    def test_bad_multiplier_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep-dims", "--hidden", "512", "--multipliers", "x/y"])
        assert excinfo.value.code == 1

    def test_sub_unit_product_is_data_error(self, capsys):
        code, _, err = run(["sweep-dims", "--hidden", "2",
                            "--multipliers", "1/4"], capsys)
        assert code == 2
        assert "< 1" in err

    def test_product_past_the_doubles_names_the_multiplier(self, capsys):
        code, out, err = run(["sweep-dims", "--hidden", "512",
                              "--multipliers", "1", "1e5000"], capsys)
        assert (code, out) == (2, "")
        assert err == ("embedscale: multiplier ~1e5000 of hidden size 512 gives "
                       "a dimension past the largest double\n")
        code, out, _ = run(["sweep-dims", "--hidden", "512",
                            "--multipliers", "1e40"], capsys)
        assert (code, out) == (0, f"{512 * 10 ** 40}\n")


ODD_NUMBERS = ["0", "-1", "-0", "nan", "inf", "1e400", "1e-400", "9" * 400,
               "9" * 5000, "1/0", "1/" + "9" * 5000, "0.5", "x/y", ""]
HIDDEN_SIZES = st.one_of(st.integers(-10 ** 6, 10 ** 6).map(str),
                         st.sampled_from(ODD_NUMBERS))
MULTIPLIERS = st.lists(st.one_of(
    st.fractions(min_value=-4, max_value=64).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(ODD_NUMBERS)), max_size=4)


def fraction_or_none(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


class TestSweepDimsProperties:
    @settings(max_examples=100, deadline=None)
    @given(hidden=HIDDEN_SIZES, multipliers=MULTIPLIERS)
    @example(hidden="9" * 5000, multipliers=["1"])
    @example(hidden="512", multipliers=["1e400"])
    @example(hidden="1" + "0" * 4000, multipliers=["1e400"])
    def test_sweep_dims_ends_in_a_documented_code(self, hidden, multipliers):
        argv = ["sweep-dims", "--hidden", hidden, "--multipliers", *multipliers]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:    # argparse's usage errors
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2) and "Traceback" not in err
        if code != 0:
            assert out == ""
            return
        phis = [fraction_or_none(m) for m in multipliers]
        assert None not in phis
        expected = sorted({round(phi * int(hidden)) for phi in phis})
        assert out == " ".join(map(str, expected)) + "\n"
        assert expected[0] >= 1


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, data_dir, tmp_path,
                                               capsys):
        base = ["fit", str(data_dir / "obs_ettin_msmarco.csv"),
                "--law", "joint"]
        run(base + ["--output-dir", str(tmp_path / "a")], capsys)
        run(base + ["--output-dir", str(tmp_path / "b")], capsys)
        for name in ("fit_report.json", "fit_curve.dat"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_non_finite_value_never_written(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            _write_files(str(tmp_path), {path.name: {"entropy": float("nan")}},
                         lambda: None)
        assert list(tmp_path.iterdir()) == []

    def test_no_temp_droppings(self, data_dir, tmp_path, capsys):
        run(["eval-ce", str(data_dir / "scores_small.jsonl"),
             "--output-dir", str(tmp_path)], capsys)
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_failed_replace_leaves_nothing(self, data_dir, tmp_path, capsys,
                                           monkeypatch):
        replace = os.replace

        def refuse(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr("embedscale.cli.os.replace", refuse)
        for output_dir in (tmp_path, tmp_path / "new" / "dir"):
            code, out, err = run(["eval-ce", str(data_dir / "scores_small.jsonl"),
                                  "--output-dir", str(output_dir)], capsys)
            assert (code, out) == (2, "")
            assert "cannot replace" in err
            assert list(tmp_path.iterdir()) == []

        # The report is moved in, then the curve's replace fails: neither stays.
        def refuse_curve(src, dst):
            if dst.endswith("fit_curve.dat"):
                raise OSError(f"cannot replace {dst}")
            replace(src, dst)

        monkeypatch.setattr("embedscale.cli.os.replace", refuse_curve)
        fit = ["fit", str(data_dir / "obs_bert_trecdl.csv"), "--law", "joint",
               "--output-dir"]
        code, out, err = run(fit + [str(tmp_path / "fit")], capsys)
        assert (code, out) == (2, "")
        assert "cannot replace" in err
        assert list(tmp_path.iterdir()) == []

        # Into a directory holding an earlier run's files, kept by hard link
        # and then by copy: both stay as they were.
        def no_links(src, dst, **kwargs):
            raise OSError("hard links not supported")

        earlier = {"fit_report.json": "earlier report\n", "fit_curve.dat": "earlier curve\n"}
        for name, text in earlier.items():
            (tmp_path / name).write_text(text)
        for _ in range(2):
            code, out, err = run(fit + [str(tmp_path)], capsys)
            assert (code, out) == (2, "")
            assert "cannot replace" in err
            assert {p.name: p.read_text() for p in tmp_path.iterdir()} == earlier
            monkeypatch.setattr("embedscale.cli.os.link", no_links)


    def test_a_refused_stdout_leaves_nothing_behind(self, data_dir, tmp_path,
                                                  capsys, monkeypatch):
        class Refusing(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        earlier = {"fit_report.json": b"earlier report\n",
                   "fit_curve.dat": b"earlier curve\n"}
        for name, data in earlier.items():
            (tmp_path / name).write_bytes(data)
        monkeypatch.setattr(sys, "stdout", Refusing())
        fit = ["fit", str(data_dir / "obs_bert_msmarco.csv"), "--law", "joint",
               "--output-dir"]
        for output_dir in (tmp_path, tmp_path / "new" / "dir"):
            assert main(fit + [str(output_dir)]) == 2
            assert "No space left on device" in capsys.readouterr().err
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == earlier


class TestManifest:
    # The manifest echoes every parsed option except the input path and
    # --output-dir, under the names the parser gives them.
    @pytest.mark.parametrize("argv, name, options", [
        (["eval-ce", "scores_small.jsonl"], "eval_ce_report.json", {"tau": None}),
        (["eval-ce", "scores_small.jsonl", "--tau", "0.02"], "eval_ce_report.json",
         {"tau": 0.02}),
        (["fit", "obs_bert_msmarco.csv", "--law", "dim", "--model", "BERT-L8-H512-A8"],
         "fit_report.json", {"law": "dim", "model": "BERT-L8-H512-A8", "dataset": None}),
        (["fit", "obs_ettin_trecdl.csv", "--law", "joint", "--dataset", "trecdl"],
         "fit_report.json", {"law": "joint", "model": None, "dataset": "trecdl"}),
        (["plan", "fit_report_bert_trecdl.json", "--budget", "1e9", "--tokens", "32",
          "--corpus", "100000"], "plan_report.json",
         {"budget": [1e9], "tokens": 32, "corpus": 100000, "regime": "exhaustive",
          "curve": []}),
        (["plan", "fit_report_bert_trecdl.json", "--budget", "1e9", "3.162e10",
          "--tokens", "32", "--corpus", "1000000000", "--regime", "ann",
          "--curve", "64", "1024"], "plan_report.json",
         {"budget": [1e9, 3.162e10], "tokens": 32, "corpus": 1000000000,
          "regime": "ann", "curve": [64, 1024]}),
    ], ids=["eval-ce", "eval-ce-tau", "fit-dim", "fit-joint", "plan", "plan-curve"])
    def test_options_are_every_option_but_the_paths(self, data_dir, tmp_path, capsys,
                                                    argv, name, options):
        source = str(data_dir / argv[1])
        code, _, err = run([argv[0], source, *argv[2:],
                            "--output-dir", str(tmp_path)], capsys)
        assert (code, err) == (0, "")
        manifest = json.loads((tmp_path / name).read_text())["manifest"]
        assert manifest == {
            "command": argv[0],
            "inputs": [{"path": source, "sha256": hashlib.sha256(
                Path(source).read_bytes()).hexdigest()}],
            "options": options,
            "tool": "embedscale",
            "version": __version__,
        }

    # Inputs under 1 MiB go through CPython's own SHA-256 module, larger ones
    # and every input where that module is missing through hashlib.
    @pytest.mark.parametrize("size", [0, 1, 65536, (1 << 20) - 1, 1 << 20,
                                      (1 << 20) + 1])
    @pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "no-builtin"])
    def test_hash_is_sha256_of_the_bytes(self, tmp_path, monkeypatch, size, builtin):
        if not builtin:
            monkeypatch.setitem(sys.modules, "_sha2", None)
            monkeypatch.setitem(sys.modules, "_sha256", None)
        data = random.Random(size).randbytes(size)
        (tmp_path / "input").write_bytes(data)
        assert _sha256(str(tmp_path / "input")) == hashlib.sha256(data).hexdigest()


class TestFileMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_outputs_get_the_mode_open_gives(self, data_dir, tmp_path, capsys,
                                             umask, mode):
        out = tmp_path / "out"
        out.mkdir()
        # An earlier run's file of another mode takes the new one too.
        earlier = out / "fit_report.json"
        earlier.write_text("earlier report\n")
        earlier.chmod(0o640)
        fit = ["fit", str(data_dir / "obs_ettin_msmarco.csv"), "--law", "joint"]
        plan = ["plan", str(data_dir / "fit_report_bert_trecdl.json"),
                "--budget", "1e9", "3.162e10", "--tokens", "32",
                "--corpus", "100000", "--curve", "64", "1024"]
        previous = os.umask(umask)
        try:
            codes = [run(argv + ["--output-dir", str(out)], capsys)[0]
                     for argv in (fit, plan)]
            with open(tmp_path / "probe", "w"):
                pass
        finally:
            os.umask(previous)
        assert codes == [0, 0]
        assert stat.S_IMODE((tmp_path / "probe").stat().st_mode) == mode
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert modes == dict.fromkeys(
            ["fit_report.json", "fit_curve.dat", "plan_report.json",
             "plan_curve_01.dat", "plan_curve_02.dat"], mode)


def per_query_report(n, last):
    """An eval-ce-shaped report of n per-query entries, the last entropy last."""
    rng = random.Random(16)
    entries = [{"query_id": f"q{i}", "entropy": rng.random()} for i in range(n)]
    entries[-1]["entropy"] = last
    return {"dataset_entropy": 0.5, "n_queries": n, "per_query": entries}


# Text with non-ASCII and control characters, and lone surrogates.
JSON_TEXT = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), JSON_TEXT,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 2**63, -(2**63) - 1, 2**64, 10**30]))
# The ways a report may hand over an array.
ARRAY_KINDS = [list, tuple, lambda items: (item for item in items)]


def json_containers(children):
    """Arrays and objects of (given, plain) pairs: given is what the encoder
    gets, an array as a list, a tuple or a generator; plain is the same
    value with lists, for json.dumps."""
    arrays = st.tuples(st.lists(children, max_size=4), st.sampled_from(ARRAY_KINDS)).map(
        lambda t: (t[1]([g for g, _ in t[0]]), [p for _, p in t[0]]))
    objects = st.dictionaries(JSON_TEXT, children, max_size=4).map(
        lambda d: ({k: g for k, (g, _) in d.items()}, {k: p for k, (_, p) in d.items()}))
    return st.one_of(arrays, objects)


JSON_VALUES = st.recursive(JSON_SCALARS.map(lambda v: (v, v)), json_containers,
                           max_leaves=24)


@st.composite
def with_non_finite(draw):
    """A value holding NaN or an infinity at some depth, among other values."""
    value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    for _ in range(draw(st.integers(0, 4))):
        siblings = [g for g, _ in draw(st.lists(JSON_VALUES, max_size=3))]
        if draw(st.booleans()):
            at = draw(st.integers(0, len(siblings)))
            value = draw(st.sampled_from(ARRAY_KINDS))(
                siblings[:at] + [value] + siblings[at:])
        else:
            keys = draw(st.lists(JSON_TEXT, min_size=len(siblings) + 1,
                                 max_size=len(siblings) + 1, unique=True))
            value = dict(zip(keys, siblings + [value]))
    return value


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(pair=JSON_VALUES)
    @example(pair=((True, 1, False, 0, 1.0), [True, 1, False, 0, 1.0]))
    @example(pair=((x for x in ()), []))
    def test_encoder_gives_the_text_of_dumps(self, pair):
        given_value, plain = pair
        out = io.StringIO()
        _dump(given_value, out)
        assert out.getvalue() == json.dumps(plain, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(pair=JSON_VALUES)
    def test_fallback_quoter_gives_the_text_of_dumps(self, pair):
        # Where CPython has no _json, _dump quotes through json.encoder, whose
        # quoter is then the pure-Python one.
        with mock.patch.dict(sys.modules, {"_json": None}), mock.patch.object(
                json.encoder, "encode_basestring_ascii",
                json.encoder.py_encode_basestring_ascii):
            self.test_encoder_gives_the_text_of_dumps.hypothesis.inner_test(self, pair)

    @settings(max_examples=150, deadline=None)
    @given(value=with_non_finite())
    def test_encoder_refuses_non_finite_at_any_depth(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _dump(value, io.StringIO())

    @pytest.mark.parametrize("args, name", [
        (["eval-ce", "scores_small.jsonl", "--tau", "0.02"], "eval_ce_report.json"),
        (["fit", "obs_bert_msmarco.csv", "--law", "dim",
          "--model", "BERT-L8-H512-A8"], "fit_report.json"),
        (["fit", "obs_ettin_trecdl.csv", "--law", "joint"], "fit_report.json"),
        (["plan", "fit_report_bert_trecdl.json", "--budget", "1e9", "3.162e10",
          "--tokens", "32", "--corpus", "100000", "--regime", "ann",
          "--curve", "64", "1024"], "plan_report.json"),
    ], ids=["eval-ce", "fit-dim", "fit-joint", "plan"])
    def test_streamed_bytes_equal_dumps(self, data_dir, tmp_path, capsys,
                                        args, name):
        args = [args[0], str(data_dir / args[1]), *args[2:]]
        code, _, err = run(args + ["--output-dir", str(tmp_path)], capsys)
        assert (code, err) == (0, "")
        text = (tmp_path / name).read_bytes().decode("utf-8")
        expected = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert text == expected

    @pytest.mark.parametrize("last", [math.nan, math.inf, -math.inf,
                                      {"spread": [0.5, {"upper": math.nan}]}],
                             ids=["nan", "inf", "-inf", "nested-nan"])
    def test_late_non_finite_value_leaves_nothing(self, tmp_path, last):
        report = per_query_report(8000, last)
        new_dir = tmp_path / "new" / "dir"
        with pytest.raises(ValueError, match="JSON compliant"):
            _write_files(str(new_dir), {"eval_ce_report.json": report}, lambda: None)
        assert list(tmp_path.iterdir()) == []

        earlier = {"eval_ce_report.json": "earlier report\n",
                   "notes.txt": "kept\n"}
        for name, text in earlier.items():
            (tmp_path / name).write_text(text)
        with pytest.raises(ValueError, match="JSON compliant"):
            _write_files(str(tmp_path), {"eval_ce_report.json": report,
                                         "curve.dat": "1 2\n"}, lambda: None)
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == earlier

    @pytest.mark.parametrize("command", ["eval-ce", "fit", "plan"])
    def test_non_finite_report_exits_2(self, data_dir, tmp_path, capsys,
                                       monkeypatch, command):
        monkeypatch.setattr("embedscale.cli._manifest", lambda *a: dict(
            _manifest(*a), options={"tau": math.inf}))
        source = {"eval-ce": ["scores_small.jsonl"],
                  "fit": ["obs_bert_trecdl.csv", "--law", "joint"],
                  "plan": ["fit_report_bert_trecdl.json", "--budget", "1e9",
                           "--tokens", "32", "--corpus", "1000", "--curve", "64"]}
        argv = [command, str(data_dir / source[command][0]), *source[command][1:]]
        code, out, err = run(argv + ["--output-dir", str(tmp_path / "out")], capsys)
        assert (code, out) == (2, "")
        assert "not JSON compliant" in err
        assert list(tmp_path.iterdir()) == []

    def test_write_holds_no_report_text(self, tmp_path):
        import tracemalloc
        report = per_query_report(8000, 0.25)
        size = len(json.dumps(report, indent=2, sort_keys=True)) + 1
        assert size > 500_000
        tracemalloc.start()
        try:
            _write_files(str(tmp_path), {"eval_ce_report.json": report}, lambda: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "eval_ce_report.json").stat().st_size == size
        # Encoding the whole text first peaked at about 7 times its length.
        assert peak < size / 4


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "embedscale", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"embedscale {__version__}"


# Runs each argv of the JSON list in argv[1] as `python -m embedscale` runs
# it, through runpy, and prints each run's exit code and whether the run
# left objects frozen, as JSON.
ENTRY_RUNNER = """
import contextlib, gc, io, json, runpy, sys
runs = []
for argv in json.loads(sys.argv[1]):
    gc.unfreeze()
    sys.argv = ["embedscale", *argv]
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("embedscale", run_name="__main__")
            code = None
        except SystemExit as exc:
            code = exc.code
    runs.append([code, gc.get_freeze_count() > 0])
print(json.dumps(runs))
"""


def full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return open("/dev/full", "w")


class TestExitPath:
    def test_every_exit_freezes_the_collector(self, data_dir, tmp_path):
        fit = ["fit", str(data_dir / "obs_bert_msmarco.csv"), "--law", "joint"]
        argvs = [fit + ["--output-dir", str(tmp_path)],
                 ["fit", str(tmp_path / "missing.csv"), "--law", "joint"],
                 fit + ["--no-such-flag"],
                 ["--version"]]
        proc = subprocess.run([sys.executable, "-c", ENTRY_RUNNER, json.dumps(argvs)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == [[0, True], [2, True], [1, True], [0, True]]
        assert (tmp_path / "fit_report.json").exists()

    def test_in_process_main_leaves_the_collector_as_it_was(self, data_dir,
                                                            tmp_path, capsys):
        before = gc.get_freeze_count()
        code, _, err = run(["fit", str(data_dir / "obs_bert_msmarco.csv"), "--law",
                            "dim", "--model", "BERT-L8-H512-A8",
                            "--output-dir", str(tmp_path)], capsys)
        assert (code, err) == (0, "")
        with pytest.raises(SystemExit):
            main(["--version"])
        assert gc.get_freeze_count() == before

    def test_the_installed_script_is_the_entry_point(self):
        tomllib = pytest.importorskip("tomllib")     # Python 3.11+
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"embedscale": "embedscale.__main__:run"}

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("full, argv, code", [
        ("stdout", ["fit", "DATA/obs_bert_msmarco.csv", "--law", "joint",
                    "--output-dir", "TMP/out"], 2),
        ("stdout", ["sweep-dims", "--hidden", "512", "--multipliers", "1", "2"], 2),
        ("stderr", ["fit", "TMP/missing.csv", "--law", "joint"], 2),
        ("stderr", ["fit", "DATA/obs_bert_msmarco.csv", "--no-such-flag"], 1),
        ("stderr", ["predict", "DATA/fit_report_bert_trecdl.json", "--dim", "0"], 1),
        ("stderr", ["eval-ce", "TMP/tiny.jsonl", "--tau", "1e-310",
                    "--output-dir", "TMP/out"], 3),
        ("stdout", ["--version"], 2),
        ("stdout", ["--help"], 2),
        ("stdout", ["fit", "--help"], 2),
    ], ids=["fit", "sweep-dims", "missing-input", "unknown-flag", "usage", "numeric",
            "version", "help", "command-help"])
    def test_a_full_stream_keeps_the_exit_code(self, data_dir, tmp_path, buffered,
                                               full, argv, code):
        # stdout's text that cannot be written, help and the version
        # included, is a failed run (exit 2) with one message and no file; a
        # message that stderr cannot take is dropped, and the run keeps its
        # code. Neither fails again at the interpreter's exit.
        write_jsonl(tmp_path / "tiny.jsonl", [
            {"query_id": "q", "positives": [0.5], "negatives": [0.1]}])
        argv = [a.replace("DATA", str(data_dir)).replace("TMP", str(tmp_path))
                for a in argv]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        with full_device() as device:
            streams[full] = device
            proc = subprocess.run([sys.executable, "-m", "embedscale", *argv],
                                  env=env, text=True, **streams)
        assert proc.returncode == code
        assert not (tmp_path / "out").exists()
        if full == "stdout":
            assert proc.stderr.startswith("embedscale: ")
            assert proc.stderr.count("\n") == 1
        else:
            assert proc.stdout == ""
