import hashlib
import json
import math
import subprocess
import sys

import pytest

from embedscale import (EvalConfig, __version__, contrastive_entropy_dataset,
                        fit_from_report, parse_score_records, predict_dim,
                        predict_joint)
from embedscale.cli import _write_json, main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


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
        records = parse_score_records(fixture.read_text())
        expected = contrastive_entropy_dataset(records, EvalConfig())
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
        curve = (tmp_path / "fit_curve.dat").read_text().splitlines()
        assert curve[0] == "# embedscale fitted-curve samples"
        assert curve[1] == "# manifest: fit_report.json"
        samples = [ln for ln in curve if ln and not ln.startswith("#")]
        assert len(samples) == 100
        # Samples must lie on the reported law exactly.
        fit = fit_from_report(report)
        d, value = (float(tok) for tok in samples[0].split())
        assert value == predict_dim(fit, d)

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
        assert "fit_dim_law" in err
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
        assert float(out) == predict_joint(fit, 512, 109482240)

    def test_joint_needs_params(self, data_dir, capsys):
        code, _, err = run(["predict",
                            str(data_dir / "fit_report_bert_trecdl.json"),
                            "--dim", "512"], capsys)
        assert code == 1
        assert "--params" in err

    def test_dim_lower_bound(self, data_dir, capsys):
        code, _, err = run(["predict",
                            str(data_dir / "fit_report_bert_trecdl.json"),
                            "--dim", "0", "--params", "1e8"], capsys)
        assert code == 1
        assert ">= 1" in err


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
        report["parameters"].update(a_coeff=1e308, alpha=300.0)
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


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, data_dir, tmp_path,
                                               capsys):
        base = ["fit", str(data_dir / "obs_ettin_msmarco.csv"),
                "--law", "joint", "--seed", "0"]
        run(base + ["--output-dir", str(tmp_path / "a")], capsys)
        run(base + ["--output-dir", str(tmp_path / "b")], capsys)
        for name in ("fit_report.json", "fit_curve.dat"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_non_finite_value_never_written(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            _write_json(str(path), {"entropy": float("nan")})
        assert list(tmp_path.iterdir()) == []

    def test_no_temp_droppings(self, data_dir, tmp_path, capsys):
        run(["eval-ce", str(data_dir / "scores_small.jsonl"),
             "--output-dir", str(tmp_path)], capsys)
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.startswith(".tmp-")]
        assert leftovers == []


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "embedscale", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"embedscale {__version__}"
