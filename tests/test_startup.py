"""Every command runs without numpy: eval-ce, fit, predict, plan, sweep-dims
and --version. Each imports only the modules it runs, and the package
imports nothing beyond the standard library and numpy."""

import ast
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import embedscale
from embedscale.cli import main

# Runs each argv of the JSON list in argv[1] through main with numpy made
# unimportable, and prints each exit code and stdout, and the public names
# that dir(embedscale) leaves out, as JSON.
BLOCKED_RUNNER = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import embedscale
from embedscale.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue()])
unlisted = sorted(set(embedscale.__all__) - set(dir(embedscale)))
print(json.dumps({"runs": results, "unlisted": unlisted}))
"""


def run_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue()]


def artifacts(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_numpy_free_commands_match_a_normal_run(data_dir, tmp_path):
    dim_dir = tmp_path / "dim"
    proc = subprocess.run(
        [sys.executable, "-m", "embedscale", "fit",
         str(data_dir / "obs_bert_msmarco.csv"), "--law", "dim",
         "--model", "BERT-L8-H512-A8", "--dataset", "msmarco",
         "--output-dir", str(dim_dir)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    joint = str(data_dir / "fit_report_bert_trecdl.json")

    def commands(out):
        return [
            ["fit", str(data_dir / "obs_bert_msmarco.csv"), "--law", "dim",
             "--model", "BERT-L8-H512-A8", "--dataset", "msmarco",
             "--output-dir", str(out / "fit-dim")],
            ["fit", str(data_dir / "obs_ettin_msmarco.csv"), "--law", "joint",
             "--output-dir", str(out / "fit-joint")],
            ["plan", joint, "--budget", "1e9", "3.162e10", "--tokens", "32",
             "--corpus", "100000", "--curve", "32", "256", "4096",
             "--output-dir", str(out / "exhaustive")],
            ["plan", joint, "--budget", "1e9", "--tokens", "32",
             "--corpus", "1000000000", "--regime", "ann", "--curve", "64", "768",
             "--output-dir", str(out / "ann")],
            ["predict", str(dim_dir / "fit_report.json"), "--dim", "768"],
            ["predict", joint, "--dim", "512", "--params", "109482240"],
            ["sweep-dims", "--hidden", "512", "--multipliers", "1/4", "1", "16"],
            ["eval-ce", str(data_dir / "scores_small.jsonl"), "--tau", "0.05",
             "--output-dir", str(out / "eval")],
            ["--version"],
        ]

    blocked = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUNNER,
         json.dumps(commands(tmp_path / "blocked"))],
        capture_output=True, text=True)
    assert blocked.returncode == 0 and blocked.stderr == "", blocked.stderr
    normal = [run_in_process(argv) for argv in commands(tmp_path / "normal")]
    assert json.loads(blocked.stdout) == {"runs": normal, "unlisted": []}
    assert all(code == 0 for code, _ in normal)
    for name, written in (("eval", "eval_ce_report.json"),
                          ("exhaustive", "plan_curve_01.dat"),
                          ("ann", "plan_curve_01.dat"),
                          ("fit-dim", "fit_curve.dat"),
                          ("fit-joint", "fit_curve.dat")):
        expected = artifacts(tmp_path / "normal" / name)
        assert written in expected
        assert artifacts(tmp_path / "blocked" / name) == expected


def test_every_public_name_resolves_and_is_listed():
    listed = dir(embedscale)
    for name in embedscale.__all__:
        assert getattr(embedscale, name) is not None
        assert name in listed


def test_the_package_imports_only_the_standard_library_and_numpy():
    # scipy, pytest and hypothesis are test dependencies: src/ must not
    # import them, not even inside a function.
    allowed = sys.stdlib_module_names | {"numpy"}
    outside = []
    for path in sorted(Path(embedscale.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []


# Calls that open a file, keyed by the name they are called by.
OPENERS = {"open", "fdopen", "read_text", "read_bytes", "loadtxt", "genfromtxt",
           "fromfile"}


def opens_for_reading(call):
    """Whether call may open a file for reading: an open of a path with no
    mode, or a mode that reads; os.open without O_WRONLY; any reader of a
    whole file. open(fd, ..., closefd=False) wraps a descriptor the caller
    already holds, so it opens no file."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name not in OPENERS:
        return False
    keywords = {kw.arg: kw.value for kw in call.keywords}
    closefd = keywords.get("closefd")
    if isinstance(closefd, ast.Constant) and closefd.value is False:
        return False
    if ast.unparse(func) == "os.open":
        flags = call.args[1] if len(call.args) > 1 else keywords.get("flags")
        return "O_WRONLY" not in ast.unparse(flags)
    if name in ("open", "fdopen"):
        mode = call.args[1] if len(call.args) > 1 else keywords.get("mode")
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return "r" in mode.value or "+" in mode.value
    return True


def package_calls():
    """(module, function, call) of every call in src/embedscale, by the
    innermost function it is written in (None at module level)."""
    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call):
                yield module, function, child
            yield from visit(child, module, function)

    for path in sorted(Path(embedscale.__file__).parent.rglob("*.py")):
        yield from visit(ast.parse(path.read_text(), str(path)), path.stem, None)


def test_files_are_read_only_through_read_lines_and_the_hash():
    # Every input is read as core.read_lines reads it (a regular file, UTF-8
    # checked line by line); the manifest's hash reads its bytes.
    allowed = {("core", "read_lines"), ("cli", "_sha256")}
    readers = [f"{module}.{function}:{call.lineno}: {ast.unparse(call)}"
               for module, function, call in package_calls()
               if opens_for_reading(call) and (module, function) not in allowed]
    assert readers == []


def test_only_main_prints_writes_files_and_makes_manifests():
    # Commands compute and cli.main publishes: no other function prints,
    # writes a command's files or makes its manifest.
    publishers = {"print", "_write_files", "_manifest"}
    calls = [f"{module}.{function}:{call.lineno}: {ast.unparse(call.func)}"
             for module, function, call in package_calls()
             if ast.unparse(call.func).rpartition(".")[2] in publishers
             and (module, function) != ("cli", "main")]
    assert calls == []


# Runs the argv in argv[1:] through main in a fresh interpreter and prints
# its exit code and the modules it left imported, as JSON. json itself is
# imported only after those modules are listed.
MODULES_RUNNER = """
import contextlib, io, sys
from embedscale.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
modules = sorted(sys.modules)
import json
print(json.dumps({"code": code, "modules": modules}))
"""

# Modules a command loads only when it needs them: dataclasses and inspect
# (importing them costs more than most commands' work; none needs them),
# numpy (only embed, which no command runs), json (every command that
# writes a report or reads a fit report), csv (fit), fractions (sweep-dims),
# and hashlib and _hashlib (OpenSSL), only to hash an input of 1 MiB or more.
ON_DEMAND = {"dataclasses", "inspect", "numpy", "json", "csv", "fractions",
             "hashlib", "_hashlib"}
EVERY_COMMAND = {"embedscale", "embedscale.cli", "embedscale.core", "embedscale.law"}

# Each command's own modules: those of ON_DEMAND and those beyond EVERY_COMMAND.
OWN_MODULES = {
    "--version": set(),
    "fit-dim": {"embedscale.fit", "json", "csv"},
    "fit-joint": {"embedscale.fit", "json", "csv"},
    "plan": {"embedscale.plan", "json"},
    "predict": {"json"},
    "sweep-dims": {"fractions"},
    "eval-ce": {"embedscale.metrics", "json"},
    "eval-ce-1mib": {"embedscale.metrics", "json", "hashlib", "_hashlib"},
}


@pytest.mark.parametrize("command", sorted(OWN_MODULES))
def test_each_command_imports_only_what_it_runs(data_dir, tmp_path, command):
    joint, out = str(data_dir / "fit_report_bert_trecdl.json"), str(tmp_path)
    argv = {
        "--version": ["--version"],
        "fit-dim": ["fit", str(data_dir / "obs_bert_msmarco.csv"), "--law", "dim",
                    "--model", "BERT-L8-H512-A8", "--dataset", "msmarco",
                    "--output-dir", out],
        "fit-joint": ["fit", str(data_dir / "obs_ettin_msmarco.csv"), "--law",
                      "joint", "--output-dir", out],
        "plan": ["plan", joint, "--budget", "1e9", "--tokens", "32", "--corpus",
                 "100000", "--curve", "32", "256", "--output-dir", out],
        "predict": ["predict", joint, "--dim", "512", "--params", "109482240"],
        "sweep-dims": ["sweep-dims", "--hidden", "512", "--multipliers", "1/4", "16"],
        "eval-ce": ["eval-ce", str(data_dir / "scores_small.jsonl"), "--tau", "0.05",
                    "--output-dir", out],
        "eval-ce-1mib": ["eval-ce", str(tmp_path / "scores_1mib.jsonl"),
                         "--output-dir", out],
    }[command]
    if command == "eval-ce-1mib":
        # Exactly 1 MiB, the smallest input hashed through hashlib.
        line = '{{"query_id": "q{:06d}", "positives": [1.0], "negatives": [0.5]}}\n'
        text = "".join(map(line.format, range((1 << 20) // len(line.format(0)))))
        (tmp_path / "scores_1mib.jsonl").write_text(
            text[:-1].ljust((1 << 20) - 1) + "\n")
    proc = subprocess.run([sys.executable, "-c", MODULES_RUNNER, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    modules, own = set(result["modules"]), OWN_MODULES[command]
    assert modules & ON_DEMAND == own & ON_DEMAND
    assert {m for m in modules if m.startswith("embedscale")} == (
        EVERY_COMMAND | {m for m in own if m.startswith("embedscale")})
