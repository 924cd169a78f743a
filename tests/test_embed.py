import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import force_parts, no_child_left
from embedscale import (DataError, EmbeddingMatrix, NumericError, Observation,
                        Projection, l2_normalize, load_matrix, project,
                        save_matrix, score_pairs)


def naive_project(data, weight, bias):
    """Triple-loop h' = W h + b, no vectorization."""
    n, d = len(data), len(data[0])
    m = len(weight)
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = bias[j]
            for k in range(d):
                acc += weight[j][k] * data[i][k]
            out[i][j] = acc
    return out


def naive_scores(queries, docs):
    out = [[0.0] * len(docs) for _ in queries]
    for i, q in enumerate(queries):
        for j, d in enumerate(docs):
            out[i][j] = sum(a * b for a, b in zip(q, d))
    return out


class TestProject:
    def test_identity(self):
        tokens = EmbeddingMatrix([[1.0, 2.0], [3.0, 4.0]])
        p = Projection(np.eye(2), np.zeros(2))
        assert np.array_equal(project(tokens, p).data, tokens.data)

    def test_zero_weight_gives_bias(self):
        tokens = EmbeddingMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        p = Projection(np.zeros((2, 3)), np.array([7.0, -1.0]))
        out = project(tokens, p)
        assert np.array_equal(out.data, [[7.0, -1.0], [7.0, -1.0]])

    def test_random_matches_triple_loop(self):
        rng = np.random.default_rng(42)
        data = rng.normal(size=(3, 4))
        weight = rng.normal(size=(2, 4))
        bias = rng.normal(size=2)
        out = project(EmbeddingMatrix(data),
                      Projection(weight, bias))
        np.testing.assert_allclose(
            out.data, naive_project(data.tolist(), weight.tolist(),
                                    bias.tolist()),
            rtol=1e-12)

    @pytest.mark.parametrize("rows, d, m", [(0, 4, 3), (1, 1, 1), (7, 5, 3),
                                            (40, 384, 64)])
    def test_same_bits_as_product_plus_bias(self, rows, d, m):
        rng = np.random.default_rng(rows)
        tokens = EmbeddingMatrix(rng.normal(size=(rows, d)))
        p = Projection(rng.normal(size=(m, d)), rng.normal(size=m))
        before = [a.copy() for a in (tokens.data, p.weight, p.bias)]
        out = project(tokens, p)
        assert out.data.tobytes() == (before[0] @ before[1].T + before[2]).tobytes()
        for array, copy in zip((tokens.data, p.weight, p.bias), before):
            assert array.tobytes() == copy.tobytes()

    def test_shape_mismatch(self):
        tokens = EmbeddingMatrix([[1.0, 2.0]])
        p = Projection(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(DataError, match="dim"):
            project(tokens, p)

    def test_ids_carried_through(self):
        tokens = EmbeddingMatrix([[1.0, 2.0]], ids=["t0"])
        out = project(tokens, Projection(np.eye(2), np.zeros(2)))
        assert out.ids == ("t0",)


class TestNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8],
                                   rtol=1e-15)

    def test_idempotent_on_unit_vector(self):
        v = l2_normalize([1.0, 2.0, -0.5])
        np.testing.assert_allclose(l2_normalize(v), v, atol=1e-15)

    def test_matches_explicit_norm(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=12)
        norm = sum(x * x for x in v) ** 0.5
        np.testing.assert_allclose(l2_normalize(v), v / norm, rtol=1e-12)
        assert np.linalg.norm(l2_normalize(v)) == pytest.approx(1.0, abs=1e-12)

    def test_near_zero_rejected(self):
        with pytest.raises(NumericError, match="near-zero"):
            l2_normalize([0.0, 0.0])
        with pytest.raises(NumericError):
            l2_normalize([1e-13, 0.0])

    def test_matrix_rows_match_row_by_row(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(30, 9)) * rng.uniform(1e-6, 1e6, size=(30, 1))
        np.testing.assert_allclose(l2_normalize(m),
                                   np.vstack([l2_normalize(row) for row in m]),
                                   rtol=0, atol=1e-15)

    def test_near_zero_row_rejected(self):
        m = [[3.0, 4.0], [1e-13, 0.0], [0.0, 0.0]]
        with pytest.raises(NumericError, match=r"near-zero vector \(norm 1e-13\)"):
            l2_normalize(m)


class TestScorePairs:
    def test_orthonormal_zero(self):
        q = EmbeddingMatrix([[1.0, 0.0]])
        d = EmbeddingMatrix([[0.0, 1.0]])
        assert score_pairs(q, d)[0, 0] == 0.0

    def test_identical_unit_vectors_one(self):
        q = EmbeddingMatrix([[0.6, 0.8]])
        assert score_pairs(q, q)[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(10)
        qdata = rng.normal(size=(2, 3))
        ddata = rng.normal(size=(2, 3))
        scores = score_pairs(EmbeddingMatrix(qdata),
                             EmbeddingMatrix(ddata))
        np.testing.assert_allclose(scores,
                                   naive_scores(qdata.tolist(), ddata.tolist()),
                                   rtol=1e-12)

    def test_dim_mismatch(self):
        q = EmbeddingMatrix([[1.0, 0.0]])
        d = EmbeddingMatrix([[1.0, 0.0, 0.0]])
        with pytest.raises(DataError, match="dim"):
            score_pairs(q, d)

    def test_normalized_scores_are_cosines(self):
        rng = np.random.default_rng(11)
        q = EmbeddingMatrix(rng.normal(size=(5, 8)))
        d = EmbeddingMatrix(rng.normal(size=(7, 8)))
        scores = score_pairs(q, d, normalize=True)
        assert np.all(scores <= 1.0 + 1e-12)
        assert np.all(scores >= -1.0 - 1e-12)

    def test_normalized_matches_row_by_row(self):
        # The rows are normalized in one step; each must match l2_normalize.
        rng = np.random.default_rng(12)
        qdata = rng.normal(size=(40, 16)) * rng.uniform(1e-6, 1e6, size=(40, 1))
        ddata = rng.normal(size=(60, 16))
        scores = score_pairs(EmbeddingMatrix(qdata),
                             EmbeddingMatrix(ddata), normalize=True)
        expected = (np.vstack([l2_normalize(row) for row in qdata])
                    @ np.vstack([l2_normalize(row) for row in ddata]).T)
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("side", ["queries", "docs"])
    def test_one_zero_row_among_many_rejected(self, side):
        rng = np.random.default_rng(13)
        rows = rng.normal(size=(30, 8))
        zeroed = rows.copy()
        zeroed[17] = 1e-13
        good = EmbeddingMatrix(rows)
        bad = EmbeddingMatrix(zeroed)
        q, d = (bad, good) if side == "queries" else (good, bad)
        with pytest.raises(NumericError, match="near-zero"):
            score_pairs(q, d, normalize=True)
        assert score_pairs(q, d).shape == (30, 30)

    def test_normalized_empty_side(self):
        q = EmbeddingMatrix(np.zeros((0, 3)))
        d = EmbeddingMatrix([[1.0, 2.0, 2.0]])
        assert score_pairs(q, d, normalize=True).shape == (0, 1)


class TestLinearity:
    def test_project_commutes_with_mean_pool(self):
        rng = np.random.default_rng(12)
        tokens = EmbeddingMatrix(rng.normal(size=(6, 4)))
        p = Projection(rng.normal(size=(3, 4)), rng.normal(size=3))
        pooled_then_projected = (p.weight @ tokens.data.mean(axis=0)) + p.bias
        projected_then_pooled = project(tokens, p).data.mean(axis=0)
        np.testing.assert_allclose(projected_then_pooled,
                                   pooled_then_projected, atol=1e-10)

    def test_row_scaling_invariance_after_normalize(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(4, 6))
        base = l2_normalize(data.mean(axis=0))
        for c in (0.01, 3.0, 1e6):
            scaled = l2_normalize((c * data).mean(axis=0))
            np.testing.assert_allclose(scaled, base, atol=1e-10)


class TestMatrixValidation:
    @pytest.mark.parametrize("data, message", [
        (np.zeros(5), "2-d"), (np.zeros((1, 2, 3)), "2-d"), ([], "2-d"),
        (np.zeros((2, 0)), "dim must be >= 1")], ids=["1-d", "3-d", "empty-list", "no-columns"])
    def test_bad_shape(self, data, message):
        with pytest.raises(DataError, match=message):
            EmbeddingMatrix(data)

    def test_non_finite(self):
        with pytest.raises(DataError, match="finite"):
            EmbeddingMatrix([[1.0, float("nan")]])

    def test_id_count(self):
        with pytest.raises(DataError, match="ids"):
            EmbeddingMatrix([[1.0]], ids=["a", "b"])

    def test_ids_must_be_str(self, tmp_path):
        # A non-str id fails when the matrix is built, so no file is written.
        path = str(tmp_path / "m.txt")
        with pytest.raises(DataError, match="ids must be str, got 7"):
            save_matrix(EmbeddingMatrix(np.ones((1, 2)), ids=[7]), path)
        with pytest.raises(DataError, match="got None"):
            EmbeddingMatrix(np.ones((2, 2)), ids=["a", None])
        assert list(tmp_path.iterdir()) == []

    def test_projection_shape(self):
        with pytest.raises(DataError, match="bias"):
            Projection(np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(DataError, match="weight must be 2-d, got ndim=1"):
            Projection(np.zeros(3), np.zeros(3))
        with pytest.raises(DataError, match="projection entries must be finite"):
            Projection(np.eye(2), np.array([0.0, np.inf]))

    def test_array_records_compare_by_identity(self):
        # == and hash never raise on the array fields; scalar records keep
        # comparing by value.
        m = EmbeddingMatrix([[1.0, 2.0]])
        p = Projection(np.eye(2), np.zeros(2))
        assert m == m and p == p
        assert not m == EmbeddingMatrix([[1.0, 2.0]])
        assert p != Projection(np.eye(2), np.zeros(2))
        assert len({m, m, p, p}) == 2
        row = Observation("m", 1e6, 32, "ms", 0.5)
        assert row == Observation("m", 1e6, 32, "ms", 0.5)


# Each value's shortest round-trip repr, as the saved text must spell it.
EDGE_VALUES = [[-0.0, 5e-324, 1e-05, 0.1],
               [2.0, 1e16, 123456789.0, 1.7976931348623157e+308]]
EDGE_TEXT = ("0 -0.0 5e-324 1e-05 0.1\n"
             "1 2.0 1e+16 123456789.0 1.7976931348623157e+308\n")
# The same values as float32 (the smallest subnormal and the largest finite
# float32 in place of the doubles' extremes), widened to doubles exactly.
EDGE_FLOAT32_VALUES = [[-0.0, 1e-45, 1e-05, 0.1],
                       [2.0, 1e16, 123456789.0, 3.4028234663852886e+38]]
EDGE_FLOAT32_TEXT = (
    "0 -0.0 1.401298464324817e-45 9.999999747378752e-06 0.10000000149011612\n"
    "1 2.0 1.0000000272564224e+16 123456792.0 3.4028234663852886e+38\n")

FINITE_MATRICES = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False))


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        path = str(tmp_path / "vecs.txt")
        # Plain ids, then legal but unusual ones.
        for ids in (["a", "b", "c"], ["q-1", "é", "a#b"]):
            matrix = EmbeddingMatrix(rng.normal(size=(3, 4)), ids=ids)
            save_matrix(matrix, path)
            loaded = load_matrix(path)
            assert loaded.ids == matrix.ids
            np.testing.assert_array_equal(loaded.data, matrix.data)

    @pytest.mark.parametrize("data, text", [
        (np.array(EDGE_VALUES), EDGE_TEXT),
        (np.asfortranarray(EDGE_VALUES), EDGE_TEXT),
        (np.array(EDGE_FLOAT32_VALUES, dtype=np.float32), EDGE_FLOAT32_TEXT),
    ], ids=["c-order", "fortran-order", "float32"])
    def test_saved_bytes_are_pinned(self, tmp_path, data, text):
        path = tmp_path / "vecs.txt"
        save_matrix(EmbeddingMatrix(data), str(path))
        assert path.read_bytes() == text.encode("ascii")
        assert (tmp_path / "vecs.txt.json").read_bytes() == b'{"rows": 2, "dim": 4}\n'

    @settings(max_examples=150, deadline=None)
    @given(data=FINITE_MATRICES, named=st.booleans())
    def test_saved_lines_spell_each_double_exactly(self, data, named):
        ids = [f"r{i}" for i in range(data.shape[0])] if named else None
        matrix = EmbeddingMatrix(data, ids=ids)
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "vecs.txt")
            save_matrix(matrix, path)
            lines = Path(path).read_text(encoding="utf-8").split("\n")
            loaded = load_matrix(path)
        expected = [rid + " " + " ".join(repr(float(v)) for v in row)
                    for rid, row in zip(ids or map(str, range(len(data))), data)]
        assert lines == expected + [""]
        assert loaded.data.tobytes() == data.tobytes()
        assert loaded.ids == tuple(ids or map(str, range(len(data))))

    @pytest.mark.parametrize("ids, row", [
        (["#a", "b"], 0),
        (["a", ""], 1),
        (["a", "b c"], 1),
        (["a", "b\tc"], 1),
        (["a", "b\nc"], 1),
        (["a", "b\u2028c"], 1),
        (["\ud800", "b"], 0),
    ], ids=["comment", "empty", "space", "tab", "newline", "line-separator",
            "not-utf8"])
    def test_unreadable_id_rejected_before_writing(self, tmp_path, ids, row):
        matrix = EmbeddingMatrix(np.ones((2, 3)), ids=ids)
        path, sidecar = tmp_path / "vecs.txt", tmp_path / "vecs.txt.json"
        with pytest.raises(DataError, match=f"row {row}: id "):
            save_matrix(matrix, str(path))
        assert list(tmp_path.iterdir()) == []
        path.write_text("earlier 1.0\n")
        sidecar.write_text('{"rows": 1, "dim": 1}\n')
        with pytest.raises(DataError, match=f"row {row}: id "):
            save_matrix(matrix, str(path))
        assert path.read_text() == "earlier 1.0\n"
        assert sidecar.read_text() == '{"rows": 1, "dim": 1}\n'

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("# comment\n\nq1 1.0 2.0\nq2 3.0 4.0\n")
        loaded = load_matrix(str(path))
        assert loaded.rows == 2 and loaded.dim == 2

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\nb 3.0\n")
        with pytest.raises(DataError, match=":2"):
            load_matrix(str(path))

    def test_bad_value_line_number(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\nb x 4.0\n")
        with pytest.raises(DataError, match=":2"):
            load_matrix(str(path))
        path.write_text("a 1.0 2.0\n\nb\n")
        with pytest.raises(DataError, match=":3: expected `id v1 ... vd`"):
            load_matrix(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("# nothing\n")
        with pytest.raises(DataError, match="no matrix rows"):
            load_matrix(str(path))

    def test_sidecar_mismatch(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\n")
        (tmp_path / "vecs.txt.json").write_text(
            json.dumps({"rows": 5, "dim": 2}))
        with pytest.raises(DataError, match="declares"):
            load_matrix(str(path))

    @pytest.mark.parametrize("meta", [{"rows": True, "dim": 2.0},
                                      {"rows": True, "dim": 2},
                                      {"rows": 1, "dim": 2.0}],
                             ids=["bool-float", "bool", "float"])
    def test_sidecar_counts_must_be_json_integers(self, tmp_path, meta):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\n")
        (tmp_path / "vecs.txt.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match="vecs.txt.json: declares"):
            load_matrix(str(path))

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_memory_does_not_grow_with_the_text(self, tmp_path, monkeypatch, parts):
        import tracemalloc
        matrix = EmbeddingMatrix(
            np.random.default_rng(3).standard_normal((400, 384)))
        path = tmp_path / "vecs.txt"
        save_matrix(matrix, str(path))
        size = path.stat().st_size
        force_parts(monkeypatch, parts)
        tracemalloc.start()
        try:
            loaded = load_matrix(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.data.tobytes() == matrix.data.tobytes()
        # The doubles alone take about 0.4 of the text; reading every line
        # and a float object per value first held about 3.1 times it.
        # Measured: 0.47 at P = 1, 0.65 at P = 2 and 0.58 at P = 3, each
        # child's part appended as it arrives; collecting every child's part
        # before appending any read 0.77 at P = 3.
        assert peak < 0.75 * size

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_save_streams(self, tmp_path, monkeypatch, parts):
        import tracemalloc
        matrix = EmbeddingMatrix(
            np.random.default_rng(3).standard_normal((400, 384)))
        path = tmp_path / "vecs.txt"
        force_parts(monkeypatch, parts)
        tracemalloc.start()
        try:
            save_matrix(matrix, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured: 0.026 of the text at P = 1 and 0.056 at P = 2 and 3, the
        # copy's 64 KiB chunks; holding one child's text would pass 0.3.
        assert peak < 0.1 * path.stat().st_size

    def test_lines_end_as_in_a_text_file(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_bytes(b"# header\r\na 1.5 -2\r\n\rb 1e-3 4\rc 0.1 7_0\n")
        loaded = load_matrix(str(path))
        assert loaded.ids == ("a", "b", "c")
        assert loaded.data.tolist() == [[1.5, -2.0], [1e-3, 4.0], [0.1, 70.0]]
        path.write_bytes(b"a 1.5 -2\r\n\rb 1e-3\r")
        with pytest.raises(DataError, match="vecs.txt:3: row has 1 values"):
            load_matrix(str(path))

    def test_non_utf8_matrix_is_data_error(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_bytes(b"a 1.0 \xff\n")
        with pytest.raises(DataError, match="vecs.txt: not UTF-8"):
            load_matrix(str(path))

    def test_sidecar_match(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\n")
        (tmp_path / "vecs.txt.json").write_text(
            json.dumps({"rows": 1, "dim": 2}))
        assert load_matrix(str(path)).dim == 2

    @pytest.mark.parametrize("make", [os.mkfifo, os.mkdir], ids=["fifo", "directory"])
    def test_sidecar_must_be_a_regular_file(self, tmp_path, make):
        # Nothing writes to the FIFO: opening it would block.
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\n")
        make(tmp_path / "vecs.txt.json")
        script = ("import sys\n"
                  "from embedscale import DataError, load_matrix\n"
                  "try:\n"
                  "    load_matrix(sys.argv[1])\n"
                  "except DataError as exc:\n"
                  "    print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"{path}.json: not a regular file\n"

    @pytest.mark.parametrize("sidecar", [
        "[1, 2]", '"x"', "5", "null", "[" * 100_000, "{", b"\xff"],
        ids=["list", "string", "number", "null", "deep", "truncated", "utf8"])
    def test_malformed_sidecar(self, tmp_path, sidecar):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\n")
        meta = tmp_path / "vecs.txt.json"
        if isinstance(sidecar, bytes):
            meta.write_bytes(sidecar)
        else:
            meta.write_text(sidecar)
        with pytest.raises(DataError, match="vecs.txt.json"):
            load_matrix(str(path))


def read_reference(path):
    """(ids, doubles) of a matrix file as one plain reader parses it."""
    ids, rows = [], []
    with open(path, encoding="utf-8", newline=None) as fh:
        for line in fh:
            fields = line.split()
            if fields and not fields[0].startswith("#"):
                ids.append(fields[0])
                rows.append([float(v) for v in fields[1:]])
    return tuple(ids), np.array(rows, dtype=float).tobytes()


class TestMatrixFilesInParts:
    """load_matrix and save_matrix run part k of P in a forked child for
    k >= 1; every P gives the same bytes, the same matrix and the same
    first fault."""

    @pytest.mark.parametrize("rows", [0, 1, 2, 7, 50])
    def test_save_writes_the_same_bytes_for_every_part_count(
            self, tmp_path, monkeypatch, rows):
        rng = np.random.default_rng(rows)
        for ids in (None, [f"r-{i}é" for i in range(rows)]):
            matrix = EmbeddingMatrix(rng.standard_normal((rows, 5)) * 1e3, ids=ids)
            saved = []
            for parts in (1, 2, 3):
                force_parts(monkeypatch, parts)
                path = tmp_path / f"p{parts}.txt"
                save_matrix(matrix, str(path))
                saved.append((path.read_bytes(),
                              Path(f"{path}.json").read_bytes()))
            assert saved[1] == saved[0] and saved[2] == saved[0]
            expected = "".join(
                rid + " " + " ".join(repr(float(v)) for v in row) + "\n"
                for rid, row in zip(ids or map(str, range(rows)), matrix.data))
            assert saved[0][0] == expected.encode("utf-8")

    def test_load_gives_the_same_matrix_for_every_part_count(self, tmp_path,
                                                             monkeypatch):
        # Comments, blank lines, CRLF and lone \r ends, and a non-ASCII id,
        # between two comments whose lengths trade off, so that each part
        # boundary falls on every byte of them in turn.
        body = (b"a 1.5 -2\r\n\r\n# note\rb 1e-3 4\r\r"
                b"c\t0.1 7_0\n   \nd\xc3\xa9 5e-324 -0.0\r\ne 1 2\r")
        path = tmp_path / "vecs.txt"
        width = 2 * len(body) + 10
        for pad in range(width + 1):
            path.write_bytes(b"#" + b"x" * pad + b"\n" + body
                             + b"#" + b"y" * (width - pad) + b"\n")
            expected = read_reference(path)
            for parts in (1, 2, 3):
                force_parts(monkeypatch, parts)
                loaded = load_matrix(str(path))
                assert (loaded.ids, loaded.data.tobytes()) == expected, (pad, parts)
        assert expected[0] == ("a", "b", "c", "dé", "e")

    def test_load_of_a_large_file_for_every_part_count(self, tmp_path,
                                                       monkeypatch):
        # Each child's doubles fill more than a pipe holds.
        matrix = EmbeddingMatrix(np.random.default_rng(8).standard_normal((300, 256)),
                                 ids=[f"d{i}" for i in range(300)])
        path = tmp_path / "vecs.txt"
        save_matrix(matrix, str(path))
        for parts in (1, 2, 3):
            force_parts(monkeypatch, parts)
            loaded = load_matrix(str(path))
            assert loaded.ids == matrix.ids
            assert loaded.data.tobytes() == matrix.data.tobytes()

    @pytest.mark.parametrize("lines, message", [
        ([b"a 1 2", b"b x 2"] + [b"c 1 2"] * 20 + [b"d 1 y"] * 20,
         ":2: could not convert string to float: 'x'"),
        # The later parts' doubles fill more than a pipe holds.
        ([b"a 1 2", b"b x 2"] + [b"c 1 2"] * 9000,
         ":2: could not convert string to float: 'x'"),
        ([b"a 1 2"] * 20 + [b"b 1"] + [b"c 1 2"] * 20 + [b"d"],
         ":21: row has 1 values, expected 2"),
        # At P = 2 part 1 begins on line 21: each part is whole, but they
        # differ in width.
        ([b"a 1 2"] * 20 + [b"b 1 2 3"] * 15,
         ":21: row has 3 values, expected 2"),
        ([b"a 1 2"] * 30 + [b"b 1 \xff"] + [b"c 1"] * 10,
         "vecs.txt: not UTF-8 text: line 31"),
        ([b"a 1 2"] * 20 + [b"b"] + [b"c 1 2 \xff"] * 20,
         ":21: expected `id v1 ... vd`"),
        ([b"# only"] * 20 + [b""] * 20, "vecs.txt: no matrix rows"),
    ], ids=["bad-value-then-bad-value", "bad-value-then-rows", "ragged-then-short",
            "wider-in-a-later-part", "utf8-in-a-later-part", "no-values-then-utf8",
            "no-rows"])
    def test_first_fault_in_file_order_for_every_part_count(
            self, tmp_path, monkeypatch, lines, message):
        path = tmp_path / "vecs.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        errors = []
        for parts in (1, 2, 3):
            force_parts(monkeypatch, parts)
            with pytest.raises(DataError) as info:
                load_matrix(str(path))
            errors.append(str(info.value))
        assert message in errors[0]
        assert errors[1] == errors[0] and errors[2] == errors[0]

    # Every child dies, or only the child of part 2 of 3.
    @pytest.mark.parametrize("how, dying", [
        ("raise", (1, 2)), ("kill", (1, 2)), ("raise", (1,)), ("kill", (1,))],
        ids=["raise", "kill", "raise-part-2-of-3", "kill-part-2-of-3"])
    def test_a_child_that_dies_is_a_data_error(self, tmp_path, monkeypatch, how,
                                               dying):
        import signal

        import embedscale.core as core
        import embedscale.embed as embed
        matrix = EmbeddingMatrix(np.random.default_rng(2).standard_normal((30, 4)))
        path = tmp_path / "vecs.txt"
        save_matrix(matrix, str(path))
        expected = path.read_bytes()
        part_lines, lines = core._part_lines, embed._lines

        def die(part):
            if part in dying:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("boom")

        def dying_part_lines(path, part, parts, size):
            die(part)
            return part_lines(path, part, parts, size)

        def dying_lines(ids, data, part, parts):
            die(part)
            return lines(ids, data, part, parts)

        ended = (f"by signal {int(signal.SIGKILL)}" if how == "kill"
                 else "with exit code 1")
        monkeypatch.setattr(core, "_part_lines", dying_part_lines)
        force_parts(monkeypatch, 3)
        with pytest.raises(DataError, match=f"vecs.txt: the process reading part 2 "
                                            f"of 3 ended {ended} before sending"):
            load_matrix(str(path))
        assert no_child_left()

        monkeypatch.setattr(core, "_part_lines", part_lines)
        monkeypatch.setattr(embed, "_lines", dying_lines)
        out = tmp_path / "out.txt"
        with pytest.raises(DataError, match=f"out.txt: the process formatting part 2 "
                                            f"of 3 ended {ended} before sending"):
            save_matrix(matrix, str(out))
        # Part 0 was written and the save stopped at part 1's child, so the
        # file holds the first 10 rows, whatever part 2's child did; the
        # sidecar written before it declares every row, so it does not load.
        assert out.read_bytes() == b"".join(expected.splitlines(keepends=True)[:10])
        assert Path(f"{out}.json").read_text() == '{"rows": 30, "dim": 4}\n'
        with pytest.raises(DataError, match="out.txt.json: declares rows=30 dim=4, "
                                            "file has rows=10 dim=4"):
            load_matrix(str(out))

    def test_a_pipe_that_ends_early_reads_the_file_again(self, tmp_path,
                                                         monkeypatch):
        # A child that exits 0 after sending only part of its payload: the
        # part counts as a fault, and one reader reads the file again.
        import marshal
        from types import SimpleNamespace

        import embedscale.core as core
        import embedscale.embed as embed
        matrix = EmbeddingMatrix(np.random.default_rng(5).standard_normal((40, 3)))
        path = tmp_path / "vecs.txt"
        save_matrix(matrix, str(path))
        force_parts(monkeypatch, 2)
        part = core._part_lines(str(path), 1, 2, path.stat().st_size)
        full = len(marshal.dumps(embed._rows(str(path), part)))
        for cut in (0, 1, 5, 19, full // 2, full - 40, full - 1):
            monkeypatch.setattr(core, "marshal", SimpleNamespace(
                dumps=lambda rows: marshal.dumps(rows)[:cut], loads=marshal.loads))
            loaded = load_matrix(str(path))
            assert loaded.data.tobytes() == matrix.data.tobytes(), cut

    def test_a_process_with_threads_runs_alone(self, tmp_path, monkeypatch):
        import threading

        import embedscale.core as core
        import embedscale.embed as embed
        part_lines, lines = core._part_lines, embed._lines

        def alone_part_lines(path, part, parts, size):
            assert (part, parts) == (0, 1)
            return part_lines(path, part, parts, size)

        def alone_lines(ids, data, part, parts):
            assert (part, parts) == (0, 1)
            return lines(ids, data, part, parts)
        monkeypatch.setattr(core, "_part_lines", alone_part_lines)
        monkeypatch.setattr(embed, "_lines", alone_lines)
        force_parts(monkeypatch, 3)
        matrix = EmbeddingMatrix(np.random.default_rng(4).standard_normal((9, 3)))
        path = tmp_path / "vecs.txt"
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            save_matrix(matrix, str(path))
            loaded = load_matrix(str(path))
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive()
        assert loaded.data.tobytes() == matrix.data.tobytes()
