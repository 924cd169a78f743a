"""Embedding post-processing: projection, normalization, scoring.

Encoders live upstream; this module only does the math that turns token
hidden states into final embeddings and scores. Matrices travel as files
(see load_matrix) or as in-memory EmbeddingMatrix values. load_matrix
reads through core._read_in_parts, as eval-ce's scorer does, and
save_matrix formats through core._in_parts: each part but the first runs
in a forked child, and the matrix and the bytes are the same for any
number of CPUs.
"""

from __future__ import annotations

import json
import os
from array import array
from shutil import copyfileobj
from typing import Optional

import numpy as np

from .core import (DataError, NumericError, _append, _in_parts,
                   _read_in_parts, read_lines, record)

ZERO_NORM_EPS = 1e-12


@record
class EmbeddingMatrix:
    """Row-major real matrix of token states or final embeddings.

    data is a 2-d array, one row per vector; rows and dim are its shape.
    == and hash go by identity, since arrays have no single truth value.
    """

    data: np.ndarray
    ids: Optional[tuple[str, ...]] = None
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2:
            raise DataError(f"expected a 2-d array of rows, got ndim={arr.ndim}")
        if arr.shape[1] < 1:
            raise DataError(f"dim must be >= 1, got {arr.shape[1]}")
        if not np.all(np.isfinite(arr)):
            raise DataError("matrix entries must be finite")
        object.__setattr__(self, "data", arr)
        if self.ids is not None:
            if len(self.ids) != self.rows:
                raise DataError(f"{len(self.ids)} ids for {self.rows} rows")
            for rid in self.ids:
                if not isinstance(rid, str):
                    raise DataError(f"ids must be str, got {rid!r}")
            object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@record
class Projection:
    """Affine map h' = W h + b taking hidden size d down (or up) to size m.

    == and hash go by identity, since arrays have no single truth value.
    """

    weight: np.ndarray
    bias: np.ndarray
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        if w.ndim != 2:
            raise DataError(f"weight must be 2-d, got ndim={w.ndim}")
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise DataError(
                f"bias length {b.shape} inconsistent with weight shape {w.shape}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise DataError("projection entries must be finite")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


def project(tokens: EmbeddingMatrix, p: Projection) -> EmbeddingMatrix:
    """Apply h'_i = W h_i + b to every row.

    Raises:
        DataError: token dim does not match the projection's input dim.
    """
    if tokens.dim != p.in_dim:
        raise DataError(
            f"token dim {tokens.dim} does not match projection input dim {p.in_dim}"
        )
    out = tokens.data @ p.weight.T
    out += p.bias
    return EmbeddingMatrix(out, tokens.ids)


def l2_normalize(v) -> np.ndarray:
    """Scale v, a vector or each row of a matrix, to unit Euclidean norm.

    Raises:
        NumericError: a norm <= 1e-12, a degenerate embedding.
    """
    arr = np.asarray(v, dtype=float)
    norms = np.linalg.norm(arr, axis=-1, keepdims=True)
    small = ~(norms > ZERO_NORM_EPS)
    if small.any():
        raise NumericError(
            f"cannot normalize near-zero vector (norm {float(norms[small][0])})")
    return arr / norms


def score_pairs(queries: EmbeddingMatrix, docs: EmbeddingMatrix,
                normalize: bool = False) -> np.ndarray:
    """All-pairs inner products S[i][j] = q_i . d_j.

    With normalize=True each row is L2-normalized first, so scores are
    cosines. Temperature is not applied here; it belongs to the metrics
    layer.

    Raises:
        DataError: dimension mismatch.
        NumericError: a near-zero row under normalize=True.
    """
    if queries.dim != docs.dim:
        raise DataError(
            f"query dim {queries.dim} does not match doc dim {docs.dim}"
        )
    q = queries.data
    d = docs.data
    if normalize:
        q, d = l2_normalize(q), l2_normalize(d)
    return q @ d.T


def _rows(path: str, lines) -> list:
    """[ids, flat doubles, [dim] ([] without rows)] of the rows on the
    (line number, line) pairs of lines of a matrix file; raises DataError
    as load_matrix does, at the first bad line."""
    ids = []
    values = array("d")     # every row's values, one flat buffer of doubles
    dim = None
    for lineno, line in lines:
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) < 2:
            raise DataError(f"{path}:{lineno}: expected `id v1 ... vd`")
        try:
            row = list(map(float, parts[1:]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if dim is None:
            dim = len(row)
        elif len(row) != dim:
            raise DataError(
                f"{path}:{lineno}: row has {len(row)} values, expected {dim}"
            )
        ids.append(parts[0])
        values.fromlist(row)
    return [ids, values, [] if dim is None else [dim]]


def _merge(first: list, pipe):
    """Append the rows a child sent through pipe to the first part's _rows
    by core._append, and return first; or None where the child met a fault
    or its rows differ in width from the rows before, so that the file is
    read again.
    """
    if _append(first, pipe) is None or len(set(first[2])) > 1:
        return None
    return first


def load_matrix(path: str) -> EmbeddingMatrix:
    """Read a matrix file: one `id v1 v2 ... vd` line per row.

    Blank lines and `#` comments are skipped. When `<path>.json` exists it
    must contain {"rows": n, "dim": d}, JSON integers matching the parsed
    content.

    The file is read on every CPU this process may use, through
    core._read_in_parts, each part by _rows; _merge appends each child's
    doubles to part 0's flat buffer as they arrive. A later part whose
    rows differ in width from those before counts as a fault, so one
    reader raises the first fault in file order with its line number.

    Raises:
        DataError: a file that is not UTF-8, malformed line (with line
            number), inconsistent row widths, empty file, or a sidecar
            that is not a JSON object or does not match; or a child that
            ended before sending its rows.
    """
    ids, values, dims = _read_in_parts(path, "reading",
                                       lambda lines: _rows(path, lines), _merge)[0]
    if not dims:
        raise DataError(f"{path}: no matrix rows")
    matrix = EmbeddingMatrix(np.frombuffer(values).reshape(len(ids), dims[0]),
                             tuple(ids))

    sidecar = path + ".json"
    if os.path.exists(sidecar):
        text = "".join(read_lines(sidecar))
        try:
            meta = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{sidecar}: invalid JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise DataError(f"{sidecar}: expected a JSON object, "
                            f"got {type(meta).__name__}")
        declared = (meta.get("rows"), meta.get("dim"))
        # Types are compared too, since true == 1 and 2.0 == 2.
        if (tuple(map(type, declared)) != (int, int)
                or declared != (matrix.rows, matrix.dim)):
            raise DataError(
                f"{sidecar}: declares rows={meta.get('rows')} dim={meta.get('dim')}, "
                f"file has rows={matrix.rows} dim={matrix.dim}"
            )
    return matrix


def _lines(ids, data: np.ndarray, part: int, parts: int):
    """The `id v1 ... vd` lines of the k-th P-th of the rows."""
    rows = len(ids)
    for i in range(part * rows // parts, (part + 1) * rows // parts):
        # tolist() converts the row in one call, with no numpy scalars.
        yield ids[i] + " " + " ".join(map(repr, data[i].tolist())) + "\n"


def save_matrix(matrix: EmbeddingMatrix, path: str):
    """Write the line-oriented matrix format, and its `<path>.json` sidecar.

    Each row is one `id v1 ... vd` line of its doubles' reprs, which
    load_matrix reads back exactly. Rows without ids are named 0, 1, ....
    An id must be one token as str.split sees it (nonempty, no whitespace
    or line break), must not start with `#`, and must encode as UTF-8.

    The lines are formatted on every CPU this process may use, through
    core._in_parts: with P parts, part k holds the k-th P-th of the rows.
    This process writes part 0 to the file one line at a time while a
    forked child formats each other part in its own memory; then each
    child's text is copied into the file in part order, in chunks. So the
    bytes are the same for every P, and no part's whole text is held here.

    Raises:
        DataError: an id that breaks that rule, named by its row index,
            before any file is opened, so earlier files there stay as they
            were; or the first child, in part order, that ended before
            sending its rows, once the parts before it were written. The
            sidecar is written first, so a save cut short, as by an OSError,
            leaves a file that load_matrix refuses.
    """
    ids = matrix.ids or [str(i) for i in range(matrix.rows)]
    for index, rid in enumerate(ids):
        try:
            rid.encode("utf-8")
            readable = rid.split() == [rid] and not rid.startswith("#")
        except UnicodeEncodeError:
            readable = False
        if not readable:
            raise DataError(f"row {index}: id {rid!r} is not one UTF-8 token "
                            f"without a leading '#'")
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump({"rows": matrix.rows, "dim": matrix.dim}, fh)
        fh.write("\n")
    data = matrix.data
    with open(path, "wb") as fh:
        _in_parts(path, "formatting",
                  lambda parts: fh.writelines(
                      line.encode() for line in _lines(ids, data, 0, parts)),
                  lambda part, parts: "".join(_lines(ids, data, part, parts)).encode(),
                  lambda _, pipe: copyfileobj(pipe, fh))
