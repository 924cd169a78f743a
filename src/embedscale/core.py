"""Domain types and observation-table ingestion shared by the fitting and planning modules.

An observation is one measured point: a named model evaluated at one
embedding dimension on one dataset, with its contrastive entropy.
Parameter counts are stored in raw parameters; any unit scaling is the
fitter's business, not the table's. The module also holds what the
readers share: read_lines; _in_parts, which runs a task in parts on every
CPU through os.fork; and _read_in_parts, which eval-ce's scorer and
load_matrix read through: it splits the file and decides every fault,
and _append joins the columns each part sends.
"""

from __future__ import annotations

import io
import marshal
import os
import sys
from math import inf, isfinite, log10
from stat import S_ISREG
from sys import float_info

CSV_HEADER = ("model_name", "n_params", "embed_dim", "dataset", "entropy")


class DataError(ValueError):
    """Malformed, inconsistent, or out-of-contract input data."""


class NumericError(ArithmeticError):
    """A numeric routine produced no usable result."""


# The errors the CLI reports with a documented exit code: DataError is a
# ValueError, and NumericError an ArithmeticError.
_FAULTS = (NumericError, OSError, ValueError)


def read_lines(path: str):
    """Yield the lines of a UTF-8 text file one at a time, as open() splits them.

    A line ends at \\n, \\r\\n or \\r, and keeps its end, read as \\n.
    The path must name a regular file, so that its bytes can be read again
    (for the manifest's hash, by each part of eval-ce and load_matrix);
    os.stat checks this before the file is opened, so a FIFO never blocks.

    Raises:
        DataError: a path that is not a regular file (a pipe, a device, a
            directory), or a line that is not UTF-8, named with the path
            and its line number.
    """
    if not S_ISREG(os.stat(path).st_mode):
        raise DataError(f"{path}: not a regular file")
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            # Undecodable bytes arrive as lone surrogates, so an ASCII line
            # needs no check; any other line is decoded again, strictly.
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(f"{path}: not UTF-8 text: "
                                    f"line {lineno}: {exc}") from None
            yield line


def _part_lines(path: str, part: int, parts: int, size: int):
    """Yield (line number, line) for the lines of read_lines(path) that
    begin in the part-th P-th of size, counted in UTF-8 bytes of the text
    read_lines gives; the last part runs to the end. Every part reads the
    lines before its own, so line numbers count from the top of the file.
    """
    start = part * size // parts
    stop = (part + 1) * size // parts if part + 1 < parts else inf
    at = 0
    for lineno, line in enumerate(read_lines(path), start=1):
        begin, at = at, at + (len(line) if line.isascii() else len(line.encode()))
        if begin >= stop:
            break
        if begin >= start:
            yield lineno, line


def _append(first: list, pipe):
    """Append the columns a child sent through pipe, as marshal wrote
    them, to part 0's columns first, in place, and return first; or None
    where the child met a fault. A list takes the child's items, and an
    array the bytes marshal wrote for the child's array."""
    columns = marshal.loads(pipe.read())
    if columns is None:
        return None
    for column, more in zip(first, columns):
        if isinstance(column, list):
            column += more
        else:
            column.frombytes(more)
    return first


def _read_in_parts(path: str, doing: str, parse, receive) -> list:
    """parse(lines) of each part's _part_lines of a text file, in part
    order, parsed through _in_parts on every CPU this process may use.

    Part 0 covers the top of the file, so a fault its parse raises is the
    first in file order and is raised directly. A child sends its parse as
    marshal writes it, or None where the parse raised one of _FAULTS;
    receive(part 0's result, pipe) reads it (_append, for columns), None
    for a fault. If any part gave None, the whole file is parsed again here
    as one part: this one reader raises the first fault in file order.
    """
    size = os.stat(path).st_size

    def send(part, parts):
        try:
            return marshal.dumps(parse(_part_lines(path, part, parts, size)))
        except _FAULTS:
            return marshal.dumps(None)
    results = _in_parts(path, doing,
                        lambda parts: parse(_part_lines(path, 0, parts, size)),
                        send, receive)
    if None in results:
        return [parse(_part_lines(path, 0, 1, size))]
    return results


def _in_parts(path: str, doing: str, here, send, receive) -> list:
    """Run one task in P parts at once, on every CPU this process may use,
    and return each part's result in part order: save_matrix's formatting,
    and each read through _read_in_parts.

    P is the size of os.sched_getaffinity(0); it is 1 where os.fork or
    os.sched_getaffinity is missing, or other threads run. Part k >= 1 runs
    in a child of os.fork, which writes the bytes send(k, P) returns to an
    os.pipe and leaves by os._exit; any exception ends it with code 1. This
    process runs part 0 meanwhile, by here(P), then handles each child in
    part order: part k's result is receive(part 0's result, pipe), or None
    where the pipe ends early (receive raises EOFError); the rest of the
    pipe is read and dropped, and the child is reaped. The first child that
    failed stops the run, so no later part is received: a save it cuts
    short holds only the rows before that part. Every child is reaped
    before this returns or raises; the ones not yet reaped are killed.

    Raises:
        DataError: a child that ended by a signal or with an exit code
            other than 0, named with path and the part it was doing.
    """
    # A forked child holds only the calling thread, and any lock another
    # thread held stays taken in it: a process with threads runs alone.
    threading = sys.modules.get("threading")
    alone = (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
             or threading is not None and threading.active_count() > 1)
    parts = 1 if alone else len(os.sched_getaffinity(0))
    children = []       # (pid, read end) of the parts not yet reaped, in order
    try:
        for part in range(1, parts):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:        # the child: never returns
                code = 1
                try:
                    for fd in [read_end, *(fd for _, fd in children)]:
                        os.close(fd)    # so a write to a vanished parent fails
                    with open(write_end, "wb") as pipe:
                        pipe.write(send(part, parts))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            children.append((pid, read_end))
        results = [here(parts)]
        while children:
            pid, fd = children[0]
            with open(fd, "rb", closefd=False) as pipe:
                try:
                    results.append(receive(results[0], pipe))
                except EOFError:     # a child that ended early: its code says why
                    results.append(None)
                pipe.read()
            del children[0]
            os.close(fd)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                how = f"by signal {-code}" if code < 0 else f"with exit code {code}"
                raise DataError(f"{path}: the process {doing} part {len(results)} "
                                f"of {parts} ended {how} before sending its rows")
    finally:
        for pid, fd in children:
            from signal import SIGKILL
            os.close(fd)
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    return results


def record(cls):
    """Make cls a frozen value record over its annotated fields, in order.

    __init__ takes the fields by position or by keyword; a class attribute
    named for a field is its default. __post_init__, when defined, runs
    once the fields are set, and may reset one with object.__setattr__.
    Assigning or deleting an attribute raises AttributeError. ==, hash and
    repr go by the field values, except that an __eq__ the class body
    defines stays, with its __hash__; _fields names the fields. This stands
    in for the standard library's record decorator, whose import (with
    inspect) costs a command more than most of them spend on their work.
    """
    names = tuple(vars(cls).get("__annotations__", ()))
    defaults = tuple(vars(cls)[name] for name in names if name in vars(cls))
    if any(name not in vars(cls) for name in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with")
    # A generated __init__ per class: each field goes straight into the
    # instance dict, past the __setattr__ that blocks assignment.
    source = (f"def __init__(self, {', '.join(names)}):\n"
              "    _record_dict = self.__dict__\n"
              + "".join(f"    _record_dict[{name!r}] = {name}\n" for name in names)
              + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""))
    namespace = {}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls._fields = names
    cls.__setattr__ = cls.__delattr__ = _frozen
    if "__eq__" not in vars(cls):
        cls.__eq__, cls.__hash__ = _record_eq, _record_hash
    cls.__repr__ = _record_repr
    return cls


def _record_tuple(rec) -> tuple:
    return tuple(getattr(rec, name) for name in rec._fields)


def _frozen(rec, name, *value):
    raise AttributeError(f"{type(rec).__name__} is frozen: cannot set or delete {name!r}")


def _record_eq(rec, other):
    if other.__class__ is not rec.__class__:
        return NotImplemented
    return _record_tuple(rec) == _record_tuple(other)


def _record_hash(rec) -> int:
    return hash(_record_tuple(rec))


def _record_repr(rec) -> str:
    fields = ", ".join(f"{name}={getattr(rec, name)!r}" for name in rec._fields)
    return f"{type(rec).__qualname__}({fields})"


def _check_double(name: str, value) -> None:
    """Reject a count past the largest double, which no float can hold."""
    if value > float_info.max:
        raise DataError(f"{name} must not exceed the largest double "
                        f"{float_info.max!r}")


@record
class Observation:
    """One measured (model, embedding dimension, dataset) -> entropy point."""

    model_name: str
    n_params: float
    embed_dim: int
    dataset: str
    entropy: float

    def __post_init__(self):
        if not self.model_name:
            raise DataError("model_name must be nonempty")
        if not self.dataset:
            raise DataError("dataset must be nonempty")
        if not (isfinite(self.n_params) and self.n_params > 0):
            raise DataError(f"n_params must be positive and finite, got {self.n_params}")
        if self.embed_dim < 1:
            raise DataError(f"embed_dim must be >= 1, got {self.embed_dim}")
        _check_double("embed_dim", self.embed_dim)
        if not (isfinite(self.entropy) and self.entropy >= 0):
            raise DataError(f"entropy must be nonnegative and finite, got {self.entropy}")

    @property
    def key(self) -> tuple[str, int, str]:
        """Uniqueness key within a table."""
        return (self.model_name, self.embed_dim, self.dataset)


@record
class ObservationTable:
    """Ordered, validated collection of observations.

    Rows keep their input order. (model_name, embed_dim, dataset) must be
    unique; duplicates are rejected at construction rather than silently
    collapsed so that fixture files stay trustworthy.
    """

    rows: tuple[Observation, ...]

    def __post_init__(self):
        if not self.rows:
            raise DataError("empty table")
        seen = set()
        for row in self.rows:
            if row.key in seen:
                raise DataError(
                    f"duplicate observation key {row.key!r}"
                )
            seen.add(row.key)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @property
    def model_names(self) -> tuple[str, ...]:
        """Distinct model names in first-appearance order."""
        return tuple(dict.fromkeys(row.model_name for row in self.rows))

    @property
    def datasets(self) -> tuple[str, ...]:
        """Distinct dataset tags in first-appearance order."""
        return tuple(dict.fromkeys(row.dataset for row in self.rows))


def _csv_fields(lineno: int, line: str) -> list[str]:
    import csv      # here, not at the top: only fit parses CSV
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:    # e.g. a bare carriage return inside a line
        raise DataError(f"line {lineno}: {exc}") from None


def parse_observations(text) -> ObservationTable:
    """Parse an observation table from CSV text.

    Expects the exact header ``model_name,n_params,embed_dim,dataset,entropy``.
    Lines starting with ``#`` and blank lines are ignored. Values are parsed
    as 64-bit floats / integers with no rounding.

    Args:
        text: CSV content as a string, or its lines as any iterable
            (a text stream, read_lines).

    Returns:
        A validated ObservationTable with row order preserved.

    Raises:
        DataError: on a bad header, malformed rows (reported
            with their line number), duplicate keys, or an empty body.
    """
    if isinstance(text, str):
        text = io.StringIO(text)

    numbered = [
        (lineno, line)
        for lineno, line in enumerate(text, start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not numbered:
        raise DataError("empty table: no header row")

    header_line = numbered[0][1]
    header = _csv_fields(numbered[0][0], header_line)
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise DataError(
            f"line {numbered[0][0]}: expected header {','.join(CSV_HEADER)!r}, "
            f"got {header_line.strip()!r}"
        )

    rows = []
    for lineno, line in numbered[1:]:
        fields = _csv_fields(lineno, line)
        if len(fields) != len(CSV_HEADER):
            raise DataError(
                f"line {lineno}: expected {len(CSV_HEADER)} fields, got {len(fields)}"
            )
        model_name, n_params_s, embed_dim_s, dataset, entropy_s = (
            f.strip() for f in fields
        )
        try:
            n_params = float(n_params_s)
            embed_dim = int(embed_dim_s)
            entropy = float(entropy_s)
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        try:
            rows.append(
                Observation(model_name, n_params, embed_dim, dataset, entropy)
            )
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None

    return ObservationTable(tuple(rows))


def filter_by(table: ObservationTable, model_name: str | None = None,
              dataset: str = "") -> ObservationTable:
    """Select the rows of one dataset (and optionally one model), preserving order.

    Raises:
        DataError: if the dataset tag is absent from the table or the
            selection comes back empty.
    """
    if not dataset:
        raise DataError("dataset tag is required")
    if dataset not in table.datasets:
        raise DataError(f"dataset {dataset!r} not present in table")
    rows = tuple(
        row for row in table
        if row.dataset == dataset
        and (model_name is None or row.model_name == model_name)
    )
    if not rows:
        raise DataError(
            f"empty selection: no rows for model={model_name!r}, dataset={dataset!r}"
        )
    return ObservationTable(rows)


def _text(number) -> str:
    """str(number), or its power of ten where str refuses a number whose
    integers pass the interpreter's digit limit (say Fraction(10**5000))."""
    try:
        return str(number)
    except ValueError:
        return f"~1e{round(log10(number.numerator) - log10(number.denominator))}"


def expand_sweep(base_hidden: int, multipliers) -> list[int]:
    """Sorted unique dimensions round(phi * base_hidden) for multipliers phi
    of an encoder's native hidden size; rationals expand exactly.

    Every multiplier's sign is checked before any dimension is formed.

    Raises:
        DataError: base_hidden < 1, no multipliers, a multiplier that is
            not positive, or a phi * base_hidden below 1 or past the
            largest double, as Observation bounds embed_dim.
    """
    if base_hidden < 1:
        raise DataError(f"base_hidden must be >= 1, got {base_hidden}")
    if not multipliers:
        raise DataError("multipliers must be nonempty")
    for phi in multipliers:
        if not phi > 0:
            raise DataError(f"multipliers must be positive, got {phi}")
    dims = set()
    for phi in multipliers:
        value = phi * base_hidden
        if value < 1:
            raise DataError(
                f"multiplier {_text(phi)} of hidden size {base_hidden} "
                f"gives dimension {_text(value)} < 1"
            )
        if value > float_info.max:
            raise DataError(f"multiplier {_text(phi)} of hidden size {base_hidden} "
                            "gives a dimension past the largest double")
        dims.add(round(value))
    return sorted(dims)
