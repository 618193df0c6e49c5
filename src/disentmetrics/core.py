"""Dataset model, interventional oracle, informativeness matrix, IO, and metric reports.

Data layout conventions used throughout the package:

* a dataset pairs an (n, K) generative-factor matrix Z with an (n, N)
  latent-code matrix C; row r of both describes the same sample. Both are
  stored C-ordered (row-major), with column names (``z1..zK`` and
  ``c1..cN`` by default) and one cardinality per factor: None for a
  continuous factor, k for a discrete one;
* informativeness and importance matrices are (N, K): entry [i, j] scores
  how much latent i tells about factor j. An informativeness matrix is an
  :class:`InformativenessMatrix` (values plus factor entropies); an
  importance matrix is a plain array, checked where DCI scores it;
* all values are float64; discrete factors are floats with integral values
  in {0, ..., cardinality-1}.

Datasets and informativeness matrices are immutable after construction (backing arrays are
marked read-only) and safe to share across threads. Oracles hold mutable
RNG state and must be confined to a single thread; create per-thread
oracles from a seed via ``reseeded``.

The CSV save and load, the DCI forest in :mod:`estimators`, the BetaVAE
and FactorVAE oracle chunks in :mod:`metrics` and the two representations of
:func:`analysis.compare` run contiguous blocks of their work on every usable
CPU through one helper, :func:`_in_blocks`; the parts come back in block
order, so no result depends on the number of CPUs, inputs too small to pay
for a fork stay in one process, and a fan-out nested in a block counts only
the CPUs the outer fan-out's children leave free.
"""

import contextlib
import copy
import csv
import io
import itertools
import json
import math
import numbers
import os
import pickle
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

import numpy as np

DEFAULT_SEED = 7

class MetricsError(Exception):
    """Base class for all domain errors raised by this package."""


class SchemaError(MetricsError):
    """A column is missing from, or inconsistent with, the declared schema."""


class ParseError(MetricsError):
    """A cell could not be parsed; carries 1-based data row and column name."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class ValidationError(MetricsError):
    """A dataset violates an invariant; carries every issue, and its message names the first 10."""

    def __init__(self, issues):
        self.issues = list(issues)
        rest = len(self.issues) - 10
        super().__init__("; ".join(str(i) for i in self.issues[:10]) + (f"; and {rest} more" if rest > 0 else ""))

    def __reduce__(self):  # rebuilt from its issues, not from its message
        return type(self), (self.issues,)


class NotComputableError(MetricsError):
    """The requested quantity is undefined for this input."""


class DegenerateLabelsError(MetricsError):
    """A classifier was asked to fit fewer than two classes."""


class UsageError(MetricsError, ValueError):
    """An input the call does not accept; a ValueError too, so callers catching ValueError still do."""


_MAX_COUNT = np.iinfo(np.intp).max  # the largest count (size, length, rows) numpy can index


def _in_range(name, value, low, high=None, whole=False, count=False):
    """``value`` if it is an integer (``whole``, or a ``count`` up to :data:`_MAX_COUNT`) or a finite
    number, at least ``low`` and, unless ``high`` is None, at most ``high``; else UsageError naming ``name``."""
    whole = whole or count
    if not (isinstance(value, numbers.Integral) if whole else
            isinstance(value, numbers.Real) and math.isfinite(value)):
        raise UsageError(f"{name} must be {'an integer' if whole else 'a finite number'}, got {value!r}")
    if value < low or high is not None and value > high:
        bound = f"be at least {low}" if high is None else f"lie in [{low}, {high}]"
        raise UsageError(f"{name} must {bound}, got {value!r}")
    if count and value > _MAX_COUNT:
        raise UsageError(f"{name} must be at most {_MAX_COUNT}, got {value!r}")
    return value


def _as_array(name, value, shape, least=0, dtype=np.float64, finite=False, promote=False,
              copy=False, order="K", fault=UsageError):
    """``value`` as an ndarray of ``dtype`` (None: its own), new if ``copy``, with one axis per entry of
    ``shape``: its length, or None for any (the first at least ``least``). ``promote`` prefixes missing
    axes of length 1, as ``np.atleast_2d``; ``finite`` refuses NaN and infinities. Any other value,
    numpy's conversion faults included, raises ``fault(message)``, the message naming ``name``."""
    try:
        arr = (np.array if copy else np.asarray)(value, dtype=dtype, order=order)
    except (TypeError, ValueError, OverflowError) as exc:
        raise fault(f"{name} must be an array{'' if dtype is None else ' of numbers'}: {exc}") from None
    got = arr.shape
    if promote and arr.ndim < len(shape):
        arr = arr.reshape((1,) * (len(shape) - arr.ndim) + got)
    if arr.ndim != len(shape) or arr.shape[0] < least or any(
            want is not None and want != length for want, length in zip(shape, arr.shape)):
        axes = ", ".join("nm"[i] if want is None else str(want) for i, want in enumerate(shape))
        raise fault(f"{name} must be {len(shape)}-d of shape ({axes}{',' * (len(shape) == 1)})"
                    f"{f' with n >= {least}' if least else ''}, got {got}")
    if finite and arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):  # NaN reaches both
        raise fault(f"{name} must be finite, got {float(arr[~np.isfinite(arr)][0])!r}")
    return arr


def _default_names(prefix, count):
    """The names of ``count`` columns that have none: ``z1..`` for factors, ``c1..`` for latents."""
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def _freeze(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RepresentationDataset:
    """Paired factor matrix Z (n x K) and latent matrix C (n x N).

    Both are stored as read-only, C-ordered float64 copies, so a reduction
    over rows sums in the same order whatever the input layout (the lasso's
    column means depend on it, bit for bit). Names default
    to ``z1..zK`` and ``c1..cN``; ``cardinalities`` holds one entry per
    factor, None for a continuous factor and k for a discrete one over
    {0, ..., k-1} (all continuous by default). Construction raises
    :class:`ValidationError` listing every bad column (see :func:`validate`),
    so every dataset has valid columns; it may still lack a column group.
    """

    factors: np.ndarray
    latents: np.ndarray
    factor_names: tuple = None
    latent_names: tuple = None
    cardinalities: tuple = None

    def __post_init__(self, copy=True):
        factors, latents = (_freeze(_as_array(name, getattr(self, name), (None, None), copy=copy, order="C"))
                            for name in ("factors", "latents"))
        k, m = factors.shape[1], latents.shape[1]
        # a group with no columns gets the other's rows: only two groups with columns can differ
        object.__setattr__(self, "factors", factors if k else _freeze(np.empty((latents.shape[0], 0))))
        object.__setattr__(self, "latents", latents if m else _freeze(np.empty((self.factors.shape[0], 0))))
        defaults = {
            "factor_names": _default_names("z", k),
            "latent_names": _default_names("c", m),
            "cardinalities": [None] * k,
        }
        for field_name, default in defaults.items():
            given = getattr(self, field_name)
            object.__setattr__(self, field_name, tuple(default if given is None else given))
        if (len(self.factor_names), len(self.latent_names), len(self.cardinalities)) != (k, m, k):
            raise UsageError("need one name per column and one cardinality per factor")
        if any(card is not None and card < 1 for card in self.cardinalities):
            raise UsageError("discrete factor needs cardinality >= 1")
        if issues := _column_issues(self):
            raise ValidationError(issues)

    @classmethod
    def _adopt(cls, factors, latents, factor_names=None, latent_names=None, cardinalities=None):
        """For loaders and generators: the dataset over two fresh C-ordered
        float64 arrays that nothing else references, frozen in place instead
        of copied."""
        dataset = object.__new__(cls)
        for f, value in zip(fields(cls), (factors, latents, factor_names, latent_names, cardinalities)):
            object.__setattr__(dataset, f.name, value)
        dataset.__post_init__(copy=False)
        return dataset

    @property
    def n(self):
        return self.factors.shape[0]

    @property
    def n_factors(self):
        return self.factors.shape[1]

    @property
    def n_latents(self):
        return self.latents.shape[1]

    def factor_matrix(self):
        return self.factors

    def latent_matrix(self):
        return self.latents


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant; row is 1-based over data rows, None if column-wide."""

    column: str | None
    row: int | None
    message: str

    def __str__(self):
        if self.column is None:
            return self.message
        return f"{self.message} [column {self.column}" + (f", row {self.row}]" if self.row else "]")


def _non_finite(names, values):
    """One issue per non-finite entry of the (rows, columns) ``values``, column by column."""
    if not values.size or np.isfinite(values.min()) and np.isfinite(values.max()):  # NaN reaches both
        return []  # the common case, without a mask
    bad = np.nonzero(~np.isfinite(values.T))
    return [ValidationIssue(names[j], int(r) + 1, "non-finite value") for j, r in zip(*bad)]


def _column_issues(dataset):
    """Every bad column of a dataset's arrays, in a fixed order: an empty column, a length
    mismatch, non-finite values (factors, then latents) and out-of-range discrete values."""
    names = dataset.factor_names + dataset.latent_names
    if not names:
        return []
    issues, n = [], dataset.n
    if n < 1:
        issues.append(ValidationIssue(names[0], None, "empty column"))
    if dataset.latents.shape[0] != n:
        issues.extend(ValidationIssue(name, None, "length mismatch") for name in dataset.latent_names)
    issues += _non_finite(dataset.factor_names, dataset.factors)
    issues += _non_finite(dataset.latent_names, dataset.latents)
    for j, card in enumerate(dataset.cardinalities):
        if card is None:
            continue
        v = dataset.factors[:, j]
        off = np.flatnonzero(np.isfinite(v) & ((v != np.floor(v)) | (v < 0) | (v >= card)))
        issues.extend(ValidationIssue(dataset.factor_names[j], int(r) + 1,
                                      f"value {v[r]!r} outside discrete range 0..{card - 1}") for r in off)
    return issues


def validate(dataset):
    """Every issue of a dataset (empty = pass): an issue for no factor columns, and one for no
    latent columns. Construction raises for every bad column, so none is left to list."""
    return [ValidationIssue(None, None, f"dataset has no {group} columns")
            for group, count in (("factor", dataset.n_factors), ("latent", dataset.n_latents)) if count < 1]


# ---------------------------------------------------------------------------
# Blocks of work on every usable CPU
# ---------------------------------------------------------------------------

# The least serial work (microseconds) worth a block: twice a fork round trip
# (fork, pipe message, join), 2.8-4.5 ms p10-p90 from a 53 MiB process on a 2-CPU
# x86-64 host, Python 3.11. Callers' units cost about 1 us there: a forest tree x target
# x bagged row 0.6-0.7 us at n=2000, K=4 and 4.6-7.5 us at n=150, K=3 (more for smaller
# bags), a saved value 1.4, 32 loaded bytes 0.9.
_BLOCK_MIN_WORK = 10_000


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The children of this process's fan-outs, from fork to join: a fan-out nested in a
# block counts only the CPUs they leave free. Each update is one set call, safe across threads.
_held_by_children = set()


def _in_blocks(block, count, work, take=list):
    """``take(parts)``: ``parts`` iterates every part that ``block(items)`` yields, for each
    of ``w`` contiguous blocks of ``range(count)``, in block order; ``w`` is the least of the
    usable CPUs less the running children of this process's fan-outs, ``count`` and ``work``
    (the serial run time in microseconds) // ``_BLOCK_MIN_WORK``, each at least 1. ``take``
    may stream the parts. The caller runs the first block as ``take`` reads it, and a forked
    child runs each other block and sends its parts through a pipe. Every block runs in the
    caller when ``w`` is 1, without the fork start method, or in a daemonic process (which
    may not have children). Every child has ended when this returns or raises: joined once
    ``take`` has read ``parts`` to its end, else terminated and joined."""
    w = min(max(1, _usable_cpus() - len(_held_by_children)), count, max(1, work // _BLOCK_MIN_WORK))
    blocks = [range(count * i // w, count * (i + 1) // w) for i in range(w)]
    parts = (part for items in blocks for part in block(items))
    if w > 1:
        import multiprocessing  # here, not at the top: most callers never fork

        if "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon:
            parts = _forked(block, blocks, multiprocessing.get_context("fork"))
    with contextlib.closing(parts):
        return take(parts)


def _forked(block, blocks, context):
    """:func:`_in_blocks` with ``blocks[1:]`` in one forked child each. On any error,
    interrupt or close the children are terminated and joined before it propagates."""
    children, pipes = [], []
    try:
        for items in blocks[1:]:
            receiver, sender = context.Pipe(duplex=False)
            pipes.append(receiver)
            child = context.Process(target=_send_block, args=(sender, block, items), daemon=True)
            child.start()
            children.append(child)
            _held_by_children.add(child)
            sender.close()
        yield from block(blocks[0])
        for receiver in pipes:
            while True:
                try:
                    more, value = receiver.recv()
                except EOFError:
                    raise ChildProcessError("a worker process exited without a result") from None
                if not more:
                    break
                yield value
            if value is not None:
                raise value
        for child in children:
            child.join()
    except BaseException:
        for child in children:
            child.terminate()
        for child in children:
            child.join()
        raise
    finally:
        _held_by_children.difference_update(children)
        for receiver in pipes:
            receiver.close()


def _send_block(sender, block, items):
    """Body of a forked child: each part of ``block(items)`` as ``(True, part)``,
    then ``(False, None)``; or ``(False, error)``, where an error that does not
    survive a pickle round trip becomes a ChildProcessError naming its type and
    message. All parts are made before the first is sent, so the child does not
    wait on the pipe while its parent works."""
    try:
        parts = list(block(items))
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = ChildProcessError(f"{type(exc).__name__} in a worker process: {exc}")
        sender.send((False, exc))
    else:
        for part in parts:
            sender.send((True, part))
        sender.send((False, None))
    sender.close()


# ---------------------------------------------------------------------------
# CSV dataset format
#
# Comma-separated, UTF-8, '.' decimal point, mandatory header. Column roles
# come either from inline header suffixes (``name:c`` continuous factor,
# ``name:d<k>`` discrete factor with cardinality k, bare name = latent) or
# from a sidecar schema file of ``name=factor:c|factor:d<k>|latent`` lines.
# ---------------------------------------------------------------------------


def _parse_role(token):
    """``(role, cardinality)``: None for a latent or a continuous factor."""
    if token == "latent":
        return ("latent", None)
    if token == "factor:c":
        return ("factor", None)
    if token.startswith("factor:d"):
        try:
            card = int(token[len("factor:d"):])
        except ValueError:
            raise SchemaError(f"bad discrete cardinality in role {token!r}") from None
        if card < 1:
            raise SchemaError(f"cardinality must be >= 1 in role {token!r}")
        return ("factor", card)
    raise SchemaError(f"unknown column role {token!r}")


def load_schema(path):
    """Read a sidecar schema file into an ordered name -> role mapping."""
    schema = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ParseError(f"schema line {_first_undecodable_line(path)} is not UTF-8 text") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"bad schema line {line!r}")
        name, role = (part.strip() for part in line.split("=", 1))
        _parse_role(role)
        if name in schema:
            raise SchemaError(f"duplicate column {name!r} in schema")
        schema[name] = role
    return schema


def _first_undecodable_line(path):
    """The 1-based number of the first line of ``path`` (LF, CRLF or CR
    ends) that is not UTF-8; no UTF-8 sequence holds those bytes, so each
    line decodes alone."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh.read().splitlines(), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number


def _split_header_token(token):
    # inline suffix: name:c | name:d<k> | bare name; a suffix is checked like a schema role
    name, sep, suffix = token.rpartition(":")
    if sep and (suffix == "c" or (suffix[:1] == "d" and suffix[1:].isdigit())):
        return name, _parse_role("factor:" + suffix)
    return token, ("latent", None)


def load_dataset(path, schema=None):
    """Load a CSV dataset, resolving column roles and validating invariants.

    ``schema`` may be None (use inline header suffixes), a mapping of
    column name to role string, or a path to a sidecar schema file.
    """
    if isinstance(schema, (str, os.PathLike)):
        schema = load_schema(schema)
    try:
        factors, latents, cardinalities, z, c = _read_table(path, schema)
    except UnicodeDecodeError:
        line = _first_undecodable_line(path)
        if line == 1:
            raise ParseError("the header row is not UTF-8 text") from None
        raise ParseError(f"row {line - 1} is not UTF-8 text", row=line - 1) from None
    dataset = RepresentationDataset._adopt(z, c, factors, latents, cardinalities)
    if issues := validate(dataset):
        raise ValidationError(issues)
    return dataset


# loaded CSV bytes per microsecond of _in_blocks work (measured above); compare counts a load so too
_LOAD_BYTES_PER_US = 32

# The most data rows one loadtxt call parses: a load holds Z, C and one piece this
# long (160 KiB at 20 columns), and a forked block sends its rows in pieces this long.
_PIECE_ROWS = 1024


def _read_table(path, schema):
    """(factor names, latent names, cardinalities, Z, C) of a CSV dataset."""
    with open(path, newline="", encoding="utf-8") as fh:
        header_lines = []
        try:
            header = next(csv.reader(header_lines.append(line) or line for line in fh))
        except StopIteration:
            raise ParseError("empty file: missing header row") from None
        parsed = [_split_header_token(tok.strip()) for tok in header]
        names = [name for name, _ in parsed]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise SchemaError(f"duplicate column {name!r} in header")
        if schema is not None:
            for name in names:
                if name not in schema:
                    raise SchemaError(f"column {name!r} missing from schema")
            for name in schema:
                if name not in names:
                    raise SchemaError(f"schema column {name!r} missing from file")
            roles = {name: _parse_role(schema[name]) for name in names}
            order = [n for n in schema if n in names]
        else:
            roles = dict(parsed)
            order = names
        factors = [name for name in order if roles[name][0] == "factor"]
        latents = [name for name in order if roles[name][0] == "latent"]
        takes = [[names.index(name) for name in columns] for columns in (factors, latents)]
        if not names:  # an empty header: no rows to read, and the load refuses both missing groups
            return factors, latents, [], np.empty((0, 0)), np.empty((0, 0))

        start = len("".join(header_lines).encode("utf-8"))
        try:  # a ValueError (UnicodeDecodeError included), here or in a child, is a fault
            rows = _data_lines(path, start) if os.path.isfile(path) else None
            if rows is not None:  # Z and C first, then each piece copied into place as it arrives
                size = os.path.getsize(path)
                z, c = _in_blocks(lambda offsets: _parse_range(path, start, size, offsets),
                                  size - start, (size - start) // _LOAD_BYTES_PER_US,
                                  lambda pieces: _filled(pieces, rows, takes, len(names)))
            else:  # read on from the header in one piece, then copy it
                pieces = list(_parse_rows(fh, None, None))
                z, c = _filled(pieces, sum(map(len, pieces)), takes, len(names))
        except ValueError:
            z = c = None
    if z is None:
        _raise_first_fault(path, names)
    return factors, latents, [roles[name][1] for name in factors], z, c


def _data_lines(path, start):
    """The number of lines from byte ``start`` on (the last needs no LF), or None if those
    bytes hold a quote or a CR: a cell may then span a cut at a LF."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        fh.seek(start)
        for chunk in iter(lambda: fh.read(2**16), b""):
            if b'"' in chunk or b"\r" in chunk:
                return None
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    return lines + (last != b"\n")


def _filled(pieces, rows, takes, width):
    """(Z, C) of ``rows`` rows: columns ``takes[0]`` and ``takes[1]`` of each piece, copied
    into place as it arrives; ValueError if the pieces are not ``rows`` rows of ``width`` cells."""
    z, c = (np.empty((rows, len(take))) for take in takes)
    row = 0
    for piece in pieces:
        end = row + len(piece)
        if piece.shape[1] != width or end > rows:
            raise ValueError("the rows do not match the header or the line count")
        for take, out in zip(takes, (z, c)):  # "clip": an in-range take into out needs no buffer
            piece.take(take, axis=1, out=out[row:end], mode="clip")
        row = end
    if row != rows:
        raise ValueError("fewer rows than lines")
    return z, c


def _parse_range(path, start, size, offsets):
    """:func:`_parse_rows` in pieces on the data bytes ``offsets`` (from byte ``start`` of a
    ``size``-byte file), each inner end moved on to the first line start at or after it."""
    with open(path, "rb") as fh:
        lo, hi = (start + x if x in (0, size - start) else fh.seek(start + x - 1) + len(fh.readline())
                  for x in (offsets.start, offsets.stop))
        fh.seek(lo)
        rows = None if hi == size else sum(fh.read(min(2**16, hi - at)).count(b"\n") for at in range(lo, hi, 2**16))
        fh.seek(lo)
        with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
            yield from _parse_rows(text, rows, _PIECE_ROWS)


def _parse_rows(text, rows, piece):
    """Float64 tables of the first ``rows`` lines of ``text`` (all if None), one loadtxt call
    per ``piece`` lines (all in one if None); a blank line, which loadtxt skips, is a fault."""
    lines = itertools.islice(text, rows)
    while True:
        blank = []
        kept = (line for line in itertools.islice(lines, piece) if line.strip("\r\n") or blank.append(line))
        first = next(kept, None)
        if first is not None:  # never an empty iterator: loadtxt warns on one
            yield np.loadtxt(itertools.chain([first], kept), delimiter=",", quotechar='"', comments=None,
                             dtype=np.float64, ndmin=2)
        if blank:
            raise ValueError("blank line")
        if first is None:
            return


def _raise_first_fault(path, names):
    """Re-read a CSV that loadtxt refused, only to raise the ParseError of its first bad row or cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        for r, row in enumerate(itertools.islice(csv.reader(fh), 1, None), start=1):
            if len(row) != len(names):
                raise ParseError(f"row {r} has {len(row)} cells, expected {len(names)}", row=r)
            for cell, col in zip(row, names):
                try:  # float()'s grammar less what loadtxt refuses: digit underscores, non-ASCII digits
                    if "_" in cell or not cell.strip().isascii():
                        raise ValueError
                    float(cell)
                except ValueError:
                    raise ParseError(f"non-numeric cell {cell!r} at row {r}, column {col}", row=r, column=col) from None
    raise ParseError("data rows do not parse as one numeric table")


def _atomic_write(path, chunks):
    """Write strings to ``path`` through ``path.tmp``; on any failure ``path`` is left as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_dataset(dataset, path):
    """Write a dataset as CSV with self-describing inline header suffixes, 256 rows at a time."""
    header = [f"{name}:c" if card is None else f"{name}:d{card}"
              for name, card in zip(dataset.factor_names, dataset.cardinalities)]
    header.extend(dataset.latent_names)
    z, c, step = dataset.factors, dataset.latents, 256  # small chunks, so small pipe messages: a low peak RSS

    def text(ids):
        for s in ids:
            rows = np.hstack([z[s * step:(s + 1) * step], c[s * step:(s + 1) * step]]).tolist()
            yield "".join(",".join(map(repr, row)) + "\n" for row in rows)

    chunks = -(-dataset.n // step)
    _in_blocks(text, chunks, z.size + c.size,
               lambda blocks: _atomic_write(path, itertools.chain([",".join(header) + "\n"], blocks)))


# ---------------------------------------------------------------------------
# Informativeness matrices and the .matrix file format
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InformativenessMatrix:
    """(N, K) finite, non-negative scores of how much latent i tells about
    factor j, plus the K factor entropies H(z_j) in nats. Entries are not
    bounded by the entropies: the estimator that builds a matrix checks
    its own bound (see :func:`estimators.informativeness_from_mi`).
    """

    values: np.ndarray
    factor_entropies: np.ndarray

    def __post_init__(self):
        v = _as_array("values", self.values, (None, None), finite=True, promote=True, copy=True)
        h = _as_array("factor_entropies", self.factor_entropies, (v.shape[1],), finite=True, promote=True, copy=True)
        if (v < 0).any():
            raise UsageError("negative informativeness entry")
        if (h < 0).any():  # a zero entropy stays: MIG skips that factor
            raise UsageError("negative factor entropy")
        object.__setattr__(self, "values", _freeze(v))
        object.__setattr__(self, "factor_entropies", _freeze(h))

    @property
    def n_latents(self):
        return self.values.shape[0]

    @property
    def n_factors(self):
        return self.values.shape[1]


def save_matrix(matrix, path):
    """Write an informativeness matrix as a .matrix text file.

    Line 1: ``K,N``; line 2: K factor entropies; then N comma-separated
    rows of K entries (row i = latent i).
    """
    rows = [[matrix.n_factors, matrix.n_latents], matrix.factor_entropies.tolist(), *matrix.values.tolist()]
    _atomic_write(path, [_csv_text(rows) + "\n"])


def load_matrix(path):
    """Read a .matrix file written by :func:`save_matrix`."""
    try:
        with open(path, encoding="utf-8") as fh:
            numbered = [(number, ln.strip()) for number, ln in enumerate(fh, start=1) if ln.strip()]
    except UnicodeDecodeError:
        raise ParseError(f"matrix line {_first_undecodable_line(path)} is not UTF-8 text") from None
    if not numbered:
        raise ParseError("empty matrix file")
    numbers, lines = zip(*numbered)
    try:
        k, n = (int(t) for t in lines[0].split(","))
    except ValueError:
        raise ParseError(f"bad matrix header {lines[0]!r}: expected K,N") from None
    if k < 1 or n < 1:
        raise ParseError(f"bad matrix header {lines[0]!r}: K and N must be >= 1")
    if len(lines) != n + 2:
        raise ParseError(f"expected {n + 2} lines ({n} latent rows), found {len(lines)}")
    try:
        rows = [[float(t) for t in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise ParseError(f"non-numeric matrix entry: {exc}") from None
    if any(len(r) != k for r in rows):
        raise ParseError("matrix row width does not match header K")
    for number, row in zip(numbers[1:], np.array(rows)):
        if not np.isfinite(row).all():
            raise ParseError(f"matrix line {number} has a non-finite entry")
        if (row < 0).any():
            raise ParseError(f"matrix line {number} has a negative entry")
    return InformativenessMatrix(rows[1:], rows[0])


# ---------------------------------------------------------------------------
# Interventional oracle
# ---------------------------------------------------------------------------


class RepresentationOracle:
    """Sampler of factor rows and encoder of them into latents, on one RNG.

    ``factor_sampler(rng, n)`` draws an (n, K) factor matrix from the
    factor marginals; ``encoder(rng, Z)`` maps it to an (n, N) latent
    matrix (the encoder may itself be stochastic). To hold a factor fixed,
    overwrite its column of :meth:`sample_factors`' rows before
    :meth:`encode`. Both must depend only on their (rng, input): BetaVAE and
    FactorVAE may run a chunk of their batches in a forked child process
    (see :func:`_in_blocks`), and any side effect there is lost.
    """

    def __init__(self, n_factors, n_latents, factor_sampler, encoder, seed=DEFAULT_SEED):
        """``n_factors`` and ``n_latents`` must be integers >= 1 (UsageError naming the field)."""
        self.n_factors = int(_in_range("n_factors", n_factors, 1, count=True))
        self.n_latents = int(_in_range("n_latents", n_latents, 1, count=True))
        self._latent_names = _default_names("c", self.n_latents)
        self._factor_sampler = factor_sampler
        self._encoder = encoder
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def reseeded(self, seed):
        """Same generative structure, fresh RNG stream."""
        oracle = copy.copy(self)
        oracle.seed, oracle._rng = seed, np.random.default_rng(seed)
        return oracle

    def sample_factors(self, n):
        """n factor rows, (n, K) float64, from the factor marginals; a sampler result of another shape
        or not numbers raises :class:`ValidationError`, and an ``n`` that is no count UsageError."""
        n = int(_in_range("n", n, 0, count=True))
        return _as_array("factor sampler output", self._factor_sampler(self._rng, n), (n, self.n_factors),
                         fault=_output_fault)

    def encode(self, z):
        """The encoder's latents for (rows, K) factor rows z, (rows, N) float64; an encoder result of
        another shape, not numbers or with a non-finite latent raises :class:`ValidationError`."""
        z = _as_array("z", z, (None, self.n_factors))
        c = _as_array("encoder output", self._encoder(self._rng, z), (len(z), self.n_latents), fault=_output_fault)
        if issues := _non_finite(self._latent_names, c):
            raise ValidationError(issues)
        return c

    def sample(self, n):
        """Draw n (z, c) pairs from the factor marginals."""
        z = self.sample_factors(n)
        return z, self.encode(z)

    def sample_dataset(self, n):
        """Materialize a dataset of n marginal samples (factors z1.., latents c1..).

        Unlike the generators' datasets, this one copies the sampled arrays:
        the sampler and the encoder are the caller's, and may keep a reference
        to what they return and change it later, or return one array twice
        (an encoder that returns its input)."""
        return RepresentationDataset(*self.sample(n))


def _output_fault(message):
    """The error of a sampler or encoder result that :func:`_as_array` refuses: the oracle's callable is at fault."""
    return ValidationError([ValidationIssue(None, None, message)])


# ---------------------------------------------------------------------------
# Metric reports
# ---------------------------------------------------------------------------


def _jsonify(obj):
    """``obj`` in plain JSON values: keys as strings, tuples and arrays as lists, numpy scalars as Python's."""
    if isinstance(obj, Mapping):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):  # before int: a bool is an int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _json_text(obj):
    """The JSON text of ``obj``, in the one format of every JSON document this package writes."""
    return json.dumps(_jsonify(obj), indent=2, sort_keys=True)


def _csv_text(rows):
    """The CSV lines of ``rows``, with no end after the last: None as an empty cell, any other cell
    as ``str`` writes it (a float's ``repr``). Every table but the dataset file is written so."""
    return "\n".join(",".join("" if cell is None else str(cell) for cell in row) for row in rows)


@dataclass
class MetricReport:
    """One metric outcome: scalar score plus every intermediate quantity."""

    metric: str
    score: float | None
    skipped: bool = False
    skip_reason: str | None = None
    intermediates: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    seed: int | None = None

    def to_dict(self):
        """The report as plain JSON values (see :func:`_jsonify`), its score a float."""
        return _jsonify({f.name: getattr(self, f.name) for f in fields(self)}
                        | {"score": None if self.score is None else float(self.score)})


def reports_to_json(reports):
    """Serialize one report or a list with stable, sorted keys."""
    return _json_text(reports.to_dict() if isinstance(reports, MetricReport) else [r.to_dict() for r in reports])
