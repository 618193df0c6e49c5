"""Dataset model, interventional oracle, matrix types, IO, and metric reports.

Data layout conventions used throughout the package:

* a dataset pairs an (n, K) generative-factor matrix Z with an (n, N)
  latent-code matrix C; row r of both describes the same sample. Both are
  stored C-ordered (row-major), with column names (``z1..zK`` and
  ``c1..cN`` by default) and one cardinality per factor: None for a
  continuous factor, k for a discrete one;
* informativeness and importance matrices are (N, K): entry [i, j] scores
  how much latent i tells about factor j;
* all values are float64; discrete factors are floats with integral values
  in {0, ..., cardinality-1}.

Datasets and matrices are immutable after construction (backing arrays are
marked read-only) and safe to share across threads. Oracles hold mutable
RNG state and must be confined to a single thread; create per-thread
oracles from a seed via ``reseeded``.
"""

import csv
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 7

PROVENANCES = ("mutual_information", "external")


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
    """A dataset violates an invariant; carries the list of issues."""

    def __init__(self, issues):
        super().__init__("; ".join(str(i) for i in issues))
        self.issues = list(issues)


class NotComputableError(MetricsError):
    """The requested quantity is undefined for this input."""


class DegenerateLabelsError(MetricsError):
    """A classifier was asked to fit fewer than two classes."""


def _freeze(a, order="K"):
    arr = np.array(a, dtype=np.float64, order=order)
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
    {0, ..., k-1} (all continuous by default). Construction is permissive;
    run :func:`validate` to check invariants (loaders do this automatically).
    """

    factors: np.ndarray
    latents: np.ndarray
    factor_names: tuple = None
    latent_names: tuple = None
    cardinalities: tuple = None

    def __post_init__(self):
        factors, latents = _freeze(self.factors, order="C"), _freeze(self.latents, order="C")
        if factors.ndim != 2 or latents.ndim != 2:
            raise ValueError("factors and latents must be 2-d (rows, columns) arrays")
        k, m = factors.shape[1], latents.shape[1]
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "latents", latents)
        defaults = {
            "factor_names": [f"z{j + 1}" for j in range(k)],
            "latent_names": [f"c{i + 1}" for i in range(m)],
            "cardinalities": [None] * k,
        }
        for field_name, default in defaults.items():
            given = getattr(self, field_name)
            object.__setattr__(self, field_name, tuple(default if given is None else given))
        if (len(self.factor_names), len(self.latent_names), len(self.cardinalities)) != (k, m, k):
            raise ValueError("need one name per column and one cardinality per factor")
        if any(card is not None and card < 1 for card in self.cardinalities):
            raise ValueError("discrete factor needs cardinality >= 1")

    @property
    def n(self):
        return (self.factors if self.n_factors else self.latents).shape[0]

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
        where = ""
        if self.column is not None:
            where = f" [column {self.column}" + (f", row {self.row}]" if self.row else "]")
        return self.message + where


def validate(dataset):
    """Check every dataset invariant; returns a list of issues (empty = pass)."""
    issues = []
    if dataset.n_factors < 1:
        issues.append(ValidationIssue(None, None, "dataset has no factor columns"))
    if dataset.n_latents < 1:
        issues.append(ValidationIssue(None, None, "dataset has no latent columns"))
    names = dataset.factor_names + dataset.latent_names
    if not names:
        return issues
    n = dataset.n
    if n < 1:
        issues.append(ValidationIssue(names[0], None, "empty column"))
    if dataset.latents.shape[0] != n:
        issues.extend(ValidationIssue(name, None, "length mismatch") for name in dataset.latent_names)
    finite = np.isfinite(dataset.factors)
    for group, ok in ((dataset.factor_names, finite), (dataset.latent_names, np.isfinite(dataset.latents))):
        for j, r in zip(*np.nonzero(~ok.T)):
            issues.append(ValidationIssue(group[j], int(r) + 1, "non-finite value"))
    for j, card in enumerate(dataset.cardinalities):
        if card is None:
            continue
        v = dataset.factors[:, j]
        off = np.flatnonzero(finite[:, j] & ((v != np.floor(v)) | (v < 0) | (v >= card)))
        for r in off:
            issues.append(
                ValidationIssue(
                    dataset.factor_names[j], int(r) + 1, f"value {v[r]!r} outside discrete range 0..{card - 1}"
                )
            )
    return issues


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
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SchemaError(f"bad schema line {line!r}")
            name, role = line.split("=", 1)
            _parse_role(role.strip())
            schema[name.strip()] = role.strip()
    return schema


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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
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

        # one C parse of every data row; blank lines, which loadtxt would skip, are held back in `blank`
        blank = []
        lines = (line for line in fh if line.strip("\r\n") or blank.append(line))
        first = next(lines, None)
        try:
            table = np.loadtxt(itertools.chain([first], lines), delimiter=",", quotechar='"', comments=None,
                               dtype=np.float64, ndmin=2) if first else np.empty((0, len(names)))
        except ValueError:
            table = None
    if blank or table is None or table.shape[1] != len(names):
        _raise_first_fault(path, names)

    factors = [name for name in order if roles[name][0] == "factor"]
    latents = [name for name in order if roles[name][0] == "latent"]
    dataset = RepresentationDataset(
        table[:, [names.index(name) for name in factors]],
        table[:, [names.index(name) for name in latents]],
        factors,
        latents,
        [roles[name][1] for name in factors],
    )
    issues = validate(dataset)
    if issues:
        raise ValidationError(issues)
    return dataset


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
    """Write a dataset as CSV with self-describing inline header suffixes, 2048 rows at a time."""
    header = [f"{name}:c" if card is None else f"{name}:d{card}"
              for name, card in zip(dataset.factor_names, dataset.cardinalities)]
    header.extend(dataset.latent_names)
    z, c, step = dataset.factors, dataset.latents, 2048
    chunks = (np.hstack([z[s:s + step], c[s:s + step]]).tolist() for s in range(0, max(len(z), len(c)), step))
    text = ("".join(",".join(map(repr, row)) + "\n" for row in rows) for rows in chunks)
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], text))


# ---------------------------------------------------------------------------
# Informativeness / importance matrices and the .matrix file format
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InformativenessMatrix:
    """(N, K) scores of how much latent i tells about factor j, plus H(z_j).

    ``factor_entropies`` are in nats. When provenance is mutual_information,
    every column is bounded by the matching factor entropy.
    """

    values: np.ndarray
    factor_entropies: np.ndarray
    provenance: str = "external"

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        h = np.atleast_1d(np.asarray(self.factor_entropies, dtype=np.float64))
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if v.ndim != 2 or h.ndim != 1 or v.shape[1] != h.size:
            raise ValueError("matrix must be (N, K) with K factor entropies")
        if not np.isfinite(v).all() or not np.isfinite(h).all():
            raise ValueError("non-finite entries")
        if (v < 0).any():
            raise ValueError("negative informativeness entry")
        if self.provenance == "mutual_information" and (v > h[None, :] + 1e-9).any():
            raise ValueError("mutual information exceeds factor entropy")
        object.__setattr__(self, "values", _freeze(v))
        object.__setattr__(self, "factor_entropies", _freeze(h))

    @property
    def n_latents(self):
        return self.values.shape[0]

    @property
    def n_factors(self):
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class ImportanceMatrix:
    """(N, K) non-negative regressor importances P[i, j] of latent i for factor j."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        if not np.isfinite(v).all():
            raise ValueError("non-finite importance")
        if (v < 0).any():
            raise ValueError("negative importance")
        object.__setattr__(self, "values", _freeze(v))

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
    k, n = matrix.n_factors, matrix.n_latents
    lines = [f"{k},{n}", ",".join(repr(float(h)) for h in matrix.factor_entropies)]
    for i in range(n):
        lines.append(",".join(repr(float(x)) for x in matrix.values[i]))
    _atomic_write(path, [line + "\n" for line in lines])


def load_matrix(path):
    """Read a .matrix file written by :func:`save_matrix`; provenance is external."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ParseError("empty matrix file")
    try:
        k, n = (int(t) for t in lines[0].split(","))
    except ValueError:
        raise ParseError(f"bad matrix header {lines[0]!r}: expected K,N") from None
    if k < 1 or n < 1:
        raise ParseError(f"bad matrix header {lines[0]!r}: K and N must be >= 1")
    if len(lines) != n + 2:
        raise ParseError(f"expected {n + 2} lines ({n} latent rows), found {len(lines)}")
    try:
        entropies = [float(t) for t in lines[1].split(",")]
        rows = [[float(t) for t in ln.split(",")] for ln in lines[2:]]
    except ValueError as exc:
        raise ParseError(f"non-numeric matrix entry: {exc}") from None
    if len(entropies) != k or any(len(r) != k for r in rows):
        raise ParseError("matrix row width does not match header K")
    return InformativenessMatrix(np.array(rows), np.array(entropies), provenance="external")


# ---------------------------------------------------------------------------
# Interventional oracle
# ---------------------------------------------------------------------------


class RepresentationOracle:
    """Sampler of (z, c) pairs that can hold one generative factor fixed.

    ``factor_sampler(rng, n)`` draws an (n, K) factor matrix from the
    factor marginals; ``encoder(rng, Z)`` maps it to an (n, N) latent
    matrix (the encoder may itself be stochastic). When a factor is fixed
    without an explicit value, one value is drawn from that factor's
    marginal and shared by the whole batch.
    """

    def __init__(self, n_factors, n_latents, factor_sampler, encoder, seed=DEFAULT_SEED):
        self.n_factors = int(n_factors)
        self.n_latents = int(n_latents)
        self._factor_sampler = factor_sampler
        self._encoder = encoder
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def reseeded(self, seed):
        """Same generative structure, fresh RNG stream."""
        return RepresentationOracle(self.n_factors, self.n_latents, self._factor_sampler, self._encoder, seed)

    def sample(self, n, fixed_factor=None, fixed_value=None):
        """Draw n (z, c) pairs; optionally pin one factor.

        ``fixed_value`` may be a scalar (shared by the batch), an (n,)
        array (per-row values), or None (one shared value drawn from the
        factor marginal).
        """
        if fixed_factor is not None and not 0 <= fixed_factor < self.n_factors:
            raise ValueError(f"fixed_factor {fixed_factor} out of range")
        if fixed_factor is not None and fixed_value is None:
            fixed_value = float(self._factor_sampler(self._rng, 1)[0, fixed_factor])
        z = self._factor_sampler(self._rng, int(n))
        if fixed_factor is not None:
            z[:, fixed_factor] = fixed_value
        c = self._encoder(self._rng, z)
        return z, c

    def sample_batches(self, fixed_factors, batch_size, paired=False):
        """Latents of one intervention batch per entry of ``fixed_factors``,
        from one factor-sampler call and one encoder call.

        Unpaired (FactorVAE), batch t holds factor ``fixed_factors[t]`` at
        one value from the factor marginal; returns (T, batch_size, N).
        Paired (BetaVAE), batch t is two halves whose second copies that
        factor's column from the first; returns (T, 2, batch_size, N).
        Factor rows come in the order the matching sequence of
        :meth:`sample` calls draws them, so for a sampler whose draws
        concatenate in row order and an encoder that draws nothing, the
        latents equal those calls' bit for bit.
        """
        fixed = np.asarray(fixed_factors, dtype=np.int64)
        if ((fixed < 0) | (fixed >= self.n_factors)).any():
            raise ValueError("fixed factor out of range")
        t = np.arange(fixed.size)
        k = self.n_factors
        if paired:
            z = self._factor_sampler(self._rng, fixed.size * 2 * batch_size)
            z = z.reshape(fixed.size, 2, batch_size, k)
            z[t, 1, :, fixed] = z[t, 0, :, fixed]
        else:
            # the first row of each block only supplies the pinned value
            z = self._factor_sampler(self._rng, fixed.size * (batch_size + 1))
            z = z.reshape(fixed.size, batch_size + 1, k)
            z[t, 1:, fixed] = z[t, 0, fixed][:, None]
            z = z[:, 1:]
        c = self._encoder(self._rng, z.reshape(-1, k))
        return c.reshape(*z.shape[:-1], self.n_latents)

    def sample_dataset(self, n):
        """Materialize a dataset of n marginal samples (factors z1.., latents c1..)."""
        return RepresentationDataset(*self.sample(n))


# ---------------------------------------------------------------------------
# Metric reports
# ---------------------------------------------------------------------------


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


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
        return {
            "metric": self.metric,
            "score": None if self.score is None else float(self.score),
            "skipped": bool(self.skipped),
            "skip_reason": self.skip_reason,
            "intermediates": _jsonify(self.intermediates),
            "config": _jsonify(self.config),
            "seed": self.seed,
        }


def reports_to_json(reports):
    """Serialize one report or a list with stable, sorted keys."""
    if isinstance(reports, MetricReport):
        payload = reports.to_dict()
    else:
        payload = [r.to_dict() for r in reports]
    return json.dumps(payload, indent=2, sort_keys=True)
