"""Cross-metric analysis: Spearman rank correlation over populations of
representations and pairwise metric-disagreement reports."""

import os
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .core import (
    InformativenessMatrix,
    NotComputableError,
    RepresentationDataset,
    _LOAD_BYTES_PER_US,
    _in_blocks,
    _json_text,
    _jsonify,
)
from .estimators import BinningSpec
from . import metrics as metrics_mod
from . import synth


def _average_ranks(x):
    """Fractional ranks: tied values share the mean of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ranks = np.empty(x.size)
    # a tie run [start, stop) of the sorted values shares rank (start + stop - 1) / 2
    ranks[order] = 0.5 * (np.searchsorted(xs, xs, "left") + np.searchsorted(xs, xs, "right") - 1)
    return ranks


def spearman(a, b):
    """Pearson correlation of the fractional-rank vectors of a and b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size or a.size < 2:
        raise ValueError("sequences must be 1-d and share a length >= 2")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("sequences must be finite")
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        raise NotComputableError("rank correlation is undefined for a constant sequence")
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / np.sqrt((ra * ra).sum() * (rb * rb).sum()))


@dataclass
class PopulationResult:
    """Metric scores over a population: scores[m, r] for metric m on
    representation r, plus the reasons any metrics were dropped."""

    scores: np.ndarray
    metric_labels: list
    representation_labels: list
    dropped: dict = field(default_factory=dict)

    def to_dict(self):
        return _jsonify({"scores": self.scores, "metrics": self.metric_labels,
                         "representations": self.representation_labels, "dropped": self.dropped})


def _is_matrix(rep):
    return isinstance(rep, InformativenessMatrix) or (isinstance(rep, str) and rep.endswith(".matrix"))


def _resolve_representation(rep):
    if isinstance(rep, (RepresentationDataset, InformativenessMatrix)):
        return rep
    if isinstance(rep, synth.GeneratorSpec):
        return synth.dataset_from_spec(rep)[0]
    if isinstance(rep, str):
        from .core import load_dataset, load_matrix

        return load_matrix(rep) if _is_matrix(rep) else load_dataset(rep)
    raise TypeError(f"cannot interpret representation {rep!r}")


def _rep_label(rep, index):
    if isinstance(rep, synth.GeneratorSpec):
        return rep.label()
    if isinstance(rep, str):
        return rep
    return f"rep_{index}"


def correlate_metrics(population, metrics=None, binning=BinningSpec(), importance_method="forest"):
    """Evaluate every metric on every representation, then return the
    metric-by-metric Spearman matrix together with the raw population.

    Representations may be GeneratorSpecs, dataset paths, or datasets. A
    metric that is not computable on every representation is dropped with
    a recorded reason.
    """
    if len(population) < 5:
        raise ValueError("need at least 5 representations")
    selection = list(metrics) if metrics is not None else list(metrics_mod.DATASET_METRICS)
    labels = [_rep_label(rep, i) for i, rep in enumerate(population)]
    columns = []
    for rep in population:  # each resolved representation is released once it is scored
        reports = metrics_mod.evaluate_all(_resolve_representation(rep), metrics=selection, binning=binning,
                                           importance_method=importance_method)
        columns.append({r.metric: r for r in reports})

    kept = []
    dropped = {}
    for name in selection:
        reasons = [col[name].skip_reason for col in columns if col[name].skipped]
        if reasons:
            dropped[name] = reasons[0]
        else:
            kept.append(name)
    if len(kept) < 2:
        raise NotComputableError("fewer than 2 metrics are computable on the whole population")

    scores = np.array([[col[name].score for col in columns] for name in kept])
    result = PopulationResult(scores, kept, labels, dropped)
    m = len(kept)
    matrix = np.eye(m)
    for i, j in combinations(range(m), 2):
        rho = spearman(scores[i], scores[j])
        matrix[i, j] = rho
        matrix[j, i] = rho
    return matrix, result


@dataclass
class ComparisonReport:
    """Which of two representations each metric prefers, and which metric
    pairs disagree about the ordering."""

    label_a: str
    label_b: str
    scores: dict
    preferred: dict
    disagreements: list

    def to_dict(self):
        return _jsonify({"a": self.label_a, "b": self.label_b, "scores": self.scores,
                         "preferred": self.preferred, "disagreements": self.disagreements})

    def to_json(self):
        return _json_text(self.to_dict())


def _load_work(rep):
    """The serial run time of resolving ``rep``, in microseconds, in the unit of the
    CSV load's own estimate (``core._LOAD_BYTES_PER_US``): a dataset file's bytes or an
    in-memory dataset's array bytes; nothing for a matrix, a spec or a missing file."""
    if isinstance(rep, RepresentationDataset):
        return (rep.factors.nbytes + rep.latents.nbytes) // _LOAD_BYTES_PER_US
    if isinstance(rep, str) and not _is_matrix(rep):
        try:
            return os.path.getsize(rep) // _LOAD_BYTES_PER_US
        except OSError:  # resolving it raises the error, in its turn
            return 0
    return 0


def compare(rep_a, rep_b, metrics=None, labels=("a", "b"), binning=BinningSpec()):
    """Score two representations under each metric and flag every metric
    pair that prefers opposite representations. Exactly equal scores yield
    no preference. Two matrices default to the matrix metrics, any other
    pair to the dataset metrics. The caller resolves and scores ``rep_a``
    while, when the smaller of the two is worth a fork (see
    :func:`core._in_blocks`), one forked child resolves and scores ``rep_b``
    and sends back its scores: the caller holds one dataset at a time, and
    ``rep_a``'s error is raised before ``rep_b``'s."""
    if metrics is None:
        both_matrices = _is_matrix(rep_a) and _is_matrix(rep_b)
        metrics = list(metrics_mod.MATRIX_METRICS if both_matrices else metrics_mod.DATASET_METRICS)
    reps = (rep_a, rep_b)

    def scored(items):
        for i in items:
            reports = metrics_mod.evaluate_all(_resolve_representation(reps[i]), metrics=metrics, binning=binning)
            for r in reports:
                if r.skipped:
                    raise NotComputableError(f"metric {r.metric!r}: {r.skip_reason}")
            yield [r.score for r in reports]

    # side by side, the two take as long as the larger: a fork pays only for the smaller
    work = 2 * min(_load_work(rep_a), _load_work(rep_b))
    scores = dict(zip(metrics, zip(*_in_blocks(scored, 2, work))))
    preferred = {name: labels[0] if sa > sb else labels[1] if sb > sa else None
                 for name, (sa, sb) in scores.items()}
    disagreements = [(m1, m2) for m1, m2 in combinations(metrics, 2)
                     if None not in (preferred[m1], preferred[m2]) and preferred[m1] != preferred[m2]]
    return ComparisonReport(labels[0], labels[1], scores, preferred, disagreements)
