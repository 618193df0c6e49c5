"""The six disentanglement metrics.

BetaVAE and FactorVAE need an interventional oracle (they probe what
happens when one generative factor is held fixed); DCI, SAP, MIG, and
3CharM work from a paired dataset, and DCI, MIG and 3CharM also directly
from an informativeness / importance matrix. Every metric returns a
:class:`MetricReport` whose intermediates expose the quantities the score
is assembled from. :func:`evaluate_all` is the one entry point that runs a
selection of them on a dataset, an oracle or an informativeness matrix.

All argmax ties break deterministically toward the smallest index.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    ImportanceMatrix,
    InformativenessMatrix,
    MetricReport,
    NotComputableError,
    RepresentationDataset,
    RepresentationOracle,
    ValidationError,
    validate,
)
from . import estimators
from .estimators import BinningSpec, ClassifierConfig

FACTORVAE_REFERENCE_DRAWS = 10000
# factor rows per oracle call when drawing BetaVAE/FactorVAE batches
INTERVENTION_CHUNK_ROWS = 4096
FACTORVAE_STD_FLOOR = 1e-8
LOW_IMPORTANCE_MASS = 0.1


@dataclass(frozen=True)
class InterventionConfig:
    """Sampling regime for the oracle-based metrics."""

    train_points: int = 10000
    eval_points: int = 2000
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.train_points < 1 or self.eval_points < 1:
            raise ValueError("point counts must be >= 1")

    def as_dict(self):
        return {
            "train_points": self.train_points,
            "eval_points": self.eval_points,
            "batch_size": self.batch_size,
            "seed": self.seed,
        }


def _spawn_seeds(seed, count, domain=0):
    """Derived stream seeds; ``domain`` keeps different metrics' streams apart."""
    root = np.random.SeedSequence([domain, seed])
    return [int(s.generate_state(1)[0]) for s in root.spawn(count)]


def _top_two_gap(column):
    """(argmax index, top value, runner-up value); first index wins ties."""
    i = int(np.argmax(column))
    rest = np.delete(column, i)
    return i, float(column[i]), float(rest.max())


# ---------------------------------------------------------------------------
# BetaVAE
# ---------------------------------------------------------------------------


def _chunks(count, rows_per_batch):
    """(start, stop) batch ranges of at most INTERVENTION_CHUNK_ROWS rows
    each (one batch when a batch alone is larger)."""
    step = max(1, INTERVENTION_CHUNK_ROWS // rows_per_batch)
    return [(start, min(start + step, count)) for start in range(0, count, step)]


def _betavae_points(oracle, choice_rng, count, batch_size, n_factors):
    labels = choice_rng.integers(n_factors, size=count)
    feats = np.empty((count, oracle.n_latents))
    for start, stop in _chunks(count, 2 * batch_size):
        c = oracle.sample_batches(labels[start:stop], batch_size, paired=True)
        feats[start:stop] = np.abs(c[:, 0] - c[:, 1]).mean(axis=1)
    return feats, labels


def beta_vae_score(oracle, config=InterventionConfig()):
    """Accuracy of a linear classifier at telling which factor was fixed
    from batch-mean absolute latent differences.

    Each training point fixes one uniformly chosen factor within pairs
    (the shared value is drawn per pair from the factor marginal) and
    averages |c - c'| over the batch. The score is held-out accuracy on a
    disjoint seeded stream; train accuracy is reported alongside.
    """
    if oracle.n_factors < 2:
        raise NotComputableError("betavae needs at least 2 generative factors")
    seeds = _spawn_seeds(config.seed, 4, domain=1)
    train_feats, train_labels = _betavae_points(
        oracle.reseeded(seeds[0]), np.random.default_rng(seeds[1]),
        config.train_points, config.batch_size, oracle.n_factors,
    )
    eval_feats, eval_labels = _betavae_points(
        oracle.reseeded(seeds[2]), np.random.default_rng(seeds[3]),
        config.eval_points, config.batch_size, oracle.n_factors,
    )
    # standardize with train statistics: the raw differences sit in a narrow
    # band, which stalls zero-initialized gradient descent
    mu = train_feats.mean(axis=0)
    sigma = train_feats.std(axis=0)
    sigma[sigma == 0] = 1.0
    model = estimators.fit_linear_classifier(
        (train_feats - mu) / sigma, train_labels, ClassifierConfig()
    )
    eval_std = (eval_feats - mu) / sigma
    predictions = model.predict(eval_std)
    score = float(np.mean(predictions == eval_labels))
    per_class = {}
    for r in range(oracle.n_factors):
        mask = eval_labels == r
        per_class[f"factor_{r}"] = float(np.mean(predictions[mask] == r)) if mask.any() else None
    return MetricReport(
        metric="betavae",
        score=score,
        intermediates={
            "train_accuracy": model.accuracy((train_feats - mu) / sigma, train_labels),
            "per_class_accuracy": per_class,
            "feature_means": mu,
        },
        config=config.as_dict(),
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# FactorVAE
# ---------------------------------------------------------------------------


def _factorvae_points(oracle, choice_rng, count, batch_size, n_factors, ref_std, active):
    labels = choice_rng.integers(n_factors, size=count)
    dims = np.empty(count, dtype=np.int64)
    active_idx = np.flatnonzero(active)
    for start, stop in _chunks(count, batch_size + 1):
        c = oracle.sample_batches(labels[start:stop], batch_size)
        scaled = c[:, :, active_idx] / ref_std[active_idx]
        dims[start:stop] = active_idx[np.argmin(scaled.var(axis=1), axis=1)]
    return dims, labels


def factor_vae_score(oracle, config=InterventionConfig()):
    """Accuracy of a majority-vote classifier at telling which factor was
    fixed from the latent dimension of lowest normalized batch variance.

    Latents are normalized by their empirical std over a seeded reference
    sample; collapsed dimensions (reference std below 1e-8) are excluded
    from the variance argmin.
    """
    if oracle.n_factors < 2:
        raise NotComputableError("factorvae needs at least 2 generative factors")
    seeds = _spawn_seeds(config.seed, 5, domain=2)
    _, ref_latents = oracle.reseeded(seeds[0]).sample(FACTORVAE_REFERENCE_DRAWS)
    ref_std = ref_latents.std(axis=0)
    active = ref_std >= FACTORVAE_STD_FLOOR
    if not active.any():
        raise NotComputableError("all latent dimensions are degenerate (zero variance)")
    train_dims, train_labels = _factorvae_points(
        oracle.reseeded(seeds[1]), np.random.default_rng(seeds[2]),
        config.train_points, config.batch_size, oracle.n_factors, ref_std, active,
    )
    eval_dims, eval_labels = _factorvae_points(
        oracle.reseeded(seeds[3]), np.random.default_rng(seeds[4]),
        config.eval_points, config.batch_size, oracle.n_factors, ref_std, active,
    )
    table = estimators.majority_vote(
        np.column_stack([train_dims, train_labels]),
        n_latents=oracle.n_latents,
        n_factors=oracle.n_factors,
    )
    score = float(np.mean(table.predictions[eval_dims] == eval_labels))
    return MetricReport(
        metric="factorvae",
        score=score,
        intermediates={
            "train_accuracy": table.accuracy(np.column_stack([train_dims, train_labels])),
            "votes": table.votes,
            "reference_std": ref_std,
            "excluded_dimensions": np.flatnonzero(~active),
        },
        config=config.as_dict(),
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# DCI
# ---------------------------------------------------------------------------


def dci_score(importances):
    """Importance-weighted sum of per-latent disentanglement scores.

    Each latent's importance row is normalized to a distribution over
    factors; its score is one minus the base-K entropy of that
    distribution, and rows are weighted by their share of total
    importance. Rows with zero total importance contribute nothing.
    """
    p = importances.values if isinstance(importances, ImportanceMatrix) else np.asarray(importances, dtype=np.float64)
    p = np.atleast_2d(p)
    if (p < 0).any():
        raise ValueError("importances must be non-negative")
    n_latents, n_factors = p.shape
    row_sums = p.sum(axis=1)
    # reduce in value order so permuting latent rows cannot move the float sum
    total = np.sort(row_sums).sum()
    if total <= 0:
        raise NotComputableError("importance matrix is all zero")
    norm = np.zeros_like(p)
    nz = row_sums > 0
    norm[nz] = p[nz] / row_sums[nz, None]
    per_latent = np.zeros(n_latents)
    if n_factors == 1:
        # base-1 log is undefined; a one-factor row is a point mass
        per_latent[nz] = 1.0
    else:
        log_k = np.log(n_factors)
        for i in np.flatnonzero(nz):
            q = norm[i][norm[i] > 0]
            per_latent[i] = 1.0 + float((q * (np.log(q) / log_k)).sum())
    rho = row_sums / total
    score = float(np.clip(np.sort(rho * per_latent).sum(), 0.0, 1.0))
    return MetricReport(
        metric="dci",
        score=score,
        intermediates={
            "normalized_importances": norm,
            "per_latent_disentanglement": per_latent,
            "rho": rho,
        },
    )


def dci_from_dataset(dataset, method="forest", config=None):
    """DCI with the importance matrix estimated from data (one regressor
    per factor). Flags the report when the regressors explain almost none
    of the factor variance."""
    matrix, masses = estimators.importance_matrix_from_dataset(dataset, method, config)
    report = dci_score(matrix)
    report.intermediates["importances"] = matrix.values
    report.intermediates["explained_mass_per_factor"] = masses
    report.intermediates["low_informativeness"] = bool(masses.mean() < LOW_IMPORTANCE_MASS)
    report.config = {"method": method}
    return report


# ---------------------------------------------------------------------------
# SAP
# ---------------------------------------------------------------------------


def sap_score(dataset):
    """Mean over factors of the gap between the two most predictive latents.

    Predictability of a continuous factor from a single latent is the OLS
    R-squared; a discrete factor uses best-threshold stump accuracy
    rescaled from the majority-class baseline.
    """
    if dataset.n_latents < 2:
        raise NotComputableError("sap needs at least 2 latent dimensions")
    if dataset.n < 2:
        raise NotComputableError("sap needs at least 2 samples")
    n_latents, n_factors = dataset.n_latents, dataset.n_factors
    scores = np.zeros((n_latents, n_factors))
    # contiguous rows (strided views slow the R^2 sums), prescaled once each rather than once per pair
    factors, latents = (np.ascontiguousarray(m.T) for m in (dataset.factors, dataset.latents))
    scaled_factors, scaled_latents = (estimators.prescaled(m.T).T for m in (factors, latents))
    for j, card in enumerate(dataset.cardinalities):
        for i in range(n_latents):
            if card is not None:
                scores[i, j] = estimators.stump_accuracy(latents[i], factors[j])
            else:
                scores[i, j] = estimators.prescaled_r2(scaled_latents[i], scaled_factors[j])
    gaps = np.zeros(n_factors)
    selected = np.zeros(n_factors, dtype=np.int64)
    for j in range(n_factors):
        i_j, top, second = _top_two_gap(scores[:, j])
        selected[j] = i_j
        gaps[j] = top - second
    return MetricReport(
        metric="sap",
        score=float(np.clip(gaps.mean(), 0.0, 1.0)),
        intermediates={
            "informativeness": scores,
            "per_factor_gaps": gaps,
            "selected_latents": selected,
        },
    )


# ---------------------------------------------------------------------------
# MIG
# ---------------------------------------------------------------------------


def mig_score(matrix):
    """Mean over factors of the entropy-normalized gap between the two
    largest mutual-information entries in the factor's column."""
    if matrix.n_latents < 2:
        raise NotComputableError("mig needs at least 2 latent dimensions")
    for j, h in enumerate(matrix.factor_entropies):
        if h <= 0:
            raise NotComputableError(f"factor {j} has zero entropy")
    n_factors = matrix.n_factors
    gaps = np.zeros(n_factors)
    selected = np.zeros(n_factors, dtype=np.int64)
    for j in range(n_factors):
        i_j, top, second = _top_two_gap(matrix.values[:, j])
        selected[j] = i_j
        gaps[j] = (top - second) / matrix.factor_entropies[j]
    return MetricReport(
        metric="mig",
        score=float(np.clip(gaps.mean(), 0.0, 1.0)),
        intermediates={"per_factor_gaps": gaps, "selected_latents": selected},
    )


# ---------------------------------------------------------------------------
# 3CharM
# ---------------------------------------------------------------------------


def three_charm_score(matrix):
    """Assignment-based score: each latent claims the factor it reflects
    most; each factor keeps its most disentangled claimant.

    Per latent i, j_i = argmax_j I[i, j] and D_i = I[i, j_i] minus the
    best remaining entry of row i (0 when K = 1). Per factor j, the score
    D^z_j is the largest D_i among latents with j_i = j, or 0 when no
    latent claims j. The final score is sum_j D^z_j / sum_j H(z_j).
    """
    entropies = matrix.factor_entropies
    total_entropy = float(entropies.sum())
    if total_entropy <= 0:
        raise NotComputableError("total factor entropy is zero")
    values = matrix.values
    n_latents, n_factors = values.shape
    claimed = np.zeros(n_latents, dtype=np.int64)
    disentanglement = np.zeros(n_latents)
    for i in range(n_latents):
        if n_factors == 1:
            claimed[i] = 0
            disentanglement[i] = float(values[i, 0])
            continue
        j_i, top, second = _top_two_gap(values[i])
        claimed[i] = j_i
        disentanglement[i] = top - second
    best_latent = np.full(n_factors, -1, dtype=np.int64)
    factor_scores = np.zeros(n_factors)
    for j in range(n_factors):
        candidates = np.flatnonzero(claimed == j)
        if candidates.size == 0:
            continue
        best = candidates[int(np.argmax(disentanglement[candidates]))]
        best_latent[j] = best
        factor_scores[j] = disentanglement[best]
    return MetricReport(
        metric="3charm",
        score=float(np.clip(factor_scores.sum() / total_entropy, 0.0, 1.0)),
        intermediates={
            "claimed_factor_per_latent": claimed,
            "per_latent_disentanglement": disentanglement,
            "best_latent_per_factor": best_latent,
            "per_factor_scores": factor_scores,
            "factor_entropies": entropies,
        },
    )


# ---------------------------------------------------------------------------
# Metric registry and evaluate_all
# ---------------------------------------------------------------------------


def _check_columns(dataset):
    """Raise :class:`ValidationError` for a bad column; a missing factor or
    latent group is left to each metric to skip."""
    issues = [issue for issue in validate(dataset) if issue.column is not None]
    if issues:
        raise ValidationError(issues)


class _Inputs:
    """What one :func:`evaluate_all` call scores from. The dataset sampled
    from an oracle and the MI matrix (the given matrix, or estimated from
    the dataset) are each built on first use and at most once."""

    def __init__(self, source, config, binning, importance_method):
        self.source = source
        self.config = config
        self.binning = binning
        self.importance_method = importance_method
        self.matrix = source if isinstance(source, InformativenessMatrix) else None
        self._dataset = source if isinstance(source, RepresentationDataset) else None
        self._mi = self.matrix

    def dataset(self):
        if self._dataset is None:
            seed = _spawn_seeds(self.config.seed, 1, domain=3)[0]
            self._dataset = self.source.reseeded(seed).sample_dataset(self.config.train_points)
            _check_columns(self._dataset)
        return self._dataset

    def mi(self):
        if self._mi is None:
            self._mi = estimators.informativeness_from_mi(self.dataset(), self.binning)
        return self._mi

    def binned(self, report):
        """Stamp the binning an estimated MI matrix used; a given matrix used none."""
        if self.matrix is None:
            report.config = {"bins": self.binning.bin_count, "strategy": self.binning.strategy}
        return report


def _dci(inputs):
    if inputs.matrix is not None:
        return dci_score(inputs.matrix.values)
    return dci_from_dataset(inputs.dataset(), method=inputs.importance_method)


# name -> (what a source must supply, scorer); registry order is report
# order. A matrix supplies only "matrix" metrics, a dataset also "dataset"
# ones, an oracle all three. Scorers look the metric functions up at call
# time, so a wrapper installed on this module's attributes sees every call.
METRICS = {
    "betavae": ("oracle", lambda inputs: beta_vae_score(inputs.source, inputs.config)),
    "factorvae": ("oracle", lambda inputs: factor_vae_score(inputs.source, inputs.config)),
    "dci": ("matrix", _dci),
    "sap": ("dataset", lambda inputs: sap_score(inputs.dataset())),
    "mig": ("matrix", lambda inputs: inputs.binned(mig_score(inputs.mi()))),
    "3charm": ("matrix", lambda inputs: inputs.binned(three_charm_score(inputs.mi()))),
}
METRIC_NAMES = tuple(METRICS)
MATRIX_METRICS = tuple(name for name, (needs, _) in METRICS.items() if needs == "matrix")
DATASET_METRICS = tuple(name for name, (needs, _) in METRICS.items() if needs != "oracle")


def evaluate_all(source, metrics=None, config=InterventionConfig(),
                 binning=BinningSpec(), importance_method="forest"):
    """Run the selected metrics on a dataset, an oracle or an
    informativeness matrix.

    Metrics a given input cannot support come back as skip-marked reports
    with an explicit reason rather than being dropped silently. An oracle
    is sampled into a seeded dataset of ``train_points`` rows for the
    dataset-based metrics. A matrix is scored as given (by default with
    DCI, MIG and 3CharM); nothing is estimated from it, so its reports
    carry no seed and no config. A dataset with a bad column (unequal
    length, a non-finite value, an out-of-range discrete value) raises
    :class:`ValidationError` with the issues :func:`core.validate` found,
    and so does the dataset sampled from an oracle.
    """
    if metrics is not None and len(metrics) == 0:
        raise ValueError("no metrics selected")
    is_matrix = isinstance(source, InformativenessMatrix)
    if is_matrix:
        supplies = ("matrix",)
    elif isinstance(source, RepresentationDataset):
        supplies = ("matrix", "dataset")
    elif isinstance(source, RepresentationOracle):
        supplies = ("matrix", "dataset", "oracle")
    else:
        raise TypeError("source must be a RepresentationDataset, RepresentationOracle or InformativenessMatrix")
    selection = list(metrics) if metrics is not None else list(MATRIX_METRICS if is_matrix else METRIC_NAMES)
    for name in selection:
        if name not in METRICS:
            raise ValueError(f"unknown metric {name!r} (known: {', '.join(METRIC_NAMES)})")
    if isinstance(source, RepresentationDataset):
        _check_columns(source)

    inputs = _Inputs(source, config, binning, importance_method)
    seed = None if is_matrix else config.seed
    reports = []
    for name in selection:
        needs, scorer = METRICS[name]
        try:
            if needs not in supplies:
                raise NotComputableError(
                    f"metric {name!r} cannot be computed from a matrix" if is_matrix
                    else "requires interventional oracle"
                )
            report = scorer(inputs)
            report.seed = seed
        except NotComputableError as exc:
            report = MetricReport(
                metric=name, score=None, skipped=True, skip_reason=str(exc),
                config={} if is_matrix else config.as_dict(), seed=seed,
            )
        reports.append(report)
    return reports
