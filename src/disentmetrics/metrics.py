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

from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    InformativenessMatrix,
    MetricReport,
    NotComputableError,
    RepresentationDataset,
    RepresentationOracle,
    UsageError,
    _in_blocks,
    _in_range,
)
from . import estimators
from .estimators import IMPORTANCE_METHODS, BinningSpec, ClassifierConfig

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
        for name, low in (("train_points", 1), ("eval_points", 1), ("batch_size", 2), ("seed", 0)):
            _in_range(name, getattr(self, name), low, whole=True)


def _spawn_seeds(seed, count, domain=0):
    """Derived stream seeds; ``domain`` keeps different metrics' streams apart."""
    root = np.random.SeedSequence([domain, seed])
    return [int(s.generate_state(1)[0]) for s in root.spawn(count)]


def _column_gaps(values):
    """Per column of ``values`` (at least two rows): the row of its largest
    entry (first index wins ties) and that entry minus the runner-up."""
    rows, cols = np.argmax(values, axis=0), np.arange(values.shape[1])
    rest = np.array(values)
    rest[rows, cols] = -np.inf
    return rows, values[rows, cols] - rest.max(axis=0)


def _factor_gap_report(metric, values, normalizers, **intermediates):
    """SAP's and MIG's reduction of an (N, K) matrix: the mean over factors
    of the gap between the column's two largest entries over the factor's
    normalizer, clipped to [0, 1]."""
    if values.shape[0] < 2:
        raise NotComputableError("needs at least 2 latent dimensions")
    if values.shape[1] < 1:
        raise NotComputableError("needs at least 1 generative factor")
    selected, gaps = _column_gaps(values)
    gaps = gaps / normalizers
    return MetricReport(
        metric=metric,
        score=float(np.clip(gaps.mean(), 0.0, 1.0)),
        intermediates={**intermediates, "per_factor_gaps": gaps, "selected_latents": selected},
    )


# ---------------------------------------------------------------------------
# BetaVAE
# ---------------------------------------------------------------------------


def _chunks(count, rows_per_batch):
    """(start, stop) batch ranges of at most INTERVENTION_CHUNK_ROWS rows
    each (one batch when a batch alone is larger)."""
    step = max(1, INTERVENTION_CHUNK_ROWS // rows_per_batch)
    return [(start, min(start + step, count)) for start in range(0, count, step)]


def _splits(config, seeds):
    """The train and the eval split as ``(oracle seed, choice stream, count)``,
    each seeded from its own pair of ``seeds``."""
    return [(seeds[i], np.random.default_rng(seeds[i + 1]), count)
            for i, count in ((0, config.train_points), (2, config.eval_points))]


def _points(oracle, splits, rows_per_batch, chunk_points):
    """Per split ``(seed, choice_rng, count)`` of :func:`_splits`: the values
    ``chunk_points(oracle, labels)`` gives for its ``count`` batches, and their
    labels, drawn in one ``integers(K, size=count)`` call on ``choice_rng``.
    Chunk c of a split (see :func:`_chunks`) runs on an oracle stream of its
    own, spawned c-th from the split's seed. The chunks of every split run in
    blocks (see :func:`core._in_blocks`), so the values do not depend on the
    number of CPUs."""
    labels, jobs = [], []
    for split, (seed, choice_rng, count) in enumerate(splits):
        labels.append(choice_rng.integers(oracle.n_factors, size=count))
        chunks = _chunks(count, rows_per_batch)
        streams = np.random.SeedSequence(seed).spawn(len(chunks))
        jobs += [(split, labels[-1][start:stop], stream) for (start, stop), stream in zip(chunks, streams)]

    def block(ids):
        for j in ids:
            _, chunk_labels, stream = jobs[j]
            yield chunk_points(oracle.reseeded(stream), chunk_labels)

    values = [[] for _ in splits]
    rows = sum(count for _, _, count in splits) * rows_per_batch
    for (split, _, _), part in zip(jobs, _in_blocks(block, len(jobs), rows * 8 // 100)):  # 0.08 us a row
        values[split].append(part)
    return [(np.concatenate(v), r) for v, r in zip(values, labels)]


def _betavae_points(oracle, splits, batch_size):
    """Per split: BetaVAE's batch-mean absolute latent differences, and labels."""
    def chunk(oracle, r):
        # batch t is 2 x B factor rows whose second half copies column r[t] of its first
        t = np.arange(r.size)
        z = oracle.sample_factors(t.size * 2 * batch_size).reshape(t.size, 2, batch_size, -1)
        z[t, 1, :, r] = z[t, 0, :, r]
        c = oracle.encode(z.reshape(-1, oracle.n_factors)).reshape(t.size, 2, batch_size, -1)
        diff = np.subtract(c[:, 0], c[:, 1])  # np.abs(diff).mean(axis=1), in one buffer
        return np.add.reduce(np.abs(diff, out=diff), axis=1) / batch_size

    return _points(oracle, splits, 2 * batch_size, chunk)


def beta_vae_score(oracle, config=InterventionConfig()):
    """Accuracy of a linear classifier at telling which factor was fixed
    from batch-mean absolute latent differences.

    Each training point fixes one uniformly chosen factor within pairs
    (the shared value is drawn per pair from the factor marginal) and
    averages |c - c'| over the batch. The score is held-out accuracy on a
    disjoint seeded stream; train accuracy is reported alongside.
    """
    if oracle.n_factors < 2:
        raise NotComputableError("needs at least 2 generative factors")
    seeds = _spawn_seeds(config.seed, 4, domain=1)
    (train_feats, train_labels), (eval_feats, eval_labels) = _betavae_points(
        oracle, _splits(config, seeds), config.batch_size)
    # standardize with train statistics: the raw differences sit in a narrow
    # band, which stalls zero-initialized gradient descent
    mu = train_feats.mean(axis=0)
    sigma = train_feats.std(axis=0)
    sigma[sigma == 0] = 1.0
    train_std = (train_feats - mu) / sigma
    model = estimators.fit_linear_classifier(train_std, train_labels, ClassifierConfig())
    predictions = model.predict((eval_feats - mu) / sigma)
    score = float(np.mean(predictions == eval_labels))
    per_class = {}
    for r in range(oracle.n_factors):
        mask = eval_labels == r
        per_class[f"factor_{r}"] = float(np.mean(predictions[mask] == r)) if mask.any() else None
    return MetricReport(
        metric="betavae",
        score=score,
        intermediates={
            "train_accuracy": model.accuracy(train_std, train_labels),
            "per_class_accuracy": per_class,
            "feature_means": mu,
        },
        config=asdict(config),
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# FactorVAE
# ---------------------------------------------------------------------------


def _factorvae_points(oracle, splits, batch_size, ref_std, active):
    """Per split: FactorVAE's latent dimension of least normalized batch variance, and labels."""
    active_idx = np.flatnonzero(active)

    def chunk(oracle, r):
        # block t is B + 1 factor rows; the first only supplies the value column r[t] holds in the other B
        t = np.arange(r.size)
        z = oracle.sample_factors(t.size * (batch_size + 1)).reshape(t.size, batch_size + 1, -1)
        z[t, 1:, r] = z[t, 0, r][:, None]
        c = oracle.encode(z[:, 1:].reshape(-1, oracle.n_factors)).reshape(t.size, batch_size, -1)
        scaled = c[:, :, active_idx] / ref_std[active_idx]
        return active_idx[np.argmin(scaled.var(axis=1), axis=1)]

    return _points(oracle, splits, batch_size + 1, chunk)


def factor_vae_score(oracle, config=InterventionConfig()):
    """Accuracy of a majority-vote classifier at telling which factor was
    fixed from the latent dimension of lowest normalized batch variance.

    Latents are normalized by their empirical std over a seeded reference
    sample; collapsed dimensions (reference std below 1e-8) are excluded
    from the variance argmin.
    """
    if oracle.n_factors < 2:
        raise NotComputableError("needs at least 2 generative factors")
    seeds = _spawn_seeds(config.seed, 5, domain=2)
    _, ref_latents = oracle.reseeded(seeds[0]).sample(FACTORVAE_REFERENCE_DRAWS)
    ref_std = ref_latents.std(axis=0)
    active = ref_std >= FACTORVAE_STD_FLOOR
    if not active.any():
        raise NotComputableError("all latent dimensions are degenerate (zero variance)")
    (train_dims, train_labels), (eval_dims, eval_labels) = _factorvae_points(
        oracle, _splits(config, seeds[1:]), config.batch_size, ref_std, active)
    train_pairs = np.column_stack([train_dims, train_labels])
    table = estimators.majority_vote(train_pairs, n_latents=oracle.n_latents, n_factors=oracle.n_factors)
    score = float(np.mean(table.predictions[eval_dims] == eval_labels))
    return MetricReport(
        metric="factorvae",
        score=score,
        intermediates={
            "train_accuracy": table.accuracy(train_pairs),
            "votes": table.votes,
            "reference_std": ref_std,
            "excluded_dimensions": np.flatnonzero(~active),
        },
        config=asdict(config),
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# DCI
# ---------------------------------------------------------------------------


def dci_score(importances):
    """Importance-weighted sum of per-latent disentanglement scores.

    ``importances`` is an (N, K) array-like of finite, non-negative
    entries (:class:`NotComputableError` otherwise). Each latent's
    importance row is normalized to a distribution over factors; its score
    is one minus the base-K entropy of that distribution, and rows are
    weighted by their share of total importance. Rows with zero total
    importance contribute nothing.
    """
    p = np.atleast_2d(np.asarray(importances, dtype=np.float64))
    if p.ndim != 2 or not np.isfinite(p).all() or (p < 0).any():
        raise NotComputableError("importances must be an (N, K) matrix of finite, non-negative entries")
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


def dci_from_dataset(dataset, method=IMPORTANCE_METHODS[0]):
    """DCI with the importance matrix estimated from data (one regressor
    per factor). Flags the report when the regressors explain almost none
    of the factor variance."""
    matrix, masses = estimators.importance_matrix_from_dataset(dataset, method)
    report = dci_score(matrix)
    report.intermediates["importances"] = matrix
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
    if dataset.n < 2:
        raise NotComputableError("needs at least 2 samples")
    scores = np.zeros((dataset.n_latents, dataset.n_factors))
    # contiguous column copies (strided views slow the R^2 sums), each centred once rather than
    # once per pair: every factor first, then one latent at a time
    cards = dataset.cardinalities
    factors = []
    for j, card in enumerate(cards):
        z = np.ascontiguousarray(dataset.factors[:, j])
        factors.append(z if card is not None else estimators.centred(z))
    for i in range(dataset.n_latents):
        c = np.ascontiguousarray(dataset.latents[:, i])
        centred_c = estimators.centred(c)
        scores[i] = [estimators.stump_accuracy(c, z) if card is not None else estimators.centred_r2(centred_c, z)
                     for z, card in zip(factors, cards)]
    return _factor_gap_report("sap", scores, 1.0, informativeness=scores)


# ---------------------------------------------------------------------------
# MIG
# ---------------------------------------------------------------------------


def mig_score(matrix):
    """Mean over factors of the entropy-normalized gap between the two
    largest mutual-information entries in the factor's column."""
    for j, h in enumerate(matrix.factor_entropies):
        if h <= 0:
            raise NotComputableError(f"factor {j} has zero entropy")
    return _factor_gap_report("mig", matrix.values, matrix.factor_entropies)


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
    if n_factors == 1:
        claimed, disentanglement = np.zeros(n_latents, dtype=np.int64), values[:, 0]
    else:
        claimed, disentanglement = _column_gaps(values.T)
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
                 binning=BinningSpec(), importance_method=IMPORTANCE_METHODS[0]):
    """Run the selected metrics on a dataset, an oracle or an
    informativeness matrix.

    Metrics a given input cannot support come back as skip-marked reports
    with an explicit reason rather than being dropped silently. An oracle
    is sampled into a seeded dataset of ``train_points`` rows for the
    dataset-based metrics. A matrix is scored as given (by default with
    DCI, MIG and 3CharM); nothing is estimated from it, so its reports
    carry no seed and no config. A dataset has valid columns by
    construction (a bad one raises :class:`ValidationError` where the
    dataset is built, a dataset sampled from an oracle included), so no
    column is checked here; a dataset with no factor or no latent columns
    is scored, and each metric that needs the missing group is skipped.
    """
    if metrics is not None and len(metrics) == 0:
        raise UsageError("no metrics selected")
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
            raise UsageError(f"unknown metric {name!r} (known: {', '.join(METRIC_NAMES)})")

    inputs = _Inputs(source, config, binning, importance_method)
    seed = None if is_matrix else config.seed
    reports = []
    for name in selection:
        needs, scorer = METRICS[name]
        try:
            if needs not in supplies:
                raise NotComputableError(
                    "cannot be computed from a matrix" if is_matrix
                    else "requires interventional oracle"
                )
            report = scorer(inputs)
            report.seed = seed
        except NotComputableError as exc:
            report = MetricReport(
                metric=name, score=None, skipped=True, skip_reason=str(exc),
                config={} if is_matrix else asdict(config), seed=seed,
            )
        reports.append(report)
    return reports
