"""Statistical substrate for the metrics: plug-in entropy and mutual
information on binned data, least-squares informativeness, a gradient-descent
multinomial logistic classifier, majority-vote classification, and per-factor
feature importances (bagged regression forest or lasso).

Everything here is pure given (data, config, seed): repeated calls are
bit-reproducible and safe to run concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DegenerateLabelsError,
    ImportanceMatrix,
    InformativenessMatrix,
    NotComputableError,
)

BIN_STRATEGIES = ("quantile", "equal_width")


def prescaled(v):
    """``v`` (per column) times the power of two that brings its largest
    magnitude into [0.5, 1): exact, so no later step can overflow."""
    return np.ldexp(v, -np.frexp(np.abs(v).max(axis=0))[1])


@dataclass(frozen=True)
class BinningSpec:
    """How continuous values are turned into labels for the plug-in estimators."""

    strategy: str = "quantile"
    bin_count: int = 20

    def __post_init__(self):
        if self.strategy not in BIN_STRATEGIES:
            raise ValueError(f"unknown binning strategy {self.strategy!r}")
        if self.bin_count < 2:
            raise ValueError("bin_count must be >= 2")


def discretize(values, spec=BinningSpec()):
    """Map real values to labels in 0..bin_count-1.

    Quantile binning assigns near-equal counts per bin by stable rank;
    tied values share the bin of their first sorted occurrence, so equal
    inputs always land in the same bin and a strictly increasing transform
    of the input leaves the labels unchanged. Equal-width binning splits
    [min, max] uniformly. Constant input maps everything to bin 0.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a non-empty 1-d sequence")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    if v.min() == v.max():
        return np.zeros(v.size, dtype=np.int64)
    if spec.strategy == "quantile":
        n = v.size
        order = np.argsort(v, kind="stable")
        sorted_v = v[order]
        group_starts = np.arange(n)
        group_starts[1:][sorted_v[1:] == sorted_v[:-1]] = 0
        group_rank = np.maximum.accumulate(group_starts)
        ranks = np.empty(n, dtype=np.int64)
        ranks[order] = group_rank
        return (ranks * spec.bin_count) // n
    v = prescaled(v)
    lo, hi = v.min(), v.max()
    labels = np.floor((v - lo) / (hi - lo) * spec.bin_count).astype(np.int64)
    return np.clip(labels, 0, spec.bin_count - 1)


def _coded(labels):
    """(codes, count): each label's index among the sorted distinct labels."""
    _, codes = np.unique(labels, return_inverse=True)
    return codes, int(codes.max()) + 1


def _entropy(codes, count):
    p = np.bincount(codes, minlength=count) / codes.size
    return float(-(p * np.log(p)).sum())


def _mutual_information(a, b):
    (ia, na), (ib, nb) = a, b
    joint = np.bincount(ia * nb + ib, minlength=na * nb).reshape(na, nb) / ia.size
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    mi = float((joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])).sum())
    return max(mi, 0.0)


def entropy(labels):
    """Plug-in entropy -sum p ln p (nats) over observed labels."""
    a = np.asarray(labels)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("labels must be a non-empty 1-d sequence")
    return _entropy(*_coded(a))


def mutual_information(a, b):
    """Plug-in mutual information (nats) from the empirical joint histogram.

    Symmetric, and clamped at 0 against tiny negative floating error.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError("label sequences must be 1-d and of equal length")
    if a.size == 0:
        raise ValueError("label sequences must be non-empty")
    return _mutual_information(_coded(a), _coded(b))


def encode_factor(values, cardinality, spec=BinningSpec()):
    """Labels for a factor column: native labels for a discrete factor of
    at most ``spec.bin_count`` values, otherwise discretized per the spec."""
    if cardinality is not None and cardinality <= spec.bin_count:
        return values.astype(np.int64)
    return discretize(values, spec)


def informativeness_from_mi(dataset, spec=BinningSpec()):
    """(N, K) mutual-information matrix between latents and factors.

    Latents are always discretized; factor entropies are the plug-in
    entropies of the encoded factors, so an invertible latent map can reach
    I[i, j] = H(z_j) exactly.
    """
    factors, latents = (np.ascontiguousarray(m.T) for m in (dataset.factors, dataset.latents))
    # each column is coded once, not once per pair it takes part in
    factor_codes = [_coded(encode_factor(z, card, spec)) for z, card in zip(factors, dataset.cardinalities)]
    latent_codes = [_coded(discretize(c, spec)) for c in latents]
    values = np.zeros((len(latent_codes), len(factor_codes)))
    for i, a in enumerate(latent_codes):
        for j, b in enumerate(factor_codes):
            values[i, j] = _mutual_information(a, b)
    entropies = np.array([_entropy(*b) for b in factor_codes])
    return InformativenessMatrix(values, entropies, provenance="mutual_information")


def linear_regression_r2(x, y):
    """R-squared of ordinary least squares of y on (1, x), clamped to [0, 1].

    Constant x (or constant y) carries no linear signal and returns 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("x and y must share a length >= 2")
    return prescaled_r2(prescaled(x), prescaled(y))


def prescaled_r2(x, y):
    """:func:`linear_regression_r2` of two columns already passed through :func:`prescaled`."""
    vx = x.var()
    vy = y.var()
    if vx == 0.0 or vy == 0.0:
        return 0.0
    cov = ((x - x.mean()) * (y - y.mean())).mean()
    return float(np.clip(cov * cov / (vx * vy), 0.0, 1.0))


def stump_accuracy(x, labels):
    """Best single-threshold classification accuracy of labels from x,
    rescaled to [0, 1] from the majority-class baseline."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    n = x.size
    classes, y = np.unique(labels, return_inverse=True)
    counts = np.bincount(y)
    p_max = counts.max() / n
    if classes.size < 2 or p_max == 1.0:
        return 0.0
    order = np.argsort(x, kind="stable")
    xs = x[order]
    onehot = np.zeros((n, classes.size), dtype=np.int64)
    onehot[np.arange(n), y[order]] = 1
    prefix = np.vstack([np.zeros(classes.size, dtype=np.int64), np.cumsum(onehot, axis=0)])
    left_best = prefix.max(axis=1)
    right_best = (counts[None, :] - prefix).max(axis=1)
    # splits allowed only between distinct x values (plus the trivial ends)
    valid = np.ones(n + 1, dtype=bool)
    valid[1:n] = xs[1:] > xs[:-1]
    acc = ((left_best + right_best)[valid]).max() / n
    return float(np.clip((acc - p_max) / (1.0 - p_max), 0.0, 1.0))


# ---------------------------------------------------------------------------
# Multinomial logistic classifier (full-batch gradient descent)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifierConfig:
    learning_rate: float = 0.1
    epochs: int = 500


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """Softmax-linear model; weights are (C, D+1), last column is the bias."""

    weights: np.ndarray

    def decision(self, points):
        x = np.asarray(points, dtype=np.float64)
        return x @ self.weights[:, :-1].T + self.weights[:, -1]

    def predict(self, points):
        return np.argmax(self.decision(points), axis=1)

    def accuracy(self, points, labels):
        return float(np.mean(self.predict(points) == np.asarray(labels)))


def fit_linear_classifier(points, labels, config=ClassifierConfig()):
    """Train a multinomial logistic model by full-batch gradient descent.

    Zero-initialized, so fully deterministic for a fixed config.
    """
    x = np.asarray(points, dtype=np.float64)
    y = np.asarray(labels).astype(np.int64)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise ValueError("points must be (n, D) with one label per row")
    if not np.isfinite(x).all():
        raise ValueError("points must be finite")
    if np.unique(y).size < 2:
        raise DegenerateLabelsError("need at least two classes to fit a classifier")
    n, d = x.shape
    n_classes = int(y.max()) + 1
    xb = np.hstack([x, np.ones((n, 1))])
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    w = np.zeros((n_classes, d + 1))
    for _ in range(config.epochs):
        scores = xb @ w.T
        # row max as a fold over the few class columns: an axis-1 reduce of
        # C-wide rows runs one short inner loop per row
        top = scores[:, 0]
        for j in range(1, n_classes):
            top = np.maximum(top, scores[:, j])
        scores -= top[:, None]
        probs = np.exp(scores)
        probs /= probs.sum(axis=1, keepdims=True)
        grad = (probs - onehot).T @ xb / n
        w = w - config.learning_rate * grad
    return LinearClassifier(w)


# ---------------------------------------------------------------------------
# Majority-vote classifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MajorityVoteTable:
    """Vote counts (N latent dims x K factors); predicts the argmax factor
    per latent dimension, ties broken by smallest factor index."""

    votes: np.ndarray

    @property
    def predictions(self):
        return np.argmax(self.votes, axis=1)

    def accuracy(self, pairs):
        pairs = np.asarray(pairs, dtype=np.int64)
        return float(np.mean(self.predictions[pairs[:, 0]] == pairs[:, 1]))


def majority_vote(pairs, n_latents, n_factors):
    """Tally (latent_index, factor_index) training pairs into a vote table."""
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        raise ValueError("majority_vote needs at least one training pair")
    pairs = pairs.reshape(-1, 2)
    votes = np.zeros((n_latents, n_factors), dtype=np.int64)
    np.add.at(votes, (pairs[:, 0], pairs[:, 1]), 1)
    return MajorityVoteTable(votes)


# ---------------------------------------------------------------------------
# Per-factor feature importances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 50
    max_depth: int = 5
    bag_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.bag_fraction <= 1.0:
            raise ValueError("bag_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class LassoConfig:
    alpha: float = 0.01
    max_iter: int = 1000
    tol: float = 1e-10


def _grow_tree(q, order, vals, tied, max_depth, importance):
    """Grow one exact variance-reduction tree depth-first on the int64
    target ``q`` (bag order), adding each split's gain
    (S_L*m - S*l)^2 / (l*(m-l)*m) to ``importance``. ``order`` is the bag's
    stable argsort per latent (N, bag); filtering a stable sort by a mark
    gives the stable sort of the subset, so no node sorts again. ``vals``
    holds the sorted values of the latents ``tied`` (those with a repeated
    value in the bag), whose thresholds must fall between distinct values.
    Latents tying on the best gain are grouped by their left row sets; the
    group with the smallest sorted row ids is split on and shares the gain,
    so the tree does not depend on the order of the latent columns."""
    n_latents = order.shape[0]
    latent_ids, lefts = np.arange(n_latents), np.arange(1, q.size)
    in_left = np.zeros(q.size, dtype=bool)
    stack = [(order, vals, 0)]
    while stack:
        sorted_rows, vals, depth = stack.pop()
        m = sorted_rows.shape[1]
        if depth >= max_depth or m < 2:
            continue
        c = np.cumsum(q[sorted_rows], axis=1)
        left = lefts[:m - 1]
        d = c[:, :-1] * m
        d -= c[0, -1] * left
        gains = d.astype(np.float64)
        gains *= gains
        gains /= left * (m - left) * float(m)
        if tied.size:
            gains[tied] *= vals[:, 1:] > vals[:, :-1]  # thresholds between distinct values
        pos = gains.argmax(axis=1)
        best = gains[latent_ids, pos].tolist()
        gain = max(best)
        if gain <= 0.0:
            continue
        feats = [f for f, g in enumerate(best) if g == gain]
        if len(feats) > 1:
            groups = {}
            for f in feats:
                groups.setdefault(tuple(np.sort(sorted_rows[f, :pos[f] + 1]).tolist()), []).append(f)
            feats = min(groups.items())[1]
        importance[feats] += gain / len(feats)
        if depth + 1 >= max_depth:
            continue
        n_left = int(pos[feats[0]]) + 1
        in_left[sorted_rows[feats[0], :n_left]] = True
        mark = in_left[sorted_rows]
        in_left[sorted_rows[feats[0], :n_left]] = False
        for side, size in ((mark, n_left), (~mark, m - n_left)):
            side_vals = vals[side[tied]].reshape(tied.size, size) if tied.size else vals
            stack.append((sorted_rows[side].reshape(n_latents, size), side_vals, depth + 1))


def _quantized(target, bag):
    """The target as int64 in a fixed unit: prescaled, centred and rounded to
    B = 62 - 2*ceil(log2(bag)) bits, so that for every node of m <= bag rows
    |S_L*m| and |S*l| stay below 2^62."""
    y = prescaled(target)
    y = y - y.mean()
    bits = 62 - 2 * (bag - 1).bit_length()
    return np.rint(np.ldexp(y, bits - np.frexp(np.abs(y).max())[1])).astype(np.int64)


def _forest_importances(latents, targets, config):
    """Raw summed impurity decrease per latent (one row per target), and
    the fraction of each target's bagged sum of squares it removed. Every
    target shares the bag and presort of a tree, drawn from (seed, tree)."""
    n, n_latents = latents.shape
    bag = max(1, int(round(config.bag_fraction * n)))
    qs = [_quantized(target, bag) for target in targets]
    importance = np.zeros((len(targets), n_latents))
    root_sse = [0.0] * len(targets)
    for t in range(config.n_trees):
        idx = np.random.default_rng([config.seed, t]).choice(n, size=bag, replace=False)
        x = latents[idx].T
        order = np.argsort(x, axis=1, kind="stable")
        xs = np.take_along_axis(x, order, axis=1)
        tied = np.flatnonzero((xs[:, 1:] <= xs[:, :-1]).any(axis=1))
        for j, q in enumerate(qs):
            qb = q[idx]
            r = (qb * bag - qb.sum()).astype(np.float64)  # bag times the centred target, exact
            root_sse[j] += float((r * r).sum()) / (bag * bag)
            _grow_tree(qb, order, xs[tied], tied, config.max_depth, importance[j])
    masses = [math.fsum(imp) / sse if sse > 0 else 0.0 for imp, sse in zip(importance, root_sse)]
    return importance, masses


def _lasso_importances(latents, target, config):
    """|coefficients| of an L1 fit by coordinate descent on standardized
    latents and a unit-variance target."""
    x = prescaled(latents)
    x -= x.mean(axis=0)
    scale = x.std(axis=0)
    nz = scale > 0
    x[:, nz] /= scale[nz]
    y = prescaled(target)
    y = y - y.mean()
    sy = y.std()
    if sy == 0:
        return np.zeros(latents.shape[1]), 0.0
    y = y / sy
    n, d = x.shape
    w = np.zeros(d)
    col_sq = (x * x).sum(axis=0) / n
    residual = y.copy()
    for _ in range(config.max_iter):
        max_step = 0.0
        for j in range(d):
            if col_sq[j] == 0:
                continue
            rho = (x[:, j] @ (residual + x[:, j] * w[j])) / n
            new_w = np.sign(rho) * max(abs(rho) - config.alpha, 0.0) / col_sq[j]
            step = new_w - w[j]
            if step != 0.0:
                residual -= x[:, j] * step
                w[j] = new_w
                max_step = max(max_step, abs(step))
        if max_step < config.tol:
            break
    r2 = max(0.0, 1.0 - float((residual * residual).mean()))
    return np.abs(w), r2


def _importances_with_mass(latents, targets, method, config):
    """Per-latent importances for each target (one row per target),
    normalized to sum to 1 for the forest (all zeros for a constant
    target), plus each target's explained mass."""
    if method == "forest":
        raw, masses = _forest_importances(latents, targets, config or ForestConfig())
        return [r / math.fsum(r) if r.any() else r for r in raw], masses
    if method == "lasso":
        fits = [_lasso_importances(latents, t, config or LassoConfig()) for t in targets]
        return [w for w, _ in fits], [r2 for _, r2 in fits]
    raise ValueError(f"unknown importance method {method!r}")


def importance_matrix_from_dataset(dataset, method="forest", config=None):
    """(N, K) importance matrix plus the per-factor explained-mass diagnostics."""
    if dataset.n_factors < 1 or dataset.n_latents < 1:
        raise NotComputableError("dataset has no factor or latent columns")
    columns, masses = _importances_with_mass(dataset.latent_matrix(), dataset.factors.T, method, config)
    return ImportanceMatrix(np.column_stack(columns)), np.array(masses)
