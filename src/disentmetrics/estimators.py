"""Statistical substrate for the metrics: plug-in entropy and mutual
information on binned data, least-squares informativeness, a gradient-descent
multinomial logistic classifier, majority-vote classification, and per-factor
feature importances (bagged regression forest or lasso).

Everything here is pure given (data, config, seed): repeated calls are
bit-reproducible and safe to run concurrently. The forest grows its trees
on every usable CPU through :func:`core._in_blocks`: contiguous blocks of
trees run in forked child processes, and the caller replays their
importance adds in tree order, so the result does not depend on the number
of CPUs. A forest with too little work for a fork grows in one process.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DegenerateLabelsError,
    InformativenessMatrix,
    NotComputableError,
    UsageError,
    _in_blocks,
    _in_range,
)

BIN_STRATEGIES = ("quantile", "equal_width")
# DCI's regressors, the default ("forest") first
IMPORTANCE_METHODS = ("forest", "lasso")
# the lasso's coordinate descent ends after LASSO_MAX_ITER sweeps or the first that moves no weight by LASSO_TOL
LASSO_MAX_ITER = 1000
LASSO_TOL = 1e-10


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
            raise UsageError(f"unknown binning strategy {self.strategy!r}")
        _in_range("bin_count", self.bin_count, 2, whole=True)


def discretize(values, spec=BinningSpec()):
    """Map real values to labels in 0..bin_count-1.

    Quantile binning gives a value x the label
    ``(#{values below x} * bin_count) // n``: near-equal counts per bin,
    equal inputs always in the same bin (that of their first sorted
    occurrence), and labels unchanged by a strictly increasing transform of
    the input. Equal-width binning splits [min, max] uniformly. Constant
    input maps everything to bin 0.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise UsageError("values must be a non-empty 1-d sequence")
    if not np.isfinite(v).all():
        raise UsageError("values must be finite")
    if v.min() == v.max():
        return np.zeros(v.size, dtype=np.int64)
    if spec.strategy == "quantile":
        # the label is at least b exactly when x exceeds the sorted value of
        # rank ceil(b*n/bin_count) - 1, so it counts those bin_count - 1 bounds below x
        n = v.size
        bounds = np.sort(v)[-(-np.arange(1, spec.bin_count) * n // spec.bin_count) - 1]
        return np.searchsorted(bounds, v, side="left")
    v = prescaled(v)
    lo, hi = v.min(), v.max()
    labels = np.floor((v - lo) / (hi - lo) * spec.bin_count).astype(np.int64)
    return np.clip(labels, 0, spec.bin_count - 1)


def _coded(labels):
    """(codes, counts): each label's index among the sorted distinct labels,
    and how often each distinct label occurs. Small non-negative integer
    labels (all that :func:`informativeness_from_mi` makes) are counted
    without a sort, in a table no longer than the labels plus 1024."""
    if labels.dtype.kind == "i" and labels.min() >= 0 and labels.max() < labels.size + 1024:
        counts = np.bincount(labels)
        present = counts > 0
        return (np.cumsum(present) - 1)[labels], counts[present]
    _, codes, counts = np.unique(labels, return_inverse=True, return_counts=True)
    return codes, counts


def _entropy(codes, counts):
    p = counts / codes.size
    return float(-(p * np.log(p)).sum())


def _mutual_information(a, b):
    (ia, ca), (ib, cb) = a, b
    na, nb = ca.size, cb.size
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
        raise UsageError("labels must be a non-empty 1-d sequence")
    return _entropy(*_coded(a))


def mutual_information(a, b):
    """Plug-in mutual information (nats) from the empirical joint histogram.

    Symmetric, and clamped at 0 against tiny negative floating error.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise UsageError("label sequences must be 1-d and of equal length")
    if a.size == 0:
        raise UsageError("label sequences must be non-empty")
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
    I[i, j] = H(z_j) exactly, and no entry may exceed it by more than 1e-9
    (a plain ``ValueError`` otherwise: a fault in the estimator, not in the data).
    """
    # each column is coded once, not once per pair it takes part in: the factors' codes
    # first, then one latent column at a time, each from a contiguous copy of the column
    factor_codes = [_coded(encode_factor(np.ascontiguousarray(dataset.factors[:, j]), card, spec))
                    for j, card in enumerate(dataset.cardinalities)]
    values = np.zeros((dataset.n_latents, len(factor_codes)))
    for i in range(dataset.n_latents):
        a = _coded(discretize(np.ascontiguousarray(dataset.latents[:, i]), spec))
        for j, b in enumerate(factor_codes):
            values[i, j] = _mutual_information(a, b)
    entropies = np.array([_entropy(*b) for b in factor_codes])
    if (values > entropies + 1e-9).any():
        raise ValueError("mutual information exceeds factor entropy")
    return InformativenessMatrix(values, entropies)


def linear_regression_r2(x, y):
    """R-squared of ordinary least squares of y on (1, x), clamped to [0, 1].

    Constant x (or constant y) carries no linear signal and returns 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size or x.size < 2:
        raise UsageError("x and y must be 1-d and share a length >= 2")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise UsageError("x and y must be finite")
    return centred_r2(centred(x), centred(y))


def centred(v):
    """(column, variance): ``v`` passed through :func:`prescaled` and
    centred, with the variance of the prescaled column."""
    v = prescaled(v)
    return v - v.mean(), v.var()


def centred_r2(a, b):
    """:func:`linear_regression_r2` of two columns passed through :func:`centred`."""
    (x, vx), (y, vy) = a, b
    if vx == 0.0 or vy == 0.0:
        return 0.0
    cov = (x * y).mean()
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
    # cuts fall only between distinct values, so the order within ties cannot reach a prefix count
    order = np.argsort(x)
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

    def __post_init__(self):
        _in_range("learning_rate", self.learning_rate, 0)
        _in_range("epochs", self.epochs, 1, whole=True)


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
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise UsageError("points must be (n, D) with one label per row")
    if not np.isfinite(x).all():
        raise UsageError("points must be finite")
    if y.dtype.kind == "f" and not (np.isfinite(y) & (y == np.trunc(y))).all():
        raise UsageError("labels must be integers")
    y = y.astype(np.int64)
    if (y < 0).any():
        raise UsageError("labels must be non-negative")
    if np.unique(y).size < 2:
        raise DegenerateLabelsError("need at least two classes to fit a classifier")
    n, d = x.shape
    n_classes = int(y.max()) + 1
    xb = np.hstack([x, np.ones((n, 1))])
    onehot = np.zeros((n_classes, n))
    onehot[y, np.arange(n)] = 1.0
    w_t = np.zeros((d + 1, n_classes))  # the weights, transposed
    scores = np.empty((n_classes, n))
    for _ in range(config.epochs):
        # the softmax runs on one C-contiguous (C, n) block, filled through its
        # transposed view and drained by xb.T @ scores.T: the bits of the (n, C)
        # loop, which w @ xb.T (from 12 classes on) and scores @ xb would miss
        np.matmul(xb, w_t, out=scores.T)
        # row max and row sum as folds over the class rows; numpy adds fewer
        # than 8 values in order, as the fold does, and 8 or more pairwise
        scores -= functools.reduce(np.maximum, scores)
        np.exp(scores, out=scores)
        scores /= functools.reduce(np.add, scores) if n_classes < 8 else np.ascontiguousarray(scores.T).sum(axis=1)
        scores -= onehot  # the softmax minus the one-hot labels
        w_t -= config.learning_rate * (xb.T @ scores.T / n)
    return LinearClassifier(np.ascontiguousarray(w_t.T))


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
    pairs = np.asarray(pairs)
    if pairs.size == 0:
        raise UsageError("majority_vote needs at least one training pair")
    pairs = pairs.reshape(-1, 2)
    if pairs.dtype.kind == "f":
        fractional = ~(np.isfinite(pairs) & (pairs == np.trunc(pairs))).all(axis=1)
        if fractional.any():
            latent, factor = pairs[fractional.argmax()].tolist()
            raise UsageError(f"pair (latent {latent}, factor {factor}) is not a pair of whole numbers")
    outside = (pairs < 0).any(axis=1) | (pairs[:, 0] >= n_latents) | (pairs[:, 1] >= n_factors)
    if outside.any():
        latent, factor = (int(v) for v in pairs[outside.argmax()])
        raise UsageError(f"pair (latent {latent}, factor {factor}) lies outside the {n_latents} x {n_factors} vote table")
    pairs = pairs.astype(np.int64, copy=False)
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
        for name, low in (("n_trees", 1), ("max_depth", 1), ("seed", 0)):
            _in_range(name, getattr(self, name), low, whole=True)
        if _in_range("bag_fraction", self.bag_fraction, 0, 1) == 0:  # a bag of no rows
            raise UsageError(f"bag_fraction must be above 0, got {self.bag_fraction!r}")


@dataclass(frozen=True)
class LassoConfig:
    alpha: float = 0.01

    def __post_init__(self):
        _in_range("alpha", self.alpha, 0)


def _grow_tree(q, order, vals, tied, max_depth, credited, shares):
    """Grow one exact variance-reduction tree depth-first on the int64
    target ``q`` (bag order). Each split's gain (S_L*m - S*l)^2 / (l*(m-l)*m)
    is shared equally by its latents: they are appended to ``credited`` and
    their shares to ``shares``, in the order the splits are made. ``order``
    is the bag's argsort per latent (N, bag); filtering a sort by a mark
    gives a sort of the subset, so no node sorts again. ``vals`` holds the
    sorted values of the latents ``tied`` (those with a repeated value in
    the bag), whose thresholds must fall between distinct values; so the
    prefix sums at a threshold, and every split, do not depend on the order
    within a run of tied values, and the sort need not be stable.
    Latents tying on the best gain are grouped by their left row sets; the
    group with the smallest sorted row ids is split on and shares the gain,
    so the tree does not depend on the order of the latent columns.
    The prefix sums are ``np.add.accumulate`` (the int64 sums of ``cumsum``)
    and m - l is read from a reversed view of the left sizes, so every gain
    has the bits of the formula. A node's children are taken from the flat,
    C-ordered rows (and tied values) by ``compress`` with the left mark and
    its inverse, which keeps each latent's order, and reshaped to (N, size)."""
    n_latents = order.shape[0]
    lefts = np.arange(1, q.size)
    in_left = np.zeros(q.size, dtype=bool)
    stack = [(order, vals, 0)]
    while stack:
        sorted_rows, vals, depth = stack.pop()
        m = sorted_rows.shape[1]
        if depth >= max_depth or m < 2:
            continue
        c = np.add.accumulate(q[sorted_rows], axis=1)
        left = lefts[:m - 1]
        d = c[:, :-1] * m
        d -= c[0, -1] * left
        gains = d.astype(np.float64)
        gains *= gains
        gains /= left * lefts[m - 2::-1] * float(m)
        if tied.size:
            gains[tied] *= vals[:, 1:] > vals[:, :-1]  # thresholds between distinct values
        best = gains.max(axis=1).tolist()
        gain = max(best)
        if gain <= 0.0:
            continue
        feats = [f for f, g in enumerate(best) if g == gain]
        if len(feats) > 1:
            groups = {}
            for f in feats:
                groups.setdefault(tuple(np.sort(sorted_rows[f, :gains[f].argmax() + 1]).tolist()), []).append(f)
            feats = min(groups.items())[1]
        credited.extend(feats)
        shares.extend([gain / len(feats)] * len(feats))
        if depth + 1 >= max_depth:
            continue
        n_left = int(gains[feats[0]].argmax()) + 1
        in_left[sorted_rows[feats[0], :n_left]] = True
        mark = in_left[sorted_rows]
        in_left[sorted_rows[feats[0], :n_left]] = False
        for side, size in ((mark, n_left), (~mark, m - n_left)):
            side_vals = vals.ravel().compress(side[tied].ravel()).reshape(tied.size, size) if tied.size else vals
            stack.append((sorted_rows.ravel().compress(side.ravel()).reshape(n_latents, size), side_vals, depth + 1))


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
    target shares the bag and presort of a tree, drawn from (seed, tree).
    The trees are grown in blocks (see :func:`core._in_blocks`); their adds
    are replayed here in tree order, so every sum is the serial one."""
    n, n_latents = latents.shape
    bag = max(1, int(round(config.bag_fraction * n)))
    qs = [_quantized(target, bag) for target in targets]

    def grow(trees):
        """Per target: the trees' root sum-of-squares terms and their
        importance adds (latent ids and shares), in tree order."""
        grown = [([], [], []) for _ in qs]
        for t in trees:
            idx = np.random.default_rng([config.seed, t]).choice(n, size=bag, replace=False)
            x = latents[idx].T
            order = np.argsort(x, axis=1)
            xs = np.take_along_axis(x, order, axis=1)
            tied = np.flatnonzero((xs[:, 1:] <= xs[:, :-1]).any(axis=1))
            for q, (sse_terms, credited, shares) in zip(qs, grown):
                qb = q[idx]
                r = (qb * bag - qb.sum()).astype(np.float64)  # bag times the centred target, exact
                sse_terms.append(float((r * r).sum()) / (bag * bag))
                _grow_tree(qb, order, xs[tied], tied, config.max_depth, credited, shares)
        yield grown

    importance = [[0.0] * n_latents for _ in qs]
    root_sse = [0.0] * len(qs)
    for block in _in_blocks(grow, config.n_trees, config.n_trees * len(qs) * bag):
        for j, (sse_terms, credited, shares) in enumerate(block):
            for sse in sse_terms:
                root_sse[j] += sse
            row = importance[j]
            for f, share in zip(credited, shares):
                row[f] += share
    masses = [math.fsum(imp) / sse if sse > 0 else 0.0 for imp, sse in zip(importance, root_sse)]
    return np.array(importance), masses


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
    for _ in range(LASSO_MAX_ITER):
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
        if max_step < LASSO_TOL:
            break
    r2 = max(0.0, 1.0 - float((residual * residual).mean()))
    return np.abs(w), r2


def importance_matrix_from_dataset(dataset, method=IMPORTANCE_METHODS[0], config=None):
    """(N, K) importance matrix (column j: each latent's importance for
    factor j, summing to 1 for the forest, all zeros for a constant factor)
    plus the (K,) explained mass per factor."""
    if dataset.n_factors < 1 or dataset.n_latents < 1:
        raise NotComputableError("dataset has no factor or latent columns")
    if method not in IMPORTANCE_METHODS:
        raise UsageError(f"unknown importance method {method!r}")
    latents, targets = dataset.latent_matrix(), dataset.factors.T
    if method == "forest":
        raw, masses = _forest_importances(latents, targets, config or ForestConfig())
        columns = [r / math.fsum(r) if r.any() else r for r in raw]
    else:
        columns, masses = zip(*(_lasso_importances(latents, t, config or LassoConfig()) for t in targets))
    return np.column_stack(columns), np.array(masses)
