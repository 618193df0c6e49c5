import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from disentmetrics import core, estimators, synth
from disentmetrics.core import DegenerateLabelsError, RepresentationDataset
from disentmetrics.estimators import (
    BinningSpec,
    ClassifierConfig,
    ForestConfig,
    LassoConfig,
    discretize,
    encode_factor,
    entropy,
    fit_linear_classifier,
    importance_matrix_from_dataset,
    informativeness_from_mi,
    linear_regression_r2,
    majority_vote,
    mutual_information,
    stump_accuracy,
)
from disentmetrics.estimators import _coded, _quantized
from disentmetrics.metrics import dci_score, sap_score
from test_core import _force_workers


# --- discretize ---------------------------------------------------------


def test_discretize_symmetric_split():
    labels = discretize([1.0, 2.0, 3.0, 4.0], BinningSpec("quantile", 2))
    assert labels.tolist() == [0, 0, 1, 1]


def test_discretize_constant_is_bin_zero():
    for strategy in ("quantile", "equal_width"):
        labels = discretize([3.0] * 7, BinningSpec(strategy, 4))
        assert labels.tolist() == [0] * 7


def test_discretize_uniform_counts():
    rng = np.random.default_rng(0)
    labels = discretize(rng.uniform(size=1000), BinningSpec("quantile", 20))
    counts = np.bincount(labels, minlength=20)
    assert counts.min() >= 45 and counts.max() <= 55


def test_discretize_equal_width():
    labels = discretize([0.0, 0.24, 0.26, 0.99, 1.0], BinningSpec("equal_width", 4))
    assert labels.tolist() == [0, 0, 1, 3, 3]


def test_discretize_rejects_bad_input():
    with pytest.raises(ValueError):
        discretize([], BinningSpec())
    with pytest.raises(ValueError):
        discretize([1.0, np.nan], BinningSpec())
    with pytest.raises(ValueError):
        BinningSpec(bin_count=1)


# --- quantile labels and codes against the sorting references -----------------
# Quantile labels by stable rank, and codes through np.unique: the references
# that the sort-free discretize and _coded must match in value and dtype.


def _ref_discretize(values, bins):
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    if v.min() == v.max():
        return np.zeros(n, dtype=np.int64)
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    group_starts = np.arange(n)
    group_starts[1:][sorted_v[1:] == sorted_v[:-1]] = 0
    group_rank = np.maximum.accumulate(group_starts)
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = group_rank
    return (ranks * bins) // n


def _ref_coded(labels):
    _, codes = np.unique(labels, return_inverse=True)
    return codes, int(codes.max()) + 1


# ties, signed zeros, subnormals and the ends of the float range
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 0.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.lists(edge_floats, min_size=1, max_size=60), st.integers(2, 300))
@example([2.0], 2)
@example(list(np.linspace(-1.0, 1.0, 600)) + [0.0] * 40, 256)
@example([0.0, -0.0, 0.0], 3)
@example([1e308, -1e308, 5e-324], 20)
@example([3.0, 1.0, 3.0], 2)
@example([-5e-324, 0.0, 5e-324, -0.0], 7)
def test_quantile_labels_equal_the_stable_rank_labels(values, bins):
    labels = discretize(values, BinningSpec("quantile", bins))
    ref = _ref_discretize(values, bins)
    assert labels.dtype == ref.dtype and np.array_equal(labels, ref)


@given(st.one_of(
    st.lists(edge_floats, min_size=1, max_size=60).flatmap(
        lambda v: st.integers(2, 300).map(lambda bins: discretize(v, BinningSpec("quantile", bins)))),
    st.lists(st.integers(0, 1100), min_size=1, max_size=40).map(np.array),
    st.lists(st.integers(-3, 3), min_size=1, max_size=40).map(np.array),
))
def test_codes_equal_the_unique_codes(labels):
    codes, counts = _coded(labels)
    ref_codes, ref_count = _ref_coded(labels)
    assert codes.dtype == ref_codes.dtype and np.array_equal(codes, ref_codes)
    assert counts.size == ref_count
    assert np.array_equal(counts, np.bincount(ref_codes))


# --- entropy / mutual information ---------------------------------------


def test_entropy_uniform():
    assert entropy([0, 1, 2, 3] * 25) == pytest.approx(math.log(4), abs=1e-12)


def test_entropy_constant():
    assert entropy([5] * 10) == 0.0


def test_entropy_half_quarter_quarter():
    labels = [0, 0, 1, 2]
    expected = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))  # 1.0397
    assert entropy(labels) == pytest.approx(expected, abs=1e-12)
    assert entropy(labels) == pytest.approx(1.0397, abs=1e-4)


def test_mi_self_is_entropy():
    labels = np.array([0, 1, 1, 2, 0, 2, 1])
    assert mutual_information(labels, labels) == pytest.approx(entropy(labels), abs=1e-12)


def test_mi_independent_uniform_is_zero():
    # analytic joint realized exactly: every (a, b) combination equally often
    a = np.repeat([0, 1, 2, 3], 4)
    b = np.tile([0, 1, 2, 3], 4)
    assert mutual_information(a, b) == 0.0


def test_mi_diagonal_joint():
    a = np.array([0] * 50 + [1] * 50)
    b = np.array([0] * 50 + [1] * 50)
    assert mutual_information(a, b) == pytest.approx(math.log(2), abs=1e-12)


def test_mi_length_mismatch():
    with pytest.raises(ValueError):
        mutual_information([0, 1], [0, 1, 2])


def test_entropy_and_mi_accept_negative_and_non_integer_labels():
    for a, b in ((np.array([-3, -3, 2, 7, -1, 2]), np.array([0.5, 0.5, -2.25, 1e9, 0.5, 3.0])),
                 (np.array(["x", "y", "x", "z"]), np.array([-1, -1, -2, -1]))):
        for labels in (a, b):
            assert entropy(labels) == _ref_entropy(labels)
        assert mutual_information(a, b) == _ref_mutual_information(a, b)


# --- informativeness matrix ---------------------------------------------


def test_informativeness_identity_discrete():
    rng = np.random.default_rng(1)
    z = rng.integers(0, 8, size=4000).astype(float)
    ds = RepresentationDataset(z[:, None], z[:, None], cardinalities=[8])
    m = informativeness_from_mi(ds)
    assert m.values[0, 0] == pytest.approx(math.log(8), abs=0.01)
    assert m.factor_entropies[0] == pytest.approx(math.log(8), abs=0.01)


def test_informativeness_independent_noise_small():
    ds = synth.gen_noise_oracle(seed=9).sample_dataset(10000)
    m = informativeness_from_mi(ds)
    assert m.values.max() < 0.05


def test_informativeness_monotone_capture():
    ds = synth.gen_sap_nonlinear(n=10000, seed=9)
    m = informativeness_from_mi(ds)
    assert m.values[0, 0] / m.factor_entropies[0] > 0.9


@pytest.mark.parametrize("excess, raises", [(1e-10, False), (1e-8, True)])
def test_informativeness_rejects_mi_above_the_factor_entropy(monkeypatch, excess, raises):
    """An estimator fault that puts I[i, j] above H(z_j) + 1e-9 is caught where the matrix is built."""
    z = np.random.default_rng(3).uniform(size=(200, 2))
    mi = estimators._mutual_information
    monkeypatch.setattr(estimators, "_mutual_information", lambda a, b: mi(a, b) + excess)
    if raises:
        with pytest.raises(ValueError, match="exceeds factor entropy"):
            informativeness_from_mi(RepresentationDataset(z, z))
    else:
        informativeness_from_mi(RepresentationDataset(z, z))


def _ref_entropy(labels):
    _, counts = np.unique(labels, return_counts=True)
    p = counts / labels.size
    return float(-(p * np.log(p)).sum())


def _ref_mutual_information(a, b):
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    na = int(ia.max()) + 1
    nb = int(ib.max()) + 1
    joint = np.bincount(ia * nb + ib, minlength=na * nb).reshape(na, nb) / a.size
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    mi = float((joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])).sum())
    return max(mi, 0.0)


def _ref_informativeness(dataset, spec):
    """The per-pair loop, which codes every column again for every pair."""
    factors, latents = (np.ascontiguousarray(m.T) for m in (dataset.factors, dataset.latents))
    factor_labels = [encode_factor(z, card, spec) for z, card in zip(factors, dataset.cardinalities)]
    latent_labels = [discretize(c, spec) for c in latents]
    values = np.zeros((len(latent_labels), len(factor_labels)))
    for i in range(len(latent_labels)):
        for j in range(len(factor_labels)):
            values[i, j] = _ref_mutual_information(latent_labels[i], factor_labels[j])
    return values, np.array([_ref_entropy(lab) for lab in factor_labels])


def _mixed_discrete_dataset(n, seed):
    rng = np.random.default_rng(seed)
    z = np.column_stack([rng.integers(0, 8, n), rng.uniform(-1, 1, n), rng.integers(0, 30, n)])
    return RepresentationDataset(z, z @ rng.standard_normal((3, 4)), cardinalities=[8, None, 30])


@pytest.mark.parametrize("strategy", ["quantile", "equal_width"])
@pytest.mark.parametrize("n", [7, 333, 5000])
def test_informativeness_matches_per_pair_reference_bit_for_bit(strategy, n):
    datasets = [synth.gen_entangled_family(0.4, n_factors=k, n=n, seed=k) for k in (2, 3, 4, 10)]
    datasets.append(_mixed_discrete_dataset(n, seed=n))
    for ds in datasets:
        for bins in (5, 20):
            spec = BinningSpec(strategy, bins)
            m = informativeness_from_mi(ds, spec)
            values, entropies = _ref_informativeness(ds, spec)
            assert np.array_equal(m.values.view(np.uint64), values.view(np.uint64))
            assert np.array_equal(m.factor_entropies.view(np.uint64), entropies.view(np.uint64))


# --- linear regression R^2 ----------------------------------------------


def test_r2_exact_linear():
    x = np.linspace(-1, 1, 50)
    assert linear_regression_r2(x, 2 * x + 3) == pytest.approx(1.0, abs=1e-12)


def test_r2_independent():
    rng = np.random.default_rng(2)
    assert linear_regression_r2(rng.normal(size=5000), rng.normal(size=5000)) < 0.01


def test_r2_power_fifteen():
    # moment oracle: corr^2(z, z^15) = (1/17)^2 / ((1/3)(1/31)) = 93/289
    rng = np.random.default_rng(3)
    z = rng.uniform(-1, 1, 10000)
    expected = 93 / 289
    assert linear_regression_r2(z**15, z) == pytest.approx(expected, abs=0.05)


def test_r2_constant_input():
    assert linear_regression_r2(np.ones(10), np.arange(10.0)) == 0.0
    assert linear_regression_r2(np.arange(10.0), np.ones(10)) == 0.0


@pytest.mark.parametrize("x, y, message", [
    ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0], "must be finite"),
    ([1.0, 2.0, 3.0], [1.0, np.inf, 3.0], "must be finite"),
    ([-np.inf, 2.0, 3.0], [1.0, 2.0, 4.0], "must be finite"),
    ([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0, 3.0, 4.0], "must be 1-d"),
    ([1.0, 2.0, 3.0, 4.0], [[1.0, 2.0], [3.0, 4.0]], "must be 1-d"),
])
def test_r2_rejects_non_finite_or_non_1d_input(x, y, message):
    with pytest.raises(ValueError, match=message):
        linear_regression_r2(x, y)


def _ref_r2(x, y):
    """The R^2 arithmetic of the per-pair SAP loop, which centred each column once per pair."""
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    y = np.ldexp(y, -np.frexp(np.abs(y).max())[1])
    vx, vy = x.var(), y.var()
    if vx == 0.0 or vy == 0.0:
        return 0.0
    cov = ((x - x.mean()) * (y - y.mean())).mean()
    return float(np.clip(cov * cov / (vx * vy), 0.0, 1.0))


def test_r2_matches_the_per_pair_reference_bit_for_bit():
    rng = np.random.default_rng(21)
    n = 700
    columns = [rng.standard_normal(n) * 1e300, rng.uniform(-1e-300, 1e-300, n), rng.standard_normal(n) * 3e307,
               np.full(n, 2.5), rng.standard_normal(n), rng.integers(0, 3, n).astype(float)]
    for x in columns:
        for y in columns:
            assert np.float64(linear_regression_r2(x, y)).view(np.uint64) == np.float64(_ref_r2(x, y)).view(np.uint64)


# --- stump accuracy -------------------------------------------------------


def test_stump_separable_binary():
    x = np.concatenate([np.linspace(-1, -0.1, 50), np.linspace(0.1, 1, 50)])
    y = np.array([0] * 50 + [1] * 50)
    assert stump_accuracy(x, y) == pytest.approx(1.0)


def test_stump_uninformative():
    rng = np.random.default_rng(4)
    x = rng.normal(size=2000)
    y = rng.integers(0, 2, size=2000)
    assert stump_accuracy(x, y) < 0.1


def test_stump_constant_labels():
    assert stump_accuracy(np.arange(5.0), np.zeros(5, dtype=int)) == 0.0


def test_stump_accuracy_does_not_depend_on_the_order_within_ties():
    rng = np.random.default_rng(8)
    x = np.round(rng.standard_normal(400), 1)
    y = (x + 0.5 * rng.standard_normal(400) > 0).astype(int) + (x > 1)
    accuracy = stump_accuracy(x, y)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(400)
        assert stump_accuracy(x[perm], y[perm]) == accuracy


# --- no sort on the MI and SAP paths -------------------------------------------


def test_mi_and_sap_do_not_sort_continuous_data(monkeypatch):
    """Quantile coding and SAP's R^2 need no argsort and no np.unique, so a sort cannot creep back unnoticed."""
    dataset = synth.gen_entangled_family(0.4, n_factors=3, n=3000, seed=5)
    expected = informativeness_from_mi(dataset), sap_score(dataset)

    def refuse(*args, **kwargs):
        raise AssertionError("sorted on the MI or SAP path")

    monkeypatch.setattr(np, "argsort", refuse)
    monkeypatch.setattr(np, "unique", refuse)
    matrix, sap = informativeness_from_mi(dataset), sap_score(dataset)
    assert np.array_equal(matrix.values, expected[0].values)
    assert np.array_equal(matrix.factor_entropies, expected[0].factor_entropies)
    assert sap.score == expected[1].score


# --- linear classifier ----------------------------------------------------


def test_classifier_separable():
    x = np.vstack([np.full((20, 2), -1.0), np.full((20, 2), 1.0)])
    y = np.array([0] * 20 + [1] * 20)
    clf = fit_linear_classifier(x, y)
    assert clf.accuracy(x, y) == 1.0


def test_classifier_chance_on_shuffled_labels():
    rng = np.random.default_rng(0)
    clf = fit_linear_classifier(rng.standard_normal((600, 5)), rng.integers(0, 3, 600))
    held_out = clf.accuracy(rng.standard_normal((400, 5)), rng.integers(0, 3, 400))
    assert abs(held_out - 1 / 3) < 0.1


def test_classifier_single_class_errors():
    with pytest.raises(DegenerateLabelsError):
        fit_linear_classifier(np.random.default_rng(0).normal(size=(10, 2)), np.zeros(10, dtype=int))


def test_classifier_deterministic():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((100, 3))
    y = rng.integers(0, 3, 100)
    w1 = fit_linear_classifier(x, y, ClassifierConfig()).weights
    w2 = fit_linear_classifier(x, y, ClassifierConfig()).weights
    assert np.array_equal(w1, w2)


def _ref_classifier_weights(points, labels, config=ClassifierConfig()):
    """The gradient-descent loop on (n, C) scores, with ``xb @ w.T`` and
    axis-1 row max and sum, kept verbatim as the reference that the fit's
    contiguous (C, n) softmax, with its row folds, must match bit for bit."""
    x = np.asarray(points, dtype=np.float64)
    y = np.asarray(labels).astype(np.int64)
    n, d = x.shape
    n_classes = int(y.max()) + 1
    xb = np.hstack([x, np.ones((n, 1))])
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    w = np.zeros((n_classes, d + 1))
    for _ in range(config.epochs):
        scores = xb @ w.T
        scores -= scores.max(axis=1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=1, keepdims=True)
        grad = (probs - onehot).T @ xb / n
        w = w - config.learning_rate * grad
    return w


@pytest.mark.parametrize("n_classes", range(2, 11))
def test_classifier_weights_match_row_max_reference(n_classes):
    rng = np.random.default_rng(n_classes)
    y = rng.permutation(np.arange(400) % n_classes)
    # class-dependent means, so the winning column changes from row to row
    x = rng.standard_normal((400, 3)) + 0.5 * np.eye(n_classes, 3)[y]
    got = fit_linear_classifier(x, y).weights
    assert np.array_equal(got.view(np.uint64), _ref_classifier_weights(x, y).view(np.uint64))


def test_classifier_weights_match_reference_at_betavae_shape_with_underflow():
    # BetaVAE's fit: n=10000 points, D=3 features, C=3 classes; the far rows
    # leave exp(score - row max) 0 in every column but the top one
    rng = np.random.default_rng(14)
    y = rng.permutation(np.arange(10000) % 3)
    x = rng.standard_normal((10000, 3)) + 0.5 * np.eye(3)[y]
    x[:40] *= 1e6
    got = fit_linear_classifier(x, y).weights
    assert np.array_equal(got.view(np.uint64), _ref_classifier_weights(x, y).view(np.uint64))
    scores = np.hstack([x[:40], np.ones((40, 1))]) @ got.T
    gaps = np.sort(scores, axis=1)[:, -1:] - np.sort(scores, axis=1)[:, :-1]
    assert (np.exp(-gaps) == 0.0).all()


@pytest.mark.parametrize("n_classes,present", [(4, (0, 3)), (6, (0, 2, 5)), (9, (0, 8))])
def test_classifier_weights_match_reference_with_tied_scores(n_classes, present):
    # classes with no point get identical weights, so their scores tie exactly
    # in every row and epoch; 9 classes take the pairwise row sum
    rng = np.random.default_rng(n_classes)
    y = np.array(present)[rng.permutation(np.arange(600) % len(present))]
    x = rng.standard_normal((600, 3)) + 0.5 * np.eye(n_classes, 3)[y]
    got = fit_linear_classifier(x, y).weights
    assert np.array_equal(got.view(np.uint64), _ref_classifier_weights(x, y).view(np.uint64))
    absent = [c for c in range(n_classes) if c not in present]
    assert all(np.array_equal(got[c], got[absent[0]]) for c in absent)


@st.composite
def _classifier_problems(draw):
    n, d, n_classes = draw(st.integers(2, 400)), draw(st.integers(1, 5)), draw(st.integers(2, 12))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    if np.unique(y).size < 2:
        y[0] = (y[1] + 1) % n_classes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((n, d)) + 0.5 * np.eye(n_classes, d)[y], y


_TWELVE_CLASSES_TWO_ABSENT = np.random.default_rng(12).permutation(np.r_[0:5, 6:10, 11].repeat(30))


@given(_classifier_problems())
@example((np.random.default_rng(12).standard_normal((300, 3)), _TWELVE_CLASSES_TWO_ABSENT))
@example((np.array([[0.0], [1.0]]), np.array([0, 7])))
@settings(max_examples=40, deadline=None)
def test_classifier_weights_match_reference_for_any_shape(problem):
    # n 2-400, D 1-5 and C 2-12: absent classes, and from 8 classes on the pairwise row sum
    x, y = problem
    got = fit_linear_classifier(x, y).weights
    assert np.array_equal(got.view(np.uint64), _ref_classifier_weights(x, y).view(np.uint64))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n,d,n_classes", [(10000, 3, 3), (7, 2, 5), (300, 3, 12)])
def test_classifier_layout_identities(n, d, n_classes):
    # the fit's two matmul forms on its contiguous (C, n) score block give the
    # bits of the (n, C) forms of the reference
    rng = np.random.default_rng(n)
    xb = np.hstack([rng.standard_normal((n, d)), np.ones((n, 1))])
    w_t = rng.standard_normal((d + 1, n_classes))  # the weights, transposed
    block = np.empty((n_classes, n))
    np.matmul(xb, w_t, out=block.T)
    assert np.array_equal(_bits(block.T), _bits(xb @ w_t)), (
        "np.matmul(xb, w_t, out=scores.T) no longer gives the bits of xb @ w_t on this numpy/BLAS")
    s = rng.standard_normal((n, n_classes))  # (n, C), as the reference's probs - onehot
    block = np.ascontiguousarray(s.T)  # (C, n), as the fit's score block
    assert np.array_equal(_bits((xb.T @ block.T).T), _bits(s.T @ xb)), (
        "xb.T @ scores.T no longer gives the bits of (probs - onehot).T @ xb, transposed, on this numpy/BLAS")


@pytest.mark.parametrize("labels,fault", [
    ([-1, 0, 1], "labels must be non-negative"),
    ([0, 0.5, 1], "labels must be integers"),
    ([0, np.nan, 1], "labels must be integers"),
    ([0, np.inf, 1], "labels must be integers"),
])
def test_classifier_rejects_bad_labels(labels, fault):
    with pytest.raises(ValueError, match=fault):
        fit_linear_classifier(np.arange(6.0).reshape(3, 2), labels)


def test_classifier_takes_whole_float_labels_as_integers():
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((50, 2)), rng.integers(0, 3, 50)
    got = fit_linear_classifier(x, y.astype(np.float64)).weights
    assert np.array_equal(got.view(np.uint64), fit_linear_classifier(x, y).weights.view(np.uint64))


# --- majority vote ---------------------------------------------------------


def test_majority_vote_basic():
    table = majority_vote([(0, 1)] * 10, n_latents=2, n_factors=3)
    assert table.predictions[0] == 1
    assert table.votes[0, 1] == 10 and table.votes.sum() == 10


def test_majority_vote_tie_breaks_low():
    table = majority_vote([(0, 1)] * 5 + [(0, 2)] * 5, n_latents=1, n_factors=3)
    assert table.predictions[0] == 1


def test_majority_vote_training_accuracy_identity():
    rng = np.random.default_rng(6)
    pairs = np.column_stack([rng.integers(0, 4, 500), rng.integers(0, 3, 500)])
    table = majority_vote(pairs, n_latents=4, n_factors=3)
    expected = sum(table.votes[i].max() for i in range(table.votes.shape[0])) / len(pairs)
    assert table.accuracy(pairs) == pytest.approx(expected, abs=1e-12)


def test_majority_vote_empty():
    with pytest.raises(ValueError):
        majority_vote([], n_latents=1, n_factors=1)


@pytest.mark.parametrize("bad_pair", [(-1, 0), (0, -1), (2, 0), (0, 3)])
def test_majority_vote_rejects_pairs_outside_the_table(bad_pair):
    latent, factor = bad_pair
    with pytest.raises(ValueError, match=rf"pair \(latent {latent}, factor {factor}\) lies outside the 2 x 3 vote table"):
        majority_vote([(0, 1), (1, 2), bad_pair, (1, 0)], n_latents=2, n_factors=3)


@pytest.mark.parametrize("bad_pair, shown", [
    ((0.5, 1.7), r"latent 0\.5, factor 1\.7"),
    ((float("nan"), 0), r"latent nan, factor 0\.0"),
    ((1, float("inf")), r"latent 1\.0, factor inf"),
])
def test_majority_vote_rejects_pairs_of_non_whole_numbers(bad_pair, shown):
    with pytest.raises(ValueError, match=rf"^pair \({shown}\) is not a pair of whole numbers$"):
        majority_vote([(0, 1), (1, 0), bad_pair, (0.5, 0)], n_latents=2, n_factors=2)
    assert majority_vote([(0.0, 1.0), (1.0, 0.0)], 2, 2).votes.tolist() == [[0, 1], [1, 0]]


# --- feature importances ----------------------------------------------------


def _importances(dataset, method="forest", config=None):
    """Importance of each latent for the first factor."""
    return importance_matrix_from_dataset(dataset, method, config)[0][:, 0]


def _single_informative_dataset(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1, 1, n)
    latents = [rng.standard_normal(n) for _ in range(4)]
    latents[3] = z.copy()
    return RepresentationDataset(z[:, None], np.column_stack(latents))


def test_forest_single_informative_feature():
    imp = _importances(_single_informative_dataset(), "forest", ForestConfig(seed=5))
    assert imp[3] / imp.sum() > 0.95


def test_forest_null_baseline():
    rng = np.random.default_rng(7)
    n = 3000
    z = rng.uniform(-1, 1, n)
    ds = RepresentationDataset(z[:, None], np.column_stack([rng.standard_normal(n) for _ in range(4)]))
    imp = _importances(ds, "forest", ForestConfig(seed=5))
    assert (imp <= 2 / 4 + 0.1).all()


def test_forest_symmetric_carriers():
    rng = np.random.default_rng(8)
    n = 4000
    c1 = rng.standard_normal(n)
    c2 = rng.standard_normal(n)
    ds = RepresentationDataset((c1 + c2)[:, None], np.column_stack([c1, c2, rng.standard_normal(n)]))
    imp = _importances(ds, "forest", ForestConfig(seed=5))
    assert abs(imp[0] - imp[1]) < 0.15


def test_forest_constant_factor_all_zero():
    rng = np.random.default_rng(9)
    ds = RepresentationDataset(np.full((100, 1), 2.0), np.column_stack([rng.standard_normal(100) for _ in range(2)]))
    imp = _importances(ds, "forest", ForestConfig(seed=5))
    assert (imp == 0).all()


def test_forest_bit_reproducible():
    ds = _single_informative_dataset(n=800, seed=3)
    a = _importances(ds, "forest", ForestConfig(seed=11))
    b = _importances(ds, "forest", ForestConfig(seed=11))
    assert np.array_equal(a, b)


def test_forest_permutation_equivariant():
    ds = _single_informative_dataset(n=1500, seed=4)
    perm = [2, 0, 3, 1]
    permuted = RepresentationDataset(ds.factors, ds.latents[:, perm])
    imp = _importances(ds, "forest", ForestConfig(seed=5))
    imp_perm = _importances(permuted, "forest", ForestConfig(seed=5))
    assert np.array_equal(imp_perm, imp[perm])


@pytest.mark.parametrize("kwargs", [
    {"n_trees": 0}, {"max_depth": 0}, {"bag_fraction": 0.0}, {"bag_fraction": 1.5}, {"bag_fraction": -0.2},
])
def test_forest_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ForestConfig(**kwargs)


def test_forest_config_accepts_edges():
    ForestConfig(n_trees=1, max_depth=1, bag_fraction=1.0)


@pytest.mark.parametrize("build, field", [
    (lambda: BinningSpec(bin_count=2.5), "bin_count"),
    (lambda: BinningSpec(bin_count=1), "bin_count"),
    (lambda: ForestConfig(n_trees=2.5), "n_trees"),
    (lambda: ForestConfig(max_depth=2.5), "max_depth"),
    (lambda: ForestConfig(seed=-1), "seed"),
    (lambda: LassoConfig(alpha=-1), "alpha"),
    (lambda: LassoConfig(alpha=np.nan), "alpha"),
    (lambda: LassoConfig(alpha=np.inf), "alpha"),
    (lambda: LassoConfig(alpha="0.1"), "alpha"),
    (lambda: ClassifierConfig(learning_rate=np.nan), "learning_rate"),
    (lambda: ClassifierConfig(learning_rate=-0.1), "learning_rate"),
    (lambda: ClassifierConfig(epochs=2.5), "epochs"),
    (lambda: ClassifierConfig(epochs=0), "epochs"),
])
def test_configs_name_the_field_they_reject(build, field):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        build()


def test_configs_accept_numpy_integers_and_a_zero_alpha():
    assert BinningSpec(bin_count=np.int64(5)).bin_count == 5
    assert ForestConfig(n_trees=np.int32(3), max_depth=np.int64(2), seed=np.uint32(7)).max_depth == 2
    assert LassoConfig(alpha=0).alpha == 0
    assert ClassifierConfig(learning_rate=0, epochs=np.int64(3)).epochs == 3


def test_lasso_config_holds_only_alpha():
    assert [f.name for f in fields(LassoConfig)] == ["alpha"]
    for removed in ("max_iter", "tol"):
        with pytest.raises(TypeError):
            LassoConfig(**{removed: 1})


def test_lasso_single_informative_feature():
    imp = _importances(_single_informative_dataset(n=2000, seed=6), "lasso")
    assert np.argmax(imp) == 3
    assert imp[3] > 10 * (imp[:3].max() + 1e-12)


def test_unknown_method():
    with pytest.raises(ValueError):
        _importances(_single_informative_dataset(n=100), "boost")


# --- forest bit pin ---------------------------------------------------------
# A slow, plain forest that applies the split rule node by node with Python
# integers: the reference that the presorted forest must match bit for bit
# (importances and explained masses).


def _ref_quantized(target, bag):
    y = np.ldexp(target, -np.frexp(np.abs(target).max())[1])
    y = y - y.mean()
    bits = 62 - 2 * math.ceil(math.log2(bag))
    return np.rint(np.ldexp(y, bits - np.frexp(np.abs(y).max())[1])).astype(np.int64)


def _ref_best_splits(x, q, rows):
    """(gain, latent, sorted left rows) of each latent's first best threshold."""
    m = rows.size
    total = q[rows].sum()
    splits = []
    for f in range(x.shape[1]):
        order = rows[np.argsort(x[rows, f], kind="stable")]
        xs = x[order, f]
        left = np.flatnonzero(xs[1:] > xs[:-1]) + 1  # left sizes between distinct values
        if left.size == 0:
            continue
        d = (np.cumsum(q[order])[left - 1] * m - total * left).astype(np.float64)
        gains = d * d / (left * (m - left) * float(m))
        k = int(np.argmax(gains))
        if gains[k] > 0.0:
            splits.append((float(gains[k]), f, tuple(sorted(order[:left[k]].tolist()))))
    return splits


def _ref_tree(x, q, max_depth, importance):
    stack = [(np.arange(q.size), 0)]
    while stack:
        rows, depth = stack.pop()
        if depth >= max_depth or rows.size < 2:
            continue
        splits = _ref_best_splits(x, q, rows)
        if not splits:
            continue
        gain = max(s[0] for s in splits)
        left = min(s[2] for s in splits if s[0] == gain)
        group = [f for g, f, rows_l in splits if g == gain and rows_l == left]
        for f in group:
            importance[f] += gain / len(group)
        mask = np.isin(rows, left)
        stack.append((rows[mask], depth + 1))
        stack.append((rows[~mask], depth + 1))


def _ref_importance_matrix(dataset, config):
    latents = dataset.latent_matrix()
    n = dataset.n
    bag = max(1, int(round(config.bag_fraction * n)))
    columns, masses = [], []
    for j in range(dataset.n_factors):
        q = _ref_quantized(dataset.factors[:, j], bag)
        raw = np.zeros(dataset.n_latents)
        root = 0.0
        for t in range(config.n_trees):
            idx = np.random.default_rng([config.seed, t]).choice(n, size=bag, replace=False)
            r = (q[idx] * bag - q[idx].sum()).astype(np.float64)
            root += float((r * r).sum()) / (bag * bag)
            _ref_tree(latents[idx], q[idx], config.max_depth, raw)
        total = math.fsum(raw)
        columns.append(raw / total if total > 0 else raw)
        masses.append(total / root if root > 0 else 0.0)
    return np.column_stack(columns), np.array(masses)


def _bit_pin_case(i):
    """Case i: a small seeded dataset and forest config. Every third case
    rounds the latents to one decimal (heavy ties), every fourth makes the
    first latent integer-valued, and every other factor is discrete."""
    rng = np.random.default_rng([77, i])
    if i == 0:
        n, n_latents, n_factors, depth = 2, 1, 1, 1
    elif i == 1:
        n, n_latents, n_factors, depth = 300, 6, 4, 7
    else:
        n, n_latents, n_factors, depth = (int(rng.integers(lo, hi)) for lo, hi in ((2, 301), (1, 7), (1, 5), (1, 8)))
    latents = rng.standard_normal((n, n_latents))
    if i % 3 == 0:
        latents = np.round(latents, 1)
    if i % 4 == 1:
        latents[:, 0] = rng.integers(0, 4, n)
    factors, cards = [], []
    for j in range(n_factors):
        if (i + j) % 2:
            card = int(rng.integers(2, 6))
            factors.append(np.digitize(latents[:, j % n_latents], np.linspace(-1.0, 1.0, card - 1)))
            cards.append(card)
        else:
            values = latents @ rng.standard_normal(n_latents) + 0.3 * rng.standard_normal(n)
            factors.append(np.round(values, 2))
            cards.append(None)
    config = ForestConfig(n_trees=int(rng.integers(1, 6)), max_depth=depth,
                          bag_fraction=float(rng.uniform(0.3, 1.0)), seed=i)
    return RepresentationDataset(np.column_stack(factors), latents, cardinalities=cards), config


def _assert_same_bits(values, ref):
    (matrix, masses), (ref_matrix, ref_masses) = values, ref
    assert matrix.shape == ref_matrix.shape
    assert np.array_equal(matrix.view(np.uint64), ref_matrix.view(np.uint64))
    assert np.array_equal(np.asarray(masses).view(np.uint64), ref_masses.view(np.uint64))


def _assert_bits_match_reference(dataset, config):
    values = importance_matrix_from_dataset(dataset, "forest", config)
    _assert_same_bits(values, _ref_importance_matrix(dataset, config))


@pytest.mark.parametrize("case", range(24))
def test_forest_bits_match_reference_small(case):
    _assert_bits_match_reference(*_bit_pin_case(case))


def test_forest_bits_match_reference_with_tied_and_untied_latents():
    """The presort is not stable: a latent of distinct values has one sorted order, and a tied latent's
    thresholds fall only between distinct values. Both kinds, in every tree, must give the bits of the
    reference, which sorts each node stably."""
    rng = np.random.default_rng(61)
    n = 400
    latents = np.column_stack([rng.standard_normal(n), np.round(rng.standard_normal(n), 1),
                               rng.integers(0, 5, n).astype(float), rng.uniform(-1, 1, n),
                               rng.integers(0, 3, n).astype(float)])
    latents[(latents[:, 4] == 0) & (rng.random(n) < 0.5), 4] = -0.0  # signed zeros tie
    factors = np.column_stack([latents @ rng.standard_normal(5) + 0.2 * rng.standard_normal(n),
                               np.digitize(latents[:, 1], [-0.5, 0.5])])
    dataset = RepresentationDataset(factors, latents, cardinalities=(None, 3))
    config = ForestConfig(n_trees=6, max_depth=5, bag_fraction=0.7, seed=4)
    bag = round(config.bag_fraction * n)
    for t in range(config.n_trees):
        x = latents[np.random.default_rng([config.seed, t]).choice(n, size=bag, replace=False)]
        distinct = [np.unique(c).size == bag for c in x.T]
        assert distinct == [True, False, False, True, False]
    _assert_bits_match_reference(dataset, config)


def _edge_case(name):
    """A small dataset and forest config for one edge of the node loop."""
    rng = np.random.default_rng(808)
    if name == "constant latent":
        n = 200
        varying = rng.standard_normal((n, 3))
        latents = np.column_stack([varying[:, 0], np.full(n, 0.5), varying[:, 1:]])
        factors = latents @ [1.0, 0.0, -0.5, 0.3] + 0.2 * rng.standard_normal(n)
        config = ForestConfig(n_trees=4, max_depth=4, seed=1)
    elif name == "every latent tied":  # about 120 of a depth-7 tree's 127 splits: tied values split at every depth
        n = 600
        latents = rng.integers(0, 6, (n, 4)).astype(float)
        factors = np.column_stack([latents @ rng.standard_normal(4) + 0.5 * rng.standard_normal(n),
                                   np.round(latents[:, 1] - latents[:, 3] + rng.standard_normal(n), 1)])
        config = ForestConfig(n_trees=3, max_depth=7, seed=2)
    elif name in ("bag of 2", "bag of 3"):  # children of one row
        n = int(name[-1])
        latents = rng.standard_normal((n, 2))
        factors = np.column_stack([latents[:, 0] + latents[:, 1], latents[:, 1]])
        config = ForestConfig(n_trees=3, max_depth=3, bag_fraction=1.0, seed=3)
    else:  # one latent
        n = 120
        latents = rng.standard_normal((n, 1))
        factors = np.sin(3 * latents[:, 0]) + 0.1 * rng.standard_normal(n)
        config = ForestConfig(n_trees=4, max_depth=4, seed=4)
    return RepresentationDataset(factors.reshape(n, -1), latents), config


@pytest.mark.parametrize("name", ["constant latent", "every latent tied", "bag of 2", "bag of 3", "one latent"])
def test_forest_bits_match_reference_at_the_edges_of_the_node_loop(name):
    _assert_bits_match_reference(*_edge_case(name))


def test_forest_bits_match_reference_entangled(monkeypatch):
    """The `population` shape, in one process and forked into 2 blocks."""
    dataset = synth.gen_entangled_family(0.5, n_factors=4, n=2000, seed=131)
    ref = _ref_importance_matrix(dataset, ForestConfig())
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        _assert_same_bits(importance_matrix_from_dataset(dataset, "forest", ForestConfig()), ref)


# --- the previous forest, as a tolerance reference ---------------------------
# The float forest that gave exact gain ties to the lowest latent index. The
# integer forest splits near-ties differently, so DCI moves, but only a little.
# Its DCI on the 50 specs below is frozen, as repr floats, in
# golden/forest_previous_dci.json.


def test_forest_dci_stays_near_the_previous_forest_on_the_population():
    previous = json.loads((Path(__file__).parent / "golden" / "forest_previous_dci.json").read_text())["dci"]
    assert len(previous) == 50
    worst = 0.0
    for i, old in enumerate(previous):
        spec = synth.GeneratorSpec("entangled", {"level": i / 49, "K": 4}, seed=100 + i, n=2000)
        dataset = synth.dataset_from_spec(spec)[0]
        worst = max(worst, abs(dci_score(importance_matrix_from_dataset(dataset)[0]).score - old))
    assert worst <= 5e-4


# --- exact ties and the integer bound -----------------------------------------


def test_identical_latents_share_their_importance_exactly():
    rng = np.random.default_rng(12)
    n = 600
    z = rng.uniform(-1, 1, (n, 2))
    a, b = z[:, 0] + 0.2 * rng.standard_normal(n), z[:, 1] + 0.2 * rng.standard_normal(n)

    def forest(columns, depth):
        config = ForestConfig(n_trees=10, max_depth=depth, seed=3)
        matrix, mass = importance_matrix_from_dataset(RepresentationDataset(z, np.column_stack(columns)),
                                                      "forest", config)
        return matrix, mass

    for depth in (3, 5):
        matrix, _ = forest([a, a, b], depth)
        assert np.array_equal(matrix[0], matrix[1])
    # each latent drives its own factor and splits fall mid-node, so no other
    # latent ties with the copies
    single, single_mass = forest([a, b], 3)
    for columns, copies in (([a, a, b], [0, 1]), ([a, b, a], [0, 2]), ([b, a, a], [1, 2])):
        matrix, mass = forest(columns, 3)
        for i in copies:
            assert np.array_equal(matrix[i], single[0] / 2)
        assert np.array_equal(matrix[3 - sum(copies)], single[1])
        assert np.array_equal(mass, single_mass)


def test_quantized_targets_keep_node_sums_inside_int64():
    bags = list(range(1, 4097)) + [2**k + d for k in range(12, 32) for d in (-1, 0, 1)]
    targets = [np.array([0.0, 1.0 - 2.0**-53]), np.array([-1.0, 1.0]), np.array([3.0, -5e-300, 7.0])]
    for bag in bags:
        top = max(int(np.abs(_quantized(t, bag)).max()) for t in targets)
        # a node has m <= bag rows and 1 <= l < m left rows; |S_L|, |S| <= m * top
        worst = (bag - 1) * bag * top
        assert worst < 2**63
        if 2 <= bag <= 2**16:
            assert worst >= 2**58  # most of the int64 range still carries target bits


# --- the forest's trees on every usable CPU ------------------------------------
# The worker count is forced through core._usable_cpus, with the work gate
# core._BLOCK_MIN_WORK at 1 so that these small forests fan out too; every
# worker count must give the reference's bits.


def _fan_out_case():
    rng = np.random.default_rng(404)
    latents = np.round(rng.standard_normal((150, 3)), 1)
    factors = np.column_stack([latents @ rng.standard_normal(3) + 0.3 * rng.standard_normal(150),
                               np.digitize(latents[:, 1], [-0.5, 0.5])])
    return RepresentationDataset(factors, latents, cardinalities=(None, 3))


def _forest_values(dataset, n_trees):
    return importance_matrix_from_dataset(dataset, "forest", ForestConfig(n_trees=n_trees, max_depth=4, seed=9))


@pytest.mark.parametrize("n_trees", [1, 7, 50])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_forest_bits_do_not_depend_on_the_worker_count(monkeypatch, workers, n_trees):
    _force_workers(monkeypatch, workers)
    dataset = _fan_out_case()
    config = ForestConfig(n_trees=n_trees, max_depth=4, seed=9)
    _assert_bits_match_reference(dataset, config)


def test_blocks_are_contiguous_and_run_in_forked_children(monkeypatch):
    _force_workers(monkeypatch, 3)
    blocks = list(core._in_blocks(lambda items: [(os.getpid(), list(items))], 7, 7))
    assert [items for _, items in blocks] == [[0, 1], [2, 3], [4, 5, 6]]
    pids = [pid for pid, _ in blocks]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert list(core._in_blocks(lambda items: [list(items)], 2, 2)) == [[0], [1]]


def _forest_bits_in_pool_worker(n_trees):
    assert multiprocessing.current_process().daemon
    matrix, masses = _forest_values(_fan_out_case(), n_trees)
    return matrix.view(np.uint64).tolist(), np.asarray(masses).view(np.uint64).tolist()


def test_forest_runs_in_process_inside_a_daemonic_pool_worker(monkeypatch):
    _force_workers(monkeypatch, 2)  # inherited by the forked pool worker
    with multiprocessing.get_context("fork").Pool(1) as pool:
        bits = pool.apply_async(_forest_bits_in_pool_worker, (7,)).get(timeout=60)
        pool.close()
        pool.join()
    matrix, masses = _forest_values(_fan_out_case(), 7)
    assert bits == (matrix.view(np.uint64).tolist(), np.asarray(masses).view(np.uint64).tolist())


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_block_raises_and_leaves_no_child(monkeypatch, where):
    parent, grow = os.getpid(), estimators._grow_tree

    def failing_grow(*args):
        if (os.getpid() == parent) == (where == "parent"):
            raise ValueError(f"tree failed in the {where}")
        if where == "parent":
            time.sleep(60)  # children still growing when the parent fails are terminated, not awaited
        grow(*args)

    _force_workers(monkeypatch, 3)
    monkeypatch.setattr(estimators, "_grow_tree", failing_grow)
    start = time.monotonic()
    with pytest.raises(ValueError, match=f"tree failed in the {where}"):
        _forest_values(_fan_out_case(), 7)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def test_forest_calls_from_concurrent_threads_give_identical_bits(monkeypatch):
    dataset = _fan_out_case()
    _force_workers(monkeypatch, 1)
    serial = _forest_values(dataset, 12)[0]
    _force_workers(monkeypatch, 3)
    results = [None] * 4

    def run(i):
        results[i] = _forest_values(dataset, 12)[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for values in results:
        assert np.array_equal(values.view(np.uint64), serial.view(np.uint64))


def test_importing_the_package_does_not_import_multiprocessing():
    code = "import sys, disentmetrics.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
