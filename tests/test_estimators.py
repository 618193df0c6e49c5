import math

import numpy as np
import pytest

from disentmetrics import synth
from disentmetrics.core import (
    DegenerateLabelsError,
    FactorColumn,
    LatentColumn,
    RepresentationDataset,
)
from disentmetrics.estimators import (
    BinningSpec,
    ClassifierConfig,
    ForestConfig,
    discretize,
    entropy,
    feature_importances,
    fit_linear_classifier,
    importance_matrix_from_dataset,
    informativeness_from_mi,
    linear_regression_r2,
    majority_vote,
    mutual_information,
    stump_accuracy,
)


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


# --- informativeness matrix ---------------------------------------------


def test_informativeness_identity_discrete():
    rng = np.random.default_rng(1)
    z = rng.integers(0, 8, size=4000).astype(float)
    ds = RepresentationDataset(
        (FactorColumn("z1", z, kind="discrete", cardinality=8),),
        (LatentColumn("c1", z.copy()),),
    )
    m = informativeness_from_mi(ds)
    assert m.provenance == "mutual_information"
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


# --- majority vote ---------------------------------------------------------


def test_majority_vote_basic():
    table = majority_vote([(0, 1)] * 10, n_latents=2, n_factors=3)
    assert table.predict(0) == 1
    assert table.votes[0, 1] == 10 and table.votes.sum() == 10


def test_majority_vote_tie_breaks_low():
    table = majority_vote([(0, 1)] * 5 + [(0, 2)] * 5)
    assert table.predict(0) == 1


def test_majority_vote_training_accuracy_identity():
    rng = np.random.default_rng(6)
    pairs = np.column_stack([rng.integers(0, 4, 500), rng.integers(0, 3, 500)])
    table = majority_vote(pairs)
    expected = sum(table.votes[i].max() for i in range(table.votes.shape[0])) / len(pairs)
    assert table.accuracy(pairs) == pytest.approx(expected, abs=1e-12)


def test_majority_vote_empty():
    with pytest.raises(ValueError):
        majority_vote([])


# --- feature importances ----------------------------------------------------


def _single_informative_dataset(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1, 1, n)
    latents = [rng.standard_normal(n) for _ in range(4)]
    latents[3] = z.copy()
    return RepresentationDataset(
        (FactorColumn("z1", z),),
        tuple(LatentColumn(f"c{i + 1}", v) for i, v in enumerate(latents)),
    )


def test_forest_single_informative_feature():
    imp = feature_importances(_single_informative_dataset(), 0, "forest", ForestConfig(seed=5))
    assert imp[3] / imp.sum() > 0.95


def test_forest_null_baseline():
    rng = np.random.default_rng(7)
    n = 3000
    ds = RepresentationDataset(
        (FactorColumn("z1", rng.uniform(-1, 1, n)),),
        tuple(LatentColumn(f"c{i + 1}", rng.standard_normal(n)) for i in range(4)),
    )
    imp = feature_importances(ds, 0, "forest", ForestConfig(seed=5))
    assert (imp <= 2 / 4 + 0.1).all()


def test_forest_symmetric_carriers():
    rng = np.random.default_rng(8)
    n = 4000
    c1 = rng.standard_normal(n)
    c2 = rng.standard_normal(n)
    ds = RepresentationDataset(
        (FactorColumn("z1", c1 + c2),),
        (LatentColumn("c1", c1), LatentColumn("c2", c2), LatentColumn("c3", rng.standard_normal(n))),
    )
    imp = feature_importances(ds, 0, "forest", ForestConfig(seed=5))
    assert abs(imp[0] - imp[1]) < 0.15


def test_forest_constant_factor_all_zero():
    rng = np.random.default_rng(9)
    ds = RepresentationDataset(
        (FactorColumn("z1", np.full(100, 2.0)),),
        (LatentColumn("c1", rng.standard_normal(100)), LatentColumn("c2", rng.standard_normal(100))),
    )
    imp = feature_importances(ds, 0, "forest", ForestConfig(seed=5))
    assert (imp == 0).all()


def test_forest_bit_reproducible():
    ds = _single_informative_dataset(n=800, seed=3)
    a = feature_importances(ds, 0, "forest", ForestConfig(seed=11))
    b = feature_importances(ds, 0, "forest", ForestConfig(seed=11))
    assert np.array_equal(a, b)


def test_forest_permutation_equivariant():
    ds = _single_informative_dataset(n=1500, seed=4)
    perm = [2, 0, 3, 1]
    permuted = RepresentationDataset(ds.factors, tuple(ds.latents[i] for i in perm))
    imp = feature_importances(ds, 0, "forest", ForestConfig(seed=5))
    imp_perm = feature_importances(permuted, 0, "forest", ForestConfig(seed=5))
    assert np.array_equal(imp_perm, imp[perm])


@pytest.mark.parametrize("kwargs", [
    {"n_trees": 0}, {"max_depth": 0}, {"bag_fraction": 0.0}, {"bag_fraction": 1.5}, {"bag_fraction": -0.2},
])
def test_forest_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ForestConfig(**kwargs)


def test_forest_config_accepts_edges():
    ForestConfig(n_trees=1, max_depth=1, bag_fraction=1.0)


def test_lasso_single_informative_feature():
    imp = feature_importances(_single_informative_dataset(n=2000, seed=6), 0, "lasso")
    assert np.argmax(imp) == 3
    assert imp[3] > 10 * (imp[:3].max() + 1e-12)


def test_unknown_method():
    with pytest.raises(ValueError):
        feature_importances(_single_informative_dataset(n=100), 0, "boost")


# --- forest bit pin ---------------------------------------------------------
# The per-node argsort forest, kept verbatim as the reference that every
# faster forest must match bit for bit (importances and explained masses).


def _ref_sse(total, total_sq, count):
    return total_sq - total * total / count


def _ref_best_split(x_node, y_node, sse_node):
    m = y_node.size
    best_gain, best_feat, best_mask = 0.0, -1, None
    total = y_node.sum()
    total_sq = (y_node * y_node).sum()
    for f in range(x_node.shape[1]):
        x = x_node[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y_node[order]
        boundary = np.flatnonzero(xs[1:] > xs[:-1]) + 1  # left sizes
        if boundary.size == 0:
            continue
        cy = np.cumsum(ys)
        cy2 = np.cumsum(ys * ys)
        left = boundary
        sse_l = _ref_sse(cy[left - 1], cy2[left - 1], left)
        sse_r = _ref_sse(total - cy[left - 1], total_sq - cy2[left - 1], m - left)
        gains = sse_node - sse_l - sse_r
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            best_feat = f
            best_mask = x <= xs[left[k] - 1]
    return best_gain, best_feat, best_mask


def _ref_tree_importance(x, y, rng, config, importance):
    n = y.size
    bag = max(1, int(round(config.bag_fraction * n)))
    idx = rng.choice(n, size=bag, replace=False)
    root_sse = _ref_sse(y[idx].sum(), (y[idx] ** 2).sum(), bag)
    stack = [(idx, 0)]
    while stack:
        rows, depth = stack.pop()
        if depth >= config.max_depth or rows.size < 2:
            continue
        y_node = y[rows]
        sse_node = _ref_sse(y_node.sum(), (y_node * y_node).sum(), rows.size)
        if sse_node <= 0.0:
            continue
        gain, feat, mask = _ref_best_split(x[rows], y_node, sse_node)
        if feat < 0 or gain <= 0.0:
            continue
        importance[feat] += gain
        stack.append((rows[mask], depth + 1))
        stack.append((rows[~mask], depth + 1))
    return max(root_sse, 0.0)


def _ref_forest_importances(latents, target, config):
    importance = np.zeros(latents.shape[1])
    total_root_sse = 0.0
    for t in range(config.n_trees):
        rng = np.random.default_rng([config.seed, t])
        total_root_sse += _ref_tree_importance(latents, target, rng, config, importance)
    mass = float(importance.sum() / total_root_sse) if total_root_sse > 0 else 0.0
    return importance, mass


def _ref_importance_matrix(dataset, config):
    latents = dataset.latent_matrix()
    columns, masses = [], []
    for f in dataset.factors:
        raw, mass = _ref_forest_importances(latents, f.values.astype(np.float64), config)
        total = raw.sum()
        columns.append(raw / total if total > 0 else raw)
        masses.append(mass)
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
    factors = []
    for j in range(n_factors):
        if (i + j) % 2:
            card = int(rng.integers(2, 6))
            values = np.digitize(latents[:, j % n_latents], np.linspace(-1.0, 1.0, card - 1))
            factors.append(FactorColumn(f"z{j}", values, kind="discrete", cardinality=card))
        else:
            values = latents @ rng.standard_normal(n_latents) + 0.3 * rng.standard_normal(n)
            factors.append(FactorColumn(f"z{j}", np.round(values, 2)))
    latent_cols = tuple(LatentColumn(f"c{k}", latents[:, k]) for k in range(n_latents))
    config = ForestConfig(n_trees=int(rng.integers(1, 6)), max_depth=depth,
                          bag_fraction=float(rng.uniform(0.3, 1.0)), seed=i)
    return RepresentationDataset(tuple(factors), latent_cols), config


def _assert_bits_match_reference(dataset, config):
    matrix, masses = importance_matrix_from_dataset(dataset, "forest", config)
    ref_matrix, ref_masses = _ref_importance_matrix(dataset, config)
    assert matrix.values.shape == ref_matrix.shape
    assert np.array_equal(matrix.values.view(np.uint64), ref_matrix.view(np.uint64))
    assert np.array_equal(np.asarray(masses).view(np.uint64), ref_masses.view(np.uint64))


@pytest.mark.parametrize("case", range(24))
def test_forest_bits_match_reference_small(case):
    _assert_bits_match_reference(*_bit_pin_case(case))


def test_forest_bits_match_reference_entangled():
    dataset = synth.gen_entangled_family(0.5, n_factors=4, n=2000, seed=131)
    _assert_bits_match_reference(dataset, ForestConfig())
