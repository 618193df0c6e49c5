import math
import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from disentmetrics import estimators, synth
from disentmetrics.analysis import spearman
from disentmetrics.core import (
    InformativenessMatrix,
    MetricsError,
    NotComputableError,
    RepresentationDataset,
    RepresentationOracle,
    ValidationError,
    load_dataset,
    save_dataset,
    validate,
)
from disentmetrics.estimators import (
    BinningSpec,
    ClassifierConfig,
    LinearClassifier,
    discretize,
    entropy,
    fit_linear_classifier,
    linear_regression_r2,
    majority_vote,
    mutual_information,
    stump_accuracy,
)
from disentmetrics.metrics import (
    DATASET_METRICS,
    InterventionConfig,
    beta_vae_score,
    dci_score,
    evaluate_all,
    factor_vae_score,
    mig_score,
    sap_score,
    three_charm_score,
)
from test_core import _oracle

label_pairs = st.integers(min_value=1, max_value=150).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
    )
)


@given(label_pairs)
def test_mi_symmetric(pair):
    a, b = pair
    assert abs(mutual_information(a, b) - mutual_information(b, a)) <= 1e-12


@given(label_pairs)
def test_mi_bounds(pair):
    a, b = pair
    mi = mutual_information(a, b)
    assert 0.0 <= mi <= min(entropy(a), entropy(b)) + 1e-9


@given(st.integers(1, 30), st.integers(1, 8))
def test_entropy_uniform_is_log_m(copies, m):
    labels = list(range(m)) * copies
    assert abs(entropy(labels) - math.log(m)) <= 1e-12


# coarse grid: keeps affine and cubic transforms injective in float arithmetic
grid_floats = st.integers(min_value=-10**6, max_value=10**6).map(lambda i: i / 1000.0)
finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(grid_floats, min_size=2, max_size=80, unique=True), st.integers(2, 10))
def test_quantile_bins_invariant_under_monotone_transform(values, bins):
    spec = BinningSpec("quantile", bins)
    base = discretize(values, spec)
    arr = np.asarray(values)
    for transformed in (3.0 * arr + 11.0, arr**3):
        assert np.array_equal(discretize(transformed, spec), base)


@given(st.lists(finite_floats, min_size=4, max_size=200, unique=True), st.integers(2, 10))
def test_quantile_bins_near_equal_counts(values, bins):
    labels = discretize(values, BinningSpec("quantile", bins))
    counts = np.bincount(labels, minlength=bins)
    n = len(values)
    assert counts.max() - counts.min() <= 1 or n < bins
    assert counts.sum() == n


@given(
    st.lists(grid_floats, min_size=3, max_size=60, unique=True),
    st.lists(grid_floats, min_size=3, max_size=60, unique=True),
)
def test_spearman_symmetric_and_monotone_invariant(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    rho = spearman(a, b)
    assert abs(rho - spearman(b, a)) <= 1e-12
    assert abs(spearman(np.asarray(a) ** 3, b) - rho) <= 1e-12
    assert -1.0 - 1e-12 <= rho <= 1.0 + 1e-12


matrix_shapes = st.tuples(st.integers(2, 6), st.integers(1, 5))


@st.composite
def informativeness_matrices(draw):
    n, k = draw(matrix_shapes)
    values = draw(
        st.lists(
            st.lists(st.floats(0, 1, allow_nan=False), min_size=k, max_size=k),
            min_size=n, max_size=n,
        )
    )
    return np.array(values)


@given(informativeness_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_matrix_metrics_range_and_permutation_invariance(values, rnd):
    n = values.shape[0]
    perm = list(range(n))
    rnd.shuffle(perm)
    matrix = InformativenessMatrix(values, np.ones(values.shape[1]))
    permuted = InformativenessMatrix(values[perm], matrix.factor_entropies)

    if values.shape[0] >= 2:
        m1, m2 = mig_score(matrix), mig_score(permuted)
        assert 0.0 <= m1.score <= 1.0
        assert m1.score == m2.score
    t1, t2 = three_charm_score(matrix), three_charm_score(permuted)
    assert 0.0 <= t1.score <= 1.0
    assert t1.score == t2.score
    if values.sum() > 0:
        d1, d2 = dci_score(values), dci_score(values[perm])
        assert 0.0 <= d1.score <= 1.0
        assert d1.score == d2.score


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), min_size=1, max_size=300))
def test_majority_vote_training_accuracy_identity(pairs):
    table = majority_vote(pairs, n_latents=6, n_factors=5)
    votes = table.votes
    expected = sum(votes[i].max() for i in range(votes.shape[0])) / len(pairs)
    assert abs(table.accuracy(pairs) - expected) <= 1e-12


# --- dataset-level invariances ------------------------------------------------


@st.composite
def paired_datasets(draw):
    """Seeded noisy linear mixtures of U[-1,1] factors, latents rounded to a
    1e-3 grid; the last factor is sometimes a 3-level discrete one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k, n_latents = draw(st.integers(20, 150)), draw(st.integers(1, 3)), draw(st.integers(2, 4))
    z = rng.uniform(-1.0, 1.0, size=(n, k))
    c = np.round(z @ rng.standard_normal((k, n_latents)) + 0.3 * rng.standard_normal((n, n_latents)), 3)
    cards = [None] * k
    if draw(st.booleans()):
        z[:, -1], cards[-1] = np.digitize(z[:, -1], [-0.3, 0.3]), 3
    return RepresentationDataset(z, c, cardinalities=cards)


def _with_latent(dataset, i, values):
    latents = dataset.latents.copy()
    latents[:, i] = values
    return replace(dataset, latents=latents)


def _keeps_ties(a, b):
    """A monotone map is one-to-one on a sample exactly when it keeps the
    number of distinct values."""
    return np.unique(a).size == np.unique(b).size


@given(paired_datasets(), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_permuting_latents_leaves_dataset_metrics_unchanged(dataset, rnd):
    perm = list(range(dataset.n_latents))
    rnd.shuffle(perm)
    permuted = replace(dataset, latents=dataset.latents[:, perm])
    names = list(DATASET_METRICS)
    scores = [r.score for r in evaluate_all(dataset, metrics=names)]
    assert [r.score for r in evaluate_all(permuted, metrics=names)] == scores


def _power_of_two_range(values):
    """The k for which values * 2^k has no subnormal or infinite entry."""
    nonzero = np.abs(values[values != 0])
    if nonzero.size == 0:
        return -1000, 1000
    # |v| lies in [2^(e-1), 2^e) for e = frexp(v)[1]; normal floats span [2^-1022, 2^1024)
    lo = -1021 - int(np.frexp(nonzero.min())[1])
    hi = 1024 - int(np.frexp(nonzero.max())[1])
    return max(lo, -1000), min(hi, 1000)


@given(paired_datasets(), st.data())
@settings(max_examples=40, deadline=None)
def test_power_of_two_column_scaling_leaves_dataset_metrics_bit_identical(dataset, data):
    columns = [("latents", i) for i in range(dataset.n_latents)]
    columns += [("factors", j) for j, card in enumerate(dataset.cardinalities) if card is None]
    group, i = data.draw(st.sampled_from(columns))
    matrix = getattr(dataset, group).copy()
    k = data.draw(st.integers(*_power_of_two_range(matrix[:, i])))
    matrix[:, i] = np.ldexp(matrix[:, i], k)
    names = list(DATASET_METRICS)
    before = [(r.skipped, r.score) for r in evaluate_all(dataset, metrics=names)]
    after = [(r.skipped, r.score) for r in evaluate_all(replace(dataset, **{group: matrix}), metrics=names)]
    assert after == before


def _scaled_oracle(oracle, k):
    """The oracle with every latent multiplied by 2^k."""
    encode = oracle._encoder
    return RepresentationOracle(oracle.n_factors, oracle.n_latents, oracle._factor_sampler,
                                lambda rng, z: np.ldexp(encode(rng, z), k), seed=oracle.seed)


ORACLE_2K_CONFIG = InterventionConfig(train_points=600, eval_points=200, batch_size=32, seed=3)
SCALED_INTERMEDIATE = {"betavae": "feature_means", "factorvae": "reference_std"}


def _assert_scaled_report(before, after, k):
    """Same score and scale-free intermediates; the one scaled intermediate is exactly 2^k times its base."""
    assert after.score == before.score
    for key, value in before.intermediates.items():
        got = after.intermediates[key]
        if key == SCALED_INTERMEDIATE[before.metric]:
            assert np.array_equal(got.view(np.uint64), np.ldexp(value, k).view(np.uint64))
        else:
            assert np.array_equal(got, value) if isinstance(value, np.ndarray) else got == value, key


# the factorvae counterexample's encoder is deterministic, the betavae one draws
@pytest.mark.parametrize("make_oracle", [synth.gen_factorvae_counterexample, synth.gen_betavae_counterexample])
@pytest.mark.parametrize("k", [-8, 8, 20])
def test_power_of_two_latent_scaling_leaves_oracle_metrics_bit_identical(monkeypatch, make_oracle, k):
    fits, fit = [], estimators.fit_linear_classifier

    def recording_fit(*args):
        fits.append(fit(*args))
        return fits[-1]

    monkeypatch.setattr(estimators, "fit_linear_classifier", recording_fit)
    oracle = make_oracle(seed=4)
    for scorer in (beta_vae_score, factor_vae_score):
        _assert_scaled_report(scorer(oracle, ORACLE_2K_CONFIG), scorer(_scaled_oracle(oracle, k), ORACLE_2K_CONFIG), k)
    # BetaVAE's classifier sees the same standardized features, so it learns the same weights
    assert np.array_equal(fits[0].weights.view(np.uint64), fits[1].weights.view(np.uint64))


def test_factorvae_std_floor_is_absolute_under_power_of_two_scaling():
    """The 1e-8 reference-std floor does not scale: at 2^-30 every latent of
    the factorvae counterexample (std about 0.8) falls below it and FactorVAE
    skips, while BetaVAE, which standardizes its features, keeps every bit."""
    oracle = synth.gen_factorvae_counterexample(seed=4)
    scaled = _scaled_oracle(oracle, -30)
    with pytest.raises(NotComputableError, match="degenerate"):
        factor_vae_score(scaled, ORACLE_2K_CONFIG)
    _assert_scaled_report(beta_vae_score(oracle, ORACLE_2K_CONFIG), beta_vae_score(scaled, ORACLE_2K_CONFIG), -30)


@given(paired_datasets(), st.data())
@settings(max_examples=40, deadline=None)
def test_sap_unchanged_under_affine_latent_rescaling(dataset, data):
    i = data.draw(st.integers(0, dataset.n_latents - 1))
    scale = data.draw(st.sampled_from([-3.0, -0.5, 0.25, 2.0, 10.0]))
    shift = data.draw(st.sampled_from([-5.0, 0.0, 1.5]))
    values = dataset.latents[:, i]
    rescaled = scale * values + shift
    assume(_keeps_ties(values, rescaled))
    before = sap_score(dataset).score
    assert abs(sap_score(_with_latent(dataset, i, rescaled)).score - before) <= 1e-12


@given(paired_datasets(), st.data())
@settings(max_examples=40, deadline=None)
def test_mig_and_3charm_unchanged_under_increasing_latent_maps(dataset, data):
    i = data.draw(st.integers(0, dataset.n_latents - 1))
    transform = data.draw(st.sampled_from([lambda v: v**3, np.arctan, lambda v: np.exp(v / 4.0)]))
    values = dataset.latents[:, i]
    mapped = transform(values)
    assume(_keeps_ties(values, mapped))
    spec = BinningSpec("quantile", data.draw(st.integers(2, 20)))
    names = ["mig", "3charm"]
    before = evaluate_all(dataset, metrics=names, binning=spec)
    after = evaluate_all(_with_latent(dataset, i, mapped), metrics=names, binning=spec)
    assert [(r.skipped, r.score) for r in after] == [(r.skipped, r.score) for r in before]


@given(paired_datasets(), st.data())
@settings(max_examples=25, deadline=None)
def test_forest_dci_unchanged_under_increasing_latent_maps(dataset, data):
    i = data.draw(st.integers(0, dataset.n_latents - 1))
    transform = data.draw(st.sampled_from([lambda v: v**3, np.arctan, lambda v: np.exp(v / 4.0)]))
    values = dataset.latents[:, i]
    mapped = transform(values)
    assume(_keeps_ties(values, mapped))
    before = evaluate_all(dataset, metrics=["dci"])[0]
    after = evaluate_all(_with_latent(dataset, i, mapped), metrics=["dci"])[0]
    assert after.score == before.score
    assert np.array_equal(after.intermediates["importances"], before.intermediates["importances"])


# --- degenerate inputs --------------------------------------------------------


@st.composite
def degenerate_datasets(draw):
    """Tiny, constant, duplicate-heavy and discrete-only datasets, also with
    no factor or no latent columns: every continuous column draws from a
    pool of at most three values."""
    n = draw(st.integers(1, 4) | st.integers(5, 40))
    pool = draw(st.lists(st.integers(-2000, 2000).map(lambda i: i / 4), min_size=1, max_size=3))
    values = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    discrete_only = draw(st.booleans())
    factors, cards = [], []
    for _ in range(draw(st.integers(0, 3))):
        if discrete_only or draw(st.booleans()):
            cards.append(draw(st.integers(1, 30)))
            factors.append(draw(st.lists(st.integers(0, cards[-1] - 1), min_size=n, max_size=n)))
        else:
            cards.append(None)
            factors.append(draw(values))
    latents = [draw(values) for _ in range(draw(st.integers(0, 3)))]
    columns = [np.array(group, dtype=np.float64).reshape(-1, n).T for group in (factors, latents)]
    return RepresentationDataset(*columns, cardinalities=cards)


@given(degenerate_datasets())
@settings(max_examples=150, deadline=None)
def test_degenerate_datasets_score_skip_or_raise_typed(dataset):
    try:
        reports = evaluate_all(dataset, metrics=list(DATASET_METRICS))
    except MetricsError:
        return
    for report in reports:
        if report.skipped:
            assert report.skip_reason
        else:
            assert 0.0 <= report.score <= 1.0


@st.composite
def faulty_columns(draw):
    """The arguments of a degenerate dataset, with up to two cells set to a non-finite or
    possibly out-of-range value and, half the time, one group cut to fewer rows (none included)."""
    dataset = draw(degenerate_datasets())
    groups = [dataset.factors.copy(), dataset.latents.copy()]
    for _ in range(draw(st.integers(0, 2))):
        group = groups[draw(st.integers(0, 1))]
        if group.size:
            cell = draw(st.integers(0, group.shape[0] - 1)), draw(st.integers(0, group.shape[1] - 1))
            group[cell] = draw(st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.5, 30.0]))
    if draw(st.booleans()):
        i = draw(st.integers(0, 1))
        groups[i] = groups[i][:draw(st.integers(0, dataset.n - 1))]
    return (*groups, dataset.factor_names, dataset.latent_names, dataset.cardinalities)


@given(faulty_columns())
@settings(max_examples=200, deadline=None)
def test_a_dataset_raises_where_it_is_built_or_round_trips_through_csv(columns):
    try:
        dataset = RepresentationDataset(*columns)
    except ValidationError as err:
        assert err.issues and all(issue.column is not None for issue in err.issues)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        save_dataset(dataset, path)
        if dataset.n_factors and dataset.n_latents:
            assert validate(dataset) == []
            back = load_dataset(path)
            assert (back.factor_names, back.latent_names, back.cardinalities) == columns[2:]
            for name in ("factors", "latents"):
                assert np.array_equal(getattr(back, name).view(np.uint64), getattr(dataset, name).view(np.uint64))
        else:
            with pytest.raises(ValidationError, match="^dataset has no (factor|latent) columns") as err:
                load_dataset(path)
            assert err.value.issues == validate(dataset)


@given(paired_datasets(), st.sampled_from([1e150, 1e200, 1e307, 1e-300]), st.sampled_from(["latents", "factors"]))
@settings(max_examples=40, deadline=None)
def test_extreme_scales_score_or_raise_typed_without_warnings(dataset, scale, group):
    """Columns at the edges of the float range: each column is brought to a
    largest magnitude of ``scale`` (discrete factors keep their labels)."""
    matrix = getattr(dataset, group).copy()
    for i in range(matrix.shape[1]):
        top = np.abs(matrix[:, i]).max()
        if (group == "latents" or dataset.cardinalities[i] is None) and top > 0:
            matrix[:, i] = matrix[:, i] / top * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            reports = evaluate_all(replace(dataset, **{group: matrix}), metrics=list(DATASET_METRICS))
        except MetricsError:
            return
    for report in reports:
        assert report.skipped or 0.0 <= report.score <= 1.0


# what a caller might hand an array argument by mistake: text, None, a dict, ragged or
# rectangular nested lists, and arrays of every small shape (wrong ndim or length)
_junk = st.one_of(
    st.text(max_size=3),
    st.none(),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(st.lists(st.one_of(st.floats(-10, 10), st.just(math.nan), st.text(max_size=1)), max_size=3),
             max_size=3),
    st.lists(st.integers(0, 3), max_size=3).map(lambda shape: np.ones(shape)),
)


_labels = [0, 1, 1]
_classifier = LinearClassifier(np.zeros((2, 3)))
# every entry point that takes a caller's array, each with the junk in one argument
_GATED = {
    "RepresentationDataset factors": lambda j: RepresentationDataset(j, np.ones((3, 2))),
    "RepresentationDataset latents": lambda j: RepresentationDataset(np.ones((3, 2)), j),
    "InformativenessMatrix values": lambda j: InformativenessMatrix(j, np.ones(2)),
    "InformativenessMatrix factor_entropies": lambda j: InformativenessMatrix(np.ones((3, 2)), j),
    "dci_score": dci_score,
    "discretize": discretize,
    "encode_factor": lambda j: estimators.encode_factor(j, 2),
    "entropy": entropy,
    "mutual_information a": lambda j: mutual_information(j, _labels),
    "mutual_information b": lambda j: mutual_information(_labels, j),
    "linear_regression_r2 x": lambda j: linear_regression_r2(j, [1.0, 2.0, 4.0]),
    "linear_regression_r2 y": lambda j: linear_regression_r2([1.0, 2.0, 4.0], j),
    "stump_accuracy x": lambda j: stump_accuracy(j, _labels),
    "stump_accuracy labels": lambda j: stump_accuracy([1.0, 2.0, 4.0], j),
    "fit_linear_classifier points": lambda j: fit_linear_classifier(j, _labels, ClassifierConfig(epochs=2)),
    "fit_linear_classifier labels": lambda j: fit_linear_classifier(np.eye(3), j, ClassifierConfig(epochs=2)),
    "LinearClassifier.predict": _classifier.predict,
    "LinearClassifier.accuracy points": lambda j: _classifier.accuracy(j, _labels),
    "LinearClassifier.accuracy labels": lambda j: _classifier.accuracy(np.eye(3, 2), j),
    "majority_vote": lambda j: majority_vote(j, 2, 2),
    "MajorityVoteTable.accuracy": lambda j: majority_vote([(0, 1)], 2, 2).accuracy(j),
    "spearman a": lambda j: spearman(j, [1.0, 2.0, 4.0]),
    "spearman b": lambda j: spearman([1.0, 2.0, 4.0], j),
    "RepresentationOracle.encode": lambda j: _oracle().encode(j),
    "factor sampler output": lambda j: _oracle(sampler=lambda rng, n: j).sample(3),
    "encoder output": lambda j: _oracle(encoder=lambda rng, z: j).sample(3),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(list(_GATED)), _junk)
def test_junk_in_any_array_argument_scores_or_raises_a_metrics_error(entry, junk):
    try:
        _GATED[entry](junk)
    except MetricsError:
        pass
