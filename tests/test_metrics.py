import numpy as np
import pytest

from disentmetrics import estimators, metrics, synth
from disentmetrics.core import (
    InformativenessMatrix,
    NotComputableError,
    RepresentationDataset,
    RepresentationOracle,
    ValidationError,
)
from disentmetrics.estimators import informativeness_from_mi
from disentmetrics.metrics import (
    InterventionConfig,
    beta_vae_score,
    dci_from_dataset,
    dci_score,
    evaluate_all,
    factor_vae_score,
    mig_score,
    sap_score,
    three_charm_score,
)

SMALL = InterventionConfig(train_points=1500, eval_points=500, batch_size=64, seed=5)


# --- DCI -------------------------------------------------------------------


def test_dci_eleven_factor_matrix():
    report = dci_score(synth.gen_dci_matrix("eleven_factor"))
    assert report.score == pytest.approx(0.600, abs=0.005)


def test_dci_two_factor_matrix():
    report = dci_score(synth.gen_dci_matrix("two_factor"))
    assert report.score == pytest.approx(0.957, abs=0.001)


def test_dci_one_hot_rows_is_one():
    p = np.eye(4)
    assert dci_score(p).score == 1.0


def test_dci_all_zero_not_computable():
    with pytest.raises(NotComputableError):
        dci_score(np.zeros((2, 2)))


def test_dci_zero_row_contributes_nothing():
    report = dci_score(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert report.score == 1.0
    assert report.intermediates["rho"][1] == 0.0


def test_dci_single_factor():
    # base-1 entropy is undefined; rows with mass count as fully concentrated
    assert dci_score(np.array([[0.3], [0.7]])).score == 1.0


def test_dci_from_dataset_disentangled():
    ds = synth.gen_disentangled(4, n=4000, noise_std=0.05, map_kind="linear", seed=3)
    report = dci_from_dataset(ds)
    assert report.score >= 0.9
    assert report.intermediates["low_informativeness"] is False


def test_dci_from_dataset_entangled_mixing():
    # greedy trees still concentrate somewhat on the best-correlated latent,
    # so the fully mixed construction lands near 0.4 rather than near 0
    ds = synth.gen_factorvae_counterexample(seed=3).sample_dataset(4000)
    report = dci_from_dataset(ds)
    assert report.score <= 0.5


def test_dci_from_dataset_noise_flagged():
    ds = synth.gen_noise_oracle(seed=3).sample_dataset(3000)
    report = dci_from_dataset(ds)
    assert report.intermediates["low_informativeness"] is True
    assert report.score <= 0.1


# --- SAP ---------------------------------------------------------------------


def test_sap_identity():
    ds = synth.gen_identity_oracle(n_factors=2, seed=1).sample_dataset(4000)
    assert sap_score(ds).score == pytest.approx(1.0, abs=0.01)


def test_sap_nonlinear_power():
    # moment oracle: gap per factor = corr^2(z, z^15) = 93/289 = 0.3218
    for seed in (11, 22):
        assert sap_score(synth.gen_sap_nonlinear(seed=seed)).score == pytest.approx(0.32, abs=0.05)


def test_sap_duplicate_carrier():
    # moment oracle: 1 - corr^2(z1, z1^25 + z2^25)
    expected = 1 - (1 / 27) ** 2 / ((1 / 3) * (2 / 51))  # 0.8951
    for seed in (11, 22):
        assert sap_score(synth.gen_sap_duplicate(seed=seed)).score == pytest.approx(expected, abs=0.02)


def test_sap_discrete_factor_uses_stump():
    rng = np.random.default_rng(4)
    z = rng.integers(0, 2, 2000).astype(float)
    c1 = z + 0.01 * rng.standard_normal(2000)
    ds = RepresentationDataset(z[:, None], np.column_stack([c1, rng.standard_normal(2000)]), cardinalities=[2])
    report = sap_score(ds)
    assert report.score > 0.9


def test_sap_scores_equal_per_pair_r2_and_stump_bit_for_bit():
    rng = np.random.default_rng(12)
    n = 500
    z = np.column_stack([rng.standard_normal(n) * 1e300, rng.integers(0, 3, n), rng.uniform(-1e-300, 1e-300, n),
                         np.full(n, 2.5)])
    c = np.column_stack([z[:, 0] * 1e-290, rng.standard_normal(n), z[:, 2] + 1e-301 * rng.standard_normal(n),
                         np.zeros(n), rng.standard_normal(n) * 3e307])
    ds = RepresentationDataset(z, c, cardinalities=[None, 3, None, None])
    expected = np.array([[estimators.stump_accuracy(c[:, i], z[:, j]) if card else
                          estimators.linear_regression_r2(c[:, i], z[:, j])
                          for j, card in enumerate(ds.cardinalities)] for i in range(c.shape[1])])
    scores = sap_score(ds).intermediates["informativeness"]
    assert np.array_equal(scores.view(np.uint64), expected.view(np.uint64))


def test_sap_needs_two_latents():
    ds = synth.gen_identity_oracle(n_factors=2, seed=1).sample_dataset(100)
    single = RepresentationDataset(ds.factors, ds.latents[:, :1])
    with pytest.raises(NotComputableError):
        sap_score(single)


# --- MIG -----------------------------------------------------------------------


def test_mig_one_hot_equals_one():
    entropies = np.array([1.5, 0.7])
    values = np.array([[1.5, 0.0], [0.0, 0.7], [0.0, 0.0]])
    m = InformativenessMatrix(values, entropies, provenance="external")
    assert mig_score(m).score == pytest.approx(1.0, abs=1e-12)


def test_mig_parametric_closed_form():
    for eps, eps1 in ((0.9, 0.1), (0.2, 0.7), (0.5, 0.5)):
        m = synth.gen_parametric_matrix(eps, eps1)
        assert mig_score(m).score == pytest.approx(abs(eps - eps1), abs=1e-12)


def test_mig_all_zero_matrix():
    m = InformativenessMatrix(np.zeros((3, 2)), np.ones(2), provenance="external")
    assert mig_score(m).score == 0.0


def test_mig_zero_entropy_factor():
    m = InformativenessMatrix(np.zeros((2, 2)), np.array([1.0, 0.0]), provenance="external")
    with pytest.raises(NotComputableError) as err:
        mig_score(m)
    assert "factor 1" in str(err.value)


def test_mig_needs_two_latents():
    m = InformativenessMatrix(np.ones((1, 2)), np.ones(2), provenance="external")
    with pytest.raises(NotComputableError):
        mig_score(m)


# --- 3CharM ----------------------------------------------------------------------


def test_three_charm_one_hot_equals_one():
    entropies = np.array([2.0, 0.5])
    values = np.array([[2.0, 0.0], [0.0, 0.5]])
    m = InformativenessMatrix(values, entropies, provenance="external")
    assert three_charm_score(m).score == pytest.approx(1.0, abs=1e-12)


def test_three_charm_parametric_closed_form():
    for eps, eps1 in ((0.9, 0.1), (0.3, 0.8), (0.0, 0.5)):
        m = synth.gen_parametric_matrix(eps, eps1)
        assert three_charm_score(m).score == pytest.approx(eps, abs=1e-12)


def test_three_charm_unclaimed_factor_scores_zero():
    # both latents claim factor 0; factor 1 has no claimant
    values = np.array([[1.0, 0.2], [0.9, 0.1]])
    m = InformativenessMatrix(values, np.ones(2), provenance="external")
    report = three_charm_score(m)
    assert report.intermediates["per_factor_scores"][1] == 0.0
    assert report.intermediates["best_latent_per_factor"][1] == -1
    assert report.score == pytest.approx(0.8 / 2.0, abs=1e-12)


def test_three_charm_single_factor():
    m = InformativenessMatrix(np.array([[0.4], [0.9]]), np.array([1.0]), provenance="external")
    # K = 1: nothing to subtract, best claimant carries its full entry
    assert three_charm_score(m).score == pytest.approx(0.9, abs=1e-12)


def test_three_charm_zero_total_entropy():
    m = InformativenessMatrix(np.zeros((2, 2)), np.zeros(2), provenance="external")
    with pytest.raises(NotComputableError):
        three_charm_score(m)


# --- BetaVAE / FactorVAE ------------------------------------------------------------

def test_betavae_identity_oracle():
    report = beta_vae_score(synth.gen_identity_oracle(seed=5), SMALL)
    assert report.score >= 0.98
    assert 0 <= report.intermediates["train_accuracy"] <= 1


def test_betavae_noise_oracle_chance():
    report = beta_vae_score(synth.gen_noise_oracle(seed=5), SMALL)
    assert abs(report.score - 1 / 3) < 0.1


def test_betavae_needs_two_factors():
    oracle = synth.gen_identity_oracle(n_factors=1, seed=0)
    with pytest.raises(NotComputableError):
        beta_vae_score(oracle, SMALL)


def test_betavae_deterministic():
    oracle = synth.gen_identity_oracle(seed=5)
    a = beta_vae_score(oracle, SMALL)
    b = beta_vae_score(synth.gen_identity_oracle(seed=999), SMALL)  # oracle state irrelevant
    assert a.score == b.score


def test_factorvae_identity_oracle():
    report = factor_vae_score(synth.gen_identity_oracle(seed=5), SMALL)
    assert report.score >= 0.98


def test_factorvae_noise_oracle_chance():
    report = factor_vae_score(synth.gen_noise_oracle(seed=5), SMALL)
    assert abs(report.score - 1 / 3) < 0.1


def test_factorvae_degenerate_latents():
    oracle = synth.RepresentationOracle(
        3, 2,
        lambda rng, n: rng.uniform(0, 1, size=(n, 3)),
        lambda rng, z: np.zeros((z.shape[0], 2)),
        seed=0,
    )
    with pytest.raises(NotComputableError):
        factor_vae_score(oracle, SMALL)


def test_factorvae_excludes_collapsed_dimension():
    def encode(rng, z):
        c = z.copy()
        c[:, 0] = 4.2  # collapsed dimension
        return c

    oracle = synth.RepresentationOracle(
        3, 3, lambda rng, n: rng.uniform(0, 1, size=(n, 3)), encode, seed=0)
    report = factor_vae_score(oracle, SMALL)
    assert 0 in report.intermediates["excluded_dimensions"]


# --- batched intervention points ----------------------------------------------
# The per-batch loops, one oracle.sample call per batch, kept verbatim as the
# reference the chunked draws must match bit for bit whenever the factor
# sampler draws rows in order and the encoder draws nothing.


def _ref_betavae_points(oracle, choice_rng, count, batch_size, n_factors):
    feats = np.empty((count, oracle.n_latents))
    labels = np.empty(count, dtype=np.int64)
    for t in range(count):
        r = int(choice_rng.integers(n_factors))
        z_a, c_a = oracle.sample(batch_size)
        _, c_b = oracle.sample(batch_size, fixed_factor=r, fixed_value=z_a[:, r])
        feats[t] = np.abs(c_a - c_b).mean(axis=0)
        labels[t] = r
    return feats, labels


def _ref_factorvae_points(oracle, choice_rng, count, batch_size, n_factors, ref_std, active):
    dims = np.empty(count, dtype=np.int64)
    labels = np.empty(count, dtype=np.int64)
    active_idx = np.flatnonzero(active)
    for t in range(count):
        r = int(choice_rng.integers(n_factors))
        _, c = oracle.sample(batch_size, fixed_factor=r)
        scaled = c[:, active_idx] / ref_std[active_idx]
        dims[t] = int(active_idx[np.argmin(scaled.var(axis=0))])
        labels[t] = r
    return dims, labels


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


ROW_ORDER_ORACLES = [("identity", k) for k in (2, 3, 4, 5)] + [("factorvae-counterexample", 3)]
# (count, batch_size): counts that leave a partial last chunk, and a batch
# larger than a whole chunk
POINT_SIZES = [(75, 64), (130, 16), (1, 2), (3, 3000)]


def _row_order_oracle(name, k, seed):
    if name == "identity":
        return synth.gen_identity_oracle(n_factors=k, seed=seed)
    return synth.gen_factorvae_counterexample(seed=seed)


@pytest.mark.parametrize("count,batch_size", POINT_SIZES)
@pytest.mark.parametrize("name,k", ROW_ORDER_ORACLES)
def test_betavae_points_match_per_batch_reference(name, k, count, batch_size):
    got_oracle, ref_oracle = _row_order_oracle(name, k, 3), _row_order_oracle(name, k, 3)
    got_rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
    feats, labels = metrics._betavae_points(got_oracle, got_rng, count, batch_size, k)
    ref_feats, ref_labels = _ref_betavae_points(ref_oracle, ref_rng, count, batch_size, k)
    assert np.array_equal(_bits(feats), _bits(ref_feats))
    assert labels.dtype == ref_labels.dtype and np.array_equal(labels, ref_labels)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(_bits(got_oracle.sample(4)[1]), _bits(ref_oracle.sample(4)[1]))


@pytest.mark.parametrize("count,batch_size", POINT_SIZES)
@pytest.mark.parametrize("name,k", ROW_ORDER_ORACLES)
def test_factorvae_points_match_per_batch_reference(name, k, count, batch_size):
    ref_std = _row_order_oracle(name, k, 0).sample(500)[1].std(axis=0)
    active = np.ones(k, dtype=bool)
    if k >= 4:
        active[k // 2] = False  # leave one dimension out of the argmin
    got_oracle, ref_oracle = _row_order_oracle(name, k, 3), _row_order_oracle(name, k, 3)
    got_rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
    dims, labels = metrics._factorvae_points(got_oracle, got_rng, count, batch_size, k, ref_std, active)
    ref_dims, ref_labels = _ref_factorvae_points(ref_oracle, ref_rng, count, batch_size, k, ref_std, active)
    assert np.array_equal(dims, ref_dims)
    assert labels.dtype == ref_labels.dtype and np.array_equal(labels, ref_labels)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(_bits(got_oracle.sample(4)[1]), _bits(ref_oracle.sample(4)[1]))


@pytest.mark.parametrize("name,k", ROW_ORDER_ORACLES)
def test_sample_batches_match_sample_calls(name, k):
    fixed = np.random.default_rng(k).integers(k, size=7)
    got, ref = _row_order_oracle(name, k, 4), _row_order_oracle(name, k, 4)
    paired = got.sample_batches(fixed, 9, paired=True)
    unpaired = got.sample_batches(fixed, 9)
    for t, r in enumerate(fixed):
        z_a, c_a = ref.sample(9)
        _, c_b = ref.sample(9, fixed_factor=r, fixed_value=z_a[:, r])
        assert np.array_equal(_bits(paired[t]), _bits(np.stack([c_a, c_b])))
    for t, r in enumerate(fixed):
        assert np.array_equal(_bits(unpaired[t]), _bits(ref.sample(9, fixed_factor=r)[1]))


def test_sample_batches_rejects_out_of_range_factor():
    oracle = synth.gen_identity_oracle(n_factors=3, seed=1)
    for fixed in ([0, 3], [-1]):
        with pytest.raises(ValueError, match="out of range"):
            oracle.sample_batches(fixed, 5)


def test_chunks_cover_every_batch_once():
    rows = metrics.INTERVENTION_CHUNK_ROWS
    for count, rows_per_batch in ((1, 2), (1000, 129), (7, rows + 1), (4096, 1)):
        chunks = metrics._chunks(count, rows_per_batch)
        assert [start for start, _ in chunks] == [0] + [stop for _, stop in chunks[:-1]]
        assert chunks[-1][1] == count
        assert all((stop - start) * rows_per_batch <= max(rows, rows_per_batch) for start, stop in chunks)


# --- permutation invariance ------------------------------------------------------


def test_matrix_metrics_permutation_invariant_exact():
    rng = np.random.default_rng(12)
    values = rng.uniform(0, 1, size=(5, 3))
    m = InformativenessMatrix(values, np.ones(3) * 2.0, provenance="external")
    perm = rng.permutation(5)
    mp = InformativenessMatrix(values[perm], m.factor_entropies, provenance="external")
    assert mig_score(m).score == mig_score(mp).score
    assert three_charm_score(m).score == three_charm_score(mp).score
    assert dci_score(values).score == dci_score(values[perm]).score


def test_dataset_metrics_permutation_invariant():
    ds = synth.gen_sap_duplicate(n=2000, seed=8)
    perm = [2, 0, 1]
    permuted = RepresentationDataset(ds.factors, ds.latents[:, perm])
    assert sap_score(ds).score == sap_score(permuted).score
    i_a = informativeness_from_mi(ds)
    i_b = informativeness_from_mi(permuted)
    assert mig_score(i_a).score == mig_score(i_b).score
    assert three_charm_score(i_a).score == three_charm_score(i_b).score


def test_dataset_metrics_row_shuffle_invariant():
    ds = synth.gen_sap_duplicate(n=2000, seed=8)
    rng = np.random.default_rng(0)
    rows = rng.permutation(ds.n)
    shuffled = RepresentationDataset(ds.factors[rows], ds.latents[rows])
    # row order only affects float summation order, never the statistics
    assert sap_score(shuffled).score == pytest.approx(sap_score(ds).score, abs=1e-9)
    assert mig_score(informativeness_from_mi(shuffled)).score == pytest.approx(
        mig_score(informativeness_from_mi(ds)).score, abs=1e-9)


# --- duplicate-latent asymmetry ----------------------------------------------------


def test_duplicate_latent_asymmetry():
    ds = synth.gen_disentangled(3, n=5000, noise_std=0.0, map_kind="linear", seed=6)
    base = informativeness_from_mi(ds)
    duplicated = RepresentationDataset(ds.factors, np.column_stack([ds.latents, ds.latents[:, 0]]))
    dup = informativeness_from_mi(duplicated)
    copied_factor = int(np.argmax(base.values[0]))
    assert abs(three_charm_score(dup).score - three_charm_score(base).score) <= 1e-9
    assert mig_score(dup).intermediates["per_factor_gaps"][copied_factor] < 0.05


# --- evaluate_all ------------------------------------------------------------------


def test_evaluate_all_dataset_skips_oracle_metrics():
    ds = synth.gen_sap_nonlinear(n=500, seed=2)
    reports = evaluate_all(ds, config=SMALL)
    by_name = {r.metric: r for r in reports}
    assert len(reports) == 6
    computed = [r for r in reports if not r.skipped]
    assert len(computed) == 4
    for name in ("betavae", "factorvae"):
        assert by_name[name].skipped
        assert by_name[name].skip_reason == "requires interventional oracle"


def test_evaluate_all_oracle_computes_everything():
    oracle = synth.gen_betavae_counterexample(seed=5)
    reports = evaluate_all(oracle, config=InterventionConfig(
        train_points=400, eval_points=150, batch_size=32, seed=5))
    assert len(reports) == 6
    assert all(not r.skipped for r in reports)


def test_evaluate_all_empty_selection():
    ds = synth.gen_sap_nonlinear(n=100, seed=2)
    with pytest.raises(ValueError, match="no metrics selected"):
        evaluate_all(ds, metrics=[])


def test_evaluate_all_unknown_metric():
    ds = synth.gen_sap_nonlinear(n=100, seed=2)
    with pytest.raises(ValueError, match="unknown metric"):
        evaluate_all(ds, metrics=["mig", "nope"])


def test_evaluate_all_marks_not_computable_with_reason():
    ds = synth.gen_sap_nonlinear(n=200, seed=2)
    single = RepresentationDataset(ds.factors, ds.latents[:, :1])
    reports = evaluate_all(single, metrics=["mig", "sap"])
    assert all(r.skipped for r in reports)
    assert all("latent" in r.skip_reason for r in reports)


def test_evaluate_all_one_row_dataset_skips_every_dataset_metric():
    one_row = RepresentationDataset([[0.5]], [[0.1, 0.2]])
    reports = evaluate_all(one_row, metrics=["dci", "sap", "mig", "3charm"])
    assert [r.metric for r in reports] == ["dci", "sap", "mig", "3charm"]
    assert all(r.skipped and r.skip_reason for r in reports)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_all_rejects_non_finite_dataset(bad):
    ds = synth.gen_sap_nonlinear(n=10, seed=2)
    latents = ds.latents.copy()
    latents[3, 0] = bad
    with pytest.raises(ValidationError) as info:
        evaluate_all(RepresentationDataset(ds.factors, latents), metrics=["dci", "mig"])
    assert [(i.column, i.row, i.message) for i in info.value.issues] == [("c1", 4, "non-finite value")]


def test_evaluate_all_rejects_unequal_column_lengths():
    ds = synth.gen_sap_nonlinear(n=10, seed=2)
    short = RepresentationDataset(ds.factors, ds.latents[:9])
    with pytest.raises(ValidationError) as info:
        evaluate_all(short, metrics=["dci"])
    assert [(i.column, i.message) for i in info.value.issues] == [("c1", "length mismatch"), ("c2", "length mismatch")]


def test_evaluate_all_rejects_non_finite_oracle_latent():
    def encode(rng, z):
        c = z.copy()
        c[0, 0] = np.nan
        return c

    oracle = RepresentationOracle(2, 2, lambda rng, n: rng.uniform(0, 1, size=(n, 2)), encode, seed=0)
    with pytest.raises(ValidationError) as info:
        evaluate_all(oracle, metrics=["dci", "mig"], config=InterventionConfig(
            train_points=50, eval_points=10, batch_size=4, seed=1))
    assert [(i.column, i.row, i.message) for i in info.value.issues] == [("c1", 1, "non-finite value")]


def test_evaluate_all_missing_column_group_still_skips():
    ds = synth.gen_sap_nonlinear(n=50, seed=2)
    reports = evaluate_all(RepresentationDataset(ds.factors, np.empty((ds.n, 0))), metrics=["dci", "sap", "mig"])
    assert all(r.skipped and r.skip_reason for r in reports)


# --- score range -------------------------------------------------------------------


def test_all_scores_in_unit_interval():
    oracle = synth.gen_factorvae_counterexample(seed=9)
    reports = evaluate_all(oracle, config=InterventionConfig(
        train_points=300, eval_points=100, batch_size=32, seed=9))
    for r in reports:
        assert 0.0 <= r.score <= 1.0
