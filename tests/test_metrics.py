import json
import multiprocessing

import numpy as np
import pytest

from disentmetrics import analysis, cli, core, estimators, metrics, synth
from disentmetrics.core import (
    InformativenessMatrix,
    NotComputableError,
    RepresentationDataset,
    RepresentationOracle,
    ValidationError,
    reports_to_json,
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
from test_core import _count_forks, _force_workers

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
    with pytest.raises(NotComputableError, match="all zero"):
        dci_score([[0.0, 0.0]])


def test_dci_zero_row_contributes_nothing():
    report = dci_score(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert report.score == 1.0
    assert report.intermediates["rho"][1] == 0.0


def test_dci_single_factor():
    # base-1 entropy is undefined; rows with mass count as fully concentrated
    assert dci_score(np.array([[0.3], [0.7]])).score == 1.0


@pytest.mark.parametrize("bad", [[[np.nan, 1.0]], [[np.inf, 1.0]], [[-1.0, 1.0]], [[-1.0, 0.0]], np.ones((2, 2, 2))])
def test_dci_score_rejects_non_finite_negative_or_misshapen_importances(bad):
    # the array gate refuses a misshapen array by name; DCI itself judges the entries
    misshapen = (core.UsageError, r"^importances must be 2-d of shape \(n, m\), got \(2, 2, 2\)$")
    error, shown = misshapen if np.ndim(bad) > 2 else (NotComputableError, "finite, non-negative")
    with pytest.raises(error, match=shown):
        dci_score(bad)


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
    m = InformativenessMatrix(values, entropies)
    assert mig_score(m).score == pytest.approx(1.0, abs=1e-12)


def test_mig_parametric_closed_form():
    for eps, eps1 in ((0.9, 0.1), (0.2, 0.7), (0.5, 0.5)):
        m = synth.gen_parametric_matrix(eps, eps1)
        assert mig_score(m).score == pytest.approx(abs(eps - eps1), abs=1e-12)


def test_mig_all_zero_matrix():
    m = InformativenessMatrix(np.zeros((3, 2)), np.ones(2))
    assert mig_score(m).score == 0.0


def test_mig_zero_entropy_factor():
    m = InformativenessMatrix(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(NotComputableError) as err:
        mig_score(m)
    assert "factor 1" in str(err.value)


def test_mig_needs_two_latents():
    m = InformativenessMatrix(np.ones((1, 2)), np.ones(2))
    with pytest.raises(NotComputableError):
        mig_score(m)


def test_mig_gap_ties_select_the_first_latent():
    m = InformativenessMatrix(np.array([[0.5, 0.2], [0.5, 0.2], [0.1, 0.3]]), np.array([1.0, 0.5]))
    report = mig_score(m)
    assert report.intermediates["selected_latents"].tolist() == [0, 2]
    assert report.intermediates["per_factor_gaps"].tolist() == [0.0, (0.3 - 0.2) / 0.5]


def test_sap_is_the_mig_reduction_with_unit_normalizers():
    sap = sap_score(synth.gen_sap_duplicate(n=500, seed=3))
    mig = mig_score(InformativenessMatrix(sap.intermediates["informativeness"], np.ones(2)))
    assert sap.score == mig.score
    for key in ("per_factor_gaps", "selected_latents"):
        assert np.array_equal(sap.intermediates[key], mig.intermediates[key])


def test_sap_and_mig_skip_a_dataset_without_factors():
    latents = np.random.default_rng(0).standard_normal((5, 3))
    reports = evaluate_all(RepresentationDataset(np.empty((5, 0)), latents), metrics=["sap", "mig"])
    assert [(r.skipped, r.skip_reason) for r in reports] == [(True, "needs at least 1 generative factor")] * 2


# --- 3CharM ----------------------------------------------------------------------


def test_three_charm_one_hot_equals_one():
    entropies = np.array([2.0, 0.5])
    values = np.array([[2.0, 0.0], [0.0, 0.5]])
    m = InformativenessMatrix(values, entropies)
    assert three_charm_score(m).score == pytest.approx(1.0, abs=1e-12)


def test_three_charm_parametric_closed_form():
    for eps, eps1 in ((0.9, 0.1), (0.3, 0.8), (0.0, 0.5)):
        m = synth.gen_parametric_matrix(eps, eps1)
        assert three_charm_score(m).score == pytest.approx(eps, abs=1e-12)


def test_three_charm_unclaimed_factor_scores_zero():
    # both latents claim factor 0; factor 1 has no claimant
    values = np.array([[1.0, 0.2], [0.9, 0.1]])
    m = InformativenessMatrix(values, np.ones(2))
    report = three_charm_score(m)
    assert report.intermediates["per_factor_scores"][1] == 0.0
    assert report.intermediates["best_latent_per_factor"][1] == -1
    assert report.score == pytest.approx(0.8 / 2.0, abs=1e-12)


def test_three_charm_single_factor():
    m = InformativenessMatrix(np.array([[0.4], [0.9]]), np.array([1.0]))
    # K = 1: nothing to subtract, best claimant carries its full entry
    assert three_charm_score(m).score == pytest.approx(0.9, abs=1e-12)


def test_three_charm_zero_total_entropy():
    m = InformativenessMatrix(np.zeros((2, 2)), np.zeros(2))
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
# The per-batch loops, one sampler call and one encoder call per half batch,
# kept as the reference the chunked draws must match bit for bit whenever
# the factor sampler draws rows in order and the encoder draws nothing. Batch
# t draws on the oracle stream of its chunk: the (t // step)-th spawned from
# the split seed, where a chunk holds step = 4096 // rows-per-batch batches.


def _chunk_oracles(oracle, seed, count, rows_per_batch):
    """The oracle that batch t of a split draws on, for each t in range(count)."""
    step = max(1, metrics.INTERVENTION_CHUNK_ROWS // rows_per_batch)
    streams = np.random.SeedSequence(seed).spawn(-(-count // step))
    oracles = [oracle.reseeded(stream) for stream in streams]
    return [oracles[t // step] for t in range(count)]


def _ref_betavae_points(oracle, seed, choice_rng, count, batch_size):
    feats = np.empty((count, oracle.n_latents))
    labels = np.empty(count, dtype=np.int64)
    for t, chunk_oracle in enumerate(_chunk_oracles(oracle, seed, count, 2 * batch_size)):
        r = int(choice_rng.integers(oracle.n_factors))
        z_a = chunk_oracle.sample_factors(batch_size)
        c_a = chunk_oracle.encode(z_a)
        z_b = chunk_oracle.sample_factors(batch_size)
        z_b[:, r] = z_a[:, r]
        feats[t] = np.abs(c_a - chunk_oracle.encode(z_b)).mean(axis=0)
        labels[t] = r
    return feats, labels


def _ref_factorvae_points(oracle, seed, choice_rng, count, batch_size, ref_std, active):
    dims = np.empty(count, dtype=np.int64)
    labels = np.empty(count, dtype=np.int64)
    active_idx = np.flatnonzero(active)
    for t, chunk_oracle in enumerate(_chunk_oracles(oracle, seed, count, batch_size + 1)):
        r = int(choice_rng.integers(oracle.n_factors))
        value = chunk_oracle.sample_factors(1)[0, r]  # one marginal draw shared by the batch
        z = chunk_oracle.sample_factors(batch_size)
        z[:, r] = value
        c = chunk_oracle.encode(z)
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


def _row_order_oracle(name, k, seed, encoded=None):
    """The named oracle; with ``encoded``, a copy of every factor matrix it encodes is appended there."""
    if name == "identity":
        oracle = synth.gen_identity_oracle(n_factors=k, seed=seed)
    else:
        oracle = synth.gen_factorvae_counterexample(seed=seed)
    if encoded is None:
        return oracle

    def encoder(rng, z):
        encoded.append(z.copy())
        return oracle._encoder(rng, z)

    return RepresentationOracle(oracle.n_factors, oracle.n_latents, oracle._factor_sampler, encoder, seed)


@pytest.mark.parametrize("count,batch_size", POINT_SIZES)
@pytest.mark.parametrize("name,k", ROW_ORDER_ORACLES)
def test_betavae_points_match_per_batch_reference(name, k, count, batch_size):
    got_rows, ref_rows = [], []
    got_oracle, ref_oracle = _row_order_oracle(name, k, 3, got_rows), _row_order_oracle(name, k, 3, ref_rows)
    got_rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
    [(feats, labels)] = metrics._betavae_points(got_oracle, [(11, got_rng, count)], batch_size)
    ref_feats, ref_labels = _ref_betavae_points(ref_oracle, 11, ref_rng, count, batch_size)
    assert np.array_equal(_bits(feats), _bits(ref_feats))
    assert labels.dtype == ref_labels.dtype and np.array_equal(labels, ref_labels)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(_bits(got_oracle.sample(4)[1]), _bits(ref_oracle.sample(4)[1]))
    # every factor row reaches the encoder, pinned as in the per-batch loop, in its order
    assert np.array_equal(_bits(np.concatenate(got_rows)), _bits(np.concatenate(ref_rows)))


@pytest.mark.parametrize("count,batch_size", POINT_SIZES)
@pytest.mark.parametrize("name,k", ROW_ORDER_ORACLES)
def test_factorvae_points_match_per_batch_reference(name, k, count, batch_size):
    ref_std = _row_order_oracle(name, k, 0).sample(500)[1].std(axis=0)
    active = np.ones(k, dtype=bool)
    if k >= 4:
        active[k // 2] = False  # leave one dimension out of the argmin
    got_rows, ref_rows = [], []
    got_oracle, ref_oracle = _row_order_oracle(name, k, 3, got_rows), _row_order_oracle(name, k, 3, ref_rows)
    got_rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
    [(dims, labels)] = metrics._factorvae_points(got_oracle, [(11, got_rng, count)], batch_size, ref_std, active)
    ref_dims, ref_labels = _ref_factorvae_points(ref_oracle, 11, ref_rng, count, batch_size, ref_std, active)
    assert np.array_equal(dims, ref_dims)
    assert labels.dtype == ref_labels.dtype and np.array_equal(labels, ref_labels)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(_bits(got_oracle.sample(4)[1]), _bits(ref_oracle.sample(4)[1]))
    # every factor row reaches the encoder, pinned as in the per-batch loop, in its order
    assert np.array_equal(_bits(np.concatenate(got_rows)), _bits(np.concatenate(ref_rows)))


def test_chunks_cover_every_batch_once():
    rows = metrics.INTERVENTION_CHUNK_ROWS
    for count, rows_per_batch in ((1, 2), (1000, 129), (7, rows + 1), (4096, 1)):
        chunks = metrics._chunks(count, rows_per_batch)
        assert [start for start, _ in chunks] == [0] + [stop for _, stop in chunks[:-1]]
        assert chunks[-1][1] == count
        assert all((stop - start) * rows_per_batch <= max(rows, rows_per_batch) for start, stop in chunks)


# --- oracle chunks on every CPU ------------------------------------------------

# 7 BetaVAE chunks (6 train, 1 eval) and 4 FactorVAE chunks (3 train, 1 eval) of 16-batch draws
FAN_OUT = InterventionConfig(train_points=700, eval_points=150, batch_size=16, seed=3)
FAN_OUT_ARGS = ["--train-points", "700", "--eval-points", "150", "--batch-size", "16", "--seed", "3"]


def _oracle_reports():
    return reports_to_json([beta_vae_score(synth.gen_betavae_counterexample(seed=4), FAN_OUT),
                            factor_vae_score(synth.gen_factorvae_counterexample(seed=4), FAN_OUT)])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_oracle_reports_do_not_depend_on_the_worker_count(monkeypatch, workers):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    serial = _oracle_reports()
    _force_workers(monkeypatch, workers)
    forks = _count_forks(monkeypatch)
    assert _oracle_reports() == serial
    assert forks == ([] if workers == 1 else [workers, workers])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_eval_oracle_json_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, workers):
    def written(name):
        argv = ["eval", "--oracle", "betavae-counterexample", "--metrics", "betavae,factorvae", *FAN_OUT_ARGS]
        assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0
        return (tmp_path / name).read_bytes()

    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    serial = written("serial.json")
    _force_workers(monkeypatch, workers)
    assert written("forked.json") == serial


@pytest.mark.parametrize("metric, batch_size", [(beta_vae_score, 125), (factor_vae_score, 249)])
@pytest.mark.parametrize("below, forks", [(1, []), (0, [2])])
def test_oracle_chunks_fan_out_only_above_the_work_gate(monkeypatch, metric, batch_size, below, forks):
    # 250 factor rows a batch, 0.08 us each: two blocks need 2 * gate / 0.08 / 250 = 1000 batches
    batches = 2 * core._BLOCK_MIN_WORK * 100 // 8 // 250
    config = InterventionConfig(train_points=batches - 100 - below, eval_points=100, batch_size=batch_size)
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    seen = _count_forks(monkeypatch)
    metric(synth.gen_identity_oracle(seed=2), config)
    assert seen == forks


@pytest.mark.parametrize("workers", [2, 3])
def test_a_non_finite_latent_in_a_childs_chunk_raises_the_serial_error(monkeypatch, workers):
    identity = synth.gen_identity_oracle(seed=2)

    def encoder(rng, z):
        c = identity._encoder(rng, z)
        if len(z) == 22 * 2 * 16:  # the eval split's partial last chunk, which a child draws
            c[[5, 9], 1] = np.nan
        return c

    oracle = RepresentationOracle(3, 3, identity._factor_sampler, encoder, seed=2)
    with pytest.raises(ValidationError) as serial:
        beta_vae_score(oracle, FAN_OUT)
    _force_workers(monkeypatch, workers)
    forks = _count_forks(monkeypatch)
    with pytest.raises(ValidationError) as forked:
        beta_vae_score(oracle, FAN_OUT)
    assert forks == [workers]
    assert str(forked.value) == str(serial.value) == "non-finite value [column c2, row 6]; " \
        "non-finite value [column c2, row 10]"
    assert forked.value.issues == serial.value.issues
    assert multiprocessing.active_children() == []


# --- every fan-out joins its children --------------------------------------------
# On a normal run no child is terminated: each has sent its end message and exited
# with code 0 when the call returns.


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("call", ["betavae", "factorvae", "forest", "save", "load", "compare"])
def test_every_fan_out_joins_its_children_on_a_normal_run(tmp_path, monkeypatch, workers, call):
    dataset = synth.gen_disentangled(3, n=800, seed=1)
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    for path, seed in zip(paths, (1, 2)):
        core.save_dataset(synth.gen_entangled_family(0.5, n_factors=3, n=800, seed=seed), path)
    run = {
        "betavae": lambda: beta_vae_score(synth.gen_betavae_counterexample(seed=4), FAN_OUT),
        "factorvae": lambda: factor_vae_score(synth.gen_factorvae_counterexample(seed=4), FAN_OUT),
        "forest": lambda: estimators.importance_matrix_from_dataset(
            dataset, "forest", estimators.ForestConfig(n_trees=7, max_depth=4, seed=9)),
        "save": lambda: core.save_dataset(dataset, str(tmp_path / "c.csv")),
        "load": lambda: core.load_dataset(paths[0]),
        "compare": lambda: analysis.compare(*paths, metrics=["mig", "3charm", "sap"]),
    }[call]
    _force_workers(monkeypatch, workers)
    base = multiprocessing.process.BaseProcess
    started, terminated, start, terminate = [], [], base.start, base.terminate
    monkeypatch.setattr(base, "start", lambda child: started.append(child) or start(child))
    monkeypatch.setattr(base, "terminate", lambda child: terminated.append(child) or terminate(child))
    run()
    assert terminated == [] and multiprocessing.active_children() == []
    assert started and [child.exitcode for child in started] == [0] * len(started)
    assert core._held_by_children == set()


# --- permutation invariance ------------------------------------------------------


def test_matrix_metrics_permutation_invariant_exact():
    rng = np.random.default_rng(12)
    values = rng.uniform(0, 1, size=(5, 3))
    m = InformativenessMatrix(values, np.ones(3) * 2.0)
    perm = rng.permutation(5)
    mp = InformativenessMatrix(values[perm], m.factor_entropies)
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
    with pytest.raises(ValidationError) as info:
        evaluate_all(RepresentationDataset(ds.factors, ds.latents[:9]), metrics=["dci"])
    assert [(i.column, i.message) for i in info.value.issues] == [("c1", "length mismatch"), ("c2", "length mismatch")]


@pytest.mark.parametrize("fault, shown", [
    ("nan", "non-finite value [column c1, row 4]"),
    ("one row short", "length mismatch [column c1]; length mismatch [column c2]"),
])
def test_no_dataset_call_can_be_handed_an_invalid_dataset(tmp_path, fault, shown):
    """Each call once took such a dataset: DCI scored the NaN one 0.966 and the short one
    0.978 (its forest never read the last factor row), SAP scored the NaN one nan, the MI
    matrix raised a bare numpy ValueError and the save wrote a file the load refused."""
    ds = synth.gen_sap_nonlinear(n=50, seed=2)
    latents = ds.latents.copy()
    if fault == "nan":
        latents[3, 0] = np.nan
    else:
        latents = latents[:-1]
    path = tmp_path / "d.csv"
    for call in (dci_from_dataset, sap_score, informativeness_from_mi, estimators.importance_matrix_from_dataset,
                 lambda dataset: core.save_dataset(dataset, str(path))):
        with pytest.raises(ValidationError) as err:
            call(RepresentationDataset(ds.factors, latents))
        assert str(err.value) == shown
    assert not path.exists()


@pytest.mark.parametrize("kwargs, field", [
    ({"train_points": 10.5}, "train_points"), ({"eval_points": 0}, "eval_points"),
    ({"batch_size": 4.5}, "batch_size"), ({"batch_size": 1}, "batch_size"), ({"train_points": "10"}, "train_points"),
    ({"seed": -1}, "seed"), ({"seed": 2.5}, "seed"),
])
def test_intervention_config_names_the_field_it_rejects(kwargs, field):
    with pytest.raises(core.UsageError, match=f"^{field} must be (an integer|at least [0-9]+), got "):
        InterventionConfig(**kwargs)
    assert InterventionConfig(train_points=np.int64(5), eval_points=1, batch_size=2).train_points == 5


def test_a_report_scored_with_a_numpy_seed_writes_the_seed_as_a_json_integer():
    config = InterventionConfig(train_points=200, eval_points=50, batch_size=8, seed=np.int64(3))
    oracle = synth.gen_identity_oracle(n_factors=2, seed=0)
    for reports in (evaluate_all(oracle, metrics=["betavae", "mig"], config=config), [beta_vae_score(oracle, config)]):
        for written in json.loads(reports_to_json(reports)):  # MIG's config has no seed
            seeds = [written["seed"], written["config"].get("seed", 3)]
            assert seeds == [3, 3] and [type(seed) for seed in seeds] == [int, int]


# an oracle whose sampler or encoder returns the wrong shape: each metric names it, whatever it scores
_SHAPE_FAULTS = {
    "wide sampler": (2, lambda rng, n: rng.random((n, 3)), lambda rng, z: z[:, :2].copy(),
                     r"^factor sampler output must be 2-d of shape \((\d+), 2\), got \(\1, 3\)$"),
    "short encoder": (2, lambda rng, n: rng.random((n, 2)), lambda rng, z: z[:-1].copy(),
                      r"^encoder output must be 2-d of shape \(\d+, 2\), got \(\d+, 2\)$"),
    "narrow encoder": (5, lambda rng, n: rng.random((n, 2)), lambda rng, z: np.hstack([z, z[:, :1]]),
                       r"^encoder output must be 2-d of shape \((\d+), 5\), got \(\1, 3\)$"),
}


@pytest.mark.parametrize("fault", list(_SHAPE_FAULTS))
def test_an_oracle_metric_raises_for_a_sampler_or_encoder_of_the_wrong_shape(fault):
    n_latents, sampler, encoder, shown = _SHAPE_FAULTS[fault]
    oracle = RepresentationOracle(2, n_latents, sampler, encoder)
    config = InterventionConfig(train_points=60, eval_points=20, batch_size=8)
    for score in (beta_vae_score, factor_vae_score):
        with pytest.raises(ValidationError, match=shown):
            score(oracle, config)
    for sample in (oracle.sample, oracle.sample_dataset):
        with pytest.raises(ValidationError, match=shown):
            sample(5)


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


def _bad_latent_oracle(bad):
    def encode(rng, z):
        c = z.copy()
        c[2, 1] = bad
        return c

    return RepresentationOracle(3, 3, lambda rng, n: rng.random((n, 3)), encode, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name,scorer", [("betavae", beta_vae_score), ("factorvae", factor_vae_score)])
def test_oracle_metrics_reject_non_finite_latents(name, scorer, bad):
    config = InterventionConfig(train_points=50, eval_points=10, batch_size=8, seed=1)
    for run in (lambda: scorer(_bad_latent_oracle(bad), config),
                lambda: evaluate_all(_bad_latent_oracle(bad), metrics=[name], config=config)):
        with pytest.raises(ValidationError) as info:
            run()
        assert [(i.column, i.row, i.message) for i in info.value.issues] == [("c2", 3, "non-finite value")]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_oracle_sampling_rejects_non_finite_latents(bad):
    oracle = _bad_latent_oracle(bad)
    config = InterventionConfig(train_points=3, eval_points=2, batch_size=2, seed=1)
    for draw in (lambda: oracle.sample(5), lambda: oracle.encode(oracle.sample_factors(4)),
                 lambda: beta_vae_score(oracle, config), lambda: factor_vae_score(oracle, config)):
        with pytest.raises(ValidationError, match=r"^non-finite value \[column c2, row 3\]$"):
            draw()


def test_oracle_encoding_error_message_stays_short():
    oracle = RepresentationOracle(2, 2, lambda rng, n: rng.random((n, 2)), lambda rng, z: np.full(z.shape, np.nan))
    with pytest.raises(ValidationError) as err:
        oracle.encode(oracle.sample_factors(4096))
    assert len(err.value.issues) == 2 * 4096
    assert str(err.value).endswith("; non-finite value [column c1, row 10]; and 8182 more")


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
