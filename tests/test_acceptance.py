"""Acceptance suite: one test per exit criterion.

Each test prints a [PASS]/[FAIL] line with the measured values before
asserting, so `pytest tests/test_acceptance.py -v -s` gives the full
scoreboard. The sap-duplicate half of criterion 4 checks the closed form
of the construction's linear informativeness gap, 0.895 for U[-1,1]
factors, and asserts that every seed misses the published 0.98 +/- 0.02,
so that discrepancy stays on record as a checked fact.
"""

import math
import time

import numpy as np
import pytest

from disentmetrics import analysis, reproduce, synth
from disentmetrics.cli import main as cli_main
from disentmetrics.core import (
    InformativenessMatrix,
    RepresentationDataset,
    save_dataset,
)
from disentmetrics.estimators import (
    BinningSpec,
    discretize,
    entropy,
    informativeness_from_mi,
    mutual_information,
)
from disentmetrics.metrics import (
    InterventionConfig,
    dci_score,
    factor_vae_score,
    mig_score,
    sap_score,
    three_charm_score,
)
from disentmetrics.synth import GeneratorSpec


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def test_criterion_1_betavae_counterexample():
    start = time.time()
    results = reproduce.run("betavae-fails-p2")
    elapsed = time.time() - start
    scores = [r.observed for r in results]
    ok = all(r.passed for r in results) and elapsed < 60
    assert report(
        "1", ok,
        f"betavae scores {np.round(scores, 4).tolist()} vs 0.9967 +/- 0.02 in {elapsed:.1f}s",
    )


def test_criterion_2_factorvae_counterexample():
    start = time.time()
    results = reproduce.run("factorvae-fails-p2")
    elapsed = time.time() - start
    scores = [r.observed for r in results]
    ok = all(s >= 0.98 for s in scores) and elapsed < 60
    assert report("2", ok, f"factorvae scores {np.round(scores, 4).tolist()} >= 0.98 in {elapsed:.1f}s")


def test_criterion_3_dci_matrices():
    start = time.time()
    eleven_a = dci_score(synth.gen_dci_matrix("eleven_factor")).score
    eleven_b = dci_score(synth.gen_dci_matrix("eleven_factor")).score
    two_a = dci_score(synth.gen_dci_matrix("two_factor")).score
    two_b = dci_score(synth.gen_dci_matrix("two_factor")).score
    elapsed = time.time() - start
    ok = (
        abs(eleven_a - 0.600) <= 0.005
        and abs(two_a - 0.957) <= 0.001
        and eleven_a == eleven_b
        and two_a == two_b
        and elapsed < 1.0
    )
    assert report("3", ok, f"dci {eleven_a:.4f} (target 0.600) and {two_a:.4f} (target 0.957) in {elapsed:.2f}s")


def test_criterion_4a_sap_nonlinear():
    results = reproduce.run("sap-nonlinear")
    scores = [r.observed for r in results]
    ok = all(r.passed for r in results)
    assert report("4a", ok, f"sap nonlinear scores {np.round(scores, 4).tolist()} vs 0.32 +/- 0.05")


def test_criterion_4b_sap_duplicate():
    # SAP stays high although each factor moves two latents. Over U[-1,1]
    # factors the top single-latent R^2 is 1 and the runner-up is
    # corr^2(z1, z1^25 + z2^25) = E[z^26]^2 / (E[z^2] * 2 E[z^50]).
    closed_form = 1 - (1 / 27) ** 2 / ((1 / 3) * (2 / 51))
    stated, tolerance = 0.98, 0.02
    results = reproduce.run("sap-duplicate")
    scores = [r.observed for r in results]
    ok = (
        [r.seed for r in results] == [11, 22, 33]
        and all(r.tolerance == tolerance and r.passed for r in results)
        and all(abs(s - closed_form) <= tolerance for s in scores)
        and all(abs(s - stated) > tolerance for s in scores)
    )
    assert report(
        "4b", ok,
        f"sap duplicate scores {np.round(scores, 4).tolist()} vs closed form "
        f"{closed_form:.4f} +/- {tolerance}; all miss the stated {stated} +/- {tolerance}",
    )


def test_criterion_5_parametric_closed_forms():
    closed = reproduce.run("parametric-closed-forms")[0]
    table = reproduce.run("parametric-table")[0]
    ok = closed.passed and table.passed
    assert report(
        "5", ok,
        f"closed-form max deviation {closed.observed:.2e} (tol 1e-9); "
        f"table-regime max deviation {table.observed:.3f} (tol 0.1)",
    )


def test_criterion_6_property_suite():
    checks = []

    # metric range on a fully computed oracle run
    oracle = synth.gen_factorvae_counterexample(seed=17)
    from disentmetrics.metrics import evaluate_all

    reports = evaluate_all(oracle, config=InterventionConfig(
        train_points=400, eval_points=150, batch_size=32, seed=17))
    checks.append(("range", all(0.0 <= r.score <= 1.0 for r in reports)))

    # permutation invariance of MIG / 3CharM / SAP / DCI
    ds = synth.gen_sap_duplicate(n=2000, seed=8)
    perm = [2, 0, 1]
    permuted = RepresentationDataset(ds.factors, ds.latents[:, perm])
    i_a, i_b = informativeness_from_mi(ds), informativeness_from_mi(permuted)
    rng = np.random.default_rng(0)
    p = rng.uniform(0, 1, size=(4, 3))
    checks.append(("permutation", (
        mig_score(i_a).score == mig_score(i_b).score
        and three_charm_score(i_a).score == three_charm_score(i_b).score
        and sap_score(ds).score == sap_score(permuted).score
        and dci_score(p).score == dci_score(p[[3, 1, 0, 2]]).score
    )))

    # MI symmetry and bounds
    a = rng.integers(0, 5, 500)
    b = np.clip(a + rng.integers(-1, 2, 500), 0, 4)
    mi_ab, mi_ba = mutual_information(a, b), mutual_information(b, a)
    checks.append(("mi", abs(mi_ab - mi_ba) <= 1e-12
                   and 0 <= mi_ab <= min(entropy(a), entropy(b)) + 1e-9))

    # quantile binning invariant under a strictly increasing transform
    x = rng.uniform(-2, 2, 1000)
    checks.append(("binning", np.array_equal(
        discretize(x, BinningSpec("quantile", 20)),
        discretize(np.tanh(x), BinningSpec("quantile", 20)))))

    # duplicate-latent asymmetry
    base_ds = synth.gen_disentangled(3, n=10000, noise_std=0.0, map_kind="linear", seed=6)
    base = informativeness_from_mi(base_ds)
    dup_ds = RepresentationDataset(base_ds.factors, np.column_stack([base_ds.latents, base_ds.latents[:, 0]]))
    dup = informativeness_from_mi(dup_ds)
    copied_factor = int(np.argmax(base.values[0]))
    checks.append(("duplicate-latent", (
        abs(three_charm_score(dup).score - three_charm_score(base).score) <= 1e-9
        and mig_score(dup).intermediates["per_factor_gaps"][copied_factor] < 0.05
    )))

    # 3CharM property 1 and property 2 at n = 10,000
    p1 = informativeness_from_mi(synth.gen_disentangled(4, n=10000, map_kind="cubic", seed=21))
    p2_ds = synth.gen_factorvae_counterexample(seed=21).sample_dataset(10000)
    p2 = informativeness_from_mi(p2_ds)
    fv = factor_vae_score(synth.gen_factorvae_counterexample(seed=21), InterventionConfig(seed=21))
    checks.append(("property-1", three_charm_score(p1).score >= 0.9 and mig_score(p1).score >= 0.9))
    checks.append(("property-2", (
        three_charm_score(p2).score <= 0.2
        and mig_score(p2).score <= 0.2
        and fv.score >= 0.95
    )))

    failed = [name for name, ok in checks if not ok]
    assert report("6", not failed, f"property suite {'all ok' if not failed else 'failed: ' + ', '.join(failed)}")


def test_criterion_7_rank_correlation_population():
    start = time.time()
    specs = [
        GeneratorSpec("entangled", {"level": i / 49, "K": 4}, seed=100 + i, n=2000)
        for i in range(50)
    ]
    matrix, population = analysis.correlate_metrics(specs)
    elapsed = time.time() - start
    mig_i = population.metric_labels.index("mig")
    tc_i = population.metric_labels.index("3charm")
    rho = matrix[mig_i, tc_i]
    ok = (
        rho >= 0.5
        and np.array_equal(matrix, matrix.T)
        and np.array_equal(np.diag(matrix), np.ones(len(population.metric_labels)))
        and elapsed < 300
    )
    assert report("7", ok, f"spearman(mig, 3charm) = {rho:.3f} over 50 representations in {elapsed:.0f}s")


def test_criterion_8_comparison_disagreements():
    a1, b1 = synth.gen_comparison_matrices("mig-vs-3charm")
    r1 = analysis.compare(a1, b1, metrics=["mig", "3charm"])
    mig_vs = (
        r1.preferred["mig"] == "b"
        and r1.preferred["3charm"] == "a"
        and ("mig", "3charm") in r1.disagreements
    )
    a2, b2 = synth.gen_comparison_matrices("dci-vs-3charm")
    r2 = analysis.compare(a2, b2, metrics=["3charm", "dci"])
    dci_vs = (
        r2.preferred["dci"] == "b"
        and r2.preferred["3charm"] == "a"
        and ("3charm", "dci") in r2.disagreements
    )
    ok = mig_vs and dci_vs
    assert report(
        "8", ok,
        "mig prefers compact carriers while 3charm tolerates redundant copies; "
        "dci prefers one-hot redundancy while 3charm requires coverage",
    )


def test_criterion_9_determinism(tmp_path):
    ds_path = tmp_path / "d.csv"
    save_dataset(synth.gen_sap_nonlinear(n=1000, seed=3), str(ds_path))
    paths = [tmp_path / f"eval{i}.json" for i in (1, 2)]
    for p in paths:
        code = cli_main(["eval", "--dataset", str(ds_path), "--metrics", "mig,sap,dci,3charm",
                         "--seed", "13", "--out", str(p)])
        assert code == 0
    eval_ok = paths[0].read_bytes() == paths[1].read_bytes()

    repro_paths = [tmp_path / f"repro{i}.json" for i in (1, 2)]
    for p in repro_paths:
        code = cli_main(["reproduce", "dci-two-factor", "--format", "json", "--out", str(p)])
        assert code == 0
    repro_ok = repro_paths[0].read_bytes() == repro_paths[1].read_bytes()

    ok = eval_ok and repro_ok
    assert report("9", ok, "repeated eval and reproduce runs are byte-identical")
