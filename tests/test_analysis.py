import numpy as np
import pytest

from disentmetrics import analysis, core, estimators, synth
from disentmetrics.analysis import _average_ranks, compare, correlate_metrics, spearman
from disentmetrics.core import NotComputableError, ParseError, RepresentationDataset, save_dataset
from disentmetrics.synth import GeneratorSpec
from test_core import _count_forks, _force_workers


# --- spearman -----------------------------------------------------------


def test_spearman_identical():
    assert spearman([1.0, 2.0, 5.0, 3.0], [1.0, 2.0, 5.0, 3.0]) == pytest.approx(1.0, abs=1e-12)


def test_spearman_reversed():
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_hand_example():
    # ranks of b are (1,3,2,5,4); Pearson with (1..5) = 8/10
    assert spearman([1, 2, 3, 4, 5], [1, 3, 2, 5, 4]) == pytest.approx(0.8, abs=1e-12)


def test_spearman_ties_average():
    # b has a tie: ranks (1, 2.5, 2.5, 4)
    a = [1.0, 2.0, 3.0, 4.0]
    b = [0.0, 1.0, 1.0, 2.0]
    ra = np.array([1, 2, 3, 4], dtype=float)
    rb = np.array([1, 2.5, 2.5, 4])
    expected = np.corrcoef(ra, rb)[0, 1]
    assert spearman(a, b) == pytest.approx(expected, abs=1e-12)


def test_spearman_constant_not_computable():
    with pytest.raises(NotComputableError):
        spearman([1, 1, 1], [1, 2, 3])


@pytest.mark.parametrize("bad", [[1, np.nan, 3, 4, 5], [1, 2, np.inf, 4, 5], [-np.inf, 2, 3, 4, 5]])
def test_spearman_rejects_non_finite_input(bad):
    for a, b in ((bad, [1, 2, 3, 4, 5]), ([1, 2, 3, 4, 5], bad)):
        with pytest.raises(ValueError, match="must be finite"):
            spearman(a, b)


def test_spearman_rejects_non_1d_input():
    with pytest.raises(ValueError, match="must be 1-d"):
        spearman([[1, 2], [3, 4]], [1, 2, 3, 4])


def test_spearman_symmetric():
    rng = np.random.default_rng(0)
    a = rng.normal(size=40)
    b = rng.normal(size=40)
    assert spearman(a, b) == pytest.approx(spearman(b, a), abs=1e-12)


def test_spearman_monotone_invariant():
    rng = np.random.default_rng(1)
    a = rng.normal(size=40)
    b = rng.normal(size=40)
    assert spearman(np.exp(a), b) == pytest.approx(spearman(a, b), abs=1e-12)


def _loop_average_ranks(x):
    """Reference: walk the stably sorted values run by run."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ranks = np.empty(x.size)
    start = 0
    for i in range(1, x.size + 1):
        if i == x.size or xs[i] != xs[start]:
            ranks[order[start:i]] = 0.5 * (start + i - 1)
            start = i
    return ranks


def test_average_ranks_match_the_tie_run_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(500):
        pool = rng.integers(-3, 4, size=int(rng.integers(1, 6))) * 0.5
        x = rng.choice(np.concatenate([pool, [0.0, -0.0]]), size=int(rng.integers(1, 60)))
        assert np.array_equal(_average_ranks(x).view(np.uint64), _loop_average_ranks(x).view(np.uint64))
    x = rng.standard_normal(50)
    assert np.array_equal(_average_ranks(x), _loop_average_ranks(x))


# --- correlate_metrics -----------------------------------------------------


def _population(count=6, n=600):
    return [
        GeneratorSpec("entangled", {"level": i / (count - 1), "K": 3}, seed=50 + i, n=n)
        for i in range(count)
    ]


def test_correlate_metrics_matrix_shape():
    matrix, pop = correlate_metrics(_population(), metrics=["mig", "3charm", "sap"])
    assert matrix.shape == (3, 3)
    assert np.array_equal(matrix, matrix.T)
    assert np.array_equal(np.diag(matrix), np.ones(3))
    assert pop.metric_labels == ["mig", "3charm", "sap"]
    assert pop.scores.shape == (3, 6)
    assert pop.dropped == {}


def test_correlate_metrics_needs_population():
    with pytest.raises(ValueError):
        correlate_metrics(_population(count=4), metrics=["mig", "3charm"])


def test_correlate_metrics_constant_scores():
    spec = GeneratorSpec("entangled", {"level": 0.0, "K": 3}, seed=50, n=400)
    with pytest.raises(NotComputableError):
        correlate_metrics([spec] * 5, metrics=["mig", "3charm"])


def test_correlate_metrics_drops_incomputable_with_reason():
    rng = np.random.default_rng(2)

    def make_dataset(seed):
        gen = np.random.default_rng(seed)
        z1 = np.full(400, 1.0)  # constant factor: zero entropy kills mig
        z2 = gen.uniform(-1, 1, 400)
        return RepresentationDataset(
            np.column_stack([z1, z2]),
            np.column_stack([z2 + 0.01 * gen.standard_normal(400), gen.standard_normal(400),
                             0.5 * z2 + gen.standard_normal(400)]),
        )

    population = [make_dataset(s) for s in range(5)]
    matrix, pop = correlate_metrics(population, metrics=["mig", "sap", "3charm"])
    assert "mig" in pop.dropped and "entropy" in pop.dropped["mig"]
    assert pop.metric_labels == ["sap", "3charm"]
    assert matrix.shape == (2, 2)


# --- compare -----------------------------------------------------------------


def test_compare_identical_inputs_no_preference():
    m, _ = synth.gen_comparison_matrices("mig-vs-3charm")
    report = compare(m, m, metrics=["mig", "3charm", "dci"])
    assert all(p is None for p in report.preferred.values())
    assert report.disagreements == []


def test_compare_mig_vs_3charm_directions():
    a, b = synth.gen_comparison_matrices("mig-vs-3charm")
    report = compare(a, b, metrics=["mig", "3charm"])
    assert report.preferred["mig"] == "b"
    assert report.preferred["3charm"] == "a"
    assert ("mig", "3charm") in report.disagreements
    # frozen from the constructed matrices
    assert report.scores["mig"] == (pytest.approx(0.05), pytest.approx(0.5))
    assert report.scores["3charm"] == (pytest.approx(1.0), pytest.approx(0.5))


def test_compare_dci_vs_3charm_directions():
    a, b = synth.gen_comparison_matrices("dci-vs-3charm")
    report = compare(a, b, metrics=["3charm", "dci"])
    assert report.preferred["dci"] == "b"
    assert report.preferred["3charm"] == "a"
    assert ("3charm", "dci") in report.disagreements
    assert report.scores["dci"] == (pytest.approx(0.3708, abs=1e-3), pytest.approx(0.7501, abs=1e-3))
    assert report.scores["3charm"] == (pytest.approx(0.65), pytest.approx(0.5))


def test_compare_rejects_dataset_metric_on_matrix():
    a, b = synth.gen_comparison_matrices("mig-vs-3charm")
    with pytest.raises(NotComputableError) as err:
        compare(a, b, metrics=["sap"])
    assert "sap" in str(err.value)
    assert str(err.value) == "metric 'sap': cannot be computed from a matrix"


def test_compare_datasets():
    d1 = synth.gen_disentangled(3, n=1500, seed=1)
    d2 = synth.gen_entangled_family(1.0, n_factors=3, n=1500, seed=1)
    report = compare(d1, d2, metrics=["mig", "3charm"], labels=("clean", "mixed"))
    assert report.preferred["mig"] == "clean"
    assert report.preferred["3charm"] == "clean"
    assert report.disagreements == []


def test_compare_builds_mi_once_per_representation(monkeypatch):
    calls = []
    build = estimators.informativeness_from_mi

    def counted(dataset, spec):
        calls.append(dataset)
        return build(dataset, spec)

    monkeypatch.setattr(estimators, "informativeness_from_mi", counted)
    d1 = synth.gen_disentangled(3, n=500, seed=1)
    d2 = synth.gen_entangled_family(1.0, n_factors=3, n=500, seed=1)
    # under the work gate, both are scored in this process, where the builds are counted
    assert min(analysis._load_work(d1), analysis._load_work(d2)) < core._BLOCK_MIN_WORK
    compare(d1, d2, metrics=["mig", "3charm"])
    assert len(calls) == 2


# --- compare on every usable CPU ----------------------------------------------
# The caller scores the first representation while a forked child scores the
# second; every worker count must give the serial scores and typed errors.


def _compare_files(tmp_path, case):
    """Two CSV files for ``case``: both good, a bad cell in b, a metric skipped on
    b (a constant factor has no entropy for MIG), or a bad cell in both."""
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    save_dataset(synth.gen_disentangled(3, n=800, seed=1), str(paths[0]))
    b = synth.gen_entangled_family(0.5, n_factors=3, n=800, seed=2)
    if case == "skipped_on_b":
        b = RepresentationDataset(np.column_stack([np.ones(800), b.factors[:, 1:]]), b.latents)
    save_dataset(b, str(paths[1]))
    bad_rows = {"bad_cell_in_b": {1: 612}, "bad_cell_in_both": {0: 405, 1: 612}}.get(case, {})
    for i, row in bad_rows.items():
        lines = paths[i].read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[row].split(",")
        lines[row] = ",".join(cells[:4] + ["oops"] + cells[5:])
        paths[i].write_text("".join(lines), encoding="utf-8")
    return [str(path) for path in paths]


def _compare_outcome(paths):
    try:
        return "ok", compare(*paths, metrics=["mig", "3charm", "sap"]).to_json()
    except (ParseError, NotComputableError) as err:
        return type(err).__name__, str(err), getattr(err, "row", None), getattr(err, "column", None)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("case, raised", [
    ("good", ("ok",)),
    ("bad_cell_in_b", ("ParseError", 612, "c2")),
    ("skipped_on_b", ("NotComputableError", None, None)),
    ("bad_cell_in_both", ("ParseError", 405, "c2")),  # a's error, as in one process
])
def test_compare_gives_the_serial_scores_and_errors_on_any_worker_count(tmp_path, monkeypatch, case, raised, workers):
    paths = _compare_files(tmp_path, case)
    _force_workers(monkeypatch, 1)
    serial = _compare_outcome(paths)
    assert (serial[0], *serial[2:]) == raised  # the outcome's type, and an error's row and column
    _force_workers(monkeypatch, workers)
    seen = _count_forks(monkeypatch)
    assert _compare_outcome(paths) == serial
    # b in one child; a's load forks too only with a third CPU, and b's (a daemon's) never
    assert seen == [2] * (workers - 1)
