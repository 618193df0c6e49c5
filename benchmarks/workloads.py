"""The three closed-loop workloads of the benchmark.

Each workload turns ``(seed, item index)`` into inputs, runs one item
through public disentmetrics entry points (``run``), and checks the
program's outputs against the acceptance suite's pinned targets
(``check``, which returns the exact score values for the digest). One
caller waits for each item, as a researcher's script does. Each workload
loads a different layer and bypasses the others; ``PREDICTIONS`` records
which layer metrics should move which end-to-end metric on which workload,
and which layers a workload never calls.
"""

import json
import os

import numpy as np

from disentmetrics import analysis, cli, core, synth

FULL_SIZES = {
    "population": {"count": 5, "factors": 4, "n": 2000},
    "interventions": {"train_points": 10000, "eval_points": 2000, "batch_size": 128},
    "dataset-files": {"factors": 10, "n": 20000},
}

# layer metric -> (end-to-end metrics it should move, workload that moves it,
# workloads on which no change is predicted)
PREDICTIONS = (
    ("estimators.importance_matrix_from_dataset.self_s", ("items_per_s", "item_s_p50"),
     "population", ("interventions", "dataset-files")),
    ("core.RepresentationDataset.latent_matrix.calls", ("items_per_s", "item_s_p50"),
     "population", ("interventions", "dataset-files")),
    ("core.RepresentationOracle.sample.s", ("items_per_s", "item_s_p50", "peak_rss_mb"),
     "interventions", ("population", "dataset-files")),
    ("core.RepresentationOracle.sample.calls", ("items_per_s", "item_s_p50", "peak_rss_mb"),
     "interventions", ("population", "dataset-files")),
    ("core.RepresentationOracle.sample.rows", ("items_per_s", "item_s_p50", "peak_rss_mb"),
     "interventions", ("population", "dataset-files")),
    ("estimators.fit_linear_classifier.s", ("items_per_s",),
     "interventions", ("population", "dataset-files")),
    ("core.save_dataset.s", ("items_per_s", "item_s_p50"), "dataset-files", ("population", "interventions")),
    ("core.save_dataset.bytes", ("items_per_s", "item_s_p50"), "dataset-files", ("population", "interventions")),
    ("core.load_dataset.s", ("items_per_s", "item_s_p50"), "dataset-files", ("population", "interventions")),
    ("core.load_dataset.bytes", ("items_per_s", "item_s_p50"), "dataset-files", ("population", "interventions")),
    ("estimators.informativeness_from_mi.per_dataset", ("items_per_s",), "dataset-files", ("population",)),
    ("estimators.mutual_information.calls", ("items_per_s",), "dataset-files", ("population",)),
    ("estimators.discretize.s", ("items_per_s",), "dataset-files", ("population",)),
)

# layers each workload never calls: their call counts must read zero
BYPASSED = {
    "population": ("core.RepresentationOracle.sample", "estimators.fit_linear_classifier",
                   "core.load_dataset", "core.save_dataset"),
    "interventions": ("estimators.importance_matrix_from_dataset", "estimators.mutual_information",
                      "core.RepresentationDataset.latent_matrix", "core.load_dataset", "core.save_dataset"),
    "dataset-files": ("estimators.importance_matrix_from_dataset", "core.RepresentationOracle.sample",
                      "estimators.fit_linear_classifier", "core.RepresentationDataset.latent_matrix"),
}

# the layer carrying each workload's load: its call count must be nonzero
MAIN_LAYERS = {
    "population": ("estimators.importance_matrix_from_dataset",),
    "interventions": ("core.RepresentationOracle.sample",),
    "dataset-files": ("core.save_dataset", "core.load_dataset"),
}

DATASET_METRICS = ["dci", "sap", "mig", "3charm"]
FILE_METRICS = ["mig", "3charm", "sap"]
BETAVAE_TARGET, BETAVAE_TOLERANCE = 0.9967, 0.02
FACTORVAE_FLOOR = 0.98
SPEARMAN_FLOOR = 0.5


class CheckFailed(Exception):
    """An item's output missed its pinned target."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _item_rng(seed, index):
    return np.random.default_rng([seed, index])


def _cli(argv):
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"disentmetrics {argv[0]} exited with {code}")


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _remove(*paths):
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def _score_reports(payload, names):
    """Scores of a list of report dicts, requiring exactly ``names``, unskipped, in [0, 1]."""
    _require([r["metric"] for r in payload] == list(names), f"reports name {[r['metric'] for r in payload]}")
    scores = []
    for r in payload:
        _require(not r["skipped"], f"{r['metric']} skipped: {r['skip_reason']}")
        _require(0.0 <= r["score"] <= 1.0, f"{r['metric']} score {r['score']} outside [0, 1]")
        scores.append(r["score"])
    return scores


class Population:
    """One ``analysis.correlate_metrics`` call over entangled representations
    with levels spread over [0, 1]: the ``disentmetrics correlate`` path."""

    name = "population"

    def __init__(self, seed, workdir, sizes):
        self.seed = seed
        self.sizes = sizes

    def inputs(self, index):
        count, factors, n = self.sizes["count"], self.sizes["factors"], self.sizes["n"]
        base = int(_item_rng(self.seed, index).integers(0, 2**31 - count))
        return [
            synth.GeneratorSpec("entangled", {"level": float(level), "K": factors}, seed=base + r, n=n)
            for r, level in enumerate(np.linspace(0.0, 1.0, count))
        ]

    def run(self, index, specs):
        return analysis.correlate_metrics(specs)

    def check(self, index, specs, output):
        matrix, population = output
        _require(population.metric_labels == DATASET_METRICS and not population.dropped,
                 f"kept {population.metric_labels}, dropped {population.dropped}")
        scores = population.scores
        _require(scores.shape == (len(DATASET_METRICS), len(specs)), f"scores shape {scores.shape}")
        _require(bool(np.all((scores >= 0.0) & (scores <= 1.0))), "a score lies outside [0, 1]")
        _require(np.array_equal(matrix, matrix.T), "correlation matrix is not symmetric")
        _require(np.array_equal(np.diag(matrix), np.ones(len(DATASET_METRICS))), "diagonal is not 1")
        rho = matrix[DATASET_METRICS.index("mig"), DATASET_METRICS.index("3charm")]
        _require(rho >= SPEARMAN_FLOOR, f"spearman(mig, 3charm) = {rho} < {SPEARMAN_FLOOR}")
        return list(scores.ravel()) + list(matrix.ravel())

    def working_set(self):
        latent_bytes = self.sizes["n"] * self.sizes["factors"] * 8
        return {"latents_per_representation_bytes": latent_bytes,
                "representations_per_item": self.sizes["count"]}


class Interventions:
    """One seed of ``eval --oracle betavae-counterexample --metrics betavae``
    then ``eval --oracle factorvae-counterexample --metrics factorvae``,
    both through ``cli.main``."""

    name = "interventions"

    def __init__(self, seed, workdir, sizes):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir

    def inputs(self, index):
        return int(_item_rng(self.seed, index).integers(0, 2**31))

    def _eval(self, oracle, metric, seed, out):
        s = self.sizes
        _cli(["eval", "--oracle", oracle, "--metrics", metric, "--seed", seed,
              "--train-points", s["train_points"], "--eval-points", s["eval_points"],
              "--batch-size", s["batch_size"], "--out", out])

    def run(self, index, seed):
        beta_out = os.path.join(self.workdir, f"betavae-{index}.json")
        factor_out = os.path.join(self.workdir, f"factorvae-{index}.json")
        self._eval("betavae-counterexample", "betavae", seed, beta_out)
        self._eval("factorvae-counterexample", "factorvae", seed, factor_out)
        return beta_out, factor_out

    def check(self, index, seed, output):
        beta_out, factor_out = output
        try:
            (beta,) = _score_reports(_read_json(beta_out), ["betavae"])
            (factor,) = _score_reports(_read_json(factor_out), ["factorvae"])
        finally:
            _remove(beta_out, factor_out)
        _require(abs(beta - BETAVAE_TARGET) <= BETAVAE_TOLERANCE,
                 f"betavae {beta} outside {BETAVAE_TARGET} +/- {BETAVAE_TOLERANCE} (seed {seed})")
        _require(factor >= FACTORVAE_FLOOR, f"factorvae {factor} < {FACTORVAE_FLOOR} (seed {seed})")
        return [beta, factor]

    def working_set(self):
        s = self.sizes
        return {"batch_bytes": 2 * s["batch_size"] * 3 * 8,
                "training_features_bytes": s["train_points"] * 3 * 8}


class DatasetFiles:
    """``gen`` an entangled CSV, ``eval`` it on mig,3charm,sap, then
    ``compare`` it with the previous item's file, all through ``cli.main``.
    The file before item 0 is written during set-up."""

    name = "dataset-files"

    def __init__(self, seed, workdir, sizes):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self._gen(-1, self.inputs(-1))
        self.csv_bytes = os.path.getsize(self._path(-1))

    def _path(self, index):
        return os.path.join(self.workdir, f"dataset{index}.csv")

    def inputs(self, index):
        rng = _item_rng(self.seed, index + 1)
        level = float(rng.uniform(0.0, 1.0))
        spec = f"entangled:K={self.sizes['factors']},level={level!r}"
        return spec, int(rng.integers(0, 2**31))

    def _gen(self, index, inputs):
        spec, gen_seed = inputs
        _cli(["gen", "--spec", spec, "--n", self.sizes["n"], "--seed", gen_seed, "--out", self._path(index)])

    def run(self, index, inputs):
        path = self._path(index)
        eval_out = os.path.join(self.workdir, f"eval{index}.json")
        compare_out = os.path.join(self.workdir, f"compare{index}.json")
        self._gen(index, inputs)
        _cli(["eval", "--dataset", path, "--metrics", ",".join(FILE_METRICS), "--out", eval_out])
        _cli(["compare", path, self._path(index - 1), "--metrics", ",".join(FILE_METRICS), "--out", compare_out])
        return eval_out, compare_out

    def check(self, index, inputs, output):
        eval_out, compare_out = output
        spec, gen_seed = inputs
        try:
            generated, _ = synth.dataset_from_spec(synth.parse_spec_string(spec, seed=gen_seed, n=self.sizes["n"]))
            loaded = core.load_dataset(self._path(index))
            for name in ("factor_matrix", "latent_matrix"):
                a, b = getattr(generated, name)(), getattr(loaded, name)()
                _require(a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64)),
                         f"{name} does not round-trip bit for bit through the CSV")
            scores = _score_reports(_read_json(eval_out), FILE_METRICS)
            compared = _read_json(compare_out)["scores"]
            _require(sorted(compared) == sorted(FILE_METRICS), f"compare names {sorted(compared)}")
            scores += [x for name in FILE_METRICS for x in compared[name]]
        finally:
            _remove(eval_out, compare_out)
            if index > 0:
                _remove(self._path(index - 1), self._path(index - 1) + ".meta.json")
        return scores

    def working_set(self):
        s = self.sizes
        return {"arrays_per_item_bytes": s["n"] * 2 * s["factors"] * 8, "csv_bytes": self.csv_bytes}


WORKLOADS = {w.name: w for w in (Population, Interventions, DatasetFiles)}
