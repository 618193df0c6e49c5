"""What the benchmark harness in ``benchmarks/`` reads from the package.

The harness wraps functions by name and reads a few attributes; a rename
or deletion there shows up only when the benchmark runs. These checks
catch it in the ordinary test run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from disentmetrics.core import RepresentationDataset, RepresentationOracle
from disentmetrics.estimators import ClassifierConfig, ForestConfig, LassoConfig, importance_matrix_from_dataset
from disentmetrics.metrics import InterventionConfig, beta_vae_score, factor_vae_score


def _tracing():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    for name, module_name, attr_path in _tracing().TARGETS:
        obj = importlib.import_module(f"disentmetrics.{module_name}")
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), name


def test_dataset_accessors_and_classifier_epochs_exist():
    assert callable(RepresentationDataset.factor_matrix)
    assert callable(RepresentationDataset.latent_matrix)
    assert isinstance(ClassifierConfig().epochs, int)


@pytest.mark.parametrize("method, config", [("forest", ForestConfig(n_trees=3, max_depth=3)),
                                            ("lasso", LassoConfig())])
def test_importance_fits_read_the_latents_once(monkeypatch, method, config):
    """The harness calls ``importance_matrix_from_dataset(dataset, method, config)``,
    reads its ``(matrix, masses)``, and counts ``RepresentationDataset.latent_matrix``
    calls as forest fits: one per fit, for either method."""
    assert list(inspect.signature(importance_matrix_from_dataset).parameters) == ["dataset", "method", "config"]
    calls = []
    latent_matrix = RepresentationDataset.latent_matrix

    def counted(self):
        calls.append(self)
        return latent_matrix(self)

    monkeypatch.setattr(RepresentationDataset, "latent_matrix", counted)
    rng = np.random.default_rng(3)
    latents = rng.standard_normal((60, 3))
    dataset = RepresentationDataset(latents[:, :2] + 0.1 * rng.standard_normal((60, 2)), latents)
    matrix, masses = importance_matrix_from_dataset(dataset, method, config)
    assert calls == [dataset]
    assert matrix.shape == (3, 2) and masses.shape == (2,)


@pytest.mark.parametrize("scorer, sample_calls", [(beta_vae_score, 0), (factor_vae_score, 1)])
def test_oracle_metrics_reach_the_encoder_only_through_encode(monkeypatch, scorer, sample_calls):
    """The harness times ``RepresentationOracle.sample`` (FactorVAE's one
    reference draw, counted by its ``n``) as the oracle layer."""
    assert list(inspect.signature(RepresentationOracle.sample).parameters) == ["self", "n"]
    counts = {"sample": 0, "encode": 0, "encoder": 0}

    def counted(name):
        method = getattr(RepresentationOracle, name)

        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            return method(self, *args, **kwargs)

        return wrapper

    for name in ("sample", "encode"):
        monkeypatch.setattr(RepresentationOracle, name, counted(name))

    def encoder(rng, z):
        counts["encoder"] += 1
        return z.copy()

    oracle = RepresentationOracle(3, 3, lambda rng, n: rng.random((n, 3)), encoder, seed=0)
    scorer(oracle, InterventionConfig(train_points=20, eval_points=10, batch_size=4, seed=0))
    assert counts["sample"] == sample_calls
    assert counts["encode"] == counts["encoder"] > 0
