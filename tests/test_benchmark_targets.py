"""What the benchmark harness in ``benchmarks/`` reads from the package.

The harness wraps functions by name and reads a few attributes; a rename
or deletion there shows up only when the benchmark runs. These checks
catch it in the ordinary test run.
"""

import importlib
import importlib.util
from pathlib import Path

from disentmetrics.core import RepresentationDataset
from disentmetrics.estimators import ClassifierConfig


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
