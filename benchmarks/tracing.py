"""Span recorder that wraps disentmetrics functions from outside the package.

Each wrapped call records (name, start, end, parent span, item id) in
memory; self time is a span's duration minus the time its direct child
spans cover. Wrappers patch a function under every module attribute that
refers to it, because ``cli`` imports ``load_dataset``/``save_dataset`` by
name while ``metrics`` reaches ``estimators`` through the module; methods
are patched on their class. A target a later refactor removes is reported
as absent instead of failing the run.
"""

import functools
import os
import sys
import time

# (layer metric prefix, module, attribute path inside the module)
TARGETS = (
    ("core.load_dataset", "core", "load_dataset"),
    ("core.save_dataset", "core", "save_dataset"),
    ("core.RepresentationOracle.sample", "core", "RepresentationOracle.sample"),
    ("core.RepresentationDataset.latent_matrix", "core", "RepresentationDataset.latent_matrix"),
    ("synth.dataset_from_spec", "synth", "dataset_from_spec"),
    ("estimators.discretize", "estimators", "discretize"),
    ("estimators.mutual_information", "estimators", "mutual_information"),
    ("estimators.informativeness_from_mi", "estimators", "informativeness_from_mi"),
    ("estimators.importance_matrix_from_dataset", "estimators", "importance_matrix_from_dataset"),
    ("estimators.fit_linear_classifier", "estimators", "fit_linear_classifier"),
    ("estimators.majority_vote", "estimators", "majority_vote"),
    ("estimators.linear_regression_r2", "estimators", "linear_regression_r2"),
    ("estimators.stump_accuracy", "estimators", "stump_accuracy"),
    ("metrics.evaluate_all", "metrics", "evaluate_all"),
    ("metrics.beta_vae_score", "metrics", "beta_vae_score"),
    ("metrics.factor_vae_score", "metrics", "factor_vae_score"),
    ("metrics.dci_from_dataset", "metrics", "dci_from_dataset"),
    ("metrics.dci_score", "metrics", "dci_score"),
    ("metrics.sap_score", "metrics", "sap_score"),
    ("metrics.mig_score", "metrics", "mig_score"),
    ("metrics.three_charm_score", "metrics", "three_charm_score"),
    ("analysis.correlate_metrics", "analysis", "correlate_metrics"),
    ("analysis.compare", "analysis", "compare"),
    ("analysis.spearman", "analysis", "spearman"),
    ("cli.main", "cli", "main"),
)

# derived counts recorded at the same boundaries: (metric name, unit)
COUNTS = (
    ("core.save_dataset.bytes", "B/item"),
    ("core.load_dataset.bytes", "B/item"),
    ("core.RepresentationOracle.sample.rows", "rows/item"),
    ("core.RepresentationOracle.sample.rows_per_call", "rows/call"),
    ("estimators.informativeness_from_mi.per_dataset", "builds/dataset"),
    ("estimators.importance_matrix_from_dataset.fits", "fits/call"),
    ("estimators.fit_linear_classifier.flops_computed", "flop/item"),
)


def _path_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """In-memory span store plus per-name totals, fed by installed wrappers."""

    def __init__(self):
        self.enabled = False
        self.item = None
        self.spans = []  # (name, start, end, parent index or -1, item id)
        self.calls = {}
        self.total_s = {}
        self.self_s = {}
        self.counts = {}
        self.absent = []
        self._stack = []  # [span index, child seconds]
        # datasets given to informativeness_from_mi in the current item, kept
        # alive until the item ends so that their ids stay unique
        self._mi_datasets = []
        self._mi_dataset_ids = set()

    def begin_item(self, item):
        self.item = item

    def end_item(self):
        self._count("mi_datasets", len(self._mi_dataset_ids))
        self._mi_datasets.clear()
        self._mi_dataset_ids.clear()
        self.item = None

    def _count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _observe(self, name, args, kwargs):
        """Counts taken from a call's arguments after it returned."""
        if name == "core.save_dataset":
            self._count("save_bytes", _path_size(args[1] if len(args) > 1 else kwargs.get("path")))
        elif name == "core.load_dataset":
            self._count("load_bytes", _path_size(args[0] if args else kwargs.get("path")))
        elif name == "core.RepresentationOracle.sample":
            self._count("sample_rows", int(args[1] if len(args) > 1 else kwargs["n"]))
        elif name == "estimators.informativeness_from_mi":
            dataset = args[0] if args else kwargs["dataset"]
            self._mi_datasets.append(dataset)
            self._mi_dataset_ids.add(id(dataset))
        elif name == "estimators.importance_matrix_from_dataset":
            dataset = args[0] if args else kwargs["dataset"]
            self._count("forest_fits", int(dataset.n_factors))
        elif name == "estimators.fit_linear_classifier":
            points = args[0] if args else kwargs["points"]
            labels = args[1] if len(args) > 1 else kwargs["labels"]
            config = args[2] if len(args) > 2 else kwargs.get("config")
            epochs = config.epochs if config is not None else _default_epochs()
            n, d = points.shape
            classes = int(max(labels)) + 1
            self._count("classifier_flops", epochs * n * (d + 1) * classes * 2)

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append([index, 0.0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child_s = tracer._stack.pop()
                duration = end - start
                tracer.spans[index] = (name, start, end, parent, tracer.item)
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.total_s[name] = tracer.total_s.get(name, 0.0) + duration
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + duration - child_s
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer._observe(name, args, kwargs)

        return traced

    def install(self, package):
        """Patch every target; return a function that restores the originals."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))]
        undo = []
        for name, module_name, attr_path in TARGETS:
            owner = getattr(package, module_name, None)
            *class_path, attr = attr_path.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            if owner is None:
                original = None
            elif class_path:  # a method: patch the class, where lookups find it
                original = vars(owner).get(attr)
            else:
                original = getattr(owner, attr, None)
            if not callable(original):  # removed, or no longer a plain function
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            if class_path:
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)

        def restore():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return restore

    def write(self, path):
        """Write the recorded spans as CSV: name,start,end,parent,item."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,item\n")
            origin = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, item in self.spans:
                fh.write(f"{name},{start - origin:.9f},{end - origin:.9f},{parent},{item}\n")

    def layer_metrics(self, items):
        """Per-item calls, inclusive and self seconds for every target, plus counts."""
        per = 1.0 / max(items, 1)
        out = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = (self.calls.get(name, 0) * per, "calls/item")
            out[f"{name}.s"] = (self.total_s.get(name, 0.0) * per, "s/item")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0) * per, "s/item")
        sample_calls = self.calls.get("core.RepresentationOracle.sample", 0)
        mi_calls = self.calls.get("estimators.informativeness_from_mi", 0)
        forest_calls = self.calls.get("estimators.importance_matrix_from_dataset", 0)
        c = self.counts
        values = {
            "core.save_dataset.bytes": c.get("save_bytes", 0) * per,
            "core.load_dataset.bytes": c.get("load_bytes", 0) * per,
            "core.RepresentationOracle.sample.rows": c.get("sample_rows", 0) * per,
            "core.RepresentationOracle.sample.rows_per_call":
                c.get("sample_rows", 0) / sample_calls if sample_calls else 0.0,
            "estimators.informativeness_from_mi.per_dataset":
                mi_calls / c["mi_datasets"] if c.get("mi_datasets") else 0.0,
            "estimators.importance_matrix_from_dataset.fits":
                c.get("forest_fits", 0) / forest_calls if forest_calls else 0.0,
            "estimators.fit_linear_classifier.flops_computed": c.get("classifier_flops", 0) * per,
        }
        for name, unit in COUNTS:
            out[name] = (values[name], unit)
        return out


def _default_epochs():
    from disentmetrics.estimators import ClassifierConfig

    return ClassifierConfig().epochs
