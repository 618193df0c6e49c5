"""Benchmark for disentmetrics: closed-loop workloads through public entry points.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload population --seed 1 --seconds 30 --trace 0

One caller runs items back to back for ``--seconds`` of wall time (at
least one item), checks every item's outputs, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The line before it is a JSON ``detail`` record: sample
count, tail percentile, score digests, environment and working sets.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
items twice, first untraced for half of ``--seconds``, then with span
wrappers installed around every layer function, and reports per-layer
metrics per item, the tracing overhead, and whether both passes produced
bit-identical scores. Spans are written to ``.bench_out/`` when the run
ends.
"""

import time

_START = time.perf_counter()

import os

# fixed across runs and at or below nproc, set before numpy loads OpenBLAS
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import disentmetrics

if not Path(disentmetrics.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"disentmetrics was imported from {disentmetrics.__file__}, not from {ROOT / 'src'}")

from tracing import Tracer
from workloads import FULL_SIZES, WORKLOADS

IMPORT_S = time.perf_counter() - _START

SETUP_REPEATS = 5
# what one set-up imports, timed in a fresh interpreter (argv[1] is the src directory)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sys; sys.path.insert(0, sys.argv[1]); "
    "import numpy, disentmetrics.cli; print(time.perf_counter() - t)"
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_s_p50": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "fraction",
}


@dataclass
class Item:
    seconds: float
    error: str | None  # traceback of a raise or a failed output check
    scores: list | None

    @property
    def digest(self):
        """Hash of the item's exact score values (None for a failed item)."""
        scores = None if self.scores is None else [float(x) for x in self.scores]
        return hashlib.sha256(repr(scores).encode()).hexdigest()[:16]


def closed_loop(workload, seconds=None, count=None, tracer=None):
    """Run items 0, 1, ... one after another until ``seconds`` of wall time
    have passed (at least one item) or ``count`` items are done. Only the
    program's work is timed; output checks run between items, untraced."""
    items = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    while len(items) < count if count is not None else not items or time.perf_counter() < deadline:
        index = len(items)
        inputs = workload.inputs(index)
        error = output = scores = None
        if tracer is not None:
            tracer.begin_item(index)
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            output = workload.run(index, inputs)
        except Exception:  # an item that raises counts as failed; the loop goes on
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
            tracer.end_item()
        if error is None:
            try:
                scores = workload.check(index, inputs, output)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(f"item {index} failed:\n{error}", file=sys.stderr)
        items.append(Item(elapsed, error, scores))
    return items


def _items_per_s(items):
    return len(items) / sum(it.seconds for it in items)


def _tail(items):
    """Highest whole percentile with at least ten items beyond it."""
    n = len(items)
    if n < 11:
        return None
    times = sorted(it.seconds for it in items)
    return {"percentile": int(100 * (n - 10) / n), "value_s": times[n - 11]}


def _lscpu_caches():
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    return caches


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "caches": _lscpu_caches(),
        "machine": platform.machine(),
    }


def fresh_import_s():
    """Seconds a fresh interpreter takes to import numpy and the program."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def run(workload_name, seed, seconds, trace, sizes=None, out_dir=None):
    """One benchmark run; returns (result line, detail record)."""
    cls = WORKLOADS[workload_name]
    sizes = sizes or FULL_SIZES[workload_name]
    out_dir = Path(out_dir or ROOT / ".bench_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=out_dir)
    try:
        # set-up = importing the program + generating the inputs, repeated
        # SETUP_REPEATS times, each import in a fresh interpreter
        import_s, build_s = [], []
        for _ in range(SETUP_REPEATS):
            import_s.append(fresh_import_s())
            t0 = time.perf_counter()
            workload = cls(seed, workdir, sizes)
            build_s.append(time.perf_counter() - t0)
        setup_s = statistics.median(a + b for a, b in zip(import_s, build_s))

        items = closed_loop(workload, seconds=seconds / 2 if trace else seconds)
        detail = {
            "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
            "sizes": sizes, "items": len(items), "item_s": [it.seconds for it in items],
            "tail": _tail(items), "setup": {"own_import_s": IMPORT_S, "import_s": import_s, "build_s": build_s},
            "score_digest": items[0].digest, "item_digests": [it.digest for it in items],
            "environment": environment(), "working_set": workload.working_set(),
        }
        attempted = items
        if trace:
            tracer = Tracer()
            restore = tracer.install(disentmetrics)
            try:
                traced = closed_loop(workload, count=len(items), tracer=tracer)
            finally:
                restore()
            attempted = items + traced
            overhead = _items_per_s(items) / _items_per_s(traced) - 1.0
            digests_match = [it.digest for it in traced] == detail["item_digests"]
            spans_path = out_dir / f"{workload_name}.spans.csv"
            tracer.write(spans_path)
            metrics = tracer.layer_metrics(len(traced))
            metrics["trace.overhead"] = (overhead, "fraction")
            metrics["trace.absent"] = (len(tracer.absent), "count")
            detail.update({"traced_item_s": [it.seconds for it in traced], "tracing_overhead": overhead,
                           "traced_digests_match": digests_match, "absent": tracer.absent,
                           "spans": len(tracer.spans), "spans_file": spans_path.name})
        else:
            digests_match = True
            ok = sum(it.error is None for it in items)
            values = {
                "setup_s": setup_s,
                "items_per_s": _items_per_s(items),
                "item_s_p50": statistics.median(it.seconds for it in items),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": ok / len(items),
            }
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(it.error is not None for it in attempted)
    result = {
        "correct": failed == 0 and digests_match,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(out_dir / f"{workload_name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=2)
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
