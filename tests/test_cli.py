import argparse
import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import disentmetrics
from disentmetrics import analysis, metrics, reproduce, synth
from disentmetrics.cli import build_parser, main
from disentmetrics.core import UsageError, load_dataset, save_dataset, save_matrix
from disentmetrics.estimators import BIN_STRATEGIES, IMPORTANCE_METHODS, BinningSpec, importance_matrix_from_dataset
from disentmetrics.metrics import InterventionConfig
from disentmetrics.reproduce import CASES
from test_core import _force_workers


@pytest.fixture()
def dataset_path(tmp_path):
    path = tmp_path / "d.csv"
    save_dataset(synth.gen_sap_nonlinear(n=800, seed=3), str(path))
    return str(path)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_dataset_two_metrics(dataset_path, capsys):
    code, out, _ = run(["eval", "--dataset", dataset_path, "--metrics", "mig,3charm"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert [r["metric"] for r in reports] == ["mig", "3charm"]
    assert all(not r["skipped"] for r in reports)


def test_eval_dataset_default_marks_skips(dataset_path, capsys):
    code, out, _ = run(["eval", "--dataset", dataset_path, "--format", "json"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 6
    skipped = {r["metric"] for r in reports if r["skipped"]}
    assert skipped == {"betavae", "factorvae"}


def test_eval_dataset_explicit_oracle_metric_fails(dataset_path, capsys):
    code, _, err = run(["eval", "--dataset", dataset_path, "--metrics", "betavae"], capsys)
    assert code == 1
    assert "requires interventional oracle" in err


def test_eval_empty_metric_selection(dataset_path, capsys):
    code, _, err = run(["eval", "--dataset", dataset_path, "--metrics", ""], capsys)
    assert code == 1
    assert "no metrics selected" in err


def test_eval_unknown_oracle(capsys):
    code, _, err = run(["eval", "--oracle", "nosuch", "--metrics", "factorvae"], capsys)
    assert code == 1
    assert "unknown oracle" in err


def test_eval_oracle_factorvae(capsys):
    code, out, _ = run([
        "eval", "--oracle", "factorvae-counterexample", "--metrics", "factorvae",
        "--train-points", "400", "--eval-points", "150", "--batch-size", "32", "--seed", "5",
    ], capsys)
    assert code == 0
    report = json.loads(out)[0]
    assert report["score"] >= 0.95


def test_eval_table_format(dataset_path, capsys):
    code, out, _ = run(["eval", "--dataset", dataset_path, "--metrics", "mig", "--format", "table"], capsys)
    assert code == 0
    assert "mig" in out and "score" in out


def test_gen_writes_dataset_and_sidecar(tmp_path, capsys):
    out_path = tmp_path / "gen.csv"
    code, _, _ = run([
        "gen", "--spec", "entangled:level=0.5,K=3", "--n", "120", "--seed", "9",
        "--out", str(out_path),
    ], capsys)
    assert code == 0
    ds = load_dataset(str(out_path))
    assert ds.n == 120 and ds.n_factors == 3 and ds.n_latents == 3
    meta = json.loads((tmp_path / "gen.csv.meta.json").read_text())
    assert meta["generator"] == "entangled" and meta["seed"] == 9
    assert "mixing" in meta["ground_truth"]


def test_gen_sidecar_writes_the_read_only_parameters_as_a_plain_object(tmp_path, capsys):
    out_path = tmp_path / "gen.csv"
    assert main(["gen", "--spec", "disentangled:K=2,cubic=1,noise_std=0", "--n", "5", "--seed", "3",
                 "--out", str(out_path)]) == 0
    assert (tmp_path / "gen.csv.meta.json").read_text() == """{
  "generator": "disentangled",
  "ground_truth": {
    "map_kind": "cubic",
    "noise_std": 0.0,
    "permutation": [
      1,
      0
    ]
  },
  "n": 5,
  "params": {
    "K": 2,
    "cubic": true,
    "noise_std": 0.0
  },
  "seed": 3
}
"""


def test_gen_sidecar_writes_a_flag_as_a_json_boolean(tmp_path, capsys):
    out_path = tmp_path / "gen.csv"
    code, _, _ = run(["gen", "--spec", "disentangled:K=2,cubic=1", "--n", "50", "--out", str(out_path)], capsys)
    assert code == 0
    text = (tmp_path / "gen.csv.meta.json").read_text()
    assert '"cubic": true' in text and json.loads(text)["params"] == {"K": 2, "cubic": True}


def test_gen_rejects_unknown_generator_parameter(tmp_path, capsys):
    code, out, err = run([
        "gen", "--spec", "entangled:levle=0.9,K=3", "--n", "50", "--out", str(tmp_path / "t.csv"),
    ], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "unknown parameter 'levle'" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec", ["entangled:K=3.7", "noise:K=2.9,N=1.5", "identity:seed=1.9", "identity:n=3.5"])
def test_gen_rejects_a_non_integral_integer_parameter(tmp_path, capsys, spec):
    code, out, err = run(["gen", "--spec", spec, "--n", "50", "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "must be an integer" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec, message", [
    ("identity:K=0", "identity parameter K must be at least 1, got 0"),
    ("identity:n=0", "identity parameter n must be at least 1, got 0"),
    ("noise:N=0", "noise parameter N must be at least 1, got 0"),
    ("identity:K=-1", "identity parameter K must be at least 1, got -1"),
    ("disentangled:noise_std=-1", "disentangled parameter noise_std must be at least 0, got -1"),
    ("entangled:level=nan", "entangled parameter level must be a finite number, got nan"),
    ("disentangled:K=1", "disentangled parameter K must be at least 2, got 1"),
    ("entangled:K=1", "entangled parameter K must be at least 2, got 1"),
])
def test_gen_rejects_a_parameter_out_of_range(tmp_path, capsys, spec, message):
    code, out, err = run(["gen", "--spec", spec, "--n", "20", "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


# small values of every kind a parameter may get wrong; none sizes anything above 3 (n at most 20)
_PROBES = st.sampled_from([0, 1, 2, 3, -1, -2, 0.5, 2.5, -0.5, float("nan"), float("inf"), float("-inf")])


@st.composite
def _generator_specs(draw):
    name = draw(st.sampled_from(sorted(synth.GENERATORS)))
    return name, draw(st.dictionaries(st.sampled_from([*synth.GENERATORS[name][0], "n", "seed"]), _PROBES))


@settings(max_examples=200, deadline=None)
@given(_generator_specs())
def test_gen_either_refuses_a_parameter_by_name_or_writes_a_loadable_file(case):
    name, params = case
    spec = name + (":" + ",".join(f"{key}={value}" for key, value in params.items()) if params else "")
    with tempfile.TemporaryDirectory() as tmp:
        out, err = os.path.join(tmp, "g.csv"), io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["gen", "--spec", spec, "--n", "20", "--out", out])
        if code == 0:
            assert load_dataset(out).n == params.get("n", 20)
        else:
            assert code == 1 and os.listdir(tmp) == []
            message = err.getvalue()
            assert message.startswith("error: ") and message.count("\n") == 1
            assert any(f"{name} parameter {key} must " in message for key in params), message


# one fault (or two, to pin which is reported first) per row: generator, parameters, seed, n, the message
@pytest.mark.parametrize("name, params, seed, n, message", [
    ("nosuch", {"K": 0}, -1, 0, f"unknown generator 'nosuch' (known: {', '.join(sorted(synth.GENERATORS))})"),
    ("entangled", {"level": 2, "levle": 0.9}, 7, 20,
     "unknown parameter 'levle' for generator 'entangled' (known: level, K)"),
    ("sap-nonlinear", {"K": 2}, 7, 20, "unknown parameter 'K' for generator 'sap-nonlinear' (known: none)"),
    ("identity", {"K": 2.5}, 7, 20, "identity parameter K must be an integer, got 2.5"),
    ("disentangled", {"cubic": 2}, 7, 20, "disentangled parameter cubic must lie in [0, 1], got 2"),
    ("noise", {"N": 0}, 7, 20, "noise parameter N must be at least 1, got 0"),
    ("entangled", {"level": 1.5}, 7, 20, "entangled parameter level must lie in [0, 1], got 1.5"),
    ("disentangled", {"noise_std": -1}, 7, 20, "disentangled parameter noise_std must be at least 0, got -1"),
    ("disentangled", {"K": 1}, 7, 20, "disentangled parameter K must be at least 2, got 1"),
    ("identity", {"K": 2}, 1.5, 20, "identity parameter seed must be an integer, got 1.5"),
    ("identity", {"K": 0}, -1, 0, "identity parameter K must be at least 1, got 0"),
    ("identity", {}, -1, 0, "identity parameter n must be at least 1, got 0"),
    ("betavae-counterexample", {}, -1, 20, "betavae-counterexample parameter seed must be at least 0, got -1"),
    ("sap-duplicate", {}, 7, 2.5, "sap-duplicate parameter n must be an integer, got 2.5"),
])
def test_a_generator_fault_gives_one_message_on_every_path(tmp_path, capsys, name, params, seed, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synth.GeneratorSpec(name, params, seed=seed, n=n)
    text = name + ":" + ",".join(f"{key}={value}" for key, value in {**params, "seed": seed, "n": n}.items())
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synth.parse_spec_string(text)
    assert run(["gen", "--spec", text, "--out", str(tmp_path / "g.csv")], capsys) == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []
    if name in synth.ORACLE_GENERATOR_NAMES and not params:
        # eval's InterventionConfig refuses the same --seed and --train-points before the spec is built,
        # in the same words: only the spec's "<generator> parameter " prefix and its name n differ
        with pytest.raises(ValueError) as refused:
            InterventionConfig(train_points=n, seed=seed)
        assert f"{name} parameter {refused.value}" == message.replace(" parameter n ", " parameter train_points ")
        argv = ["eval", "--oracle", name, "--seed", str(seed), "--train-points", str(n)]
        assert run(argv, capsys) == (1, "", f"error: {refused.value}\n")


def test_a_spec_value_that_is_not_a_number_names_its_parameter(tmp_path, capsys):
    for text, message in (("identity:K=x", "identity parameter K must be an integer, got 'x'"),
                          ("entangled:level=high", "entangled parameter level must be a finite number, got 'high'"),
                          ("identity:seed=", "identity parameter seed must be an integer, got ''")):
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            synth.parse_spec_string(text)
        assert run(["gen", "--spec", text, "--out", str(tmp_path / "g.csv")], capsys) == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


# small values of every integer flag, most of them valid: nothing is sized above 3, and --count is at most 6
_SMALL = st.sampled_from([-1, 0, 1, 2, 3, 3, 3])
_GRID = st.lists(st.sampled_from(["0", "0.25", "1", "2", "-1", "nan", "inf", "x", ""]), min_size=1, max_size=3)


@st.composite
def _flag_cases(draw):
    command = draw(st.sampled_from(["eval", "correlate", "sweep"]))
    if command == "sweep":
        return ["sweep", "--eps=" + ",".join(draw(_GRID)), "--eps1=" + ",".join(draw(_GRID))], ["out"]
    if command == "eval":
        argv = ["eval", "--oracle", draw(st.sampled_from(synth.ORACLE_GENERATOR_NAMES))]
        flags = {"--seed": _SMALL, "--train-points": _SMALL, "--eval-points": _SMALL, "--batch-size": _SMALL}
        written = ["out"]
    else:
        argv = ["correlate"]
        flags = {"--count": st.sampled_from([-1, 0, 4, 5, 6, 6]), "--factors": _SMALL, "--n": _SMALL, "--seed": _SMALL}
        written = ["out", "out.population.json"]
    return argv + [f"{flag}={draw(values)}" for flag, values in {**flags, "--bins": _SMALL}.items()], written


@settings(max_examples=150, deadline=None)
@given(_flag_cases())
def test_no_small_flag_value_raises_out_of_main(case):
    # exit 0 with every file in written, or exit 1 with one error: line and no file; never an exception
    argv, written = case
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", os.path.join(tmp, "out")])
        event(f"{argv[0]} exits {code}")
        if code == 0:
            assert sorted(os.listdir(tmp)) == sorted(written), argv
        else:
            assert code == 1 and os.listdir(tmp) == [], argv
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (argv, err.getvalue())


def test_main_lets_an_unexpected_value_error_through(monkeypatch, capsys):
    def broken(*args, **kwargs):  # a bare ValueError is a bug in the program, not a fault of the input
        raise ValueError("a bug")

    monkeypatch.setattr(reproduce, "run", broken)
    with pytest.raises(ValueError, match="^a bug$"):
        main(["reproduce", "dci-two-factor"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 7.45 TiB for an array with shape (100000000, 10000)",
     " (Unable to allocate 7.45 TiB for an array with shape (100000000, 10000))"),
    ("", ""),
])
def test_gen_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, message, shown):
    def no_memory(*args, **kwargs):  # raised as numpy would, without allocating
        raise MemoryError(message)

    monkeypatch.setattr(synth, "gen_entangled_family", no_memory)
    code, out, err = run(["gen", "--spec", "entangled:K=100000000", "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 1 and out == ""
    assert err == f"error: gen: out of memory{shown}\n"
    assert list(tmp_path.iterdir()) == []


def test_reproduce_unknown_case_lists_registry(capsys):
    code, _, err = run(["reproduce", "nosuch"], capsys)
    assert code == 1
    assert "dci-two-factor" in err


def test_reproduce_registry_covers_all_pinned_numbers():
    assert set(CASES) == {
        "betavae-fails-p2", "factorvae-fails-p2",
        "dci-eleven-factor", "dci-two-factor",
        "sap-nonlinear", "sap-duplicate",
        "parametric-closed-forms", "parametric-table",
    }


def test_reproduce_single_case(capsys):
    code, out, _ = run(["reproduce", "dci-two-factor"], capsys)
    assert code == 0
    assert "PASS" in out and "0.957" in out


def test_reproduce_sap_duplicate_passes_at_closed_form(capsys):
    code, out, _ = run(["reproduce", "sap-duplicate"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 3
    assert all("PASS" in row and "0.8951" in row for row in rows)


def test_module_entry_point_runs_a_reproduction():
    src = os.path.dirname(os.path.dirname(disentmetrics.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "disentmetrics", "reproduce", "dci-two-factor"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("dci-two-factor") and rows[0].endswith("PASS")


def test_reproduce_json_format(capsys):
    code, out, _ = run(["reproduce", "parametric-closed-forms", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["status"] == "PASS"


def test_sweep_grid(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(["sweep", "--eps", "0,0.5,1", "--eps1", "0,0.5", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "eps,eps1,three_charm,mig,dci"
    assert len(lines) == 1 + 3 * 2
    first = lines[1].split(",")
    assert [float(x) for x in first] == [0.0, 0.0, 0.0, 0.0, 0.0]


def test_sweep_out_of_range(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, err = run(["sweep", "--eps", "0,2", "--eps1", "0", "--out", str(out_path)], capsys)
    assert code == 1
    assert "[0, 1]" in err
    assert not out_path.exists()  # no partial output


def test_correlate_small_population(tmp_path, capsys):
    out_path = tmp_path / "corr.csv"
    code, _, _ = run([
        "correlate", "--count", "6", "--n", "400",
        "--metrics", "mig,3charm", "--seed", "31", "--out", str(out_path),
    ], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "metric,mig,3charm"
    matrix = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines[1:]])
    assert np.array_equal(matrix, matrix.T)
    assert np.array_equal(np.diag(matrix), np.ones(2))
    pop = json.loads((tmp_path / "corr.csv.population.json").read_text())
    assert len(pop["representations"]) == 6


def test_correlate_rejects_tiny_population(capsys):
    code, _, err = run(["correlate", "--count", "3"], capsys)
    assert code == 1
    assert "at least 5" in err


@pytest.mark.parametrize("count", ["4", "0", "-1"])
def test_correlate_leaves_the_population_size_check_to_the_library(capsys, count):
    code, out, err = run(["correlate", "--count", count, "--n", "50"], capsys)
    assert (code, out, err) == (1, "", "error: need at least 5 representations\n")


_PAST_INDEX = "100000000000000000000"  # 10**20: past numpy's index range on every platform


@pytest.mark.parametrize("argv, name", [
    (["correlate", "--count", _PAST_INDEX], "--count"),
    (["eval", "--oracle", "identity", "--bins", _PAST_INDEX], "bin_count"),
    (["eval", "--oracle", "identity", "--metrics", "betavae", "--train-points", _PAST_INDEX], "train_points"),
    (["gen", "--spec", "identity", "--n", _PAST_INDEX], "identity parameter n"),
])
def test_a_size_past_numpys_index_range_is_refused_by_name(tmp_path, capsys, argv, name):
    # each check runs before the command builds an array: numpy would refuse the size with its own ValueError
    code, out, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert (code, out, err) == (1, "", f"error: {name} must be at most {np.iinfo(np.intp).max}, got {_PAST_INDEX}\n")
    assert list(tmp_path.iterdir()) == []


def test_compare_builtin(capsys):
    code, out, _ = run(["compare", "--builtin", "mig-vs-3charm", "--metrics", "mig,3charm"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert ["mig", "3charm"] in payload["disagreements"] or ["3charm", "mig"] in payload["disagreements"]


def test_compare_matrix_files(tmp_path, capsys):
    a, b = synth.gen_comparison_matrices("dci-vs-3charm")
    pa, pb = tmp_path / "a.matrix", tmp_path / "b.matrix"
    save_matrix(a, str(pa))
    save_matrix(b, str(pb))
    code, out, _ = run(["compare", str(pa), str(pb), "--metrics", "mig,3charm,dci"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["preferred"]["dci"] == str(pb)
    assert payload["preferred"]["3charm"] == str(pa)


def test_compare_matrix_files_unknown_metric(tmp_path, capsys):
    a, b = synth.gen_comparison_matrices("dci-vs-3charm")
    pa, pb = tmp_path / "a.matrix", tmp_path / "b.matrix"
    save_matrix(a, str(pa))
    save_matrix(b, str(pb))
    code, _, err = run(["compare", str(pa), str(pb), "--metrics", "nope"], capsys)
    assert code == 1
    assert "unknown metric 'nope'" in err


def test_compare_needs_two_inputs(capsys):
    code, _, err = run(["compare"], capsys)
    assert code == 1
    assert "two input paths" in err


def test_compare_refuses_builtin_with_input_paths(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, stdout, err = run(["compare", "x.csv", "y.csv", "--builtin", "mig-vs-3charm", "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert err == "error: compare takes two input paths or --builtin, not both\n"
    assert not out.exists()


def test_compare_writes_the_same_bytes_on_any_worker_count(tmp_path, monkeypatch, capsys):
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    save_dataset(synth.gen_sap_nonlinear(n=800, seed=3), paths[0])
    save_dataset(synth.gen_entangled_family(0.5, n_factors=2, n=800, seed=4), paths[1])
    written = []
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        out = tmp_path / f"compare{workers}.json"
        assert main(["compare", *paths, "--metrics", "mig,3charm,sap", "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[1:] == written[:1] * 2


def test_identical_command_and_seed_byte_identical(dataset_path, tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["eval", "--dataset", dataset_path, "--metrics", "mig,sap,dci", "--seed", "21"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_eval_matrix_file(tmp_path, capsys):
    path = tmp_path / "m.matrix"
    save_matrix(synth.gen_parametric_matrix(0.9, 0.1), str(path))
    code, out, _ = run(["eval", "--matrix", str(path)], capsys)
    assert code == 0
    reports = {r["metric"]: r["score"] for r in json.loads(out)}
    assert reports["3charm"] == pytest.approx(0.9, abs=1e-9)
    assert reports["mig"] == pytest.approx(0.8, abs=1e-9)
    assert reports["dci"] == pytest.approx(0.9, abs=1e-9)


def test_eval_matrix_rejects_oracle_metric(tmp_path, capsys):
    path = tmp_path / "m.matrix"
    save_matrix(synth.gen_parametric_matrix(0.5, 0.2), str(path))
    code, _, err = run(["eval", "--matrix", str(path), "--metrics", "betavae"], capsys)
    assert code == 1
    assert "matrix" in err
    code, _, err = run(["eval", "--matrix", str(path), "--metrics", "sap"], capsys)
    assert err == "error: metric 'sap' not computable on this input: cannot be computed from a matrix\n"


def test_eval_matrix_with_negative_latent_count_is_an_error(tmp_path, capsys):
    path = tmp_path / "m.matrix"
    path.write_text("2,-1\n", encoding="utf-8")
    code, out, err = run(["eval", "--matrix", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "K and N must be >= 1" in err


def test_eval_dataset_that_is_not_utf8_is_an_error(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_bytes(b"z:c,c\n0,1\n\xff,2\n")
    code, out, err = run(["eval", "--dataset", str(path)], capsys)
    assert code == 1 and out == ""
    assert err == "error: row 2 is not UTF-8 text\n"


def test_eval_oracle_betavae_full_regime(capsys):
    code, out, _ = run([
        "eval", "--oracle", "betavae-counterexample", "--metrics", "betavae", "--seed", "11",
    ], capsys)
    assert code == 0
    report = json.loads(out)[0]
    assert abs(report["score"] - 0.9967) <= 0.02


class _ReadRecorder(argparse.Namespace):
    """A namespace that records which attributes a command reads."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            self.__dict__.setdefault("_reads", set()).add(name)
        return super().__getattribute__(name)


def _subparsers():
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _minimal_argv(command, tmp_path):
    dataset = tmp_path / "d.csv"
    save_dataset(synth.gen_sap_nonlinear(n=60, seed=3), str(dataset))
    a, b = synth.gen_comparison_matrices("mig-vs-3charm")
    save_matrix(a, str(tmp_path / "a.matrix"))
    save_matrix(b, str(tmp_path / "b.matrix"))
    return {
        "eval": ["--dataset", str(dataset), "--metrics", "mig"],
        "gen": ["--spec", "entangled:K=2", "--n", "20"],
        "reproduce": ["dci-two-factor"],
        "sweep": ["--eps", "0.5", "--eps1", "0.5"],
        "correlate": ["--count", "5", "--n", "60", "--factors", "2", "--metrics", "mig,3charm"],
        "compare": [str(tmp_path / "a.matrix"), str(tmp_path / "b.matrix")],
    }[command] + ["--out", str(tmp_path / "out")]


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_every_flag_of_a_subcommand_is_read(command, tmp_path, capsys):
    args = build_parser().parse_args([command, *_minimal_argv(command, tmp_path)], namespace=_ReadRecorder())
    # parsing itself reads the defaults it fills in: count only what the command reads
    args.__dict__["_reads"] = set()
    assert args.func(args) == 0
    declared = {a.dest for a in _subparsers()[command]._actions} - {"help", "func", "command"}
    assert declared - args._reads == set()


REMOVED_FLAGS = [
    ("gen", "--bins", "3"), ("gen", "--bin-strategy", "quantile"), ("gen", "--format", "json"),
    ("reproduce", "--seed", "999"), ("reproduce", "--bins", "3"), ("reproduce", "--bin-strategy", "quantile"),
    ("sweep", "--seed", "1"), ("sweep", "--bins", "3"), ("sweep", "--bin-strategy", "quantile"),
    ("sweep", "--format", "json"),
    ("correlate", "--format", "json"), ("correlate", "--family", "entangled"),
    ("compare", "--seed", "1"), ("compare", "--format", "table"),
]


@pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS)
def test_removed_flag_is_a_usage_error(command, flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *_minimal_argv(command, tmp_path), flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _action(command, dest):
    (action,) = [a for a in _subparsers()[command]._actions if a.dest == dest]
    return action


def test_flag_defaults_and_choices_are_the_library_values():
    binning, config = BinningSpec(), InterventionConfig()
    for command in ("eval", "correlate", "compare"):
        bins, strategy = _action(command, "bins"), _action(command, "bin_strategy")
        assert bins.default == binning.bin_count and bins.help.endswith(f"(default {binning.bin_count})")
        assert (strategy.default, tuple(strategy.choices)) == (binning.strategy, BIN_STRATEGIES)
    for field in ("train_points", "eval_points", "batch_size"):
        assert _action("eval", field).default == getattr(config, field)
    for command in ("eval", "correlate"):
        method = _action(command, "importance_method")
        assert (method.default, tuple(method.choices)) == (IMPORTANCE_METHODS[0], IMPORTANCE_METHODS)
    for scorer, parameter in ((importance_matrix_from_dataset, "method"), (metrics.dci_from_dataset, "method"),
                              (metrics.evaluate_all, "importance_method"),
                              (analysis.correlate_metrics, "importance_method")):
        assert inspect.signature(scorer).parameters[parameter].default == IMPORTANCE_METHODS[0]
    n = synth.GeneratorSpec("identity").n
    assert _action("gen", "n").default == n == synth.parse_spec_string("identity").n
    assert _action("gen", "n").help.endswith(f"(default {n})")
    assert _action("correlate", "factors").default == synth.GENERATORS["entangled"][0]["K"]
    assert tuple(_action("compare", "builtin").choices) == synth.COMPARISON_CASES
