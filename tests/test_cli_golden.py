"""Golden CLI bytes: a fixed command set whose stdout and ``--out`` files
must stay byte-identical across refactors of the evaluation path.

Inputs are written by ``save_dataset``/``save_matrix`` from seeded
generators, plus one CSV and schema written as text, into a temporary
directory that becomes the working directory,
so every path (and every ``compare`` label) is relative. To re-capture the
expected files after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py [NAME ...]``: only the
named commands (keys of ``COMMANDS``) are re-captured, or all of them when
no name is given.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from disentmetrics import synth
from disentmetrics.cli import main
from disentmetrics.core import save_dataset, save_matrix

GOLDEN = Path(__file__).parent / "golden"

SIZES = ["--train-points", "300", "--eval-points", "100", "--batch-size", "16"]
ORACLE_ARGS = ["--oracle", "identity", *SIZES, "--metrics", "factorvae,dci,sap,mig,3charm"]

# name -> (argv, files the command writes besides stdout)
COMMANDS = {
    "eval_dataset": (["eval", "--dataset", "a.csv"], ()),
    "eval_dataset_csv": (["eval", "--dataset", "a.csv", "--format", "csv"], ()),
    "eval_dataset_table_lasso": (["eval", "--dataset", "a.csv", "--format", "table",
                                  "--importance-method", "lasso"], ()),
    "eval_dataset_schema_lasso": (["eval", "--dataset", "m.csv", "--schema", "m.schema",
                                   "--importance-method", "lasso"], ()),
    "eval_matrix": (["eval", "--matrix", "a.matrix"], ()),
    "eval_oracle": (["eval", *ORACLE_ARGS], ()),
    "eval_oracle_betavae": (["eval", "--oracle", "identity", *SIZES, "--metrics", "betavae"], ()),
    "eval_oracle_factorvae": (["eval", "--oracle", "factorvae-counterexample", *SIZES,
                              "--metrics", "factorvae"], ()),
    "compare_csv": (["compare", "a.csv", "b.csv"], ()),
    "compare_csv_metrics": (["compare", "a.csv", "b.csv", "--metrics", "3charm,sap,mig"], ()),
    "compare_matrix": (["compare", "a.matrix", "b.matrix"], ()),
    "compare_mixed": (["compare", "a.csv", "b.matrix", "--metrics", "mig,dci,3charm"], ()),
    "compare_builtin": (["compare", "--builtin", "dci-vs-3charm"], ()),
    "correlate": (["correlate", "--count", "5", "--n", "300", "--factors", "3", "--out", "corr.csv"],
                  ("corr.csv", "corr.csv.population.json")),
}


def write_inputs(directory):
    for name, level, seed in (("a.csv", 0.3, 1), ("b.csv", 0.7, 2)):
        spec = synth.GeneratorSpec("entangled", {"level": level, "K": 3}, seed=seed, n=400)
        save_dataset(synth.dataset_from_spec(spec)[0], os.path.join(directory, name))
    matrix_a, matrix_b = synth.gen_comparison_matrices("mig-vs-3charm")
    save_matrix(matrix_a, os.path.join(directory, "a.matrix"))
    save_matrix(matrix_b, os.path.join(directory, "b.matrix"))
    # two discrete factors and one continuous one, mixed into three latents;
    # the file and the schema order the columns differently, and the schema
    # interleaves factors with latents
    rng = np.random.default_rng(5)
    z = np.column_stack([rng.integers(0, 3, 400), rng.integers(0, 4, 400), rng.uniform(-1, 1, 400)])
    c = z @ rng.standard_normal((3, 3)) + 0.1 * rng.standard_normal((400, 3))
    table = np.column_stack([c[:, 0], z[:, 0], c[:, 1], z[:, 1], c[:, 2], z[:, 2]])
    lines = ["c1,z1,c2,z2,c3,z3"] + [",".join(repr(float(x)) for x in row) for row in table]
    Path(directory, "m.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    Path(directory, "m.schema").write_text(
        "z2=factor:d4\nc3=latent\nz1=factor:d3\nc1=latent\nz3=factor:c\nc2=latent\n", encoding="utf-8")


def run_command(name):
    """Run one command in the current directory; return {golden file name: bytes}."""
    argv, written = COMMANDS[name]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    outputs = {f"{name}.stdout": out.getvalue().encode("utf-8")}
    for path in written:
        outputs[f"{name}.{path}"] = Path(path).read_bytes()
    return outputs


@pytest.fixture()
def inputs_dir(tmp_path, monkeypatch):
    write_inputs(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name, inputs_dir):
    for filename, data in run_command(name).items():
        assert data == (GOLDEN / filename).read_bytes(), filename


if __name__ == "__main__":
    import sys
    import tempfile

    names = sys.argv[1:] or sorted(COMMANDS)
    unknown = sorted(set(names) - set(COMMANDS))
    if unknown:
        sys.exit(f"unknown command name(s): {', '.join(unknown)} (known: {', '.join(sorted(COMMANDS))})")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        os.chdir(tmp)
        for command in names:
            for filename, data in run_command(command).items():
                (GOLDEN / filename).write_bytes(data)
