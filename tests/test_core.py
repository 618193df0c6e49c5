import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import disentmetrics
from disentmetrics import analysis, core, estimators, metrics, synth
from disentmetrics.core import (
    InformativenessMatrix,
    MetricReport,
    ParseError,
    RepresentationDataset,
    RepresentationOracle,
    SchemaError,
    ValidationError,
    ValidationIssue,
    _atomic_write,
    load_dataset,
    load_matrix,
    load_schema,
    reports_to_json,
    save_dataset,
    save_matrix,
    validate,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_minimal_dataset(tmp_path):
    p = write(tmp_path / "d.csv", "z_1:d3,c_1\n0,0.1\n1,0.2\n2,0.3\n1,0.4\n")
    ds = load_dataset(p)
    assert ds.n_factors == 1 and ds.n_latents == 1 and ds.n == 4
    assert ds.cardinalities == (3,)
    assert ds.factor_names == ("z_1",) and ds.latent_names == ("c_1",)


def test_load_nan_cites_row_and_column(tmp_path):
    rows = ["0.1,0.2"] * 10
    rows[6] = "0.1,nan"  # data row 7
    p = write(tmp_path / "d.csv", "z_1:c,c_2\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValidationError) as err:
        load_dataset(p)
    assert "row 7" in str(err.value) and "c_2" in str(err.value)


def test_load_non_numeric_cell(tmp_path):
    p = write(tmp_path / "d.csv", "z_1:c,c_1\n0.0,0.1\n0.5,oops\n")
    with pytest.raises(ParseError) as err:
        load_dataset(p)
    assert err.value.row == 2 and err.value.column == "c_1"


def test_load_discrete_out_of_range(tmp_path):
    p = write(tmp_path / "d.csv", "z_1:d3,c_1\n0,0.1\n5,0.2\n")
    with pytest.raises(ValidationError) as err:
        load_dataset(p)
    assert "z_1" in str(err.value) and "row 2" in str(err.value)


def test_load_with_sidecar_schema(tmp_path):
    schema_path = write(tmp_path / "d.schema", "c_1=latent\nz_1=factor:d2\n")
    p = write(tmp_path / "d.csv", "z_1,c_1\n0,0.5\n1,0.25\n")
    ds = load_dataset(p, schema=schema_path)
    assert ds.factor_names == ("z_1",) and ds.cardinalities == (2,)
    schema = load_schema(schema_path)
    assert list(schema) == ["c_1", "z_1"]


def test_zero_cardinality_is_a_schema_error_inline_and_in_schema(tmp_path):
    p = write(tmp_path / "d.csv", "z:d0,c\n0,0.5\n")
    with pytest.raises(SchemaError, match="cardinality must be >= 1"):
        load_dataset(p)
    p = write(tmp_path / "e.csv", "z,c\n0,0.5\n")
    with pytest.raises(SchemaError, match="cardinality must be >= 1"):
        load_dataset(p, schema={"z": "factor:d0", "c": "latent"})


def test_schema_missing_column(tmp_path):
    p = write(tmp_path / "d.csv", "z_1,c_1\n0,0.5\n")
    with pytest.raises(SchemaError) as err:
        load_dataset(p, schema={"z_1": "factor:c"})
    assert "c_1" in str(err.value)


def test_schema_bad_role(tmp_path):
    p = write(tmp_path / "d.csv", "z_1,c_1\n0,0.5\n")
    with pytest.raises(SchemaError):
        load_dataset(p, schema={"z_1": "factor:x", "c_1": "latent"})


@pytest.mark.parametrize("schema", [None, {"z1": "factor:c", "c1": "latent"}])
def test_duplicate_column_names_rejected(tmp_path, schema):
    p = write(tmp_path / "d.csv", "z1:c,c1,c1\n1,4,5\n2,7,6\n3,8,9\n")
    with pytest.raises(SchemaError, match="duplicate column 'c1'"):
        load_dataset(p, schema=schema)


def test_schema_file_naming_a_column_twice_is_rejected(tmp_path):
    schema_path = write(tmp_path / "d.schema", "z1=factor:c\nc1=latent\nc1=factor:c\n")
    p = write(tmp_path / "d.csv", "z1,c1\n1,4\n2,7\n")
    for load in (lambda: load_schema(schema_path), lambda: load_dataset(p, schema=schema_path)):
        with pytest.raises(SchemaError, match="^duplicate column 'c1' in schema$"):
            load()


def test_header_fault_is_reported_before_a_bad_cell(tmp_path):
    p = write(tmp_path / "d.csv", "z1:c,c1,c1\n1,4,5\n2,oops,6\n")
    with pytest.raises(SchemaError, match="duplicate column 'c1'"):
        load_dataset(p)


@pytest.mark.parametrize(
    "body, message, row, column",
    [
        ("0,1\n\n1,2\n", "row 2 has 0 cells, expected 2", 2, None),
        ("0,1\n1,2\n\n", "row 3 has 0 cells, expected 2", 3, None),
        ("\n", "row 1 has 0 cells, expected 2", 1, None),
        ("0,1\n \n1,2\n", "row 2 has 1 cells, expected 2", 2, None),
        ("0,1,\n", "row 1 has 3 cells, expected 2", 1, None),
        ("0,1\n1,2,3\n", "row 2 has 3 cells, expected 2", 2, None),
        ("0,1\n1,\n", "non-numeric cell '' at row 2, column c", 2, "c"),
        ("0,1\n1,2\noops,3\n", "non-numeric cell 'oops' at row 3, column z", 3, "z"),
        ('0,1\n"1,5",2\n', "non-numeric cell '1,5' at row 2, column z", 2, "z"),
    ],
)
def test_load_csv_fault_names_row_and_column(tmp_path, body, message, row, column):
    p = write(tmp_path / "d.csv", "z:c,c\n" + body)
    with pytest.raises(ParseError) as err:
        load_dataset(p)
    assert str(err.value) == message
    assert (err.value.row, err.value.column) == (row, column)


def test_load_rows_one_cell_short_of_the_header(tmp_path):
    p = write(tmp_path / "d.csv", "z:c,c1,c2\n0,1\n1,2\n2,3\n")
    with pytest.raises(ParseError, match=r"^row 1 has 2 cells, expected 3$"):
        load_dataset(p)


def test_load_accepts_quotes_crlf_and_spaces(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b'z:c,c1,c2\r\n"1.5", 2 ,-0.0\r\n 0.25,"3",1e-5 \r\n')
    ds = load_dataset(str(p))
    assert ds.factors.tolist() == [[1.5], [0.25]]
    assert ds.latents.tolist() == [[2.0, -0.0], [3.0, 1e-5]]
    assert np.signbit(ds.latents[0, 1])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_load_reads_a_stream_that_cannot_be_reopened(tmp_path):
    fifo = tmp_path / "d.csv"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(b"z:c,c\n0,1\n1,2\n")

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        ds = load_dataset(str(fifo))
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert ds.factors.tolist() == [[0.0], [1.0]] and ds.latents.tolist() == [[1.0], [2.0]]


def test_load_header_only_is_an_empty_column_without_warnings(tmp_path):
    p = write(tmp_path / "d.csv", "z:c,c\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="empty column"):
            load_dataset(p)


@pytest.mark.parametrize("cell", ["1_0", "١", "１.5"])
def test_load_refuses_digit_underscores_and_non_ascii_digits(tmp_path, cell):
    p = write(tmp_path / "d.csv", f"z:c,c\n0,1\n{cell},2\n")
    with pytest.raises(ParseError) as err:
        load_dataset(p)
    assert (err.value.row, err.value.column) == (2, "z")


def test_load_refuses_a_quoted_cell_that_holds_a_blank_line(tmp_path):
    p = write(tmp_path / "d.csv", 'z:c,c\n"1\n\n",2\n')
    with pytest.raises(ParseError, match="do not parse as one numeric table"):
        load_dataset(p)


def test_load_accepts_a_quoted_cell_that_spans_lines(tmp_path):
    ds = load_dataset(write(tmp_path / "d.csv", 'z:c,c\n"1\n",2\n'))
    assert ds.factors.tolist() == [[1.0]] and ds.latents.tolist() == [[2.0]]


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("rows, bad_row", [(1, 2), (5000, 4000)])
def test_load_names_the_row_that_is_not_utf8(tmp_path, rows, bad_row, end):
    lines = [b"z:c,c"] + [b"%d,1" % r for r in range(rows)]
    lines.insert(bad_row, b"\xff,2")  # far rows fail inside loadtxt, near ones on the first read
    path = tmp_path / "d.csv"
    path.write_bytes(end.join(lines) + end)
    with pytest.raises(ParseError, match=f"^row {bad_row} is not UTF-8 text$") as err:
        load_dataset(str(path))
    assert err.value.row == bad_row
    path.write_bytes(b"z\xe9:c,c\n0,1\n")
    with pytest.raises(ParseError, match="^the header row is not UTF-8 text$"):
        load_dataset(str(path))


def test_load_schema_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "s.schema"
    path.write_bytes(b"# roles\nz=factor:c\nc\xff=latent\n")
    with pytest.raises(ParseError, match="^schema line 3 is not UTF-8 text$"):
        load_schema(str(path))


def test_load_matrix_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "m.matrix"
    path.write_bytes(b"1,2\n1.0\n0.5\n0.\xc35\n")
    with pytest.raises(ParseError, match="^matrix line 4 is not UTF-8 text$"):
        load_matrix(str(path))


def _header(dataset):
    return ",".join([f"{name}:c" if card is None else f"{name}:d{card}"
                     for name, card in zip(dataset.factor_names, dataset.cardinalities)] + list(dataset.latent_names))


def _join_writer(dataset, path):
    """The one-string CSV writer the streamed ``save_dataset`` must match byte for byte."""
    lines = [_header(dataset)]
    lines.extend(",".join(map(repr, row.tolist())) for row in np.hstack([dataset.factors, dataset.latents]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _edge_value_dataset(n=5000):
    ds = _discrete_dataset(n)
    latents = ds.latents.copy()
    latents[:6, 0] = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-5, 0.1 + 0.2]
    return RepresentationDataset(ds.factors, latents, ds.factor_names, ds.latent_names, ds.cardinalities)


def _header_only_is_an_empty_column(ds, path):
    """The 0-row slice of ``ds`` cannot be built, and its header-only CSV loads to an empty column."""
    with pytest.raises(ValidationError, match="^empty column"):
        _rows(ds, 0)
    path.write_text(_header(ds) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="^empty column"):
        load_dataset(str(path))


@pytest.mark.parametrize("n", [0, 1, 5000])
def test_save_dataset_bytes_match_the_join_writer(tmp_path, n):
    if n == 0:
        _header_only_is_an_empty_column(_edge_value_dataset(), tmp_path / "old.csv")
        return
    ds = _rows(_edge_value_dataset(), n)
    save_dataset(ds, str(tmp_path / "new.csv"))
    _join_writer(ds, str(tmp_path / "old.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert not (tmp_path / "new.csv.tmp").exists()


def _traced_peak_mib(fn):
    """Peak of Python and numpy allocations made while ``fn`` runs, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


# --- Traced peaks on the 20000 x 20 dataset of the dataset-files benchmark ------
# Each bound is a multiple of the dataset's bytes (Z and C: 3.05 MiB): the peak
# measured with numpy 2.4 on Python 3.11, plus the stated margin. Each is checked
# with the CSV load in one process and forked into two.


def _big_dataset(level=0.5, seed=5):
    return synth.dataset_from_spec(synth.parse_spec_string(f"entangled:K=10,level={level}", seed=seed, n=20000))[0]


def _data_mib(ds):
    return (ds.factors.nbytes + ds.latents.nbytes) / 2**20


def _check_csv_peaks(tmp_path):
    ds = _big_dataset()
    path = str(tmp_path / "big.csv")
    # 256 formatted rows at a time: measured 0.13 x the data
    assert _traced_peak_mib(lambda: save_dataset(ds, path)) <= 0.25 * _data_mib(ds)
    assert os.path.getsize(path) > 7_000_000
    # Z, C and one piece of core._PIECE_ROWS rows (0.05 x) with its pickle and the
    # parser's buffers: measured 1.13 (one process) and 1.16 (forked) x the data
    assert _traced_peak_mib(lambda: load_dataset(path)) <= 1.25 * _data_mib(ds)


def test_csv_save_and_load_peaks_stay_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    _check_csv_peaks(tmp_path)


def test_csv_save_and_load_peaks_stay_bounded_in_one_process(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    _check_csv_peaks(tmp_path)


@pytest.fixture(scope="module")
def big_files(tmp_path_factory):
    """The big dataset, saved, and a second one of another level and seed."""
    ds, paths = _big_dataset(), [str(tmp_path_factory.mktemp("big") / name) for name in ("a.csv", "b.csv")]
    save_dataset(ds, paths[0])
    save_dataset(_big_dataset(0.25, 6), paths[1])
    return ds, paths


# layer -> (its call on the big dataset and files, bound in multiples of the data's bytes)
_LAYER_PEAKS = {
    # the column checks: on finite data, a min and a max per matrix and no mask (two masks,
    # 1/8 each, before the check was made allocation-free): measured 0.0005
    "validate": (lambda ds, paths: core.validate(ds), 0.15),
    # the factors' int64 codes (0.5) and one latent's codes: measured 0.66
    "informativeness_from_mi": (lambda ds, paths: estimators.informativeness_from_mi(ds), 0.75),
    # the factors' centred columns (0.5) and one latent's: measured 0.80
    "sap_score": (lambda ds, paths: metrics.sap_score(ds), 0.9),
    # Z and C, adopted without a copy: measured 1.00
    "dataset_from_spec": (lambda ds, paths: _big_dataset(), 1.1),
    # one loaded dataset and its scores at a time (two datasets alone are 2.0): measured
    # 1.81 on one worker and 1.81 on two, where the second dataset is in a child
    "compare": (lambda ds, paths: analysis.compare(*paths, metrics=["mig", "3charm", "sap"]), 1.9),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("layer", list(_LAYER_PEAKS))
def test_layer_peaks_stay_bounded(big_files, monkeypatch, layer, workers):
    ds, paths = big_files
    call, bound = _LAYER_PEAKS[layer]
    monkeypatch.setattr(core, "_usable_cpus", lambda: workers)
    assert _traced_peak_mib(lambda: call(ds, paths)) <= bound * _data_mib(ds)


# --- CSV save and load on every usable CPU --------------------------------------
# The worker count is forced through core._usable_cpus, with the work gate
# core._BLOCK_MIN_WORK at 1 so that small files fan out too; every worker
# count must give the serial bytes, bits and errors.


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(core, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(core, "_BLOCK_MIN_WORK", 1)


def _count_forks(monkeypatch):
    forks, forked = [], core._forked
    monkeypatch.setattr(core, "_forked", lambda *args: forks.append(len(args[1])) or forked(*args))
    return forks


def _rows(ds, n):
    return RepresentationDataset(ds.factors[:n], ds.latents[:n], ds.factor_names, ds.latent_names, ds.cardinalities)


def _bits(ds):
    return ds.factors.view(np.uint64).tolist(), ds.latents.view(np.uint64).tolist()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 2047, 2048, 2049, 5000, 20000])
def test_csv_save_and_load_are_bit_identical_on_any_worker_count(tmp_path, monkeypatch, workers, n):
    _force_workers(monkeypatch, workers)
    if n == 0:
        _header_only_is_an_empty_column(_edge_value_dataset(20000), tmp_path / "old.csv")
        return
    ds = _rows(_edge_value_dataset(20000), n)
    _join_writer(ds, str(tmp_path / "old.csv"))
    save_dataset(ds, str(tmp_path / "new.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert not (tmp_path / "new.csv.tmp").exists()
    assert _bits(load_dataset(str(tmp_path / "old.csv"))) == _bits(ds)


@pytest.mark.parametrize("below, forks", [(1, []), (0, [2])])
def test_csv_save_fans_out_only_above_the_work_gate(tmp_path, monkeypatch, below, forks):
    n = 2 * core._BLOCK_MIN_WORK // 5 - below  # 5 columns: a value is a microsecond of work
    ds = _rows(_edge_value_dataset(n), n)
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    seen = _count_forks(monkeypatch)
    save_dataset(ds, str(tmp_path / "new.csv"))
    _join_writer(ds, str(tmp_path / "old.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert seen == forks


@pytest.mark.parametrize("n, forks", [(2000, []), (20000, [2])])
def test_csv_load_fans_out_only_above_the_work_gate(tmp_path, monkeypatch, n, forks):
    ds = _rows(_edge_value_dataset(20000), n)
    save_dataset(ds, str(tmp_path / "d.csv"))
    # 32 data bytes are a microsecond of work: two blocks need twice the gate
    assert (os.path.getsize(tmp_path / "d.csv") // 32 >= 2 * core._BLOCK_MIN_WORK) == bool(forks)
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    seen = _count_forks(monkeypatch)
    assert _bits(load_dataset(str(tmp_path / "d.csv"))) == _bits(ds)
    assert seen == forks


def test_a_failed_fanned_out_save_keeps_the_old_file_and_stops_its_children(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_text("old\n", encoding="utf-8")
    _force_workers(monkeypatch, 3)
    atomic_write = core._atomic_write

    def failing_write(target, chunks):
        def some():
            for i, chunk in enumerate(chunks):
                if i == 3:  # children are still formatting their blocks
                    raise OSError("disk full")
                yield chunk
        atomic_write(target, some())

    monkeypatch.setattr(core, "_atomic_write", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_dataset(_edge_value_dataset(20000), str(path))
    assert path.read_text(encoding="utf-8") == "old\n"
    assert not (tmp_path / "out.csv.tmp").exists()
    assert multiprocessing.active_children() == []


def test_in_blocks_forks_only_above_the_work_gate(monkeypatch):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    gate = core._BLOCK_MIN_WORK
    below = list(core._in_blocks(lambda items: [(os.getpid(), list(items))], 4, 2 * gate - 1))
    assert below == [(os.getpid(), [0, 1, 2, 3])]
    above = list(core._in_blocks(lambda items: [(os.getpid(), list(items))], 4, 2 * gate))
    assert [items for _, items in above] == [[0, 1], [2, 3]] and above[1][0] != os.getpid()


@pytest.mark.parametrize("cpus, forks, in_caller", [(2, [2], [True]), (3, [2, 2], [True, False])])
def test_a_nested_fan_out_counts_only_the_cpus_the_outer_children_leave_free(monkeypatch, cpus, forks, in_caller):
    def inner(items):
        yield os.getpid()

    def outer(items):
        for _ in items:
            yield os.getpid(), list(core._in_blocks(inner, 2, 2))

    _force_workers(monkeypatch, cpus)
    seen = _count_forks(monkeypatch)
    (caller, nested_in_caller), (child, nested_in_child) = core._in_blocks(outer, 2, 2)
    assert caller == os.getpid() != child
    # the caller's nested call forks only with a third CPU; the child, a daemon, never does
    assert [pid == caller for pid in nested_in_caller] == in_caller
    assert set(nested_in_child) == {child}
    assert seen == forks
    assert core._held_by_children == set()


def _every_subclass(cls):
    return [cls] + [sub for child in cls.__subclasses__() for sub in _every_subclass(child)]


_ISSUES = [ValidationIssue("c1", r, "non-finite value") for r in range(1, 13)] + [ValidationIssue(None, None, "x")]
_ERRORS = [core.MetricsError("base"), core.SchemaError("bad role"), ParseError("bad cell", row=3, column="c1"),
           ValidationError(_ISSUES), ValidationError([ValidationIssue("c1", 3, "non-finite value")]),
           core.NotComputableError("undefined"), core.DegenerateLabelsError("one class")]


def test_every_metrics_error_survives_a_pickle_round_trip():
    assert {type(err) for err in _ERRORS} == set(_every_subclass(core.MetricsError))
    for err in _ERRORS:
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err) and str(back) == str(err) and vars(back) == vars(err)
    assert str(pickle.loads(pickle.dumps(_ERRORS[4]))) == "non-finite value [column c1, row 3]"


@pytest.mark.parametrize("err", _ERRORS, ids=lambda err: type(err).__name__)
def test_a_childs_metrics_error_reaches_the_caller_as_raised(monkeypatch, err):
    def block(items):
        if 1 in items:
            raise err
        yield list(items)

    _force_workers(monkeypatch, 2)
    with pytest.raises(type(err)) as raised:
        list(core._in_blocks(block, 2, 2))
    assert type(raised.value) is type(err) and str(raised.value) == str(err) and vars(raised.value) == vars(err)
    assert multiprocessing.active_children() == [] and core._held_by_children == set()


def test_a_childs_error_that_does_not_pickle_arrives_as_a_child_process_error(monkeypatch):
    class LocalError(Exception):  # a local class does not pickle
        pass

    def block(items):
        if 1 in items:
            raise LocalError("no pickle")
        yield list(items)

    _force_workers(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match="^LocalError in a worker process: no pickle$"):
        list(core._in_blocks(block, 2, 2))
    assert multiprocessing.active_children() == []


def _load_outcome(path):
    try:
        return "loaded", _bits(load_dataset(path))
    except (ParseError, ValidationError) as err:
        return type(err).__name__, str(err), getattr(err, "row", None), getattr(err, "column", None)


# Each CSV contract case after 3000 good rows, so that at 2 and 3 workers its
# fault sits in a child's range (quoted and CR files are parsed in one block),
# with a part of the outcome of one loadtxt call over the file that the case
# must show at any worker count and piece size.
_CONTRACT_CASES = {
    "bad cell": (b"oops,3\n0,1\n", "non-numeric cell 'oops' at row 3001, column z"),
    "empty cell": (b"1,\n0,1\n", "non-numeric cell '' at row 3001, column c"),
    "short row": (b"1\n0,1\n", "row 3001 has 1 cells"),
    "long row": (b"1,2,3\n0,1\n", "row 3001 has 3 cells"),
    "blank line": (b"\n1,2\n", "row 3001 has 0 cells"),
    "blank last line": (b"1,2\n\n", "row 3002 has 0 cells"),
    "whitespace line": (b" \n1,2\n", "row 3001 has 1 cells"),
    "quoted cell spanning lines": (b'"1\n",2\n0,1\n', "loaded"),
    "quoted cell holding a blank line": (b'"1\n\n",2\n0,1\n', "do not parse as one numeric table"),
    "quoted comma": (b'"1,5",2\n0,1\n', "non-numeric cell '1,5' at row 3001, column z"),
    "crlf": (b"1,2\r\n3,4\r\n", "loaded"),
    "crlf bad cell": (b"1,2\r\noops,4\r\n", "non-numeric cell 'oops' at row 3002"),
    "cr bad cell": (b"1,2\roops,4\r", "non-numeric cell 'oops' at row 3002"),
    "non-utf8 row": (b"\xff,2\n0,1\n", "row 3001 is not UTF-8 text"),
    "digit underscores": (b"1_0,2\n0,1\n", "non-numeric cell '1_0' at row 3001"),
    "non-ascii digit": ("\u0661,2\n0,1\n".encode(), "at row 3001, column z"),
    "nan": (b"nan,2\n0,1\n", "row 3001"),
    "no final line feed": (b"1,2\n3,4", "loaded"),
    "rows not a multiple of the piece size": (b"1,2\n" * 4, "loaded"),
    "blank line mid-block": (b"\n" + b"0,1\n" * 1000, "row 3001 has 0 cells"),
    "non-utf8 row mid-block": (b"\xff,2\n" + b"0,1\n" * 1000, "row 3001 is not UTF-8 text"),
}


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("case", list(_CONTRACT_CASES))
def test_csv_contract_holds_on_any_worker_count(tmp_path, monkeypatch, case, workers):
    body, shown = _CONTRACT_CASES[case]
    path = tmp_path / "d.csv"
    path.write_bytes(b"z:c,c\n" + b"0,1\n" * 3000 + body)
    pieces = core._PIECE_ROWS
    _force_workers(monkeypatch, 1)
    monkeypatch.setattr(core, "_PIECE_ROWS", 10**9)  # the file in one loadtxt call
    serial = _load_outcome(str(path))
    assert shown in str(serial[:2])
    _force_workers(monkeypatch, workers)
    seen = _count_forks(monkeypatch)
    # 7-row pieces: every block in many, the last one short and each fault in a later one
    for piece_rows in (pieces, 7):
        monkeypatch.setattr(core, "_PIECE_ROWS", piece_rows)
        assert _load_outcome(str(path)) == serial
    assert seen == ([] if b'"' in body or b"\r" in body else [workers] * 2)


_LEAK_CHECK = """
import numpy as np
from disentmetrics import core, estimators, synth
core._usable_cpus = lambda: 3
core._BLOCK_MIN_WORK = 1
ds = synth.gen_entangled_family(0.5, n_factors=3, n=3000, seed=1)
estimators.importance_matrix_from_dataset(ds, "forest", estimators.ForestConfig(n_trees=6))
core.save_dataset(ds, PATH)
assert np.array_equal(core.load_dataset(PATH).latents, ds.latents)
with open(PATH, "a") as fh:
    fh.write("0,0,0,oops,0,0\\n")
try:
    core.load_dataset(PATH)
except core.ParseError as err:
    assert err.row == 3001, err
else:
    raise AssertionError("the bad cell was not refused")
"""


def test_fan_out_leaks_no_resource_under_dev_mode(tmp_path):
    code = _LEAK_CHECK.replace("PATH", repr(str(tmp_path / "d.csv")))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "ResourceWarning" not in out.stderr and "unclosed" not in out.stderr, out.stderr


def test_atomic_write_failure_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n", encoding="utf-8")

    def chunks():
        yield "new,"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        _atomic_write(str(path), chunks())
    assert path.read_text(encoding="utf-8") == "old\n"
    assert not (tmp_path / "out.csv.tmp").exists()


def _discrete_dataset(n=2000, seed=3):
    rng = np.random.default_rng(seed)
    z = np.column_stack([rng.uniform(-1, 1, n), rng.integers(0, 4, n), rng.integers(0, 2, n)])
    return RepresentationDataset(z, z @ rng.standard_normal((3, 2)), ("pos", "shape", "flip"), ("a", "b"),
                                 (None, 4, 2))


def test_roundtrip_bit_identical(tmp_path):
    path = tmp_path / "d.csv"
    for ds in (synth.gen_sap_nonlinear(n=10000, seed=3), _discrete_dataset(), _edge_value_dataset()):
        save_dataset(ds, str(path))
        back = load_dataset(str(path))
        assert np.array_equal(back.factor_matrix().view(np.uint64), ds.factor_matrix().view(np.uint64))
        assert np.array_equal(back.latent_matrix().view(np.uint64), ds.latent_matrix().view(np.uint64))
        assert back.factor_names == ds.factor_names
        assert back.latent_names == ds.latent_names
        assert back.cardinalities == ds.cardinalities


def test_dataset_stores_frozen_c_ordered_matrices():
    z = np.asfortranarray(np.arange(6.0).reshape(3, 2))
    ds = RepresentationDataset(z, [[1], [2], [3]])
    for m in (ds.factors, ds.latents):
        assert m.dtype == np.float64 and m.flags.c_contiguous and not m.flags.writeable
    assert np.array_equal(ds.factors, z) and ds.factors is not z
    frozen = np.arange(3.0).reshape(3, 1)
    frozen.setflags(write=False)
    assert not np.shares_memory(RepresentationDataset(frozen, frozen).factors, frozen)  # caller arrays are copied
    assert ds.latent_matrix() is ds.latents and ds.factor_matrix() is ds.factors
    assert (ds.n, ds.n_factors, ds.n_latents) == (3, 2, 1)
    assert ds.factor_names == ("z1", "z2") and ds.latent_names == ("c1",)
    assert ds.cardinalities == (None, None)


@pytest.mark.parametrize("kwargs", [
    {"factors": [1.0, 2.0]},
    {"factor_names": ["only_one"]},
    {"latent_names": ["a", "b"]},
    {"cardinalities": [3]},
    {"cardinalities": [0, None]},
])
def test_dataset_rejects_bad_shapes_and_metadata(kwargs):
    args = {"factors": np.zeros((2, 2)), "latents": np.zeros((2, 1)), **kwargs}
    with pytest.raises(ValueError):
        RepresentationDataset(**args)


def test_validate_passes_well_formed():
    ds = RepresentationDataset([[0.0], [1.0]], [[0.5], [0.25]], cardinalities=[2])
    assert validate(ds) == []


def test_validate_length_mismatch():
    with pytest.raises(ValidationError) as err:
        RepresentationDataset([[0.0], [1.0]], [[0.5, 0.1], [0.25, 0.2], [0.75, 0.3]])
    assert [(i.column, i.row, i.message) for i in err.value.issues] == [
        ("c1", None, "length mismatch"), ("c2", None, "length mismatch")]


def test_validate_lists_issues_column_by_column():
    z = np.array([[0.0, np.nan], [7.0, 0.5], [np.inf, 1.5]])
    c = np.array([[np.nan, 0.0], [0.5, -np.inf], [0.5, np.nan]])
    with pytest.raises(ValidationError) as err:
        RepresentationDataset(z, c, cardinalities=[3, None])
    assert [(i.column, i.row, i.message) for i in err.value.issues] == [
        ("z1", 3, "non-finite value"), ("z2", 1, "non-finite value"),
        ("c1", 1, "non-finite value"), ("c2", 2, "non-finite value"), ("c2", 3, "non-finite value"),
        ("z1", 2, "value np.float64(7.0) outside discrete range 0..2"),
    ]


# Each column fault: factors, latents, cardinalities, the same dataset as a CSV file
# (None where a CSV cannot hold it) and the ValidationError that building it raises
_COLUMN_FAULTS = {
    "empty column": (np.zeros((0, 1)), np.zeros((0, 1)), [3], "z1:d3,c1\n", "empty column [column z1]"),
    "length mismatch": (np.zeros((3, 1)), np.zeros((2, 2)), [3], None,
                        "length mismatch [column c1]; length mismatch [column c2]"),
    "non-finite value": ([[0.0], [1.0]], [[0.5], [np.nan]], [3], "z1:d3,c1\n0,0.5\n1,nan\n",
                         "non-finite value [column c1, row 2]"),
    "discrete value out of range": ([[0.0], [5.0]], [[0.5], [0.25]], [3], "z1:d3,c1\n0,0.5\n5,0.25\n",
                                    "value np.float64(5.0) outside discrete range 0..2 [column z1, row 2]"),
}


@pytest.mark.parametrize("fault", list(_COLUMN_FAULTS))
def test_every_way_to_build_a_dataset_raises_for_each_column_fault(tmp_path, fault):
    factors, latents, cards, csv_text, shown = _COLUMN_FAULTS[fault]
    builds = [lambda: RepresentationDataset(factors, latents, cardinalities=cards),
              lambda: RepresentationDataset._adopt(np.array(factors, dtype=np.float64),
                                                   np.array(latents, dtype=np.float64), cardinalities=cards)]
    if csv_text is not None:
        builds.append(lambda: load_dataset(write(tmp_path / "d.csv", csv_text)))
    for build in builds:
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == shown


def _nan_row_3(rng, n):
    z = rng.random((n, 2))
    z[2] = np.nan
    return z


@pytest.mark.parametrize("n, sampler, encoder, shown", [
    (0, lambda rng, n: rng.random((n, 2)), lambda rng, z: z.copy(), "empty column [column z1]"),
    (4, lambda rng, n: rng.random((n, 2)), lambda rng, z: z[:-1].copy(),
     "length mismatch [column c1]; length mismatch [column c2]"),
    (4, _nan_row_3, lambda rng, z: np.zeros_like(z),
     "non-finite value [column z1, row 3]; non-finite value [column z2, row 3]"),
])
def test_an_oracle_sample_raises_for_a_column_fault(n, sampler, encoder, shown):
    with pytest.raises(ValidationError) as err:
        RepresentationOracle(2, 2, sampler, encoder).sample_dataset(n)
    assert str(err.value) == shown


def test_a_group_with_no_columns_takes_the_other_groups_rows(tmp_path):
    for factors, latents, missing in [(np.empty((3, 0)), np.ones((5, 2)), "factor"),
                                      (np.ones((4, 2)), np.empty((7, 0)), "latent")]:
        ds = RepresentationDataset(factors, latents)
        assert ds.factors.shape[0] == ds.latents.shape[0] == ds.n == len(latents if missing == "factor" else factors)
        save_dataset(ds, str(tmp_path / "d.csv"))
        with pytest.raises(ValidationError, match=f"^dataset has no {missing} columns$"):
            load_dataset(str(tmp_path / "d.csv"))


def test_a_dataset_with_no_columns_saves_a_file_the_load_refuses_for_both_groups(tmp_path):
    save_dataset(RepresentationDataset(np.empty((4, 0)), np.empty((4, 0))), str(tmp_path / "d.csv"))
    assert (tmp_path / "d.csv").read_text(encoding="utf-8") == "\n" * 5
    with pytest.raises(ValidationError, match="^dataset has no factor columns; dataset has no latent columns$"):
        load_dataset(str(tmp_path / "d.csv"))


def test_a_csv_with_no_factor_columns_and_a_bad_cell_reports_only_the_cell(tmp_path):
    with pytest.raises(ValidationError, match=r"^non-finite value \[column c, row 2\]$"):
        load_dataset(write(tmp_path / "d.csv", "c\n1\nnan\n"))


def test_validation_error_message_names_ten_issues_and_counts_the_rest(tmp_path):
    p = write(tmp_path / "nan.csv", "z1:c,c1\n" + "0.5,nan\n" * 20000)
    with pytest.raises(ValidationError) as err:
        load_dataset(p)
    assert len(err.value.issues) == 20000
    shown = "; ".join(f"non-finite value [column c1, row {r}]" for r in range(1, 11))
    assert str(err.value) == shown + "; and 19990 more"
    issues = [ValidationIssue("c1", r, "non-finite value") for r in range(1, 12)]
    assert str(ValidationError(issues[:10])) == "; ".join(map(str, issues[:10]))
    assert str(ValidationError(issues)) == "; ".join(map(str, issues[:10])) + "; and 1 more"


def test_validate_discrete_out_of_range_names_cell():
    with pytest.raises(ValidationError) as err:
        RepresentationDataset([[0.0], [5.0], [1.0]], [[0.5], [0.25], [0.1]], cardinalities=[3])
    issues = err.value.issues
    assert len(issues) == 1
    assert issues[0].column == "z1" and issues[0].row == 2


def test_validate_accepts_every_generator_dataset():
    datasets = [
        synth.gen_sap_nonlinear(n=50, seed=0),
        synth.gen_sap_duplicate(n=50, seed=0),
        synth.gen_disentangled(3, n=50, seed=0),
        synth.gen_entangled_family(0.5, n_factors=3, n=50, seed=0),
        synth.gen_betavae_counterexample(seed=0).sample_dataset(50),
        synth.gen_factorvae_counterexample(seed=0).sample_dataset(50),
        synth.gen_identity_oracle(seed=0).sample_dataset(50),
        synth.gen_noise_oracle(seed=0).sample_dataset(50),
    ]
    for ds in datasets:
        assert validate(ds) == []


def test_matrix_roundtrip(tmp_path):
    m = InformativenessMatrix([[0.5, 0.0], [0.1, 0.9], [0.0, 0.2]], [1.0, 2.0])
    path = tmp_path / "m.matrix"
    save_matrix(m, str(path))
    back = load_matrix(str(path))
    assert np.array_equal(back.values, m.values)
    assert np.array_equal(back.factor_entropies, m.factor_entropies)


def test_matrix_bad_files(tmp_path):
    with pytest.raises(ParseError):
        load_matrix(write(tmp_path / "a.matrix", "2,2\n1.0,1.0\n0.1,0.2\n"))
    with pytest.raises(ParseError):
        load_matrix(write(tmp_path / "b.matrix", "nonsense\n"))
    with pytest.raises(ParseError):
        load_matrix(write(tmp_path / "c.matrix", "2,1\n1.0,1.0\n0.1,0.2,0.3\n"))
    with pytest.raises(ParseError, match="K and N must be >= 1"):
        load_matrix(write(tmp_path / "d.matrix", "2,-1\n"))


def test_matrix_non_finite_entry_names_its_line(tmp_path):
    with pytest.raises(ParseError, match="^matrix line 3 has a non-finite entry$"):
        load_matrix(write(tmp_path / "a.matrix", "2,2\n1.0,0.5\n-0.5,nan\n0.1,0.2\n"))
    with pytest.raises(ParseError, match="^matrix line 2 has a non-finite entry$"):
        load_matrix(write(tmp_path / "b.matrix", "1,1\ninf\n0.5\n"))


def test_matrix_negative_entry_names_its_line(tmp_path):
    with pytest.raises(ParseError, match="^matrix line 5 has a negative entry$"):
        load_matrix(write(tmp_path / "a.matrix", "2,2\n1.0,0.5\n0.5,0.25\n\n0.1,-0.2\n"))
    with pytest.raises(ParseError, match="^matrix line 2 has a negative entry$"):
        load_matrix(write(tmp_path / "b.matrix", "2,1\n1.0,-0.5\n0.5,0.25\n"))
    # a zero entropy loads: MIG skips that factor
    assert load_matrix(write(tmp_path / "c.matrix", "2,1\n1.0,0.0\n0.5,0.25\n")).factor_entropies.tolist() == [1.0, 0.0]


def test_informativeness_matrix_invariants():
    with pytest.raises(ValueError):
        InformativenessMatrix([[-0.1]], [1.0])
    with pytest.raises(ValueError, match="negative factor entropy"):
        InformativenessMatrix([[0.5, 0.5]], [1.0, -0.5])
    # entries are not bounded by the factor entropies (a loaded .matrix file
    # is scored as given); informativeness_from_mi checks its own bound
    InformativenessMatrix([[1.5]], [1.0])


def test_loaded_matrix_is_not_entropy_bounded(tmp_path):
    m = load_matrix(write(tmp_path / "m.matrix", "1,2\n1.0\n1.5\n0.25\n"))
    assert m.values.tolist() == [[1.5], [0.25]]


def test_oracle_seed_reproducibility():
    o1 = synth.gen_betavae_counterexample(seed=42)
    o2 = synth.gen_betavae_counterexample(seed=42)
    z1, c1 = o1.sample(100)
    z2, c2 = o2.sample(100)
    assert np.array_equal(z1, z2) and np.array_equal(c1, c2)
    z3, _ = o1.reseeded(42).sample(100)
    assert np.array_equal(z1, z3)


def _uniform_oracle(n_factors, n_latents):
    return RepresentationOracle(n_factors, n_latents, lambda rng, n: rng.random((n, 2)), lambda rng, z: z.copy())


@pytest.mark.parametrize("build, field", [
    (lambda: _uniform_oracle(2.7, 2), "n_factors"),
    (lambda: _uniform_oracle(0, 2), "n_factors"),
    (lambda: _uniform_oracle("2", 2), "n_factors"),
    (lambda: _uniform_oracle(2, -1), "n_latents"),
    (lambda: _uniform_oracle(2, 2.0), "n_latents"),
    (lambda: _uniform_oracle(2, None), "n_latents"),
    (lambda: synth.gen_identity_oracle(n_factors=0), "n_factors"),
    (lambda: synth.gen_noise_oracle(n_latents=0), "n_latents"),
])
def test_an_oracle_needs_whole_sizes_of_at_least_one(build, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got "):
        build()


def test_oracle_sample_factors_needs_a_whole_count_of_at_least_zero():
    oracle = _uniform_oracle(np.int64(2), np.uint8(2))
    assert (type(oracle.n_factors), type(oracle.n_latents)) == (int, int)
    for n in (2.7, -1, "3"):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 0, got "):
            oracle.sample_factors(n)
    assert oracle.sample_factors(np.int64(0)).shape == (0, 2)
    z, c = oracle.reseeded(3).sample(np.int32(4))
    assert z.shape == c.shape == (4, 2)


def test_report_json_stable():
    report = MetricReport("mig", 0.5, intermediates={"gaps": np.array([0.5, 0.25])}, seed=7)
    text = reports_to_json(report)
    assert text == reports_to_json(MetricReport("mig", 0.5, intermediates={"gaps": [0.5, 0.25]}, seed=7))
    assert '"metric": "mig"' in text
    payload = reports_to_json([report])
    assert payload.startswith("[")


def test_report_json_writes_every_bool_as_a_json_boolean():
    report = MetricReport("dci", 0.5, intermediates={"low_informativeness": False, "flags": [True, np.bool_(False)],
                                                     "count": 3, "sizes": np.array([2])})
    written = json.loads(reports_to_json(report))["intermediates"]
    assert written == {"low_informativeness": False, "flags": [True, False], "count": 3, "sizes": [2]}
    values = [written["low_informativeness"], *written["flags"], written["count"], *written["sizes"]]
    assert [type(value) for value in values] == [bool, bool, bool, int, int]  # False == 0: check the types


def test_every_public_name_resolves():
    namespace = {}
    exec("from disentmetrics import *", namespace)  # AttributeError for a stale name
    assert set(disentmetrics.__all__) <= set(namespace)
