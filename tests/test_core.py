import os
import tracemalloc
import warnings

import numpy as np
import pytest

import disentmetrics
from disentmetrics import synth
from disentmetrics.core import (
    ImportanceMatrix,
    InformativenessMatrix,
    MetricReport,
    ParseError,
    RepresentationDataset,
    SchemaError,
    ValidationError,
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


def _join_writer(dataset, path):
    """The one-string CSV writer the streamed ``save_dataset`` must match byte for byte."""
    header = [f"{name}:c" if card is None else f"{name}:d{card}"
              for name, card in zip(dataset.factor_names, dataset.cardinalities)]
    header.extend(dataset.latent_names)
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row.tolist())) for row in np.hstack([dataset.factors, dataset.latents]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _edge_value_dataset(n=5000):
    ds = _discrete_dataset(n)
    latents = ds.latents.copy()
    latents[:6, 0] = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-5, 0.1 + 0.2]
    return RepresentationDataset(ds.factors, latents, ds.factor_names, ds.latent_names, ds.cardinalities)


@pytest.mark.parametrize("n", [0, 1, 5000])
def test_save_dataset_bytes_match_the_join_writer(tmp_path, n):
    ds = _edge_value_dataset()
    ds = RepresentationDataset(ds.factors[:n], ds.latents[:n], ds.factor_names, ds.latent_names, ds.cardinalities)
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


def test_csv_save_and_load_peaks_stay_bounded(tmp_path):
    # the 8 MB file of the dataset-files benchmark: 20 columns of 20000 rows
    spec = synth.parse_spec_string("entangled:K=10,level=0.5", seed=5, n=20000)
    ds = synth.dataset_from_spec(spec)[0]
    path = str(tmp_path / "big.csv")
    assert _traced_peak_mib(lambda: save_dataset(ds, path)) <= 6.0
    assert os.path.getsize(path) > 7_000_000
    assert _traced_peak_mib(lambda: load_dataset(path)) <= 9.5


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
    ds = RepresentationDataset([[0.0], [1.0]], [[0.5, 0.1], [0.25, 0.2], [0.75, 0.3]])
    issues = validate(ds)
    assert [(i.column, i.row, i.message) for i in issues] == [
        ("c1", None, "length mismatch"), ("c2", None, "length mismatch")]


def test_validate_lists_issues_column_by_column():
    z = np.array([[0.0, np.nan], [7.0, 0.5], [np.inf, 1.5]])
    c = np.array([[np.nan, 0.0], [0.5, -np.inf], [0.5, np.nan]])
    issues = validate(RepresentationDataset(z, c, cardinalities=[3, None]))
    assert [(i.column, i.row, i.message) for i in issues] == [
        ("z1", 3, "non-finite value"), ("z2", 1, "non-finite value"),
        ("c1", 1, "non-finite value"), ("c2", 2, "non-finite value"), ("c2", 3, "non-finite value"),
        ("z1", 2, "value np.float64(7.0) outside discrete range 0..2"),
    ]


def test_validate_discrete_out_of_range_names_cell():
    ds = RepresentationDataset([[0.0], [5.0], [1.0]], [[0.5], [0.25], [0.1]], cardinalities=[3])
    issues = validate(ds)
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
    assert back.provenance == "external"


def test_matrix_bad_files(tmp_path):
    with pytest.raises(ParseError):
        load_matrix(write(tmp_path / "a.matrix", "2,2\n1.0,1.0\n0.1,0.2\n"))
    with pytest.raises(ParseError):
        load_matrix(write(tmp_path / "b.matrix", "nonsense\n"))
    with pytest.raises(ParseError):
        load_matrix(write(tmp_path / "c.matrix", "2,1\n1.0,1.0\n0.1,0.2,0.3\n"))
    with pytest.raises(ParseError, match="K and N must be >= 1"):
        load_matrix(write(tmp_path / "d.matrix", "2,-1\n"))


def test_informativeness_matrix_invariants():
    with pytest.raises(ValueError):
        InformativenessMatrix([[-0.1]], [1.0])
    with pytest.raises(ValueError):
        InformativenessMatrix([[1.5]], [1.0], provenance="mutual_information")
    # external provenance is not entropy-bounded
    InformativenessMatrix([[1.5]], [1.0], provenance="external")
    for provenance in ("nonsense", "importance", "linear_r2"):
        with pytest.raises(ValueError, match="unknown provenance"):
            InformativenessMatrix([[0.1]], [1.0], provenance=provenance)


def test_importance_matrix_rejects_negative():
    with pytest.raises(ValueError):
        ImportanceMatrix([[-1.0, 0.0]])
    ImportanceMatrix([[0.0, 0.0]])  # all-zero is constructible; scoring rejects it


def test_oracle_seed_reproducibility():
    o1 = synth.gen_betavae_counterexample(seed=42)
    o2 = synth.gen_betavae_counterexample(seed=42)
    z1, c1 = o1.sample(100)
    z2, c2 = o2.sample(100)
    assert np.array_equal(z1, z2) and np.array_equal(c1, c2)
    z3, _ = o1.reseeded(42).sample(100)
    assert np.array_equal(z1, z3)


def test_oracle_honors_fixed_factor():
    oracle = synth.gen_betavae_counterexample(seed=1)
    z, _ = oracle.sample(200, fixed_factor=1, fixed_value=0.25)
    assert (z[:, 1] == 0.25).all()
    values = np.linspace(0, 1, 200)
    z, _ = oracle.sample(200, fixed_factor=2, fixed_value=values)
    assert np.array_equal(z[:, 2], values)
    # no explicit value: one marginal draw shared by the batch
    z, _ = oracle.sample(200, fixed_factor=0)
    assert np.unique(z[:, 0]).size == 1


def test_report_json_stable():
    report = MetricReport("mig", 0.5, intermediates={"gaps": np.array([0.5, 0.25])}, seed=7)
    text = reports_to_json(report)
    assert text == reports_to_json(MetricReport("mig", 0.5, intermediates={"gaps": [0.5, 0.25]}, seed=7))
    assert '"metric": "mig"' in text
    payload = reports_to_json([report])
    assert payload.startswith("[")


def test_every_public_name_resolves():
    namespace = {}
    exec("from disentmetrics import *", namespace)  # AttributeError for a stale name
    assert set(disentmetrics.__all__) <= set(namespace)
