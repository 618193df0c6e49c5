import numpy as np
import pytest

from disentmetrics import synth
from disentmetrics.core import (
    FactorColumn,
    ImportanceMatrix,
    InformativenessMatrix,
    LatentColumn,
    MetricReport,
    ParseError,
    RepresentationDataset,
    SchemaError,
    ValidationError,
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
    assert ds.factors[0].kind == "discrete" and ds.factors[0].cardinality == 3
    assert ds.factors[0].name == "z_1" and ds.latents[0].name == "c_1"


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
    assert ds.factors[0].name == "z_1" and ds.factors[0].cardinality == 2
    schema = load_schema(schema_path)
    assert list(schema) == ["c_1", "z_1"]


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


def test_roundtrip_bit_identical(tmp_path):
    ds = synth.gen_sap_nonlinear(n=10000, seed=3)
    path = tmp_path / "d.csv"
    save_dataset(ds, str(path))
    back = load_dataset(str(path))
    assert np.array_equal(back.factor_matrix(), ds.factor_matrix())
    assert np.array_equal(back.latent_matrix(), ds.latent_matrix())
    assert back.factor_names == ds.factor_names
    assert back.latent_names == ds.latent_names


def test_validate_passes_well_formed():
    ds = RepresentationDataset(
        (FactorColumn("z1", [0.0, 1.0], kind="discrete", cardinality=2),),
        (LatentColumn("c1", [0.5, 0.25]),),
    )
    assert validate(ds) == []


def test_validate_length_mismatch():
    ds = RepresentationDataset(
        (FactorColumn("z1", [0.0, 1.0]),),
        (LatentColumn("c1", [0.5, 0.25, 0.75]),),
    )
    issues = validate(ds)
    assert any("length mismatch" in str(i) for i in issues)


def test_validate_discrete_out_of_range_names_cell():
    ds = RepresentationDataset(
        (FactorColumn("z1", [0.0, 5.0, 1.0], kind="discrete", cardinality=3),),
        (LatentColumn("c1", [0.5, 0.25, 0.1]),),
    )
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


def test_informativeness_matrix_invariants():
    with pytest.raises(ValueError):
        InformativenessMatrix([[-0.1]], [1.0])
    with pytest.raises(ValueError):
        InformativenessMatrix([[1.5]], [1.0], provenance="mutual_information")
    # external provenance is not entropy-bounded
    InformativenessMatrix([[1.5]], [1.0], provenance="external")
    with pytest.raises(ValueError):
        InformativenessMatrix([[0.1]], [1.0], provenance="nonsense")


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
