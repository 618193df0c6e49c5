import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest

from disentmetrics import synth
from disentmetrics.core import RepresentationOracle, validate
from disentmetrics.estimators import informativeness_from_mi, mutual_information, discretize
from disentmetrics.metrics import mig_score, sap_score, three_charm_score
from disentmetrics.synth import GeneratorSpec, parse_spec_string


def test_generators_bit_reproducible():
    for name, params in (
        ("sap-nonlinear", {}),
        ("sap-duplicate", {}),
        ("disentangled", {"K": 3}),
        ("entangled", {"level": 0.5, "K": 3}),
        ("betavae-counterexample", {}),
        ("factorvae-counterexample", {}),
    ):
        spec = GeneratorSpec(name, params, seed=13, n=300)
        a, _ = synth.dataset_from_spec(spec)
        b, _ = synth.dataset_from_spec(spec)
        assert np.array_equal(a.factor_matrix(), b.factor_matrix()), name
        assert np.array_equal(a.latent_matrix(), b.latent_matrix()), name
        assert validate(a) == []


def test_betavae_counterexample_copy_probabilities():
    oracle = synth.gen_betavae_counterexample(seed=2)
    z, c = oracle.sample(10000)
    frac_c1_is_z1 = np.mean(c[:, 0] == z[:, 0])
    assert abs(frac_c1_is_z1 - 0.5) < 0.02
    assert np.mean(c[:, 1] == z[:, 0]) < 0.02  # p2 gives factor 1 weight 0


def _pinned_draw(oracle, n, factor=None, value=None):
    """n (z, c) pairs with ``factor`` held at ``value`` (at one marginal draw
    shared by the rows when None), from the oracle's two primitives."""
    if factor is not None and value is None:
        value = oracle.sample_factors(1)[0, factor]
    z = oracle.sample_factors(n)
    if factor is not None:
        z[:, factor] = value
    return z, oracle.encode(z)


def test_betavae_counterexample_respects_intervention():
    oracle = synth.gen_betavae_counterexample(seed=2)
    z, c = _pinned_draw(oracle, 500, 2, 0.75)
    assert (z[:, 2] == 0.75).all()
    # latent k copies factor 2 with probability BETAVAE_MIX[k, 2] = 0, 0.5, 0.5
    copied = (c == 0.75).mean(axis=0)
    assert copied[0] == 0.0 and abs(copied[1] - 0.5) < 0.1 and abs(copied[2] - 0.5) < 0.1
    assert ((c == z[:, :1]) | (c == z[:, 1:2]) | (c == z[:, 2:])).all()


def _ref_betavae_encode(rng, z):
    """The counterexample encoder with one rng.choice call per latent, kept
    verbatim as the reference for the cumulative-probability search."""
    n_rows = z.shape[0]
    c = np.empty((n_rows, 3))
    for k in range(3):
        choice = rng.choice(3, size=n_rows, p=synth.BETAVAE_MIX[k])
        c[:, k] = z[np.arange(n_rows), choice]
    return c


@pytest.mark.parametrize("n", [1, 2, 127, 5000])
def test_betavae_counterexample_encoder_matches_rng_choice(n):
    oracle = synth.gen_betavae_counterexample(seed=n)
    reference = RepresentationOracle(
        3, 3, lambda rng, m: rng.uniform(0.0, 1.0, size=(m, 3)), _ref_betavae_encode, seed=n)
    for args in ((n,), (n, 1), (n, 2, 0.25), (n,)):
        z, c = _pinned_draw(oracle, *args)
        z_ref, c_ref = _pinned_draw(reference, *args)
        assert np.array_equal(z.view(np.uint64), z_ref.view(np.uint64))
        assert np.array_equal(c.view(np.uint64), c_ref.view(np.uint64))
        assert oracle._rng.bit_generator.state == reference._rng.bit_generator.state


class _FixedDraws:
    """An rng stand-in whose random(shape) fills each row with the given draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws)

    def random(self, shape):
        return np.broadcast_to(self.draws, shape).copy()


def test_betavae_counterexample_encoder_at_cdf_boundaries():
    draws = [0.0, 0.5, np.nextafter(0.5, 0), np.nextafter(0.5, 1), np.nextafter(1, 0)]
    z = np.tile([0.0, 1.0, 2.0], (len(draws), 1))  # a copied factor reads as its index
    encode = synth.gen_betavae_counterexample()._encoder
    choice = encode(_FixedDraws(draws), z)
    searched = np.stack([synth._BETAVAE_CDF[k].searchsorted(draws, side="right") for k in range(3)], axis=1)
    assert np.array_equal(choice, searched)
    z = np.random.default_rng(0).random((len(draws), 3))
    assert np.array_equal(encode(_FixedDraws(draws), z), np.take_along_axis(z, searched, axis=1))


def test_factorvae_counterexample_variances():
    ds = synth.gen_factorvae_counterexample(seed=2).sample_dataset(10000)
    variances = ds.latent_matrix().var(axis=0)
    # quadratic form of the mixing rows: 0.25+0.16+0.25, same, 0.16+0.16+0.36
    expected = np.array([0.66, 0.66, 0.68])
    assert np.all(np.abs(variances - expected) / expected < 0.05)


def test_sap_nonlinear_range():
    ds = synth.gen_sap_nonlinear(n=2000, seed=2)
    c = ds.latent_matrix()
    assert c.min() >= -1.0 and c.max() <= 1.0


def test_sap_nonlinear_mig_stays_high():
    ds = synth.gen_sap_nonlinear(n=10000, seed=11)
    assert mig_score(informativeness_from_mi(ds)).score >= 0.85


def test_sap_duplicate_carries_information():
    ds = synth.gen_sap_duplicate(n=10000, seed=11)
    c2 = discretize(ds.latents[:, 1])
    z1 = discretize(ds.factors[:, 0])
    assert mutual_information(c2, z1) > 0.1
    assert three_charm_score(informativeness_from_mi(ds)).score >= 0.8


def test_dci_matrix_row_sums():
    m = synth.gen_dci_matrix("eleven_factor")
    assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        synth.gen_dci_matrix("three_factor")


def test_parametric_matrix_values():
    m = synth.gen_parametric_matrix(0.9, 0.1)
    assert three_charm_score(m).score == pytest.approx(0.9, abs=1e-9)
    assert mig_score(m).score == pytest.approx(0.8, abs=1e-9)


def test_parametric_matrix_zero_point():
    m = synth.gen_parametric_matrix(0.0, 0.0)
    assert three_charm_score(m).score == 0.0
    assert mig_score(m).score == 0.0


def test_parametric_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        synth.gen_parametric_matrix(1.5, 0.0)
    with pytest.raises(ValueError):
        synth.gen_parametric_matrix(0.5, -0.1)


def test_disentangled_perfect_capture():
    ds = synth.gen_disentangled(3, n=8000, noise_std=0.0, map_kind="linear", seed=4)
    m = informativeness_from_mi(ds)
    assert mig_score(m).score >= 0.95
    assert three_charm_score(m).score >= 0.95


def test_disentangled_cubic_hurts_sap():
    linear = sap_score(synth.gen_disentangled(3, n=8000, map_kind="linear", seed=4)).score
    cubic = sap_score(synth.gen_disentangled(3, n=8000, map_kind="cubic", seed=4)).score
    # moment oracle for the cubic map: corr^2(z, z^3) = (1/5)^2/((1/3)(1/7)) = 21/25
    assert cubic == pytest.approx(21 / 25, abs=0.03)
    assert cubic < linear - 0.1


def test_disentangled_metadata_matches_recovered_assignment():
    ds, info = synth.gen_disentangled(4, n=8000, map_kind="cubic", seed=4, return_info=True)
    perm = info["permutation"]  # c_i carries z_perm[i]
    report = three_charm_score(informativeness_from_mi(ds))
    best = report.intermediates["best_latent_per_factor"]
    for j in range(4):
        assert perm[best[j]] == j


def test_entangled_family_endpoints():
    low = synth.gen_entangled_family(0.0, n_factors=4, n=4000, seed=1)
    high = synth.gen_entangled_family(1.0, n_factors=4, n=4000, seed=1)
    assert three_charm_score(informativeness_from_mi(low)).score >= 0.9
    assert three_charm_score(informativeness_from_mi(high)).score <= 0.3


def test_entangled_family_trend():
    levels = (0.0, 0.25, 0.5, 0.75, 1.0)
    means = []
    for level in levels:
        scores = [
            three_charm_score(informativeness_from_mi(
                synth.gen_entangled_family(level, n_factors=4, n=2000, seed=seed))).score
            for seed in range(10)
        ]
        means.append(np.mean(scores))
    # non-increasing on average; the fully mixed tail is flat, so allow
    # sampling wobble there
    for a, b in zip(means, means[1:]):
        assert b <= a + 0.05
    assert means[0] >= 0.9 and means[-1] <= 0.3


def test_comparison_matrices_unknown_case():
    with pytest.raises(ValueError):
        synth.gen_comparison_matrices("mig_vs_sap")


@pytest.mark.parametrize("name, params, message", [
    ("entangled", {"levle": 0.9, "K": 3}, "unknown parameter 'levle' for generator 'entangled' (known: level, K)"),
    ("sap-nonlinear", {"K": 2}, "unknown parameter 'K' for generator 'sap-nonlinear' (known: none)"),
    ("disentangled", {"cubic": 2}, "disentangled parameter cubic must lie in [0, 1], got 2"),
    ("disentangled", {"cubic": 0.5}, "disentangled parameter cubic must be an integer, got 0.5"),
])
def test_build_rejects_parameters_the_generator_does_not_read(name, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        synth.build(GeneratorSpec(name, params, n=50))


@pytest.mark.parametrize("name, params, message", [
    ("entangled", {"K": 3.7}, "entangled parameter K must be an integer, got 3.7"),
    ("noise", {"K": 2.9, "N": 1}, "noise parameter K must be an integer, got 2.9"),
    ("noise", {"N": 1.5}, "noise parameter N must be an integer, got 1.5"),
    ("disentangled", {"K": float("inf")}, "disentangled parameter K must be an integer, got inf"),
    ("identity", {"K": float("nan")}, "identity parameter K must be an integer, got nan"),
])
def test_build_rejects_a_non_integral_integer_parameter(name, params, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synth.build(GeneratorSpec(name, params, n=50))


@pytest.mark.parametrize("name, params, n, message", [
    ("identity", {"K": 0}, 50, "identity parameter K must be at least 1, got 0"),
    ("noise", {"N": -2}, 50, "noise parameter N must be at least 1, got -2"),
    ("entangled", {"K": 0.0}, 50, "entangled parameter K must be at least 2, got 0"),
    ("sap-nonlinear", {}, 0, "sap-nonlinear parameter n must be at least 1, got 0"),
    ("identity", {}, -3, "identity parameter n must be at least 1, got -3"),
    ("disentangled", {"noise_std": -0.5}, 50, "disentangled parameter noise_std must be at least 0, got -0.5"),
    ("disentangled", {"noise_std": float("inf")}, 50, "disentangled parameter noise_std must be a finite number, got inf"),
    ("disentangled", {"noise_std": float("nan")}, 50, "disentangled parameter noise_std must be a finite number, got nan"),
    ("entangled", {"level": 1.5}, 50, "entangled parameter level must lie in [0, 1], got 1.5"),
    ("entangled", {"level": -1}, 50, "entangled parameter level must lie in [0, 1], got -1"),
    ("entangled", {"level": float("nan")}, 50, "entangled parameter level must be a finite number, got nan"),
    ("disentangled", {"K": 1}, 50, "disentangled parameter K must be at least 2, got 1"),
    ("entangled", {"K": 1}, 50, "entangled parameter K must be at least 2, got 1"),
])
def test_build_rejects_a_parameter_out_of_range(name, params, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synth.build(GeneratorSpec(name, params, n=n))


@pytest.mark.parametrize("noise_std", [-1.0, float("nan"), float("inf")])
def test_gen_disentangled_rejects_a_negative_or_non_finite_noise_std(noise_std):
    bound = "be at least 0" if noise_std < 0 else "be a finite number"
    message = f"disentangled parameter noise_std must {bound}, got {noise_std!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synth.gen_disentangled(2, n=10, noise_std=noise_std)


def test_build_accepts_the_ends_of_each_range():
    for name, params in (("identity", {"K": 1}), ("noise", {"K": 1, "N": 1}), ("disentangled", {"noise_std": 0}),
                         ("disentangled", {"K": 2}), ("entangled", {"K": 2}),
                         ("entangled", {"level": 0}), ("entangled", {"level": 1.0})):
        synth.dataset_from_spec(GeneratorSpec(name, params, n=1))


def test_parse_spec_string_reads_nan_and_inf_as_floats():
    # each is out of range, so the spec refuses it, quoting the float it was read as
    for text, message in (("disentangled:noise_std=inf,K=3", "noise_std must be a finite number, got inf"),
                          ("entangled:level=nan", "level must be a finite number, got nan"),
                          ("entangled:level=-inf,K=2e0", "level must be a finite number, got -inf")):
        with pytest.raises(ValueError, match=f"parameter {re.escape(message)}$"):
            parse_spec_string(text)
    spec = parse_spec_string("entangled:level=1,K=2e0")
    assert spec.params == {"level": 1.0, "K": 2} and type(spec.params["K"]) is int


def test_build_casts_each_parameter_to_its_declared_type():
    ds, info = synth.build(GeneratorSpec("entangled", {"K": 3.0, "level": 1}, n=50))
    assert ds.n_factors == 3 and type(info["level"]) is float
    params = {"K": np.int64(2), "N": 4.0}
    spec = GeneratorSpec("noise", params, seed=np.int64(3), n=5.0)
    oracle, _ = synth.build(spec)
    assert (oracle.n_factors, oracle.n_latents) == (2, 4)
    # the spec holds the cast values, in a dict of its own, and checks every copy made of it
    assert spec.params == {"K": 2, "N": 4} and all(type(v) is int for v in spec.params.values())
    assert (spec.seed, spec.n) == (3, 5) and type(spec.seed) is int and type(spec.n) is int
    assert params == {"K": np.int64(2), "N": 4.0}
    assert GeneratorSpec("disentangled", {"cubic": 1.0}).params == {"cubic": True}
    with pytest.raises(ValueError, match="^noise parameter n must be at least 1, got 0$"):
        dataclasses.replace(spec, n=0)


@pytest.mark.parametrize("call, message", [
    (lambda: synth.gen_disentangled(1, n=10), "disentangled parameter K must be at least 2, got 1"),
    (lambda: synth.gen_entangled_family(0.5, n_factors=1, n=10), "entangled parameter K must be at least 2, got 1"),
    (lambda: synth.gen_entangled_family(1.5, n_factors=1, n=10),
     "entangled parameter level must lie in [0, 1], got 1.5"),
])
def test_generator_functions_state_their_ranges_as_the_spec_does(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_parse_spec_string_rejects_a_non_integral_seed_or_n():
    for text, message in (("identity:seed=1.9,n=3", "identity parameter seed must be an integer, got 1.9"),
                          ("identity:n=3.5", "identity parameter n must be an integer, got 3.5")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_spec_string(text)
    spec = parse_spec_string("identity:seed=2.0,n=3e1")
    assert (spec.seed, spec.n) == (2, 30) and type(spec.seed) is int and type(spec.n) is int


def test_a_spec_keeps_its_checked_parameters_read_only():
    spec = GeneratorSpec("entangled", {"K": 3.0, "level": 1}, seed=4, n=10)
    with pytest.raises(TypeError):
        spec.params["K"] = 2.5  # once built in numpy's AxisError, past every check
    with pytest.raises(TypeError):
        del spec.params["level"]
    for back in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert back == spec and back.params == {"K": 3, "level": 1.0} and back.label() == spec.label()
        with pytest.raises(TypeError):
            back.params["K"] = 2
    assert np.array_equal(synth.dataset_from_spec(back)[0].latents, synth.dataset_from_spec(spec)[0].latents)


def test_every_parameter_of_every_generator_has_a_range():
    for name, (defaults, _) in synth.GENERATORS.items():
        assert list(synth.PARAM_RANGES.get(name, {})) == list(defaults), name
    assert set(synth.PARAM_RANGES) <= set(synth.GENERATORS)


def test_build_rejects_an_unknown_generator():
    with pytest.raises(ValueError, match=re.escape("unknown generator 'nosuch' (known: betavae-counterexample, ")):
        synth.build(GeneratorSpec("nosuch"))
    with pytest.raises(ValueError, match="unknown generator"):
        synth.dataset_from_spec(GeneratorSpec("nosuch", n=50))


def test_disentangled_cubic_parameter_selects_the_map():
    for params, kind in (({}, "linear"), ({"cubic": 0}, "linear"), ({"cubic": 1}, "cubic"), ({"cubic": 1.0}, "cubic")):
        _, info = synth.build(GeneratorSpec("disentangled", params, n=50))
        assert info["map_kind"] == kind


def test_parse_spec_string():
    spec = parse_spec_string("entangled:level=0.5,K=5,n=4000", seed=7)
    assert spec.name == "entangled" and spec.params == {"level": 0.5, "K": 5}
    assert spec.n == 4000 and spec.seed == 7
    with pytest.raises(ValueError):
        parse_spec_string("nosuchgen:x=1")
    with pytest.raises(ValueError):
        parse_spec_string("entangled:level")
