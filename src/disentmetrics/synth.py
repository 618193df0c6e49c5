"""Seeded generators: stress-test oracles that fool the interventional
metrics, nonlinear constructions that fool SAP, the fixed DCI matrices,
the two-parameter informativeness family, and sanity datasets for
property checks and population studies.

All generators are bit-reproducible from (params, seed); sampling uses
numpy's PCG64 generator throughout.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_SEED,
    InformativenessMatrix,
    RepresentationDataset,
    RepresentationOracle,
)

# Latent k copies factor j with probability BETAVAE_MIX[k, j], independently
# per sample and per latent.
BETAVAE_MIX = np.array([
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])

# Row k's cumulative probabilities, normalised by their last entry as
# Generator.choice normalises them.
_BETAVAE_CDF = BETAVAE_MIX.cumsum(axis=1) / BETAVAE_MIX.cumsum(axis=1)[:, -1:]

# Deterministic linear mixing: c = z @ FACTORVAE_MIX.T over standard normals.
FACTORVAE_MIX = np.array([
    [0.5, 0.4, 0.5],
    [0.4, 0.5, 0.5],
    [0.4, 0.4, 0.6],
])


def _uniform01(rng, n):
    # the bits and generator state of rng.uniform(0.0, 1.0, ...), at half the cost
    return rng.random((n, 3))


def _standard_normal3(rng, n):
    return rng.standard_normal(size=(n, 3))


def gen_betavae_counterexample(seed=DEFAULT_SEED):
    """Oracle whose latents are random per-sample copies of the factors.

    Three U[0,1] factors; latent k equals factor j with probability
    BETAVAE_MIX[k, j], drawn independently for every sample and latent.
    Entangled by construction, yet the fixed-factor difference signature
    stays almost perfectly classifiable.
    """

    def encode(rng, z):
        # what rng.choice(3, size=n, p=BETAVAE_MIX[k]) computes for k = 0, 1, 2:
        # _BETAVAE_CDF[k].searchsorted(u[k], side="right"), as comparisons;
        # the last CDF column is exactly 1.0 and u < 1, so it never counts
        u = rng.random((3, z.shape[0]))
        flat = np.arange(0, z.size, 3) + (u >= _BETAVAE_CDF[:, 0:1])
        flat += u >= _BETAVAE_CDF[:, 1:2]
        return z.ravel().take(flat.T)

    return RepresentationOracle(3, 3, _uniform01, encode, seed=seed)


def gen_factorvae_counterexample(seed=DEFAULT_SEED):
    """Oracle with fully entangled deterministic linear mixing of three
    standard-normal factors; every latent depends on every factor, yet the
    lowest-variance-dimension signature identifies the fixed factor."""

    def encode(rng, z):
        return z @ FACTORVAE_MIX.T

    return RepresentationOracle(3, 3, _standard_normal3, encode, seed=seed)


def gen_identity_oracle(n_factors=3, seed=DEFAULT_SEED):
    """Perfectly disentangled oracle: c = z over U[0,1] factors."""

    def sample_factors(rng, m):
        return rng.random((m, n_factors))

    def encode(rng, z):
        return z.copy()

    return RepresentationOracle(n_factors, n_factors, sample_factors, encode, seed=seed)


def gen_noise_oracle(n_factors=3, n_latents=3, seed=DEFAULT_SEED):
    """Chance-level baseline: latents are Gaussian noise independent of the
    U[0,1] factors."""

    def sample_factors(rng, m):
        return rng.random((m, n_factors))

    def encode(rng, z):
        return rng.standard_normal(size=(z.shape[0], n_latents))

    return RepresentationOracle(n_factors, n_latents, sample_factors, encode, seed=seed)


def gen_sap_nonlinear(n=10000, seed=DEFAULT_SEED):
    """Monotone but strongly nonlinear capture: two U[-1,1] factors with
    c1 = z1^15, c2 = z2^15. Information is fully preserved, linear
    predictability is not."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, size=(n, 2))
    c = z**15
    return RepresentationDataset._adopt(z, c)


def gen_sap_duplicate(n=10000, seed=DEFAULT_SEED):
    """Redundant nonlinear carrier: three latents over two U[-1,1] factors
    with c1 = z1, c2 = z1^25 + z2^25, c3 = z2. Each factor moves two
    latents, yet linear per-latent gaps stay large."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, size=(n, 2))
    c = np.column_stack([z[:, 0], z[:, 0] ** 25 + z[:, 1] ** 25, z[:, 1]])
    return RepresentationDataset._adopt(z, c)


DCI_MATRIX_CASES = ("eleven_factor", "two_factor")


def gen_dci_matrix(case):
    """The two fixed (N, K) importance arrays with known DCI scores:
    ``eleven_factor`` (11x11, diagonal 0.8, off-diagonal 0.02 -> 0.600) and
    ``two_factor`` (rows (1, 0) and (0.01, 0.09) -> 0.957)."""
    if case == "eleven_factor":
        p = np.full((11, 11), 0.02)
        np.fill_diagonal(p, 0.8)
        return p
    if case == "two_factor":
        return np.array([[1.0, 0.0], [0.01, 0.09]])
    raise ValueError(f"unknown DCI matrix case {case!r} (known: {', '.join(DCI_MATRIX_CASES)})")


def gen_parametric_matrix(eps, eps1):
    """Two-factor, three-latent informativeness family with unit factor
    entropies: latent 1 carries factor 1 at strength eps, latent 3 carries
    factor 2 at eps, latent 2 carries both factors at strength eps1.

    Closed forms: 3CharM = eps, MIG = |eps - eps1|, and DCI on the same
    matrix equals eps / (eps + eps1) when eps + eps1 > 0.
    """
    if not (0.0 <= eps <= 1.0 and 0.0 <= eps1 <= 1.0):
        raise ValueError("eps and eps1 must lie in [0, 1]")
    values = np.array([
        [eps, 0.0],
        [eps1, eps1],
        [0.0, eps],
    ])
    return InformativenessMatrix(values, np.ones(2))


def gen_disentangled(n_factors, n=10000, noise_std=0.0, map_kind="linear",
                     seed=DEFAULT_SEED, return_info=False):
    """Disentangled dataset: c_i = f(z_perm(i)) + noise with an invertible
    per-dimension map (linear or cubic) over U[-1,1] factors and a seeded
    permutation. ``return_info=True`` also returns the ground truth. A
    negative or non-finite ``noise_std`` raises ValueError."""
    if n_factors < 2:
        raise ValueError("need at least 2 factors")
    _in_range("noise_std", noise_std, "disentangled")
    if map_kind not in ("linear", "cubic"):
        raise ValueError(f"unknown map kind {map_kind!r}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_factors)
    z = rng.uniform(-1.0, 1.0, size=(n, n_factors))
    mapped = z.take(perm, axis=1)  # C-ordered, so the dataset adopts it without a copy
    if map_kind == "cubic":
        mapped = mapped**3
    c = mapped + noise_std * rng.standard_normal(size=mapped.shape) if noise_std > 0 else mapped
    dataset = RepresentationDataset._adopt(z, c)
    if return_info:
        return dataset, {"permutation": perm.tolist(), "map_kind": map_kind, "noise_std": noise_std}
    return dataset


def _random_orthogonal(n_dims, rng):
    q, r = np.linalg.qr(rng.standard_normal(size=(n_dims, n_dims)))
    return q * np.sign(np.diag(r))


def gen_entangled_family(level, n_factors=4, n=10000, seed=DEFAULT_SEED, return_info=False):
    """One-knob entanglement family: mixes the permuted identity map
    (level 0) with a dense seeded random orthogonal matrix (level 1);
    c = z @ M(level)^T over U[-1,1] factors."""
    if not 0.0 <= level <= 1.0:
        raise ValueError("level must lie in [0, 1]")
    if n_factors < 2:
        raise ValueError("need at least 2 factors")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_factors)
    p = np.eye(n_factors)[perm]
    q = _random_orthogonal(n_factors, rng)
    mixing = (1.0 - level) * p + level * q
    z = rng.uniform(-1.0, 1.0, size=(n, n_factors))
    c = z @ mixing.T
    dataset = RepresentationDataset._adopt(z, c)
    if return_info:
        return dataset, {"permutation": perm.tolist(), "mixing": mixing.tolist(), "level": level}
    return dataset


# case -> the (N, K) values of representations A and B, each with unit factor entropies
_COMPARISON_PAIRS = {
    "mig_vs_3charm": ([[1.0, 0.0], [0.95, 0.0], [0.0, 1.0], [0.0, 0.95]], [[0.8, 0.3], [0.3, 0.8]]),
    "dci_vs_3charm": ([[0.8, 0.15], [0.15, 0.8]], [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.51, 0.49]]),
}
COMPARISON_CASES = tuple(_COMPARISON_PAIRS)


def gen_comparison_matrices(case):
    """Fixed matrix pairs on which two metrics rank the representations in
    opposite orders.

    ``mig_vs_3charm``: A has one perfect carrier per factor plus a nearly
    identical redundant copy (gap collapses, assignments do not); B has
    compact but cross-contaminated carriers. MIG prefers B, 3CharM prefers A.

    ``dci_vs_3charm``: A has a clean-but-imperfect carrier per factor; B has
    several one-hot latents all on the same factor plus one fully mixed row,
    leaving the other factor uncovered. DCI prefers B, 3CharM prefers A.
    """
    if case not in _COMPARISON_PAIRS:
        raise ValueError(f"unknown comparison case {case!r} (known: {', '.join(COMPARISON_CASES)})")
    return tuple(InformativenessMatrix(np.array(values), np.ones(2)) for values in _COMPARISON_PAIRS[case])


# ---------------------------------------------------------------------------
# Generator registry (the `gen` CLI subcommand and population builders)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSpec:
    """Name + parameters + (seed, n) identifying one generated object."""

    name: str
    params: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    n: int = 10000

    def label(self):
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})#seed={self.seed},n={self.n}"


def parse_spec_string(text, seed=DEFAULT_SEED, n=GeneratorSpec.n):
    """Parse ``name:key=value,key=value`` into a GeneratorSpec; ``seed`` and
    ``n`` keys override the defaults."""
    name, _, tail = text.partition(":")
    params = {}
    if tail:
        for item in tail.split(","):
            if "=" not in item:
                raise ValueError(f"bad generator parameter {item!r} (expected key=value)")
            key, value = item.split("=", 1)
            try:
                value = int(value)
            except ValueError:
                value = float(value)  # a decimal point, an exponent, nan or inf
            params[key.strip()] = value
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r} (known: {', '.join(sorted(GENERATORS))})")
    seed = _cast(params.pop("seed", seed), int, "seed", name)
    n = _cast(params.pop("n", n), int, "n", name)
    return GeneratorSpec(name=name, params=params, seed=seed, n=n)


def _cast(value, kind, key, name):
    """``value`` as a ``kind`` (bool, int or float); a flag takes only 0 or 1
    and an integer only an integral value (ValueError otherwise)."""
    if kind is bool and value not in (0, 1):
        raise ValueError(f"{name} parameter {key} must be 0 or 1, got {value!r}")
    if kind is int and not isinstance(value, (int, np.integer)) and not float(value).is_integer():
        raise ValueError(f"{name} parameter {key} must be an integer, got {value!r}")
    return kind(value)


# (generator, size parameter) -> its least value, where that is above 1
_LEAST_SIZES = {("disentangled", "K"): 2, ("entangled", "K"): 2}


def _in_range(key, value, name):
    """``value`` if it lies in the range of parameter ``key``: sizes (K, N,
    n) at least 1 (K at least 2 for ``disentangled`` and ``entangled``),
    ``seed`` at least 0, ``noise_std`` finite and non-negative, ``level`` in
    [0, 1]; ValueError naming the parameter and the generator otherwise."""
    least = 0 if key == "seed" else _LEAST_SIZES.get((name, key), 1)
    if key in ("K", "N", "n", "seed") and value < least:
        raise ValueError(f"{name} parameter {key} must be at least {least}, got {value!r}")
    if key == "noise_std" and not 0.0 <= value < math.inf:
        raise ValueError(f"{name} parameter {key} must be finite and non-negative, got {value!r}")
    if key == "level" and not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} parameter {key} must lie in [0, 1], got {value!r}")
    return value


# name -> (every parameter the generator reads, with its default;
# builder(parameters, spec) -> (object, ground-truth metadata))
GENERATORS = {
    "betavae-counterexample": ({}, lambda p, spec: (gen_betavae_counterexample(spec.seed),
                                                    {"mix": BETAVAE_MIX.tolist()})),
    "factorvae-counterexample": ({}, lambda p, spec: (gen_factorvae_counterexample(spec.seed),
                                                      {"mix": FACTORVAE_MIX.tolist()})),
    "identity": ({"K": 3}, lambda p, spec: (gen_identity_oracle(p["K"], spec.seed), {})),
    "noise": ({"K": 3, "N": 3}, lambda p, spec: (gen_noise_oracle(p["K"], p["N"], spec.seed), {})),
    "sap-nonlinear": ({}, lambda p, spec: (gen_sap_nonlinear(spec.n, spec.seed), {})),
    "sap-duplicate": ({}, lambda p, spec: (gen_sap_duplicate(spec.n, spec.seed), {})),
    "disentangled": ({"K": 4, "noise_std": 0.0, "cubic": False}, lambda p, spec: gen_disentangled(
        p["K"], spec.n, p["noise_std"], "cubic" if p["cubic"] else "linear", spec.seed, return_info=True)),
    "entangled": ({"level": 0.5, "K": 4}, lambda p, spec: gen_entangled_family(
        p["level"], p["K"], spec.n, spec.seed, return_info=True)),
}

ORACLE_GENERATOR_NAMES = ("betavae-counterexample", "factorvae-counterexample", "identity", "noise")


def build(spec):
    """Instantiate a GeneratorSpec; returns (object, ground-truth metadata).
    An unknown generator, a parameter it does not read, a value the type
    of the parameter's default does not admit, or a value outside the
    parameter's range (see :func:`_in_range`; ``n`` and ``seed`` included) raises ValueError."""
    if spec.name not in GENERATORS:
        raise ValueError(f"unknown generator {spec.name!r} (known: {', '.join(sorted(GENERATORS))})")
    defaults, builder = GENERATORS[spec.name]
    for key in spec.params:
        if key not in defaults:
            known = ", ".join(defaults) or "none"
            raise ValueError(f"unknown parameter {key!r} for generator {spec.name!r} (known: {known})")
    params = {key: _in_range(key, _cast(value, type(defaults[key]), key, spec.name), spec.name)
              for key, value in spec.params.items()}
    _in_range("n", spec.n, spec.name)
    _in_range("seed", spec.seed, spec.name)
    return builder({**defaults, **params}, spec)


def dataset_from_spec(spec):
    """Like :func:`build` but always materializes a dataset (oracles are
    sampled at the spec's n)."""
    obj, info = build(spec)
    if isinstance(obj, RepresentationOracle):
        return obj.sample_dataset(spec.n), info
    return obj, info
