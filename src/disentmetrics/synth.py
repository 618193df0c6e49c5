"""Seeded generators: stress-test oracles that fool the interventional
metrics, nonlinear constructions that fool SAP, the fixed DCI matrices,
the two-parameter informativeness family, and sanity datasets for
property checks and population studies.

All generators are bit-reproducible from (params, seed); sampling uses
numpy's PCG64 generator throughout.
"""

import contextlib
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .core import (
    DEFAULT_SEED,
    InformativenessMatrix,
    RepresentationDataset,
    RepresentationOracle,
    UsageError,
    _in_range,
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
    raise UsageError(f"unknown DCI matrix case {case!r} (known: {', '.join(DCI_MATRIX_CASES)})")


def gen_parametric_matrix(eps, eps1):
    """Two-factor, three-latent informativeness family with unit factor
    entropies: latent 1 carries factor 1 at strength eps, latent 3 carries
    factor 2 at eps, latent 2 carries both factors at strength eps1.

    Closed forms: 3CharM = eps, MIG = |eps - eps1|, and DCI on the same
    matrix equals eps / (eps + eps1) when eps + eps1 > 0.
    """
    _in_range("eps", eps, 0, 1)
    _in_range("eps1", eps1, 0, 1)
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
    ``n_factors`` below 2 or a negative or non-finite ``noise_std`` raises
    UsageError."""
    _param("disentangled", "K", n_factors)
    _param("disentangled", "noise_std", noise_std)
    if map_kind not in ("linear", "cubic"):
        raise UsageError(f"unknown map kind {map_kind!r}")
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
    c = z @ M(level)^T over U[-1,1] factors. A ``level`` outside [0, 1] or
    ``n_factors`` below 2 raises UsageError."""
    _param("entangled", "level", level)
    _param("entangled", "K", n_factors)
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
    "mig-vs-3charm": ([[1.0, 0.0], [0.95, 0.0], [0.0, 1.0], [0.0, 0.95]], [[0.8, 0.3], [0.3, 0.8]]),
    "dci-vs-3charm": ([[0.8, 0.15], [0.15, 0.8]], [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.51, 0.49]]),
}
COMPARISON_CASES = tuple(_COMPARISON_PAIRS)


def gen_comparison_matrices(case):
    """Fixed matrix pairs on which two metrics rank the representations in
    opposite orders.

    ``mig-vs-3charm``: A has one perfect carrier per factor plus a nearly
    identical redundant copy (gap collapses, assignments do not); B has
    compact but cross-contaminated carriers. MIG prefers B, 3CharM prefers A.

    ``dci-vs-3charm``: A has a clean-but-imperfect carrier per factor; B has
    several one-hot latents all on the same factor plus one fully mixed row,
    leaving the other factor uncovered. DCI prefers B, 3CharM prefers A.
    """
    if case not in _COMPARISON_PAIRS:
        raise UsageError(f"unknown comparison case {case!r} (known: {', '.join(COMPARISON_CASES)})")
    return tuple(InformativenessMatrix(values, np.ones(2)) for values in _COMPARISON_PAIRS[case])


# ---------------------------------------------------------------------------
# Generator registry (the `gen` CLI subcommand and population builders)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSpec:
    """Name + parameters + (seed, n) identifying one generated object.

    Valid by construction: an unknown generator, a parameter it does not
    read, or a value outside the parameter's type and range (see
    :func:`_param`; ``n`` and ``seed`` included) raises UsageError here.
    ``params`` (read-only), ``seed`` and ``n`` hold the cast values (a flag
    is a bool)."""

    name: str
    params: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    n: int = 10000

    def __post_init__(self):
        name = self.name
        if name not in GENERATORS:
            raise UsageError(f"unknown generator {name!r} (known: {', '.join(sorted(GENERATORS))})")
        defaults = GENERATORS[name][0]
        for key in self.params:
            if key not in defaults:
                known = ", ".join(defaults) or "none"
                raise UsageError(f"unknown parameter {key!r} for generator {name!r} (known: {known})")
        params = {key: _param(name, key, value) for key, value in self.params.items()}
        object.__setattr__(self, "params", MappingProxyType(params))
        object.__setattr__(self, "n", _param(name, "n", self.n))
        object.__setattr__(self, "seed", _param(name, "seed", self.seed))

    def __reduce__(self):  # rebuilt, and so checked, from a plain dict: a read-only view does not pickle
        return type(self), (self.name, dict(self.params), self.seed, self.n)

    def label(self):
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})#seed={self.seed},n={self.n}"


def parse_spec_string(text, seed=DEFAULT_SEED, n=GeneratorSpec.n):
    """Parse ``name:key=value,key=value`` into a GeneratorSpec, which checks
    it; ``seed`` and ``n`` keys override the defaults."""
    name, _, tail = text.partition(":")
    params = {}
    if tail:
        for item in tail.split(","):
            if "=" not in item:
                raise UsageError(f"bad generator parameter {item!r} (expected key=value)")
            key, value = item.split("=", 1)
            try:
                value = int(value)
            except ValueError:
                with contextlib.suppress(ValueError):  # text that is no number stays text: the spec names its key
                    value = float(value)  # a decimal point, an exponent, nan or inf
            params[key.strip()] = value
    seed, n = params.pop("seed", seed), params.pop("n", n)
    return GeneratorSpec(name=name, params=params, seed=seed, n=n)


def _param(name, key, value):
    """``value`` of parameter ``key`` of generator ``name`` in the type of its default (``n`` and
    ``seed`` are integers), if it lies in its :data:`PARAM_RANGES` entry; UsageError naming the parameter
    and the generator otherwise. A whole number written as a float (``K=3.0``, ``2e0``) is an integer."""
    kind = type(GENERATORS[name][0].get(key, 0))
    if kind is not float and isinstance(value, float) and value.is_integer():
        value = int(value)
    low, high = {"n": (1, None), "seed": (0, None), **PARAM_RANGES.get(name, {})}[key]
    whole = kind is not float
    return kind(_in_range(f"{name} parameter {key}", value, low, high, whole=whole, count=whole and key != "seed"))


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

# generator -> (least, greatest or None) of each parameter it reads; every generator's n is at
# least 1 and its seed at least 0
PARAM_RANGES = {"identity": {"K": (1, None)}, "noise": {"K": (1, None), "N": (1, None)},
                "disentangled": {"K": (2, None), "noise_std": (0, None), "cubic": (0, 1)},
                "entangled": {"level": (0, 1), "K": (2, None)}}

ORACLE_GENERATOR_NAMES = ("betavae-counterexample", "factorvae-counterexample", "identity", "noise")


def build(spec):
    """Instantiate a GeneratorSpec, valid by construction; returns (object,
    ground-truth metadata)."""
    defaults, builder = GENERATORS[spec.name]
    return builder({**defaults, **spec.params}, spec)


def dataset_from_spec(spec):
    """Like :func:`build` but always materializes a dataset (oracles are
    sampled at the spec's n)."""
    obj, info = build(spec)
    if isinstance(obj, RepresentationOracle):
        return obj.sample_dataset(spec.n), info
    return obj, info
