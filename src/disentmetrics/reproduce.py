"""Registry of pinned reproductions.

Each case runs one of the stress constructions under fixed seeds and
checks the resulting score against its reference target and tolerance.
``sap-duplicate`` checks its closed form, not its published target: with
U[-1,1] factors the construction's top-two linear R-squared gap is
1 - (1/27)^2 / ((1/3)(2/51)) = 0.895, which misses the published 0.98 by
about 27 seed-to-seed standard deviations. The acceptance suite asserts
both facts, so the discrepancy stays on record without a failing case.
"""

from dataclasses import dataclass

import numpy as np

from . import metrics, synth
from .core import UsageError
from .metrics import InterventionConfig

REPRO_SEEDS = (11, 22, 33)

# representative (eps, eps1) pairs for the five qualitative regimes of the
# two-parameter family, with the target {3charm, dci, mig} value multisets
PARAMETRIC_REGIMES = (
    ((0.02, 0.98), (0.0, 0.0, 1.0)),
    ((0.02, 0.0002), (0.0, 1.0, 0.0)),
    ((0.001, 0.02), (0.0, 0.0, 0.0)),
    ((0.98, 0.95), (1.0, 0.5, 0.0)),
    ((0.98, 0.02), (1.0, 1.0, 1.0)),
)


@dataclass(frozen=True)
class ReproResult:
    case: str
    seed: int | None
    expected: float
    tolerance: float
    observed: float
    passed: bool

    def row(self):
        return {
            "case": self.case,
            "seed": self.seed,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "observed": self.observed,
            "status": "PASS" if self.passed else "FAIL",
        }


def _scored(generator, metric):
    """Runner: ``metric`` on the registered ``generator``, built and scored at the seed."""

    def run(seed):
        source = synth.build(synth.GeneratorSpec(generator, seed=seed))[0]
        return metrics.evaluate_all(source, [metric], config=InterventionConfig(seed=seed))[0].score

    return run


def _dci_eleven(_seed):
    return metrics.dci_score(synth.gen_dci_matrix("eleven_factor")).score


def _dci_two(_seed):
    return metrics.dci_score(synth.gen_dci_matrix("two_factor")).score


def parametric_scores(eps, eps1):
    """(3charm, dci, mig) of the two-parameter matrix; DCI is 0.0 on the
    all-zero matrix (eps = eps1 = 0), where it is skipped."""
    reports = {r.metric: r for r in metrics.evaluate_all(synth.gen_parametric_matrix(eps, eps1))}
    dci = reports["dci"]
    return reports["3charm"].score, 0.0 if dci.skipped else dci.score, reports["mig"].score


def _parametric_closed_forms(seed):
    """Max deviation of 3CharM from eps and MIG from |eps - eps1| over 20
    seeded random parameter pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        eps, eps1 = rng.uniform(0.0, 1.0, size=2)
        three, _, mig = parametric_scores(eps, eps1)
        worst = max(worst, abs(three - eps), abs(mig - abs(eps - eps1)))
    return worst


def _parametric_table(_seed):
    """Max deviation of the sorted {3charm, dci, mig} triple from the sorted
    target multiset, over the five regimes."""
    worst = 0.0
    for (eps, eps1), targets in PARAMETRIC_REGIMES:
        observed = np.sort(parametric_scores(eps, eps1))
        expected = np.sort(np.asarray(targets, dtype=np.float64))
        worst = max(worst, float(np.abs(observed - expected).max()))
    return worst


@dataclass(frozen=True)
class ReproCase:
    name: str
    description: str
    expected: float
    tolerance: float
    runner: callable
    seeds: tuple

    def run(self):
        results = []
        for seed in self.seeds:
            observed = float(self.runner(seed))
            passed = abs(observed - self.expected) <= self.tolerance
            results.append(ReproResult(self.name, seed, self.expected, self.tolerance, observed, passed))
        return results


CASES = {
    case.name: case
    for case in (
        ReproCase("betavae-fails-p2",
                  "entangled random-copy latents still classified almost perfectly",
                  0.9967, 0.02, _scored("betavae-counterexample", "betavae"), REPRO_SEEDS),
        ReproCase("factorvae-fails-p2",
                  "entangled linear mixing scores a perfect variance signature",
                  1.0, 0.02, _scored("factorvae-counterexample", "factorvae"), REPRO_SEEDS),
        ReproCase("dci-eleven-factor",
                  "11x11 importances, diagonal 0.8 / off-diagonal 0.02",
                  0.600, 0.005, _dci_eleven, (None,)),
        ReproCase("dci-two-factor",
                  "2x2 importances, rows (1, 0) and (0.01, 0.09)",
                  0.957, 0.001, _dci_two, (None,)),
        ReproCase("sap-nonlinear",
                  "c = z^15 capture defeats linear informativeness",
                  0.32, 0.05, _scored("sap-nonlinear", "sap"), REPRO_SEEDS),
        ReproCase("sap-duplicate",
                  "redundant z^25 carrier barely dents the linear gaps; checks the "
                  "U[-1,1] closed form 1 - corr^2(z1, z1^25 + z2^25), not the published 0.98",
                  1 - (1 / 27) ** 2 / ((1 / 3) * (2 / 51)), 0.02, _scored("sap-duplicate", "sap"), REPRO_SEEDS),
        ReproCase("parametric-closed-forms",
                  "3CharM = eps and MIG = |eps - eps1| on 20 random pairs (max deviation)",
                  0.0, 1e-9, _parametric_closed_forms, (7,)),
        ReproCase("parametric-table",
                  "five-regime score pattern of the two-parameter family (max deviation)",
                  0.0, 0.1, _parametric_table, (None,)),
    )
}


def run(case="all"):
    """Run one registered case (or all) and return the ReproResult rows."""
    if case == "all":
        names = list(CASES)
    elif case in CASES:
        names = [case]
    else:
        known = ", ".join(sorted(CASES))
        raise UsageError(f"unknown reproduction case {case!r} (known: {known}, all)")
    results = []
    for name in names:
        results.extend(CASES[name].run())
    return results
