"""Independent reference computations that the tests pin the package to.

None of these run inside a simulation. Each one computes a quantity the
slow, direct way, so the round loop's fast paths can be checked against it:

- :func:`evaluate`: the goodness of one utility vector, from its
  definition (sort and dot, product, log sum, min ratio);
- :func:`check_local_properties` and :func:`opposite_order_check`:
  randomized and brute-force checks of the goodness axioms;
- :func:`theoretical_bound`: the closed-form high-probability regret
  ceiling;
- :func:`inv_norm`: the Mahalanobis norm sqrt(x^T M^-1 x) of one vector;
- :func:`gini_pairwise`: the Gini coefficient from every pair's absolute
  difference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ofdsim.estimators import ConfidenceParams, alpha_t
from ofdsim.goodness import (
    LOG_NSW,
    NSW,
    TARGETED,
    WEIGHTED_GINI,
    GoodnessSpec,
    _require_positive,
)
from ofdsim.linalg import NumericError, PrecisionState


def _check_u(spec: GoodnessSpec, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a non-empty 1-d array")
    if not np.all(np.isfinite(u)):
        raise ValueError("u contains non-finite entries")
    _require_positive(spec, u)
    if spec.kind == TARGETED and spec.target_ratios.size != u.size:
        raise ValueError(
            f"target_ratios have length {spec.target_ratios.size}, expected {u.size}"
        )
    return u


def evaluate(spec: GoodnessSpec, u: np.ndarray) -> float:
    """Goodness value of the utility vector u."""
    return _value(spec, _check_u(spec, u))


def _value(spec: GoodnessSpec, u: np.ndarray) -> float:
    """evaluate on a u that has passed _check_u."""
    if spec.kind == WEIGHTED_GINI:
        w = spec.resolved_weights(u.size)
        return float(np.sort(u) @ w)
    if spec.kind == NSW:
        # reduce in sorted order so permutations of u give bit-equal results
        return float(np.prod(np.sort(u)))
    if spec.kind == LOG_NSW:
        return float(np.sum(np.log(np.sort(u))))
    return float(np.min(u / spec._priorities))


@dataclass
class PropertyReport:
    trials: int
    permutation_violations: int
    monotonicity_violations: int
    lipschitz_violations: int
    worst_lipschitz_ratio: float

    @property
    def ok(self) -> bool:
        return (
            self.permutation_violations == 0
            and self.monotonicity_violations == 0
            and self.lipschitz_violations == 0
        )


def _lipschitz_constant(spec: GoodnessSpec, coord: int, n: int, u_min: float, u_max: float) -> float:
    if spec.kind == WEIGHTED_GINI:
        return float(spec.resolved_weights(n)[0])
    if spec.kind == NSW:
        return u_max ** (n - 1)
    if spec.kind == LOG_NSW:
        return 1.0 / u_min
    return 1.0 / float(spec._priorities[coord])


def check_local_properties(
    spec: GoodnessSpec,
    u: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    u_min: float | None = None,
    u_max: float | None = None,
) -> PropertyReport:
    """Probe symmetry, monotonicity and Lipschitz bounds around u.

    Each trial draws a random permutation of u, a random single-coordinate
    increase, and a random single-coordinate move within the box
    [u_min, u_max]; violations of the respective property are counted.
    Comparisons carry a 1e-9 relative guard for round-off. u and the box
    are checked once; the vectors each trial builds from them are not.
    """
    u = _check_u(spec, u)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = u.size
    lo = float(u.min()) if u_min is None else float(u_min)
    hi = float(u.max()) if u_max is None else float(u_max)
    if not lo <= u.min() or not u.max() <= hi:
        raise ValueError("u must lie inside the [u_min, u_max] box")
    if spec.kind in (NSW, LOG_NSW) and lo <= 0.0:
        raise NumericError(f"{spec.kind} needs a positive box, got u_min={lo}")

    base = evaluate(spec, u)
    perm_bad = 0
    mono_bad = 0
    lip_bad = 0
    worst = 0.0
    scratch = u.copy()
    for _ in range(trials):
        perm = rng.permutation(n)
        if spec.kind == TARGETED:
            # priorities travel with their agents under relabeling
            permuted_spec = GoodnessSpec(TARGETED, target_ratios=spec.target_ratios[perm])
            if _value(permuted_spec, u[perm]) != base:
                perm_bad += 1
        elif _value(spec, u[perm]) != base:
            perm_bad += 1

        i = int(rng.integers(n))
        lifted = rng.uniform(u[i], hi)
        scratch[:] = u
        scratch[i] = lifted
        up = _value(spec, scratch)
        guard = 1e-9 * max(1.0, abs(base), abs(up))
        if up < base - guard:
            mono_bad += 1

        j = int(rng.integers(n))
        moved = rng.uniform(lo, hi)
        scratch[:] = u
        scratch[j] = moved
        shifted = _value(spec, scratch)
        delta = abs(moved - u[j])
        bound = _lipschitz_constant(spec, j, n, lo, hi) * delta
        guard = 1e-9 * max(1.0, abs(base), abs(shifted))
        if abs(shifted - base) > bound + guard:
            lip_bad += 1
        if delta > 0.0 and bound > 0.0:
            worst = max(worst, abs(shifted - base) / bound)

    return PropertyReport(trials, perm_bad, mono_bad, lip_bad, worst)


def opposite_order_check(w: np.ndarray, u: np.ndarray) -> bool:
    """Brute-force the rearrangement lemma: with w non-increasing, the
    ascending arrangement of u minimizes the weighted sum over all
    permutations. Limited to len(u) <= 8.
    """
    w = np.asarray(w, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if w.shape != u.shape or w.ndim != 1:
        raise ValueError("w and u must be 1-d arrays of equal length")
    if u.size > 8:
        raise ValueError("brute-force check limited to 8 entries")
    if np.any(np.diff(w) > 0.0):
        raise ValueError("w must be non-increasing")
    ascending = float(np.sort(u) @ w)
    guard = 1e-12 * max(1.0, abs(ascending))
    for perm in itertools.permutations(range(u.size)):
        if float(u[list(perm)] @ w) < ascending - guard:
            return False
    return True


def theoretical_bound(params: ConfidenceParams, d: int, w_max: float, t: int) -> float:
    """High-probability cumulative regret ceiling 2*alpha_t*w_max*
    sqrt(2*d*t*log(lam + t*L/d)); the inner log is floored at 0."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t!r}")
    inner = max(math.log(params.lam + t * params.feature_bound_l / d), 0.0)
    return 2.0 * alpha_t(params, t) * w_max * math.sqrt(2.0 * d * t * inner)


def inv_norm(state: PrecisionState, x: np.ndarray) -> float:
    """Mahalanobis-style norm sqrt(x^T M^-1 x); clamps tiny negatives to 0."""
    q = float(x @ state.m_inv @ x)
    return float(np.sqrt(max(q, 0.0)))


def gini_pairwise(u: np.ndarray) -> float:
    """Relative mean absolute difference sum_ij |u_i-u_j| / (2 N^2 mean)
    over the N x N matrix of pairwise differences."""
    return float(np.abs(u[:, None] - u[None, :]).sum()) / (2.0 * u.size * float(u.sum()))
