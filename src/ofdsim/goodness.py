"""Goodness functions over per-agent accumulated utilities.

Four kinds are supported:

- ``weighted-gini``: sort utilities ascending and take the dot product
  with a non-increasing weight vector in [0, 1]. Weights may be given
  explicitly or generated geometrically from ``rho``; rho -> 0 recovers
  the minimum (egalitarian welfare) and rho = 1 the plain sum
  (utilitarian welfare).
- ``nsw``: product of utilities (all entries must be positive). The
  usual 1/N root is dropped since it never changes an argmax.
- ``log-nsw``: sum of log utilities (all entries must be positive).
- ``targeted``: min_n u_n / p_n where the priorities p derive from
  target ratios r via p_n = r_n / min(r). Allocation keeps utilities
  close to the prescribed proportions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

WEIGHTED_GINI = "weighted-gini"
NSW = "nsw"
LOG_NSW = "log-nsw"
TARGETED = "targeted"
KINDS = (WEIGHTED_GINI, NSW, LOG_NSW, TARGETED)


class GoodnessDomainError(ValueError):
    """A utility vector lies outside the goodness function's domain."""


def weights_from_rho(rho: float, n_agents: int) -> np.ndarray:
    """Geometric weights (1, rho, rho^2, ...) of length n_agents.

    rho must lie in (0, 1]; rho = 1 yields all ones.
    """
    if not isinstance(n_agents, (int, np.integer)) or n_agents < 1:
        raise ValueError(f"n_agents must be a positive integer, got {n_agents!r}")
    if not np.isfinite(rho) or rho <= 0.0 or rho > 1.0:
        raise ValueError(
            f"rho must lie in (0, 1], got {rho!r}; for a pure-min objective pass "
            "explicit weights (1, 0, ..., 0) instead"
        )
    return np.power(float(rho), np.arange(n_agents, dtype=np.float64))


def esw_weights(n_agents: int) -> np.ndarray:
    """Weights (1, 0, ..., 0): the goodness becomes min(u)."""
    w = np.zeros(n_agents)
    w[0] = 1.0
    return w


@dataclass
class GoodnessSpec:
    kind: str
    weights: np.ndarray | None = None
    rho: float | None = None
    target_ratios: np.ndarray | None = None
    _weights_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _priorities: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == WEIGHTED_GINI:
            if (self.weights is None) == (self.rho is None):
                raise ValueError("weighted-gini requires exactly one of weights or rho")
            if self.weights is not None:
                w = np.asarray(self.weights, dtype=np.float64)
                if w.ndim != 1 or w.size < 1:
                    raise ValueError("weights must be a non-empty 1-d array")
                if not np.all(np.isfinite(w)):
                    raise ValueError("weights must be finite")
                if w[0] <= 0.0:
                    raise ValueError("leading weight must be positive")
                if np.any(w < 0.0) or np.any(w > 1.0):
                    raise ValueError("weights must lie in [0, 1]")
                if np.any(np.diff(w) > 0.0):
                    raise ValueError("weights must be non-increasing")
                self.weights = w
            else:
                if not np.isfinite(self.rho) or self.rho <= 0.0 or self.rho > 1.0:
                    raise ValueError(f"rho must lie in (0, 1], got {self.rho!r}")
                self.rho = float(self.rho)
            if self.target_ratios is not None:
                raise ValueError("target_ratios is only valid for the targeted kind")
        elif self.kind == TARGETED:
            if self.target_ratios is None:
                raise ValueError("targeted requires target_ratios")
            if self.weights is not None or self.rho is not None:
                raise ValueError("weights/rho are only valid for weighted-gini")
            r = np.asarray(self.target_ratios, dtype=np.float64)
            if r.ndim != 1 or r.size < 1:
                raise ValueError("target_ratios must be a non-empty 1-d array")
            if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
                raise ValueError("target_ratios must be finite and positive")
            if abs(float(r.sum()) - 1.0) > 1e-9:
                raise ValueError(f"target_ratios must sum to 1, got {r.sum()!r}")
            self.target_ratios = r
            self._priorities = r / r.min()
        else:
            if self.weights is not None or self.rho is not None or self.target_ratios is not None:
                raise ValueError(f"{self.kind} takes no weights, rho or target_ratios")

    def resolved_weights(self, n_agents: int) -> np.ndarray:
        """Weight vector of length n_agents (weighted-gini only), cached;
        explicit weights are returned as given (RunConfig checks length)."""
        if self.kind != WEIGHTED_GINI:
            raise ValueError(f"{self.kind} has no weight vector")
        if self.weights is not None:
            return self.weights
        if self._weights_cache is None or self._weights_cache[0] != n_agents:
            self._weights_cache = (n_agents, weights_from_rho(self.rho, n_agents))
        return self._weights_cache[1]


def _require_positive(spec: GoodnessSpec, u: np.ndarray) -> None:
    if spec.kind in (NSW, LOG_NSW) and np.any(u <= 0.0):
        raise GoodnessDomainError(
            f"{spec.kind} requires strictly positive utilities, got min {float(u.min())!r}"
        )


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
    u = _check_u(spec, u)
    if spec.kind == WEIGHTED_GINI:
        w = spec.resolved_weights(u.size)
        return float(np.sort(u) @ w)
    if spec.kind == NSW:
        # reduce in sorted order so permutations of u give bit-equal results
        return float(np.prod(np.sort(u)))
    if spec.kind == LOG_NSW:
        return float(np.sum(np.log(np.sort(u))))
    return float(np.min(u / spec._priorities))


def candidate_scores(
    spec: GoodnessSpec,
    totals: np.ndarray,
    adds: np.ndarray,
) -> np.ndarray:
    """Vector of candidate goodness values, one per agent.

    Entry n equals evaluate on totals with adds[n] granted to agent n.
    This is the round-loop fast path: totals and adds are float arrays of
    shape (n_agents,), adds >= 0, and any spec vector has length n_agents
    (RunConfig checks it). Non-positive totals under nsw or log-nsw, and
    an NSW product that overflows to inf or underflows to 0, raise
    :class:`GoodnessDomainError`, since the argmax would be arbitrary.
    """
    _require_positive(spec, totals)
    if spec.kind == WEIGHTED_GINI:
        n = totals.size
        mat = np.tile(totals, (n, 1))
        mat[np.arange(n), np.arange(n)] += adds
        mat.sort(axis=1)
        return mat @ spec.resolved_weights(n)
    if spec.kind == NSW:
        with np.errstate(over="ignore"):
            values = np.prod(totals) / totals * (totals + adds)
        if not np.all(np.isfinite(values) & (values > 0.0)):
            raise GoodnessDomainError(
                f"nsw candidate products of {totals.size} totals in "
                f"[{totals.min():.3g}, {totals.max():.3g}] leave the float range; "
                "log-nsw ranks candidates the same way"
            )
        return values
    if spec.kind == LOG_NSW:
        return np.sum(np.log(totals)) + np.log1p(adds / totals)
    ratios = totals / spec._priorities
    if ratios.size == 1:
        return (totals + adds) / spec._priorities
    two_smallest = np.partition(ratios, 1)[:2]
    floor = np.full(ratios.size, two_smallest[0])
    floor[np.argmin(ratios)] = two_smallest[1]
    return np.minimum(floor, (totals + adds) / spec._priorities)


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
    Comparisons carry a 1e-9 relative guard for round-off.
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
        raise GoodnessDomainError(f"{spec.kind} needs a positive box, got u_min={lo}")

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
            if evaluate(permuted_spec, u[perm]) != base:
                perm_bad += 1
        elif evaluate(spec, u[perm]) != base:
            perm_bad += 1

        i = int(rng.integers(n))
        lifted = rng.uniform(u[i], hi)
        scratch[:] = u
        scratch[i] = lifted
        up = evaluate(spec, scratch)
        guard = 1e-9 * max(1.0, abs(base), abs(up))
        if up < base - guard:
            mono_bad += 1

        j = int(rng.integers(n))
        moved = rng.uniform(lo, hi)
        scratch[:] = u
        scratch[j] = moved
        shifted = evaluate(spec, scratch)
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
