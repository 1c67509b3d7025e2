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

from dataclasses import dataclass, field

import numpy as np

WEIGHTED_GINI = "weighted-gini"
NSW = "nsw"
LOG_NSW = "log-nsw"
TARGETED = "targeted"
KINDS = (WEIGHTED_GINI, NSW, LOG_NSW, TARGETED)
POSITIVE_LEDGER_KINDS = (NSW, LOG_NSW)


class GoodnessDomainError(ValueError):
    """A utility vector lies outside the goodness function's domain."""


def weights_from_rho(rho: float, n_agents: int) -> np.ndarray:
    """Geometric weights (1, rho, rho^2, ...) of length n_agents.

    rho must lie in (0, 1], which GoodnessSpec checks, and n_agents must
    be >= 1, which RunConfig checks; rho = 1 yields all ones.
    """
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
            raise ValueError(f"unknown goodness {self.kind!r}; choose from {', '.join(KINDS)}")
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
                    raise ValueError(f"rho must lie in (0,1], got {self.rho!r}")
                self.rho = float(self.rho)
            if self.target_ratios is not None:
                raise ValueError("target_ratios is only valid for the targeted kind")
        elif self.kind == TARGETED:
            if self.target_ratios is None:
                raise ValueError("targeted goodness requires target-ratios")
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
    if spec.kind in POSITIVE_LEDGER_KINDS and np.any(u <= 0.0):
        raise GoodnessDomainError(
            f"{spec.kind} requires strictly positive utilities, got min {float(u.min())!r}"
        )


def candidate_scores(
    spec: GoodnessSpec,
    totals: np.ndarray,
    adds: np.ndarray,
) -> np.ndarray:
    """Vector of candidate goodness values, one per agent.

    Entry n is the goodness of the ledger totals with adds[n] granted to
    agent n. totals and adds are float arrays of shape (n_agents,),
    adds >= 0, and any spec vector has length n_agents (RunConfig checks
    it). Non-positive totals under nsw or log-nsw raise
    :class:`GoodnessDomainError`, and so does an NSW product that leaves
    the float range: the ledger's falling to the smallest normal float or
    below, or the ledger's or a candidate's overflowing. There the argmax
    would be arbitrary. A NaN add (a NaN estimate) leaves its candidate
    NaN for the caller to catch.
    """
    _require_positive(spec, totals)
    if spec.kind == WEIGHTED_GINI:
        n = totals.size
        mat = np.tile(totals, (n, 1))
        mat[np.arange(n), np.arange(n)] += adds
        mat.sort(axis=1)
        return mat @ spec.resolved_weights(n)
    if spec.kind == NSW:
        # a NaN add passes through as a NaN candidate, raising no flag
        try:
            with np.errstate(over="raise"):
                product = np.prod(totals)
                if product > np.finfo(float).tiny:
                    return product / totals * (totals + adds)
        except FloatingPointError:
            pass
        raise GoodnessDomainError(
            f"nsw products of {totals.size} totals in "
            f"[{totals.min():.3g}, {totals.max():.3g}] leave the float range; "
            "log-nsw ranks candidates the same way"
        )
    if spec.kind == LOG_NSW:
        return np.sum(np.log(totals)) + np.log1p(adds / totals)
    ratios = totals / spec._priorities
    if ratios.size == 1:
        return (totals + adds) / spec._priorities
    two_smallest = np.partition(ratios, 1)[:2]
    floor = np.full(ratios.size, two_smallest[0])
    floor[np.argmin(ratios)] = two_smallest[1]
    return np.minimum(floor, (totals + adds) / spec._priorities)
