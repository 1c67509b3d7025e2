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

:func:`candidate_scores` scores one ledger or a stack of them, one row
per run of a lockstep batch; a row takes the same arithmetic either way.
Under weighted Gini the runs' ledgers are broadcast into one (R, N, N)
array of candidate ledgers, which is sorted in place and dotted with the
weights in one stacked matmul.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg

WEIGHTED_GINI = "weighted-gini"
NSW = "nsw"
LOG_NSW = "log-nsw"
TARGETED = "targeted"
KINDS = (WEIGHTED_GINI, NSW, LOG_NSW, TARGETED)
POSITIVE_LEDGER_KINDS = (NSW, LOG_NSW)


def _real_vector(value) -> np.ndarray | None:
    """value as a float array, or None unless its entries are real numbers
    and not bools or strings, which the scalar fields' rule rejects too."""
    try:
        vector = np.asarray(value)
    except ValueError:  # a ragged nesting
        return None
    return vector.astype(np.float64, copy=False) if vector.dtype.kind in "iuf" else None


def weights_from_rho(rho: float, n_agents: int) -> np.ndarray:
    """Geometric weights (1, rho, rho^2, ...) of length n_agents.

    rho must lie in [0, 1] and n_agents be >= 1. rho = 1 yields all ones
    and rho = 0 yields (1, 0, ..., 0), under which the goodness is min(u).
    GoodnessSpec.rho lies in (0, 1], so the CLI gives a spec rho = 0 as
    these explicit weights.
    """
    return np.power(float(rho), np.arange(n_agents, dtype=np.float64))


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
        # one line per broken field, its first broken rule, for a caller to report
        problems = []
        if self.kind == WEIGHTED_GINI:
            if (self.weights is None) == (self.rho is None):
                problems.append("weighted-gini requires exactly one of weights or rho")
            elif self.weights is not None:
                w = _real_vector(self.weights)
                if w is None:
                    problems.append(f"weights must be real numbers, got {self.weights!r}")
                elif w.ndim != 1 or w.size < 1:
                    problems.append("weights must be a non-empty 1-d array")
                elif not np.all(np.isfinite(w)):
                    problems.append("weights must be finite")
                elif w[0] <= 0.0:
                    problems.append("leading weight must be positive")
                elif np.any(w < 0.0) or np.any(w > 1.0):
                    problems.append("weights must lie in [0, 1]")
                elif np.any(np.diff(w) > 0.0):
                    problems.append("weights must be non-increasing")
                self.weights = w
            elif not linalg.is_real(self.rho):
                problems.append(f"rho must be a real number, got {self.rho!r}")
            elif not 0.0 < self.rho <= 1.0:
                problems.append(f"rho must lie in (0,1], got {self.rho!r}")
            else:
                self.rho = float(self.rho)
            if self.target_ratios is not None:
                problems.append("target_ratios is only valid for the targeted kind")
        elif self.kind == TARGETED:
            if self.target_ratios is None:
                problems.append("targeted goodness requires target-ratios")
            if self.weights is not None or self.rho is not None:
                problems.append("weights/rho are only valid for weighted-gini")
            if self.target_ratios is not None:
                r = _real_vector(self.target_ratios)
                if r is None:
                    problems.append(
                        f"target_ratios must be real numbers, got {self.target_ratios!r}")
                elif r.ndim != 1 or r.size < 1:
                    problems.append("target_ratios must be a non-empty 1-d array")
                elif not np.all(np.isfinite(r)) or np.any(r <= 0.0):
                    problems.append("target_ratios must be finite and positive")
                elif abs(float(r.sum()) - 1.0) > 1e-9:
                    problems.append(f"target_ratios must sum to 1, got {float(r.sum())!r}")
                else:
                    self.target_ratios = r
                    self._priorities = r / r.min()
        elif self.weights is not None or self.rho is not None or self.target_ratios is not None:
            problems.append(f"{self.kind} takes no weights, rho or target_ratios")
        if problems:
            raise ValueError("\n".join(problems))

    def resolved_weights(self, n_agents: int) -> np.ndarray:
        """Weighted Gini's weight vector of length n_agents, cached; explicit
        weights are returned as given (RunConfig checks length)."""
        if self.weights is not None:
            return self.weights
        if self._weights_cache is None or self._weights_cache[0] != n_agents:
            self._weights_cache = (n_agents, weights_from_rho(self.rho, n_agents))
        return self._weights_cache[1]


def _require_positive(spec: GoodnessSpec, u: np.ndarray) -> None:
    if spec.kind in POSITIVE_LEDGER_KINDS:
        low = float(u.min())
        if low <= 0.0:
            raise linalg.NumericError(
                f"{spec.kind} requires strictly positive utilities, got min {low!r}"
            )


def candidate_scores(
    spec: GoodnessSpec,
    totals: np.ndarray,
    adds: np.ndarray,
) -> np.ndarray:
    """Candidate goodness values, one per agent, for one ledger or a stack
    of them.

    totals and adds are float arrays of shape (..., n_agents), one row per
    run, adds >= 0, and any spec vector has length n_agents (RunConfig
    checks it). Entry [..., n] is the goodness of that row's totals with
    adds[..., n] granted to agent n; a row takes the same arithmetic alone
    or in a stack. Non-positive totals under nsw or log-nsw raise
    :class:`linalg.NumericError`, a mid-run fault, and so does an NSW
    product that leaves the float range: a ledger's falling to the
    smallest normal float or below, or a ledger's or a candidate's
    overflowing. There the argmax would be arbitrary. A NaN add (a NaN
    estimate) leaves its candidate NaN for the caller to catch.
    """
    _require_positive(spec, totals)
    n = totals.shape[-1]
    if spec.kind == WEIGHTED_GINI:
        # row n of a run's candidate matrix is its ledger with agent n's add
        mat = np.empty(totals.shape + (n,))
        mat[...] = totals[..., None, :]
        np.add(totals, adds, out=mat.reshape(totals.shape[:-1] + (n * n,))[..., :: n + 1])
        mat.sort(axis=-1)
        return mat @ spec.resolved_weights(n)
    if spec.kind == NSW:
        # a NaN add passes through as a NaN candidate, raising no flag
        try:
            with np.errstate(over="raise"):
                product = np.prod(totals, axis=-1, keepdims=True)
                if float(product.min()) > np.finfo(float).tiny:
                    return product / totals * (totals + adds)
        except FloatingPointError:
            pass
        raise linalg.NumericError(
            f"nsw products of {n} totals in "
            f"[{totals.min():.3g}, {totals.max():.3g}] leave the float range; "
            "log-nsw ranks candidates the same way"
        )
    if spec.kind == LOG_NSW:
        return np.sum(np.log(totals), axis=-1, keepdims=True) + np.log1p(adds / totals)
    if n == 1:
        return (totals + adds) / spec._priorities
    # every candidate but the run's lowest-ratio agent keeps that lowest ratio
    ratios = totals / spec._priorities
    two_smallest = np.partition(ratios, 1, axis=-1)
    lowest = np.argmin(ratios, axis=-1)[..., None]
    floor = np.where(np.arange(n) == lowest, two_smallest[..., 1:2], two_smallest[..., :1])
    return np.minimum(floor, (totals + adds) / spec._priorities)
