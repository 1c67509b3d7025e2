"""Incremental precision-matrix algebra for regularized least squares.

A :class:`PrecisionState` tracks M = lam*I + sum_t v_t v_t^T together
with its inverse (maintained by Sherman-Morrison rank-one updates) and
log-determinant, so confidence widths and posterior draws never pay for
a fresh factorization inside the round loop.

Setting the ``OFD_LINALG_GUARD`` environment variable to a truthy value
enables a debug guard that recomputes the inverse and log-determinant
from scratch every 1000 updates and replaces the incremental values.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

GUARD_INTERVAL = 1000


class NumericError(RuntimeError):
    """Raised when a dense factorization fails."""


@dataclass
class PrecisionState:
    dim: int
    m_mat: np.ndarray
    m_inv: np.ndarray
    log_det: float
    n_updates: int = 0


def init_precision(dim: int, lam: float) -> PrecisionState:
    """Create the state for M = lam * I.

    Parameters
    ----------
    dim : int
        Feature dimension, at least 1.
    lam : float
        Ridge regularizer, strictly positive.
    """
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if not np.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"lam must be finite and positive, got {lam!r}")
    lam = float(lam)
    return PrecisionState(
        dim=int(dim),
        m_mat=np.eye(dim) * lam,
        m_inv=np.eye(dim) / lam,
        log_det=dim * np.log(lam),
        n_updates=0,
    )


def _check_vector(state: PrecisionState, v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (state.dim,):
        raise ValueError(f"{name} must have shape ({state.dim},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def rank_one_update(state: PrecisionState, v: np.ndarray) -> PrecisionState:
    """Fold the observation direction v into M, its inverse and log det.

    Mutates ``state`` in place and returns it; a symmetric M^-1 stays
    exactly symmetric.
    """
    v = _check_vector(state, v, "v")
    z = state.m_inv @ v
    denom = 1.0 + float(v @ z)
    state.m_mat += np.outer(v, v)
    state.m_inv -= np.outer(z, z) / denom
    # re-symmetrize to stop round-off drift from accumulating
    state.m_inv[:] = 0.5 * (state.m_inv + state.m_inv.T)
    state.log_det += math.log(denom)
    state.n_updates += 1
    if state.n_updates % GUARD_INTERVAL == 0 and os.environ.get("OFD_LINALG_GUARD"):
        _recompute(state)
    return state


def _recompute(state: PrecisionState) -> None:
    state.m_inv = np.linalg.inv(state.m_mat)
    state.m_inv = 0.5 * (state.m_inv + state.m_inv.T)
    sign, log_det = np.linalg.slogdet(state.m_mat)
    if sign <= 0:
        raise NumericError("precision matrix lost positive definiteness")
    state.log_det = float(log_det)


def inv_norm(state: PrecisionState, x: np.ndarray) -> float:
    """Mahalanobis-style norm sqrt(x^T M^-1 x); clamps tiny negatives to 0."""
    x = _check_vector(state, x, "x")
    q = float(x @ state.m_inv @ x)
    return float(np.sqrt(max(q, 0.0)))


def sample_gaussian(
    mean: np.ndarray,
    scale: float,
    state: PrecisionState,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw theta ~ N(mean, scale^2 * M^-1).

    scale = 0 returns the mean exactly (the degenerate limit). A failed
    Cholesky factorization of M^-1 raises :class:`NumericError` carrying
    the offending smallest eigenvalue.
    """
    mean = _check_vector(state, mean, "mean")
    if not np.isfinite(scale) or scale < 0.0:
        raise ValueError(f"scale must be finite and non-negative, got {scale!r}")
    if scale == 0.0:
        return mean.copy()
    try:
        chol = np.linalg.cholesky(state.m_inv)
    except np.linalg.LinAlgError as exc:
        smallest = float(np.linalg.eigvalsh(state.m_inv)[0])
        raise NumericError(
            f"covariance factorization failed after {state.n_updates} updates; "
            f"smallest eigenvalue of M^-1 is {smallest:.3e}"
        ) from exc
    z = rng.standard_normal(state.dim)
    return mean + scale * (chol @ z)
