"""Incremental precision-matrix algebra for regularized least squares.

A :class:`PrecisionState` tracks M = lam*I + sum_t v_t v_t^T, its
inverse by Sherman-Morrison rank-one updates, and its log-determinant.
The round loop reads only the inverse, and posterior sampling factorizes
it afresh on every draw; M and the log-determinant are kept for the
benchmark's state verifier. The dimension and regularizer come checked
from ConfidenceParams; the checks here are the mid-run faults, a
non-positive Sherman-Morrison denominator and a failed Cholesky
factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NumericError(RuntimeError):
    """Raised when a factorization or a rank-one update loses definiteness."""


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
        Ridge regularizer, finite and strictly positive.

    ConfidenceParams checks both; this function trusts them.
    """
    lam = float(lam)
    return PrecisionState(
        dim=int(dim),
        m_mat=np.eye(dim) * lam,
        m_inv=np.eye(dim) / lam,
        log_det=dim * np.log(lam),
        n_updates=0,
    )


def rank_one_update(state: PrecisionState, v: np.ndarray) -> PrecisionState:
    """Fold the observation direction v, a finite float array of shape
    (dim,), into M, its inverse and log det.

    Mutates ``state`` in place and returns it; a symmetric M^-1 stays
    exactly symmetric, since z_i*z_j = z_j*z_i in floating point. A
    Sherman-Morrison denominator 1 + v^T M^-1 v that is not positive
    (M^-1 has lost definiteness to round-off) raises
    :class:`NumericError` and leaves ``state`` unchanged.
    """
    z = state.m_inv @ v
    denom = 1.0 + float(v @ z)
    if not denom > 0.0:
        raise NumericError(
            f"Sherman-Morrison denominator {denom:.3e} is not positive "
            f"after {state.n_updates} updates"
        )
    state.m_mat += np.outer(v, v)
    state.m_inv -= np.outer(z, z) / denom
    state.log_det += math.log(denom)
    state.n_updates += 1
    return state


def sample_gaussian(
    mean: np.ndarray,
    scale: float,
    state: PrecisionState,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw theta ~ N(mean, scale^2 * M^-1) for a float array mean of
    shape (dim,) and a finite scale >= 0.

    scale = 0 returns the mean exactly (the degenerate limit). A failed
    Cholesky factorization of M^-1 raises :class:`NumericError` carrying
    the offending smallest eigenvalue.
    """
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
