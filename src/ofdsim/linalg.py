"""Incremental precision-matrix algebra for regularized least squares.

A :class:`PrecisionState` tracks M = lam*I + sum_t v_t v_t^T, its
inverse by Sherman-Morrison rank-one updates, and its log-determinant.
The round loop reads only the inverse, and posterior sampling factorizes
it afresh on every draw; M and the log-determinant are kept for the
benchmark's state verifier. The round loop steps the runs of a batch
together, so the functions here take one state or a state whose arrays
carry a leading run axis. The dimension, the last axis of a state's
arrays, and the regularizer come checked from ConfidenceParams; the
checks here are mid-run faults, a non-positive Sherman-Morrison
denominator and a failed Cholesky factorization. :func:`is_real` and
:func:`is_integer` are the rules the constructors apply to every
real-valued and every integer field of a run.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


class NumericError(RuntimeError):
    """Every mid-run fault, which aborts the run: lost definiteness, a
    ledger outside the goodness's domain, or a non-finite goodness."""


def is_real(value) -> bool:
    """Whether value is a real number: a numbers.Real, which numpy's float
    and integer scalars are, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """Whether value is an integer: a Python or numpy integer, and not a
    bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class PrecisionState:
    m_mat: np.ndarray
    m_inv: np.ndarray
    log_det: float


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
        m_mat=np.eye(dim) * lam,
        m_inv=np.eye(dim) / lam,
        log_det=dim * np.log(lam),
    )


def rank_one_update(state: PrecisionState, v: np.ndarray) -> PrecisionState:
    """Fold the observation direction v, a finite float array of shape
    (..., dim), into M, its inverse and log det: one direction for one
    state, or one per run for a state whose arrays carry a leading run
    axis (M of shape (R, dim, dim), log det of shape (R,)). Each run takes
    the same arithmetic alone or in a stack.

    Mutates ``state`` in place and returns it; a symmetric M^-1 stays
    exactly symmetric, since z_i*z_j = z_j*z_i in floating point. A
    Sherman-Morrison denominator 1 + v^T M^-1 v that is not positive
    (M^-1 has lost definiteness to round-off) raises
    :class:`NumericError` and leaves ``state`` unchanged.
    """
    z = np.matmul(state.m_inv, v[..., None])[..., 0]
    denom = 1.0 + np.matmul(v[..., None, :], z[..., None])[..., 0, 0]
    low = float(denom.min())
    if not low > 0.0:
        raise NumericError(f"Sherman-Morrison denominator {low:.3e} is not positive")
    state.m_mat += v[..., :, None] * v[..., None, :]
    state.m_inv -= z[..., :, None] * z[..., None, :] / denom[..., None, None]
    state.log_det += np.log(denom)
    return state


def sample_gaussian(
    mean: np.ndarray,
    scale: float,
    state: PrecisionState,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Draw theta ~ N(mean, scale^2 * M^-1) for a float array mean of
    shape (..., dim) and a finite scale >= 0, one draw per row of mean
    with its own generator in rngs.

    scale = 0 returns the mean exactly (the degenerate limit) and draws
    nothing. A failed Cholesky factorization of M^-1 raises
    :class:`NumericError` carrying the offending smallest eigenvalue.
    """
    if scale == 0.0:
        return mean.copy()
    try:
        chol = np.linalg.cholesky(state.m_inv)
    except np.linalg.LinAlgError as exc:
        smallest = float(np.linalg.eigvalsh(state.m_inv)[..., 0].min())
        raise NumericError(
            f"covariance factorization failed; smallest eigenvalue of M^-1 is {smallest:.3e}"
        ) from exc
    z = np.array([rng.standard_normal(mean.shape[-1]) for rng in rngs]).reshape(mean.shape)
    return mean + scale * np.matmul(chol, z[..., None])[..., 0]
