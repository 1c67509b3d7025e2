"""Utility estimators: incremental ridge regression with optimism or
posterior sampling, and a Gaussian-process posterior for non-linear
utilities.

The ridge path keeps M_t = lam*I + sum m m^T via rank-one updates and
re-derives theta_hat = M^-1 b after every observation. Confidence widths
follow the self-normalized bound alpha_t = R*sqrt(d*log((1+t*L^2/lam)/delta))
+ sqrt(lam)*S; posterior sampling uses beta_t = R*sqrt(9*d*log(t/delta)).

The GP path keeps the Cholesky factor L of K + noise_var*I, the whitened
targets L^-1 y and the information gain. A round makes one triangular
solve: gp_condition gives v = L^-1 k(inputs, xs) for every context, the
round's scores come from it, and the observed context's column of v is
the new row of the factor. gp_update appends that row with pivot
sqrt(k(x,x) + noise_var - |v|^2), one step of the up-looking Cholesky
factorization, and makes no solve of its own. Only if that pivot's
square falls to 1e-12*signal_var or below is the factor recomputed from
scratch. The width multiplier is sqrt(2*(gamma + 1 + log(1/delta))) + B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular

from . import linalg
from .environment import FEATURE_HIGH


@dataclass
class ConfidenceParams:
    dim: int
    noise_r: float
    param_bound_s: float
    feature_bound_l: float
    delta: float
    lam: float

    def __post_init__(self) -> None:
        # one line per broken field, so a caller can report each of them
        problems = []
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            problems.append(f"dim must be a positive integer, got {self.dim!r}")
        # R = 0 and S = 0 are legal limits (noiseless / unbounded-free cases)
        if not np.isfinite(self.noise_r) or self.noise_r < 0.0:
            problems.append(f"noise_r must be >= 0, got {self.noise_r!r}")
        if not np.isfinite(self.param_bound_s) or self.param_bound_s < 0.0:
            problems.append(f"param_bound_s must be >= 0, got {self.param_bound_s!r}")
        if not np.isfinite(self.feature_bound_l) or self.feature_bound_l <= 0.0:
            problems.append(f"feature_bound_l must be positive, got {self.feature_bound_l!r}")
        if not 0.0 < self.delta < 1.0:
            problems.append(f"delta must lie in (0,1), got {self.delta!r}")
        if not np.isfinite(self.lam) or self.lam <= 0.0:
            problems.append(f"lambda must be positive, got {self.lam!r}")
        if problems:
            raise ValueError("\n".join(problems))

    @classmethod
    def defaults(cls, dim: int, noise_r: float = 0.1, delta: float = 0.05,
                 lam: float = 0.01) -> "ConfidenceParams":
        """Experiment defaults; L = FEATURE_HIGH*sqrt(d) bounds features in
        (0, FEATURE_HIGH)^d, S = 1 matches a unit-norm parameter vector."""
        return cls(
            dim=dim,
            noise_r=noise_r,
            param_bound_s=1.0,
            feature_bound_l=FEATURE_HIGH * math.sqrt(dim),
            delta=delta,
            lam=lam,
        )


@dataclass
class RidgeState:
    precision: linalg.PrecisionState
    moment: np.ndarray
    theta_hat: np.ndarray


def init_ridge(dim: int, lam: float) -> RidgeState:
    precision = linalg.init_precision(dim, lam)
    return RidgeState(
        precision=precision,
        moment=np.zeros(dim),
        theta_hat=np.zeros(dim),
    )


def ridge_update(state: RidgeState, x: np.ndarray, y: float) -> RidgeState:
    """Fold one observation (x, y), x a float array of shape (dim,), into
    the ridge estimate; mutates state."""
    linalg.rank_one_update(state.precision, x)
    state.moment += y * x
    state.theta_hat = state.precision.m_inv @ state.moment
    return state


def alpha_t(params: ConfidenceParams, t: int) -> float:
    """Self-normalized confidence width at round t >= 1 (non-decreasing
    in t); the round loop counts t from 1."""
    inflate = (1.0 + t * params.feature_bound_l**2 / params.lam) / params.delta
    return params.noise_r * math.sqrt(params.dim * math.log(inflate)) + math.sqrt(
        params.lam
    ) * params.param_bound_s


def ucb_scores(state: RidgeState, params: ConfidenceParams, t: int, xs: np.ndarray) -> np.ndarray:
    """Optimistic score x.theta_hat + alpha_t*||x||_{M^-1} of each row of
    xs, a float array of shape (m, dim)."""
    q = np.maximum(np.sum((xs @ state.precision.m_inv) * xs, axis=1), 0.0)
    return xs @ state.theta_hat + alpha_t(params, t) * np.sqrt(q)


def beta_t(params: ConfidenceParams, t: int) -> float:
    """Posterior-sampling scale at round t >= 1; log(t/delta) clamped at
    0 for tiny t."""
    return params.noise_r * math.sqrt(9.0 * params.dim * max(math.log(t / params.delta), 0.0))


def ts_sample(state: RidgeState, params: ConfidenceParams, t: int,
              rng: np.random.Generator) -> np.ndarray:
    """One parameter draw theta ~ N(theta_hat, beta_t^2 * M^-1); a round
    draws once and scores every agent against it."""
    return linalg.sample_gaussian(state.theta_hat, beta_t(params, t), state.precision, rng)


# ---------------------------------------------------------------------------
# Gaussian-process posterior

# RunConfig caps a GP policy's noise_r here, so its noise variance noise_r**2 stays finite
GP_MAX_NOISE_R = math.sqrt(np.finfo(float).max)


@dataclass
class GpState:
    lengthscale: float
    signal_var: float
    noise_var: float
    bound_b: float
    feature_scale: float
    inputs: np.ndarray = field(repr=False)
    targets: np.ndarray = field(repr=False)
    chol: np.ndarray = field(repr=False)
    white: np.ndarray = field(repr=False)
    n_obs: int = 0
    info_gain: float = 0.0


def init_gp(dim: int, noise_var: float) -> GpState:
    """RBF-kernel GP with signal variance 1 and RKHS norm bound B = 1,
    over features rescaled by 1/FEATURE_HIGH into the unit box, where the
    lengthscale is 0.2*sqrt(dim). Its buffers start at 64 observations
    and double when full. noise_var is floored at 1e-10, which keeps a
    noiseless run's Gram matrix regular; ConfidenceParams checks dim >= 1
    and RunConfig keeps noise_var finite."""
    cap = 64
    return GpState(
        lengthscale=0.2 * math.sqrt(dim),
        signal_var=1.0,
        noise_var=max(float(noise_var), 1e-10),
        bound_b=1.0,
        feature_scale=FEATURE_HIGH,
        inputs=np.empty((cap, dim)),
        targets=np.empty(cap),
        chol=np.zeros((cap, cap)),
        white=np.empty(cap),
    )


def _kernel_cross(state: GpState, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """k(a_i, b_j) for scaled inputs a (n,d) and b (m,d)."""
    sq = (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return state.signal_var * np.exp(-sq / (2.0 * state.lengthscale**2))


def _grow(state: GpState) -> None:
    """Double the capacity of a full state, zero-padding every buffer."""
    extra = state.inputs.shape[0]
    state.inputs = np.pad(state.inputs, ((0, extra), (0, 0)))
    state.targets = np.pad(state.targets, (0, extra))
    state.chol = np.pad(state.chol, ((0, extra), (0, extra)))
    state.white = np.pad(state.white, (0, extra))


def _refactor(state: GpState) -> None:
    """Recompute the Cholesky factor and whitened targets from scratch."""
    n = state.n_obs
    gram = _kernel_cross(state, state.inputs[:n], state.inputs[:n])
    gram[np.diag_indices(n)] += state.noise_var
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise linalg.NumericError(
            f"GP Gram factorization failed at {n} observations "
            f"(noise_var={state.noise_var:.3e})"
        ) from exc
    state.chol[:n, :n] = lower
    state.white[:n] = solve_triangular(lower, state.targets[:n], lower=True)


class GpConditioning(NamedTuple):
    """The GP conditioned on m query rows: the rows in scaled units
    (m, dim), v = L^-1 k(inputs, scaled) of shape (n_obs, m), and the
    posterior means v^T L^-1 y (m,)."""

    scaled: np.ndarray
    v: np.ndarray
    means: np.ndarray


def gp_condition(state: GpState, xs: np.ndarray) -> GpConditioning:
    """Condition on the rows of xs, a float array of shape (m, dim) in raw
    feature units, with one triangular solve. With no observations v has
    no rows: the means are 0 and signal_var - |v|^2 is the prior variance.
    The factor and the cross-kernel come from validated contexts only, so
    scipy's scan for non-finite entries is skipped."""
    n = state.n_obs
    scaled = xs / state.feature_scale
    k_cross = _kernel_cross(state, state.inputs[:n], scaled)
    v = solve_triangular(state.chol[:n, :n], k_cross, lower=True, check_finite=False)
    return GpConditioning(scaled, v, v.T @ state.white[:n])


def gp_update(state: GpState, scaled_row: np.ndarray, column: np.ndarray, y: float) -> GpState:
    """Append the observation y at scaled_row, shape (dim,) in scaled
    units, whose conditioning column on the current factor is column,
    shape (n_obs,), as gp_condition gives it. The column gives both the
    pre-update variance, which advances the information gain, and the new
    row of the Cholesky factor, so the update makes no solve."""
    sq_norm = float(column @ column)
    var_pre = max(state.signal_var - sq_norm, 0.0)
    state.info_gain += 0.5 * math.log1p(var_pre / state.noise_var)

    if state.n_obs == state.inputs.shape[0]:
        _grow(state)
    n = state.n_obs
    state.inputs[n] = scaled_row
    state.targets[n] = y
    gap = state.signal_var + state.noise_var - sq_norm
    state.n_obs = n + 1
    if gap <= 1e-12 * state.signal_var:
        _refactor(state)
        return state
    pivot = math.sqrt(gap)
    state.chol[n, :n] = column
    state.chol[n, n] = pivot
    state.white[n] = (y - float(column @ state.white[:n])) / pivot
    return state


def gp_width_multiplier(state: GpState, params: ConfidenceParams) -> float:
    return math.sqrt(2.0 * (state.info_gain + 1.0 + math.log(1.0 / params.delta))) + state.bound_b


def gp_ucb_scores(state: GpState, params: ConfidenceParams, cond: GpConditioning) -> np.ndarray:
    """Optimistic GP score of each row cond was conditioned on."""
    stds = np.sqrt(np.maximum(state.signal_var - np.sum(cond.v**2, axis=0), 0.0))
    return cond.means + gp_width_multiplier(state, params) * stds


def gp_ts_scores(
    state: GpState, params: ConfidenceParams, cond: GpConditioning, rng: np.random.Generator
) -> np.ndarray:
    """One joint posterior sample over the rows cond was conditioned on,
    width-scaled."""
    m = len(cond.scaled)
    cov = _kernel_cross(state, cond.scaled, cond.scaled) - cond.v.T @ cond.v
    jitter = 1e-10 * state.signal_var
    for _ in range(8):
        try:
            lower = np.linalg.cholesky(cov + jitter * np.eye(m))
            break
        except np.linalg.LinAlgError:
            jitter *= 100.0
    else:
        raise linalg.NumericError("joint posterior covariance is not factorizable")
    draw = lower @ rng.standard_normal(m)
    return cond.means + gp_width_multiplier(state, params) * draw
