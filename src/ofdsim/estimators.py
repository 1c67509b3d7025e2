"""Utility estimators: incremental ridge regression with optimism or
posterior sampling, and a Gaussian-process posterior for non-linear
utilities.

The ridge path keeps M_t = lam*I + sum m m^T via rank-one updates and
re-derives theta_hat = M^-1 b after every observation. Confidence widths
follow the self-normalized bound alpha_t = R*sqrt(d*log((1+t*L^2/lam)/delta))
+ sqrt(lam)*S; posterior sampling uses beta_t = R*sqrt(9*d*log(t/delta)).

The GP path keeps a rolling Cholesky factor of K + noise_var*I with a
full recompute every 256 observations, an incrementally maintained
information gain, and the width multiplier
sqrt(2*(gamma + 1 + log(1/delta))) + B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from . import linalg

GP_RECOMPUTE_EVERY = 256


@dataclass
class ConfidenceParams:
    dim: int
    noise_r: float
    param_bound_s: float
    feature_bound_l: float
    delta: float
    lam: float

    def __post_init__(self) -> None:
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        # R = 0 and S = 0 are legal limits (noiseless / unbounded-free cases)
        if not np.isfinite(self.noise_r) or self.noise_r < 0.0:
            raise ValueError(f"noise_r must be >= 0, got {self.noise_r!r}")
        if not np.isfinite(self.param_bound_s) or self.param_bound_s < 0.0:
            raise ValueError(f"param_bound_s must be >= 0, got {self.param_bound_s!r}")
        if not np.isfinite(self.feature_bound_l) or self.feature_bound_l <= 0.0:
            raise ValueError(f"feature_bound_l must be positive, got {self.feature_bound_l!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0,1), got {self.delta!r}")
        if not np.isfinite(self.lam) or self.lam <= 0.0:
            raise ValueError(f"lam must be positive, got {self.lam!r}")

    @classmethod
    def defaults(cls, dim: int, noise_r: float = 0.1, delta: float = 0.05,
                 lam: float = 0.01) -> "ConfidenceParams":
        """Experiment defaults; L = 10*sqrt(d) bounds features in (0,10)^d,
        S = 1 matches a unit-norm parameter vector."""
        return cls(
            dim=dim,
            noise_r=noise_r,
            param_bound_s=1.0,
            feature_bound_l=10.0 * math.sqrt(dim),
            delta=delta,
            lam=lam,
        )


@dataclass
class RidgeState:
    precision: linalg.PrecisionState
    moment: np.ndarray
    theta_hat: np.ndarray
    n_obs: int = 0


def init_ridge(dim: int, lam: float) -> RidgeState:
    precision = linalg.init_precision(dim, lam)
    return RidgeState(
        precision=precision,
        moment=np.zeros(dim),
        theta_hat=np.zeros(dim),
        n_obs=0,
    )


def ridge_update(state: RidgeState, x: np.ndarray, y: float) -> RidgeState:
    """Fold one observation (x, y) into the ridge estimate; mutates state."""
    x = np.asarray(x, dtype=np.float64)
    linalg.rank_one_update(state.precision, x)
    state.moment += y * x
    state.theta_hat = state.precision.m_inv @ state.moment
    state.n_obs += 1
    return state


def alpha_t(params: ConfidenceParams, t: int) -> float:
    """Self-normalized confidence width at round t (non-decreasing in t)."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t!r}")
    inflate = (1.0 + t * params.feature_bound_l**2 / params.lam) / params.delta
    return params.noise_r * math.sqrt(params.dim * math.log(inflate)) + math.sqrt(
        params.lam
    ) * params.param_bound_s


def ucb_scores(state: RidgeState, params: ConfidenceParams, t: int, xs: np.ndarray) -> np.ndarray:
    """Optimistic score x.theta_hat + alpha_t*||x||_{M^-1} of each row of xs."""
    q = np.maximum(np.sum((xs @ state.precision.m_inv) * xs, axis=1), 0.0)
    return xs @ state.theta_hat + alpha_t(params, t) * np.sqrt(q)


def beta_t(params: ConfidenceParams, t: int) -> float:
    """Posterior-sampling scale; log(t/delta) clamped at 0 for tiny t."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t!r}")
    return params.noise_r * math.sqrt(9.0 * params.dim * max(math.log(t / params.delta), 0.0))


def ts_sample(state: RidgeState, params: ConfidenceParams, t: int,
              rng: np.random.Generator) -> np.ndarray:
    """One parameter draw theta ~ N(theta_hat, beta_t^2 * M^-1); a round
    draws once and scores every agent against it."""
    return linalg.sample_gaussian(state.theta_hat, beta_t(params, t), state.precision, rng)


# ---------------------------------------------------------------------------
# Gaussian-process posterior


@dataclass
class GpState:
    dim: int
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


def init_gp(
    dim: int,
    noise_var: float,
    lengthscale: float | None = None,
    signal_var: float = 1.0,
    bound_b: float = 1.0,
    feature_scale: float = 10.0,
    capacity: int = 64,
) -> GpState:
    """RBF-kernel GP over features rescaled by 1/feature_scale.

    The default lengthscale 0.2*sqrt(dim) applies to features mapped to
    the unit box, i.e. raw features in (0, feature_scale)^dim.
    """
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if not np.isfinite(noise_var) or noise_var <= 0.0:
        raise ValueError(f"noise_var must be positive, got {noise_var!r}")
    if lengthscale is None:
        lengthscale = 0.2 * math.sqrt(dim)
    if lengthscale <= 0.0 or signal_var <= 0.0 or feature_scale <= 0.0:
        raise ValueError("lengthscale, signal_var and feature_scale must be positive")
    if bound_b < 0.0:
        raise ValueError(f"bound_b must be >= 0, got {bound_b!r}")
    return GpState(
        dim=int(dim),
        lengthscale=float(lengthscale),
        signal_var=float(signal_var),
        noise_var=float(noise_var),
        bound_b=float(bound_b),
        feature_scale=float(feature_scale),
        inputs=np.empty((capacity, dim)),
        targets=np.empty(capacity),
        chol=np.zeros((capacity, capacity)),
        white=np.empty(capacity),
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
    cap = state.inputs.shape[0] * 2
    inputs = np.empty((cap, state.dim))
    inputs[: state.n_obs] = state.inputs[: state.n_obs]
    targets = np.empty(cap)
    targets[: state.n_obs] = state.targets[: state.n_obs]
    chol = np.zeros((cap, cap))
    chol[: state.n_obs, : state.n_obs] = state.chol[: state.n_obs, : state.n_obs]
    white = np.empty(cap)
    white[: state.n_obs] = state.white[: state.n_obs]
    state.inputs, state.targets, state.chol, state.white = inputs, targets, chol, white


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


def gp_update(state: GpState, x: np.ndarray, y: float) -> GpState:
    """Append one observation; advances the information gain using the
    pre-update posterior variance at x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (state.dim,):
        raise ValueError(f"x must have shape ({state.dim},), got {x.shape}")
    _, std_pre = gp_posterior(state, x)
    state.info_gain += 0.5 * math.log1p(std_pre**2 / state.noise_var)

    if state.n_obs == state.inputs.shape[0]:
        _grow(state)
    n = state.n_obs
    xs = x / state.feature_scale
    state.inputs[n] = xs
    state.targets[n] = y
    if n == 0:
        pivot = math.sqrt(state.signal_var + state.noise_var)
        state.chol[0, 0] = pivot
        state.white[0] = y / pivot
        state.n_obs = 1
        return state

    lower = state.chol[:n, :n]
    k_vec = _kernel_cross(state, state.inputs[:n], xs[None, :])[:, 0]
    row = solve_triangular(lower, k_vec, lower=True)
    gap = state.signal_var + state.noise_var - float(row @ row)
    state.n_obs = n + 1
    if gap <= 1e-12 * state.signal_var:
        _refactor(state)
        return state
    pivot = math.sqrt(gap)
    state.chol[n, :n] = row
    state.chol[n, n] = pivot
    state.white[n] = (y - float(row @ state.white[:n])) / pivot
    if state.n_obs % GP_RECOMPUTE_EVERY == 0:
        _refactor(state)
    return state


def gp_posterior_many(state: GpState, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior (means, stddevs) at the rows of xs (raw feature units)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != state.dim:
        raise ValueError(f"xs must have shape (n, {state.dim}), got {xs.shape}")
    n = state.n_obs
    if n == 0:
        prior = math.sqrt(state.signal_var)
        return np.zeros(len(xs)), np.full(len(xs), prior)
    scaled = xs / state.feature_scale
    k_cross = _kernel_cross(state, state.inputs[:n], scaled)
    v = solve_triangular(state.chol[:n, :n], k_cross, lower=True)
    means = v.T @ state.white[:n]
    variances = np.maximum(state.signal_var - np.sum(v**2, axis=0), 0.0)
    return means, np.sqrt(variances)


def gp_posterior(state: GpState, x: np.ndarray) -> tuple[float, float]:
    means, stds = gp_posterior_many(state, np.asarray(x, dtype=np.float64)[None, :])
    return float(means[0]), float(stds[0])


def gp_width_multiplier(state: GpState, params: ConfidenceParams) -> float:
    return math.sqrt(2.0 * (state.info_gain + 1.0 + math.log(1.0 / params.delta))) + state.bound_b


def gp_ucb_scores(state: GpState, params: ConfidenceParams, xs: np.ndarray) -> np.ndarray:
    means, stds = gp_posterior_many(state, xs)
    return means + gp_width_multiplier(state, params) * stds


def gp_ts_scores(
    state: GpState, params: ConfidenceParams, xs: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One joint posterior sample over the rows of xs, width-scaled."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != state.dim:
        raise ValueError(f"xs must have shape (n, {state.dim}), got {xs.shape}")
    scaled = xs / state.feature_scale
    cov = _kernel_cross(state, scaled, scaled)
    n = state.n_obs
    if n == 0:
        means = np.zeros(len(xs))
    else:
        k_cross = _kernel_cross(state, state.inputs[:n], scaled)
        v = solve_triangular(state.chol[:n, :n], k_cross, lower=True)
        means = v.T @ state.white[:n]
        cov = cov - v.T @ v
    jitter = 1e-10 * state.signal_var
    for _ in range(8):
        try:
            lower = np.linalg.cholesky(cov + jitter * np.eye(len(xs)))
            break
        except np.linalg.LinAlgError:
            jitter *= 100.0
    else:
        raise linalg.NumericError("joint posterior covariance is not factorizable")
    draw = lower @ rng.standard_normal(len(xs))
    return means + gp_width_multiplier(state, params) * draw
