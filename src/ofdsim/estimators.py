"""Utility estimators: incremental ridge regression with optimism or
posterior sampling, and a Gaussian-process posterior for non-linear
utilities.

The ridge path keeps M_t = lam*I + sum m m^T via rank-one updates and
re-derives theta_hat = M^-1 b after every observation. Confidence widths
follow the self-normalized bound alpha_t = R*sqrt(d*log((1+t*L^2/lam)/delta))
+ sqrt(lam)*S; posterior sampling uses beta_t = R*sqrt(9*d*log(t/delta)).
The round loop steps the ridge states of a batch's runs as one state with
a leading run axis (stack_ridge), of which each run's own state holds
views of its row, so it is the run's estimate at every round; the ridge
functions take one state or a stacked one.

The GP path keeps the Cholesky factor L of K + noise_var*I, the whitened
targets L^-1 y and the information gain. A round's scores come from
v = L^-1 k(inputs, xs) for every context, and the observed context's
column of v is the new row of the factor: gp_update appends that row
with pivot sqrt(k(x,x) + noise_var - |v|^2), one step of the up-looking
Cholesky factorization, and makes no solve of its own. A pivot whose
square falls to 1e-12*signal_var or below raises NumericError, which
aborts the run; the factor is never rebuilt. The width multiplier is
sqrt(2*(gamma + 1 + log(1/delta))) + B.

The factor lives in a (T, T) buffer, beside a (T, 32) buffer holding
the inverse of each of its 32-row diagonal blocks, which gp_update
extends by one row per observation. solve_triangular runs forward
substitution a block at a time: it subtracts the solved part's product
with the rows' off-diagonal block, read from the factor in place, and
multiplies what is left by the block's inverse. So no round copies the
n x n block, and the GP, like the rest of the package, needs only numpy.

A block's rows of v depend only on the factor's rows up to the block's
end, so a run conditions a window of coming rounds, whose contexts are
drawn ahead, at once, through one call, gp_round, and its state keeps
the window while it has rounds left. A window opens with one pass of
stacked products that solves the factor's settled blocks for all its
rounds; a block the factor completes within the window is solved for
the rounds left the same way, and each round solves only the rows of
its open block. The scorers and gp_update condition their round through
gp_round, so no other module names it or the window. The window has a
leading round axis, so every product keeps the (rows, k) @ (k, m) shape
one round gives it, and with it the round's bits: a right-hand side
widened to (k, W*m) would take other BLAS paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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
        if not linalg.is_integer(self.dim) or self.dim < 1:
            problems.append(f"dim must be a positive integer, got {self.dim!r}")
        # each real field's rule, which also rejects NaN and inf; R = 0 and
        # S = 0 are legal limits (noiseless / unbounded-free cases)
        rules = (
            ("noise_r", self.noise_r, lambda v: 0.0 <= v < math.inf, "must be >= 0"),
            ("param_bound_s", self.param_bound_s, lambda v: 0.0 <= v < math.inf, "must be >= 0"),
            ("feature_bound_l", self.feature_bound_l, lambda v: 0.0 < v < math.inf,
             "must be positive"),
            ("delta", self.delta, lambda v: 0.0 < v < 1.0, "must lie in (0,1)"),
            ("lambda", self.lam, lambda v: 0.0 < v < math.inf, "must be positive"),
        )
        for name, value, holds, words in rules:
            if not linalg.is_real(value):
                problems.append(f"{name} must be a real number, got {value!r}")
            elif not holds(value):
                problems.append(f"{name} {words}, got {value!r}")
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


def stack_ridge(states: list[RidgeState]) -> RidgeState:
    """The states of R runs as one state whose arrays carry a leading run
    axis, for the round loop to step the runs together. Each run's state
    is handed views of its row, its log det the 0-d view log_det[r, ...],
    so every update of the stacked state updates it too."""
    precisions = [state.precision for state in states]
    whole = linalg.PrecisionState(
        m_mat=np.stack([p.m_mat for p in precisions]),
        m_inv=np.stack([p.m_inv for p in precisions]),
        log_det=np.array([p.log_det for p in precisions]),
    )
    stacked = RidgeState(
        precision=whole,
        moment=np.stack([state.moment for state in states]),
        theta_hat=np.stack([state.theta_hat for state in states]),
    )
    for r, (state, precision) in enumerate(zip(states, precisions)):
        precision.m_mat, precision.m_inv = whole.m_mat[r], whole.m_inv[r]
        precision.log_det = whole.log_det[r, ...]
        state.moment, state.theta_hat = stacked.moment[r], stacked.theta_hat[r]
    return stacked


def ridge_rows(state: RidgeState, rows: slice) -> RidgeState:
    """The runs of a stacked state in rows, a slice, as a stacked state
    of views: it reads and updates those rows of state in place."""
    precision = state.precision
    return RidgeState(
        precision=linalg.PrecisionState(m_mat=precision.m_mat[rows], m_inv=precision.m_inv[rows],
                                        log_det=precision.log_det[rows]),
        moment=state.moment[rows],
        theta_hat=state.theta_hat[rows],
    )


def ridge_update(state: RidgeState, x: np.ndarray, y: np.ndarray | float) -> RidgeState:
    """Fold observations (x, y) into the ridge estimate: x of shape
    (..., dim) and y of shape (...), one per run of a stacked state;
    mutates state, theta_hat in place."""
    linalg.rank_one_update(state.precision, x)
    state.moment += np.asarray(y)[..., None] * x
    np.matmul(state.precision.m_inv, state.moment[..., None], out=state.theta_hat[..., None])
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
    xs, a float array of shape (..., m, dim) with one (m, dim) matrix per
    run of a stacked state; shape (..., m)."""
    q = np.maximum((np.matmul(xs, state.precision.m_inv) * xs).sum(axis=-1), 0.0)
    means = np.matmul(xs, state.theta_hat[..., None])[..., 0]
    return means + alpha_t(params, t) * np.sqrt(q)


def beta_t(params: ConfidenceParams, t: int) -> float:
    """Posterior-sampling scale at round t >= 1; log(t/delta) clamped at
    0 for tiny t."""
    return params.noise_r * math.sqrt(9.0 * params.dim * max(math.log(t / params.delta), 0.0))


def ts_sample(state: RidgeState, params: ConfidenceParams, t: int,
              rngs: list[np.random.Generator]) -> np.ndarray:
    """One parameter draw theta ~ N(theta_hat, beta_t^2 * M^-1) per run,
    each from that run's generator in rngs; a round draws once per run
    and scores every agent against it."""
    return linalg.sample_gaussian(state.theta_hat, beta_t(params, t), state.precision, rngs)


# ---------------------------------------------------------------------------
# Gaussian-process posterior

# RunConfig caps a GP policy's noise_r here, so its noise variance noise_r**2 stays finite
GP_MAX_NOISE_R = math.sqrt(np.finfo(float).max)
# rows of each diagonal block of the GP factor whose inverse is kept. With 64 rows the
# block inverses' rounding moves a noiseless run's whitened targets past the
# fresh-algebra tolerances
GP_BLOCK = 32
# bound on the bytes of v, the solves a GP run keeps for the rounds of its
# window: a run holds one window, and opening one takes about twice this, v and
# the kernel of the rounds' query rows against the factor's settled rows
GP_WINDOW_BYTES = 1 << 18
# the RKHS norm bound B of the GP's width multiplier
GP_BOUND_B = 1.0


def solve_triangular(state: GpState, b: np.ndarray, x: np.ndarray, lo: int) -> np.ndarray:
    """Rows lo.. of L^-1 b for the factor L of state's observations, by
    forward substitution over 32-row blocks: each block's rows of x are
    the block's inverse times b's rows less the factor's rows left of the
    block times the x already solved. b holds the right-hand side's rows
    from lo on, shape (..., rows, m), with any leading stack axes; x holds
    the solution's rows above lo, lo a multiple of 32, and takes the rows
    solved. The factor is read in place, so a solve allocates only one
    block's remainder. With no rows nothing is solved."""
    hi = lo + b.shape[-2]
    for k0 in range(lo, hi, GP_BLOCK):
        k1 = min(k0 + GP_BLOCK, hi)
        rhs = b[..., k0 - lo : k1 - lo, :] - state.chol[k0:k1, :k0] @ x[..., :k0, :]
        x[..., k0:k1, :] = state.block_inv[k0:k1, : k1 - k0] @ rhs
    return x


@dataclass
class GpState:
    # constants of every GP state, read as its attributes: the kernel's signal
    # variance and the scale of the raw features
    signal_var = 1.0
    feature_scale = FEATURE_HIGH
    lengthscale: float
    noise_var: float
    inputs: np.ndarray = field(repr=False)
    sq_norms: np.ndarray = field(repr=False)
    chol: np.ndarray = field(repr=False)
    block_inv: np.ndarray = field(repr=False)
    white: np.ndarray = field(repr=False)
    n_obs: int = 0
    info_gain: float = 0.0
    window: GpWindow | None = field(default=None, init=False, repr=False)


def init_gp(dim: int, noise_var: float, horizon: int) -> GpState:
    """RBF-kernel GP with signal variance 1 and RKHS norm bound GP_BOUND_B,
    over features rescaled by 1/FEATURE_HIGH into the unit box, where the
    lengthscale is 0.2*sqrt(dim). Its buffers hold the horizon's
    observations, one per round; each stored input's squared norm is kept
    beside it, so conditioning does not recompute them. Row i of the
    (T, 32) block_inv holds row i mod 32 of the inverse of the factor's
    diagonal block that row i falls in; it takes 8*32*T bytes, at most
    4 MiB under RunConfig's cap T <= 16384. noise_var is floored
    at 1e-10, which keeps a noiseless run's Gram matrix regular;
    ConfidenceParams checks dim >= 1 and RunConfig keeps noise_var
    finite."""
    return GpState(
        lengthscale=0.2 * math.sqrt(dim),
        noise_var=max(float(noise_var), 1e-10),
        inputs=np.empty((horizon, dim)),
        sq_norms=np.empty(horizon),
        chol=np.zeros((horizon, horizon)),
        block_inv=np.zeros((horizon, GP_BLOCK)),
        white=np.empty(horizon),
    )


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row; a row's norm is the same taken alone."""
    return np.sum(rows**2, axis=-1)


def _kernel_cross(state: GpState, a: np.ndarray, a_sq: np.ndarray, b: np.ndarray,
                  b_sq: np.ndarray, cross: np.ndarray | None = None) -> np.ndarray:
    """k(a_i, b_j) for scaled inputs a (n,d) and b (..., m, d), whose
    squared row norms are a_sq (n,) and b_sq (..., m); shape (..., n, m),
    a view of an array laid out (..., m, n), with the n stored inputs
    innermost, where the broadcast sum runs fastest. The product a.b is
    written into cross, an (..., n, m) scratch array, when one is given.
    Each step is elementwise, IEEE addition commutes and x / -c is
    -(x / c), so computing it in place gives every element the bits of
    exp(-((a_sq + b_sq) - 2*a.b) / (2*l^2)) taken apart, which is the
    kernel at signal_var 1."""
    cross = np.matmul(a, b.swapaxes(-1, -2), out=cross)
    cross *= 2.0
    sq = b_sq[..., :, None] + a_sq
    sq -= cross.swapaxes(-1, -2)
    np.maximum(sq, 0.0, out=sq)
    sq /= -2.0 * state.lengthscale**2
    np.exp(sq, out=sq)
    return sq.swapaxes(-1, -2)


class GpWindow(NamedTuple):
    """The GP conditioned ahead on W coming rounds of m query rows each,
    the first of them with n0 observations: the rows in scaled units
    (W, m, dim) and their squared norms (W, m), and v (W, n0 + W - 1, m),
    whose v[w, :n0 + w] is round w's L^-1 k(inputs, scaled[w]) once
    gp_round has solved its open block. A GP state keeps its window, and
    no other module names this type."""

    scaled: np.ndarray
    sq_norms: np.ndarray
    v: np.ndarray
    n0: int


def _solve_rows(state: GpState, lo: int, hi: int, scaled: np.ndarray, sq_norms: np.ndarray,
                v: np.ndarray) -> None:
    """Solve rows lo..hi of v, lo a multiple of 32, for query rows scaled
    (..., m, dim) with squared norms sq_norms (..., m), into v (..., rows,
    m) with the same leading axes. A one-row product takes BLAS's
    matrix-vector path, whose bits differ from a row's inside a larger
    product, so the kernel rows come from a product of two rows or more
    wherever the state holds two. Where those rows are lo..hi, the
    kernel's cross product is taken in v's rows lo..hi, which the solve
    overwrites next, so the solve holds one array beside v."""
    k_lo = max(min(lo, hi - 2), 0)
    k_cross = _kernel_cross(state, state.inputs[k_lo:hi], state.sq_norms[k_lo:hi], scaled,
                            sq_norms, v[..., lo:hi, :] if k_lo == lo else None)
    solve_triangular(state, k_cross[..., lo - k_lo :, :], v, lo)


def _holds_round(state: GpState) -> bool:
    """Whether the state's window holds the round the state has reached."""
    return state.window is not None and state.n_obs - state.window.n0 < len(state.window.v)


def gp_round(state: GpState, xs: np.ndarray) -> None:
    """Condition the round the state has reached, one observation a
    round, in the state's window, which the scores and gp_update read it
    from. The window is kept while it has rounds left; else a window
    opens on the first rounds of xs, the contexts of the rounds to come,
    shape (rounds, m, dim) in raw feature units: as many as keep its v
    within GP_WINDOW_BYTES, at least one, with the factor's settled
    blocks solved for all of them. The spent window is dropped before the
    next is allocated, and the kernel's cross product is taken in the new
    v, so a run holds one window, and opens one in two arrays of its size:
    v and the kernel. A block the factor completed since the window
    opened is solved for this and every later round of the window; the
    rows of the open block for this round alone. With no observations v
    has no rows: the means are 0 and signal_var - |v|^2 is the prior
    variance."""
    n = state.n_obs
    if not _holds_round(state):
        state.window = None
        m = xs.shape[1]
        # W rounds hold W*(n + W - 1) rows of v: the largest W within the bound
        most = GP_WINDOW_BYTES // (8 * m)
        rounds = min(len(xs), max(1, (math.isqrt((n - 1) ** 2 + 4 * most) - (n - 1)) // 2))
        scaled = xs[:rounds] / state.feature_scale
        state.window = GpWindow(scaled, _sq_norms(scaled),
                                np.empty((rounds, n + rounds - 1, m)), n)
        _solve_rows(state, 0, n - n % GP_BLOCK, *state.window[:3])
    window = state.window
    w = n - window.n0
    top = n - n % GP_BLOCK
    if top < n:
        _solve_rows(state, top, n, window.scaled[w], window.sq_norms[w], window.v[w])
    elif w > 0:
        _solve_rows(state, top - GP_BLOCK, top, window.scaled[w:], window.sq_norms[w:],
                    window.v[w:])


def gp_update(state: GpState, xs: np.ndarray, agent: int, y: float) -> GpState:
    """Append the observation y at row agent of the round's contexts xs
    (m, dim), reading the row from the state's window; a round no window
    holds, a warm-start round that no score conditioned, is first
    conditioned at that row alone, as a window of one round. The row's
    column of v gives the pre-update variance, which advances the
    information gain, the new row of the Cholesky factor and the new row
    of its diagonal block's inverse, so the update makes no solve; the
    row's squared norm comes from the window too. A pivot whose square
    falls to 1e-12*signal_var or below raises NumericError before the
    observation is appended."""
    if not _holds_round(state):
        gp_round(state, xs[None, agent : agent + 1])
        agent = 0
    n, window = state.n_obs, state.window
    w = n - window.n0
    column = window.v[w, :n, agent]
    sq_norm = float(column @ column)
    gap = state.signal_var + state.noise_var - sq_norm
    if gap <= 1e-12 * state.signal_var:
        raise linalg.NumericError(
            f"GP factor lost positive definiteness at {n + 1} observations "
            f"(pivot squared {gap:.3e}, noise_var={state.noise_var:.3e})"
        )
    var_pre = max(state.signal_var - sq_norm, 0.0)
    state.info_gain += 0.5 * math.log1p(var_pre / state.noise_var)

    state.inputs[n] = window.scaled[w, agent]
    state.sq_norms[n] = window.sq_norms[w, agent]
    state.n_obs = n + 1
    pivot = math.sqrt(gap)
    state.chol[n, :n] = column
    state.chol[n, n] = pivot
    # [[A, 0], [c, p]]^-1 = [[A^-1, 0], [-c A^-1 / p, 1 / p]] within the block
    k0 = n - n % GP_BLOCK
    state.block_inv[n, : n - k0] = -(column[k0:n] @ state.block_inv[k0:n, : n - k0]) / pivot
    state.block_inv[n, n - k0] = 1.0 / pivot
    state.white[n] = (y - float(column @ state.white[:n])) / pivot
    return state


def gp_width_multiplier(state: GpState, params: ConfidenceParams) -> float:
    return math.sqrt(2.0 * (state.info_gain + 1.0 + math.log(1.0 / params.delta))) + GP_BOUND_B


def gp_ucb_scores(state: GpState, params: ConfidenceParams, xs: np.ndarray) -> np.ndarray:
    """Optimistic GP score of each query row of the round gp_round
    conditions on xs (rounds, m, dim), its contexts and those drawn after."""
    gp_round(state, xs)
    n, window = state.n_obs, state.window
    v = window.v[n - window.n0, :n]
    stds = np.sqrt(np.maximum(state.signal_var - np.sum(v**2, axis=0), 0.0))
    return v.T @ state.white[:n] + gp_width_multiplier(state, params) * stds


def gp_ts_scores(state: GpState, params: ConfidenceParams, xs: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """One joint posterior sample, width-scaled, over the query rows of
    the round gp_round conditions on xs, as in gp_ucb_scores."""
    gp_round(state, xs)
    n, window = state.n_obs, state.window
    w = n - window.n0
    v, scaled, sq_norms = window.v[w, :n], window.scaled[w], window.sq_norms[w]
    m = len(scaled)
    cov = _kernel_cross(state, scaled, sq_norms, scaled, sq_norms) - v.T @ v
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
    return v.T @ state.white[:n] + gp_width_multiplier(state, params) * draw
