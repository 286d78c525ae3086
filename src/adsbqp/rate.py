"""Sum-rate and power-cost functions with analytic derivatives.

The per-user signal-to-noise ratio under maximum-ratio transmission with a
relaxed on/off switch vector x is

    snr_j(P, x) = (sum_i p_ij x_i) * (sum_i |h_ij|^2 x_i^2) / (N0*B)

The squared-norm factor uses x_i^2 (literal Hadamard product of the channel
column with x); on Boolean points this coincides with the x_i reading since
x_i^2 = x_i.  This is the single authoritative definition used everywhere.
The power subproblem's exact feasibility test, the least power a selection
needs and the power allocation of driver.ad1 all come from one batched
water-filling kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .channel import ChannelMatrix, ScenarioConfig, generate_channel

__all__ = [
    "EsrProblem",
    "build_esr_problem",
    "water_filling",
    "selection_bounds",
    "sum_rate",
    "economic_objective",
    "grad_rate_wrt_power",
    "grad_rate_wrt_switch",
    "hess_rate_wrt_switch",
]

LN2 = np.log(2.0)

BOOLEAN_TOL = 1e-9


@dataclass(frozen=True)
class EsrProblem:
    """One power-minimization instance: channel, constants, resolved threshold."""

    channel: ChannelMatrix
    cfg: ScenarioConfig
    r_th: float
    full_capacity: float
    feasible_at_full_activation: bool

    @property
    def n_tx(self) -> int:
        return self.channel.n_tx

    @property
    def n_users(self) -> int:
        return self.channel.n_users

    @cached_property
    def gains(self) -> np.ndarray:
        """|h_ij|^2, computed once per problem and read-only."""
        gains = self.channel.gains()
        gains.flags.writeable = False
        return gains

    @property
    def sigma(self) -> float:
        return self.cfg.noise_n0b

    @property
    def bandwidth(self) -> float:
        return self.cfg.bandwidth_b


def water_filling(snr_gain: np.ndarray, budget, r_th: float, bandwidth: float):
    """Least total power that reaches r_th, whether it fits the budget, and
    the water level, per row.

    Row r of snr_gain holds the SNR per unit power g_j of every user (users
    with g_j = 0 take no power); budget is a scalar or one value per row.
    Returns (feasible, least_total, log_top, served): feasible when some
    totals a >= 0 with sum(a) < budget reach B sum_j log2(1 + g_j a_j) >=
    r_th; least_total is inf where infeasible and where a row has no
    positive gain.

    Water-filling (Boyd & Vandenberghe, Convex Optimization, 5.5.3) serves
    the m = served strongest users at the level nu, user j with total nu -
    1/g_j, for the first m whose level stays below 1/g_(m+1).  The level is
    kept as log_top = log(nu g_1), the log of one plus the SNR of the
    strongest user, so that no digit is lost at low SNR: with d_j =
    log(g_1/g_j), log_top = (r_th ln2 / B + sum d_j) / m over the served
    users, and the least total is m expm1(log_top) / g_1 - sum (1/g_j -
    1/g_1).  Feasibility is decided in log space so that no exp overflows.
    """
    g = np.sort(np.atleast_2d(snr_gain), axis=1)[:, ::-1]
    rows, k = g.shape
    positive = g > 0.0
    # 1.0 stands in for the gains past the last positive one; no result reads it.
    g = np.where(positive, g, 1.0)
    top = g[:, :1]
    gap = top - g
    d = np.log1p(gap / g)
    log_top = (r_th * LN2 / bandwidth + np.cumsum(d, axis=1)) / np.arange(1, k + 1)
    # The level holds at the first m below the next floor, at the last
    # positive gain, or at the last user.
    held = np.ones((rows, k), dtype=bool)
    held[:, :-1] = (log_top[:, :-1] <= d[:, 1:]) | ~positive[:, 1:]
    m = held.argmax(axis=1)
    at_m = (np.arange(rows), m)
    excess = np.cumsum(gap / (top * g), axis=1)[at_m]
    log_top, served, top = log_top[at_m], m + 1, top[:, 0]
    feasible = positive[:, 0] & (log_top < np.log1p(top * (budget + excess) / served))
    least_total = np.full(rows, np.inf)
    f = feasible  # expm1 only where it cannot overflow
    least_total[f] = served[f] * np.expm1(log_top[f]) / top[f] - excess[f]
    return feasible, least_total, log_top, served


def selection_bounds(X: np.ndarray, prob: EsrProblem):
    """Exact feasibility and a lower bound on the objective of each 0/1 row of X.

    A selection S needs at least the water-filling least total of its
    per-user SNR gains (X @ gains / sigma) within the budget p_th * |S|, plus
    the standby draw p_rf * |S|; the bound is inf where S is infeasible.
    Returns (feasible, bound).
    """
    sizes = X.sum(axis=1)
    feasible, least_total = water_filling(
        X @ prob.gains / prob.sigma, prob.cfg.p_th * sizes, prob.r_th, prob.bandwidth
    )[:2]
    return feasible, least_total + prob.cfg.p_rf * sizes


def build_esr_problem(cfg: ScenarioConfig, channel: ChannelMatrix | None = None) -> EsrProblem:
    """Resolve the rate threshold and decide feasibility at full activation.

    The capacity reference is the full-activation rate at the uniform
    per-antenna power cap; a fractional threshold resolves against it.
    feasible_at_full_activation is water_filling's exact test on the
    all-on selection: some power within the budget p_th * n_tx reaches r_th.
    """
    if channel is None:
        channel = generate_channel(cfg)
    if channel.n_tx != cfg.n_tx or channel.n_users != cfg.n_users:
        raise ValueError("channel dimensions do not match the scenario config")
    gains = channel.gains()
    p_cap = np.full((cfg.n_tx, cfg.n_users), cfg.p_th / cfg.n_users, dtype=float)
    ones = np.ones(cfg.n_tx)
    full_cap = _rate(p_cap, ones, gains, cfg.noise_n0b, cfg.bandwidth_b)
    if cfg.r_th_mode == "absolute":
        r_th = float(cfg.r_th_value)
    else:
        r_th = float(cfg.r_th_value) * full_cap
    if not r_th > 0:
        raise ValueError("resolved rate threshold must be > 0")
    return EsrProblem(
        channel=channel,
        cfg=cfg,
        r_th=r_th,
        full_capacity=full_cap,
        feasible_at_full_activation=bool(water_filling(
            ones @ gains / cfg.noise_n0b, cfg.p_th * cfg.n_tx, r_th, cfg.bandwidth_b
        )[0][0]),
    )


def _accumulate(P: np.ndarray, x: np.ndarray, gains: np.ndarray):
    """Per-user linear power a_j = sum_i p_ij x_i and norm b_j = sum_i w_ij x_i^2."""
    a = x @ P
    b = (x ** 2) @ gains
    return a, b


def _rate(P, x, gains, sigma, bandwidth) -> float:
    a, b = _accumulate(P, x, gains)
    return float(bandwidth * np.sum(np.log1p(a * b / sigma)) / LN2)


def sum_rate(P: np.ndarray, x: np.ndarray, prob: EsrProblem) -> float:
    """Total rate sum_j B*log2(1 + snr_j)."""
    return _rate(P, x, prob.gains, prob.sigma, prob.bandwidth)


def economic_objective(P: np.ndarray, x: np.ndarray, prob: EsrProblem) -> float:
    """Transmit-plus-standby cost sum_i (sum_j p_ij + p_rf) x_i."""
    return float(x @ (P.sum(axis=1) + prob.cfg.p_rf))


def _snr_weights(P, x, prob):
    """Common factors: a, b, snr and B/(ln2 * sigma * (1 + snr))."""
    gains = prob.gains
    a, b = _accumulate(P, x, gains)
    s = a * b / prob.sigma
    c1 = prob.bandwidth / (LN2 * prob.sigma * (1.0 + s))
    return gains, a, b, s, c1


def grad_rate_wrt_power(P: np.ndarray, x: np.ndarray, prob: EsrProblem) -> np.ndarray:
    """N x K matrix of partials d(rate)/d(p_ij) = c1_j * b_j * x_i."""
    _, _, b, _, c1 = _snr_weights(P, x, prob)
    return np.outer(x, c1 * b)


def grad_rate_wrt_switch(P: np.ndarray, x: np.ndarray, prob: EsrProblem, weights=None) -> np.ndarray:
    """Length-N gradient d(rate)/d(x_i) = sum_j c1_j (p_ij b_j + 2 a_j w_ij x_i).

    weights is _snr_weights(P, x, prob) when the caller already holds it."""
    gains, a, b, _, c1 = weights or _snr_weights(P, x, prob)
    return P @ (c1 * b) + 2.0 * x * (gains @ (c1 * a))


def hess_rate_wrt_switch(P: np.ndarray, x: np.ndarray, prob: EsrProblem, weights=None) -> np.ndarray:
    """N x N Hessian of the rate in x; exactly symmetric by construction.

    weights is _snr_weights(P, x, prob) when the caller already holds it."""
    gains, a, b, s, c1 = weights or _snr_weights(P, x, prob)
    sigma = prob.sigma
    # d snr_j / d x: one column per user.
    ds = (P * b + 2.0 * a * (gains * x[:, None])) / sigma
    c2 = prob.bandwidth / (LN2 * (1.0 + s) ** 2)
    curvature = -(ds * c2) @ ds.T
    cross = (P * c1) @ (2.0 * gains * x[:, None]).T
    hess = curvature + cross + cross.T
    hess.flat[:: hess.shape[0] + 1] += 2.0 * (gains @ (c1 * a))
    return hess
