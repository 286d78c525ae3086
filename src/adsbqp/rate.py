"""Sum-rate and power-cost functions with analytic derivatives.

The per-user signal-to-noise ratio under maximum-ratio transmission with a
relaxed on/off switch vector x is

    snr_j(P, x) = (sum_i p_ij x_i) * (sum_i |h_ij|^2 x_i^2) / (N0*B)

The squared-norm factor uses x_i^2 (literal Hadamard product of the channel
column with x); on Boolean points this coincides with the x_i reading since
x_i^2 = x_i.  This is the single authoritative definition used everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .channel import ChannelMatrix, ScenarioConfig, generate_channel

__all__ = [
    "EsrProblem",
    "build_esr_problem",
    "uniform_power",
    "is_boolean_feasible",
    "snr_user",
    "snr_all",
    "sum_rate",
    "full_activation_rate",
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


def uniform_power(prob: EsrProblem, scale: float = 1.0) -> np.ndarray:
    """Uniform allocation p_ij = scale * p_th / K (row sums scale * p_th)."""
    return np.full(
        (prob.n_tx, prob.n_users), scale * prob.cfg.p_th / prob.n_users, dtype=float
    )


def build_esr_problem(cfg: ScenarioConfig, channel: ChannelMatrix | None = None) -> EsrProblem:
    """Resolve the rate threshold and flag infeasibility at full activation.

    The capacity reference is the full-activation rate at the uniform
    per-antenna power cap; a fractional threshold resolves against it.
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
        feasible_at_full_activation=bool(r_th <= full_cap),
    )


def is_boolean_feasible(x: np.ndarray, tol: float = BOOLEAN_TOL) -> bool:
    """True when every coordinate is within tol of {0, 1}."""
    x = np.asarray(x, dtype=float)
    return bool(np.all(np.minimum(np.abs(x), np.abs(1.0 - x)) <= tol))


def _accumulate(P: np.ndarray, x: np.ndarray, gains: np.ndarray):
    """Per-user linear power a_j = sum_i p_ij x_i and norm b_j = sum_i w_ij x_i^2."""
    a = x @ P
    b = (x ** 2) @ gains
    return a, b


def _rate(P, x, gains, sigma, bandwidth) -> float:
    a, b = _accumulate(P, x, gains)
    return float(bandwidth * np.sum(np.log1p(a * b / sigma)) / LN2)


def snr_all(P: np.ndarray, x: np.ndarray, prob: EsrProblem) -> np.ndarray:
    """Vector of per-user SNRs."""
    a, b = _accumulate(P, x, prob.gains)
    return a * b / prob.sigma


def snr_user(P: np.ndarray, x: np.ndarray, j: int, prob: EsrProblem) -> float:
    return float(snr_all(P, x, prob)[j])


def sum_rate(P: np.ndarray, x: np.ndarray, prob: EsrProblem) -> float:
    """Total rate sum_j B*log2(1 + snr_j)."""
    return _rate(P, x, prob.gains, prob.sigma, prob.bandwidth)


def full_activation_rate(P: np.ndarray, prob: EsrProblem) -> float:
    """Rate with every antenna on, computed from the column-norm form directly.

    Independent of sum_rate's code path: uses column norms of the channel
    matrix rather than the elementwise gain accumulation.
    """
    norms_sq = np.linalg.norm(prob.channel.entries, axis=0) ** 2
    totals = P.sum(axis=0)
    return float(
        prob.bandwidth * np.sum(np.log1p(totals * norms_sq / prob.sigma)) / LN2
    )


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


def grad_rate_wrt_switch(P: np.ndarray, x: np.ndarray, prob: EsrProblem) -> np.ndarray:
    """Length-N gradient d(rate)/d(x_i) = sum_j c1_j (p_ij b_j + 2 a_j w_ij x_i)."""
    gains, a, b, _, c1 = _snr_weights(P, x, prob)
    return P @ (c1 * b) + 2.0 * x * (gains @ (c1 * a))


def hess_rate_wrt_switch(P: np.ndarray, x: np.ndarray, prob: EsrProblem) -> np.ndarray:
    """N x N Hessian of the rate in x; exactly symmetric by construction."""
    gains, a, b, s, c1 = _snr_weights(P, x, prob)
    sigma = prob.sigma
    # d snr_j / d x: one column per user.
    ds = (P * b + 2.0 * a * (gains * x[:, None])) / sigma
    c2 = prob.bandwidth / (LN2 * (1.0 + s) ** 2)
    curvature = -(ds * c2) @ ds.T
    cross = (P * c1) @ (2.0 * gains * x[:, None]).T
    hess = curvature + cross + cross.T
    hess[np.diag_indices_from(hess)] += 2.0 * (gains @ (c1 * a))
    return hess
