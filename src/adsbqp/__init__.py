"""Joint transmit-antenna selection and power allocation toolkit.

Alternating-direction optimization of a mixed-Boolean power-minimization
problem: the power allocation is the water-filling solution over the
per-user received totals, the same kernel that decides its feasibility,
and a penalty-homotopy sequential Boolean QP handles the antenna switches.
AdConfig holds the only settable value, the AD iteration cap; every
tolerance and solver limit is a constant of the module that reads it, and
bqp.Ad2Result is the one result of an AD2 step.
"""

__version__ = "0.1.0"

from .channel import ChannelMatrix, ScenarioConfig, generate_channel, make_rng, path_loss, sample_user_positions
from .rate import (
    EsrProblem,
    build_esr_problem,
    economic_objective,
    grad_rate_wrt_power,
    grad_rate_wrt_switch,
    hess_rate_wrt_switch,
    sum_rate,
)
from .qp import QpProblem, QpSolution, kkt_residual, solve_qp
from .nlp import InfeasibleProblemError, NlpProblem, NlpSolution, find_strictly_feasible, solve_barrier
from .bqp import Ad2Result, penalty_phi, solve_bqp
from .driver import AdConfig, AdTrace, Solution, ad1, build_ad2_subproblem, solve
from .baselines import MethodReport, enumerate_selections, solve_ad_nspen, solve_ad_spen

__all__ = [
    "ChannelMatrix",
    "ScenarioConfig",
    "generate_channel",
    "make_rng",
    "path_loss",
    "sample_user_positions",
    "EsrProblem",
    "build_esr_problem",
    "economic_objective",
    "grad_rate_wrt_power",
    "grad_rate_wrt_switch",
    "hess_rate_wrt_switch",
    "sum_rate",
    "QpProblem",
    "QpSolution",
    "kkt_residual",
    "solve_qp",
    "InfeasibleProblemError",
    "NlpProblem",
    "NlpSolution",
    "find_strictly_feasible",
    "solve_barrier",
    "Ad2Result",
    "penalty_phi",
    "solve_bqp",
    "AdConfig",
    "AdTrace",
    "Solution",
    "ad1",
    "build_ad2_subproblem",
    "solve",
    "MethodReport",
    "enumerate_selections",
    "solve_ad_nspen",
    "solve_ad_spen",
]
