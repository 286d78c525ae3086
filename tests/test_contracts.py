"""Properties of the problem that every solver must keep, checked without an
oracle: relabelling antennas or users, raising the rate threshold or the
standby draw, and the linear-SNR limit of fraction mode."""

import itertools
import time

import numpy as np
import pytest

from adsbqp import driver
from adsbqp.baselines import enumerate_selections
from adsbqp.channel import ChannelMatrix, ScenarioConfig, generate_channel
from adsbqp.rate import build_esr_problem

NOISES = (3e-14, 1e-6, 1.0)
# (n, noise, r_th_value, seed): 18 instances at up to 8 antennas.
PERMUTED = [(n, noise, r_th, i % 4) for i, (n, noise, r_th)
            in enumerate(itertools.product((4, 6, 8), NOISES, (0.1, 0.9)))]
# (n, noise, seed) for the monotonicity sweeps: 18 instances.
SWEPT = list(itertools.product((4, 6, 8), NOISES, range(2)))


def config(n, noise, r_th, seed, **kwargs):
    return ScenarioConfig(n_tx=n, n_users=n, seed=seed, r_th_mode="fraction", r_th_value=r_th,
                          noise_n0b=noise, **kwargs)


def by_solve(prob):
    sol, _ = driver.solve(prob)
    return sol.objective, sol.x_star


def by_enum(prob):
    report, x, _ = enumerate_selections(prob)
    return report.objective, x


@pytest.mark.parametrize("method", [by_solve, by_enum], ids=["solve", "enum"])
def test_permuting_the_antennas_permutes_the_selection(method):
    t0 = time.perf_counter()
    for n, noise, r_th, seed in PERMUTED:
        cfg = config(n, noise, r_th, seed)
        ch = generate_channel(cfg)
        perm = np.random.default_rng(seed).permutation(n)
        permuted = ChannelMatrix(ch.entries[perm], ch.user_distances, ch.user_positions)
        objective, x = method(build_esr_problem(cfg, ch))
        got_objective, got_x = method(build_esr_problem(cfg, permuted))
        np.testing.assert_array_equal(got_x, x[perm])
        assert abs(got_objective - objective) <= 1e-12 * abs(objective)
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("method", [by_solve, by_enum], ids=["solve", "enum"])
def test_permuting_the_users_leaves_the_selection(method):
    # The permuted view H[:, perm] itself, which is not C-contiguous.
    t0 = time.perf_counter()
    for n, noise, r_th, seed in PERMUTED:
        cfg = config(n, noise, r_th, seed)
        ch = generate_channel(cfg)
        perm = np.random.default_rng(seed).permutation(n)
        permuted = ChannelMatrix(ch.entries[:, perm], ch.user_distances[perm], ch.user_positions[perm])
        objective, x = method(build_esr_problem(cfg, ch))
        got_objective, got_x = method(build_esr_problem(cfg, permuted))
        np.testing.assert_array_equal(got_x, x)
        assert abs(got_objective - objective) <= 1e-12 * abs(objective)
    assert time.perf_counter() - t0 < 2.0


def test_raising_the_threshold_never_lowers_the_enumerated_optimum():
    t0 = time.perf_counter()
    for n, noise, seed in SWEPT:
        objectives = [by_enum(build_esr_problem(config(n, noise, r_th, seed)))[0]
                      for r_th in (0.1, 0.3, 0.5, 0.9)]
        assert objectives == sorted(objectives)
    assert time.perf_counter() - t0 < 2.0


def test_raising_the_standby_draw_never_turns_more_antennas_on():
    t0 = time.perf_counter()
    for n, noise, seed in SWEPT:
        on = [by_enum(build_esr_problem(config(n, noise, 0.5, seed, p_rf=p_rf)))[1].sum()
              for p_rf in (0.0, 0.0078, 0.05, 0.5)]
        assert on == sorted(on, reverse=True)
    assert time.perf_counter() - t0 < 2.0


# (n, r_th_value, seed) at noise 1e-3 and 1.0, where the rate is nearly
# linear in the SNR and fraction mode scales the threshold with it.
LOW_SNR = list(itertools.product((4, 6, 8), (0.1, 0.3, 0.5, 0.9), range(2)))


def test_enumeration_picks_the_same_selection_at_low_snr():
    t0 = time.perf_counter()
    for n, r_th, seed in LOW_SNR:
        x_mid, x_low = (by_enum(build_esr_problem(config(n, noise, r_th, seed)))[1]
                        for noise in (1e-3, 1.0))
        np.testing.assert_array_equal(x_mid, x_low)
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "AD2's rate row is unscaled: its coefficients shrink with the SNR, so the QP's tolerance "
    "band and the homotopy's path differ between noise 1e-3 and 1.0 (13 of these 24 differ)"))
def test_the_alternation_picks_the_same_selection_at_low_snr():
    t0 = time.perf_counter()
    differ = 0
    for n, r_th, seed in LOW_SNR:
        x_mid, x_low = (driver._ad_loop(build_esr_problem(config(n, noise, r_th, seed)),
                                        driver._sbqp_ad2)[0].x_star for noise in (1e-3, 1.0))
        differ += not np.array_equal(x_mid, x_low)
    assert time.perf_counter() - t0 < 2.0
    assert differ == 0
