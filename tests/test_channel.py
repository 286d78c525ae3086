import dataclasses

import numpy as np
import pytest

from adsbqp.channel import (
    ChannelMatrix,
    ScenarioConfig,
    generate_channel,
    make_rng,
    path_loss,
    sample_user_positions,
)
from adsbqp.driver import solve
from adsbqp.rate import build_esr_problem


@pytest.mark.parametrize("field", ["n_tx", "n_users", "seed"])
@pytest.mark.parametrize("value", [2.7, 3.0, True, "3"])
def test_counts_and_seed_must_be_integers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        ScenarioConfig(**{field: value})
    cfg = ScenarioConfig(**{field: np.int64(3)})  # numpy integers are integers
    assert getattr(cfg, field) == 3 and type(getattr(cfg, field)) is int


def test_make_rng_is_deterministic():
    a = make_rng(7).random(5)
    b = make_rng(7).random(5)
    np.testing.assert_array_equal(a, b)


def test_make_rng_distinct_seeds_differ():
    assert not np.array_equal(make_rng(1).random(5), make_rng(2).random(5))


def test_positions_lie_in_the_cell_disk():
    cfg = ScenarioConfig(n_tx=4, n_users=200, cell_center=(50.0, -10.0), cell_radius=7.5)
    positions, distances = sample_user_positions(cfg, make_rng(0))
    radii = np.hypot(positions[:, 0] - 50.0, positions[:, 1] + 10.0)
    assert positions.shape == (200, 2)
    assert np.all(radii <= 7.5 + 1e-12)
    np.testing.assert_allclose(
        distances, np.hypot(positions[:, 0], positions[:, 1]), atol=1e-12
    )


def test_positions_fill_the_disk_area_uniformly():
    # With area-uniform sampling, the fraction inside radius r is (r/R)^2.
    cfg = ScenarioConfig(n_tx=4, n_users=4000, cell_radius=10.0, cell_center=(0.0, 0.0))
    positions, _ = sample_user_positions(cfg, make_rng(3))
    radii = np.hypot(positions[:, 0], positions[:, 1])
    inner = np.mean(radii <= 10.0 / np.sqrt(2.0))
    assert abs(inner - 0.5) < 0.03


def test_path_loss_reference_values():
    # At unit distance the loss equals the reference gain itself.
    assert path_loss(1.0, -30.0, 3.67) == pytest.approx(1e-3)
    # Doubling the distance divides the gain by 2^eta.
    ratio = path_loss(2.0, -30.0, 3.67) / path_loss(1.0, -30.0, 3.67)
    assert ratio == pytest.approx(2.0 ** (-3.67))


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss(0.0, -30.0, 3.67)
    with pytest.raises(ValueError):
        path_loss(np.array([1.0, -2.0]), -30.0, 3.67)


def test_generate_channel_shape_and_determinism():
    cfg = ScenarioConfig(n_tx=6, n_users=4, seed=11)
    ch1 = generate_channel(cfg)
    ch2 = generate_channel(cfg)
    assert ch1.entries.shape == (6, 4)
    np.testing.assert_array_equal(ch1.entries, ch2.entries)
    np.testing.assert_array_equal(ch1.user_distances, ch2.user_distances)
    assert not np.array_equal(
        ch1.entries, generate_channel(ScenarioConfig(n_tx=6, n_users=4, seed=12)).entries
    )


def test_generate_channel_applies_per_user_path_loss():
    cfg = ScenarioConfig(n_tx=32, n_users=3, seed=5)
    ch = generate_channel(cfg)
    xi = path_loss(ch.user_distances, cfg.pathloss_t0_db, cfg.pathloss_exponent_eta)
    # Column second moments concentrate around n_tx * xi_j.
    col_power = np.sum(np.abs(ch.entries) ** 2, axis=0)
    np.testing.assert_allclose(col_power / (cfg.n_tx * xi), 1.0, rtol=0.5)


def test_channel_matrix_validation():
    good = np.ones((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        ChannelMatrix(entries=good, user_distances=np.ones(3), user_positions=np.zeros((3, 2)))
    bad = good.copy()
    bad[:, 0] = 0.0
    with pytest.raises(ValueError):
        ChannelMatrix(entries=bad, user_distances=np.ones(2), user_positions=np.zeros((2, 2)))
    nan = good.copy()
    nan[0, 0] = np.nan
    with pytest.raises(ValueError):
        ChannelMatrix(entries=nan, user_distances=np.ones(2), user_positions=np.zeros((2, 2)))


def strided_layouts(H):
    """H in four memory layouts that are not C-contiguous, each with H's entries."""
    wide = np.zeros((H.shape[0], 2 * H.shape[1]), dtype=complex)
    wide[:, ::2] = H
    return {
        "column_permuted": H[:, np.arange(H.shape[1])],
        "transposed": np.ascontiguousarray(H.T).T,
        "fortran": np.asfortranarray(H),
        "strided": wide[:, ::2],
    }


@pytest.mark.parametrize("layout", ["column_permuted", "transposed", "fortran", "strided"])
def test_channel_matrix_accepts_any_memory_layout(layout):
    cfg = ScenarioConfig(n_tx=4, n_users=4, seed=3, r_th_mode="fraction", r_th_value=0.5, noise_n0b=3e-14)
    want = generate_channel(cfg)
    entries = strided_layouts(want.entries)[layout]
    assert not entries.flags.c_contiguous
    got = ChannelMatrix(entries=entries, user_distances=want.user_distances,
                        user_positions=want.user_positions)
    assert got.gains().tobytes() == want.gains().tobytes()
    got_sol, want_sol = (solve(build_esr_problem(cfg, ch))[0] for ch in (got, want))
    for f in dataclasses.fields(want_sol):
        got_field, want_field = (np.asarray(getattr(sol, f.name)) for sol in (got_sol, want_sol))
        assert got_field.tobytes() == want_field.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)])
def test_channel_matrix_rejects_a_non_finite_part(bad):
    H = np.ones((2, 2), dtype=complex)
    H[1, 0] = bad
    for entries in (H, np.asfortranarray(H)):
        with pytest.raises(ValueError, match="channel entries must be finite"):
            ChannelMatrix(entries=entries, user_distances=np.ones(2), user_positions=np.zeros((2, 2)))


def test_scenario_config_defaults_and_validation():
    cfg = ScenarioConfig()
    assert cfg.n_tx == 64 and cfg.n_users == 64
    assert cfg.p_th == pytest.approx(1.0 / 64.0)
    assert cfg.r_th_mode == "absolute" and cfg.r_th_value == pytest.approx(82.71)
    scaled = ScenarioConfig(n_tx=8, n_users=8)
    assert scaled.r_th_mode == "fraction" and scaled.r_th_value == pytest.approx(0.5)
    assert scaled.p_th == pytest.approx(1.0 / 8.0)
    with pytest.raises(ValueError):
        ScenarioConfig(n_tx=0)
    with pytest.raises(ValueError):
        ScenarioConfig(noise_n0b=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(r_th_mode="fraction", r_th_value=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(r_th_mode="nonsense")
    for bad in (
        {"pathloss_exponent_eta": np.nan},
        {"noise_n0b": np.inf},
        {"p_rf": np.nan},
        {"cell_radius": np.nan},
        {"pathloss_t0_db": -np.inf},
        {"bandwidth_b": np.inf},
        {"p_th": np.inf},
        {"r_th_mode": "absolute", "r_th_value": np.inf},
        {"cell_center": (np.nan, 0.0)},
        {"bs_position": (0.0, np.inf)},
    ):
        with pytest.raises(ValueError, match="must be finite"):
            ScenarioConfig(n_tx=8, n_users=8, **bad)
