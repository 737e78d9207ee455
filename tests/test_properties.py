"""Property tests: Wilson intervals, the Euler-Maruyama step grid and the
ensemble's path blocks, over generated inputs."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from autores import ensemble
from autores.ensemble import wilson_interval
from autores.integrators import sde_step_count, step_grid


@st.composite
def _counts(draw):
    n = draw(st.integers(1, 10**6))
    return draw(st.integers(0, n)), n


@settings(max_examples=500, deadline=None)
@given(_counts())
def test_wilson_contains_estimate_and_mirrors(kn):
    k, n = kn
    lo, hi = wilson_interval(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0
    # k successes bound p from below as n - k failures bound 1 - p above
    lo_m, hi_m = wilson_interval(n - k, n)
    assert abs(lo - (1.0 - hi_m)) <= 1e-12
    assert abs(hi - (1.0 - lo_m)) <= 1e-12


@st.composite
def _windows(draw):
    tau0 = draw(st.floats(0.0, 400.0))
    dt = draw(st.floats(1e-4, 1.0))
    span = draw(st.floats(1e-6, 100.0).filter(lambda s: s / dt <= 20_000))
    return tau0, tau0 + span, dt


@settings(max_examples=300, deadline=None)
@given(_windows())
@example((0.0, 100.00000000005, 1e-3))
def test_step_grid_covers_window(window):
    tau0, tau1, dt = window
    tau_at, tau_next, h = step_grid(tau0, tau1, dt)
    assert tau_at.size == sde_step_count(tau0, tau1, dt)
    assert tau_at[0] == tau0 and tau_next[-1] == tau1
    assert np.all(h > 0) and np.all(h[:-1] <= dt * (1 + 1e-9))
    # a remainder within sde_step_count's rounding tolerance joins the
    # last step instead of making a step of its own
    assert h[-1] <= dt * (1 + 1e-9) + 1e-12 * max(1.0, abs(tau1))
    # contiguous: each step starts where the one before it ended
    assert np.array_equal(tau_at[1:], tau_next[:-1])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**7))
def test_path_blocks_partition_paths(n_paths):
    blocks = ensemble._path_blocks(n_paths)
    widths = [hi - lo for lo, hi in blocks]
    assert blocks[0][0] == 0 and blocks[-1][1] == n_paths
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert min(widths) > 0 and max(widths) <= ensemble.MAX_BLOCK_PATHS
    assert max(widths) - min(widths) <= 1
