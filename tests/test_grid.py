import numpy as np
import pytest

from conftest import field_from
from pfhx import Grid, Params, compatibility_check
from pfhx.grid import _l2, check_field


def test_grid_geometry():
    grid = Grid(200, 1.0)
    assert grid.dx * grid.n_cells == pytest.approx(1.0, abs=1e-15)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0
    assert len(grid.nodes) == 201
    assert grid.dt == grid.dx


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0, 1.0)
    with pytest.raises(ValueError):
        Grid(10, -1.0)
    grid = Grid(10, 2.0)  # a field must match its grid and be finite
    with pytest.raises(ValueError, match="does not match"):
        check_field(np.zeros((5, 2)), grid)
    bad = np.zeros((11, 2))
    bad[3, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        check_field(bad, grid)


def test_tau_snapping():
    grid = Grid(100, 1.0)  # dx = 0.01
    m, tau, changed = grid.snap_tau(0.333)
    assert m == 33 and tau == pytest.approx(0.33) and changed
    m, tau, changed = grid.snap_tau(0.5)
    assert m == 50 and not changed
    # a delay far below the step still snaps to one full step
    m, tau, _ = grid.snap_tau(1e-6)
    assert m == 1


def test_l2_norm_zero_and_constant():
    grid = Grid(50, 1.0)
    assert _l2(np.zeros((51, 2)), grid.dx) == 0.0
    ones = field_from(grid, 1.0, 0.0)
    assert _l2(ones, grid.dx) == pytest.approx(1.0, abs=1e-14)


def test_l2_norm_sine():
    grid = Grid(1000, 1.0)
    field = field_from(grid, lambda x: np.sin(np.pi * x), 0.0)
    assert _l2(field, grid.dx) == pytest.approx(np.sqrt(0.5), abs=1e-5)


@pytest.mark.parametrize("n_cells", [1, 2, 7, 400])
@pytest.mark.parametrize("fill", ["finite", "inf", "nan"])
def test_l2_norm_has_the_bits_of_numpys_trapezoid(n_cells, fill):
    grid = Grid(n_cells, 1.0)
    field = np.random.default_rng(n_cells).normal(size=(n_cells + 1, 2)) * 1e3
    if fill != "finite":
        field[n_cells // 2, 1] = float(fill)
    y = field[:, 0] ** 2 + field[:, 1] ** 2
    expected = np.sqrt(np.trapezoid(y, dx=grid.dx))
    assert np.float64(_l2(field, grid.dx)).view(np.int64) == expected.view(np.int64)


def test_compatibility_zero_field():
    grid = Grid(100, 1.0)
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=0.5, k1=0.5, k2=0.5)
    report = compatibility_check(np.zeros((101, 2)), params, grid)
    assert report.compatible and report.residual1 == 0.0


def test_compatibility_sine_profiles():
    grid = Grid(200, 1.0)
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=0.5, k1=0.5, k2=0.5)
    w = field_from(grid, lambda x: np.sin(np.pi * x), lambda x: np.sin(np.pi * x))
    report = compatibility_check(w, params, grid)
    assert report.compatible and report.jump_count == 0


def test_compatibility_boundary_violation():
    grid = Grid(100, 1.0)
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=0.5, k1=0.5, k2=0.5)
    w = field_from(grid, 1.0, 0.0)
    report = compatibility_check(w, params, grid)
    # |w1(0) + k1*w2(l)| = 1
    assert not report.compatible and report.residual1 == pytest.approx(1.0)
    assert not report.boundary_ok


def test_compatibility_flags_step_discontinuity():
    grid = Grid(100, 1.0)
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=0.5, k1=0.5, k2=0.5)
    w = field_from(grid, lambda x: np.where(x < 0.5, 0.0, 1.0), 0.0)
    w[0, 0] = -params.k1 * w[-1, 1]  # make the boundary residuals zero
    w[0, 1] = -params.k2 * w[-1, 0]
    report = compatibility_check(w, params, grid)
    assert report.jump_count >= 1 and not report.compatible


def test_compatibility_refuses_a_step_that_underflows_and_reports_python_values():
    params = Params(h1=1.0, h2=2.0, l=1.0, tau=0.5, k1=0.5, k2=0.5)
    w = np.zeros((11, 2))
    w[5:, 0] = 1.0  # a unit jump
    with pytest.raises(ValueError) as refusal:
        compatibility_check(w, params, Grid(10, 5e-324))  # dx = l / n_cells rounds to 0.0
    assert str(refusal.value) == "the step dt=0.0 must be positive to count duration 5e-324"
    for l in (1.0, 1e-310):  # at 1e-310 the jump's slope overflows to inf, with no warning
        report = compatibility_check(w, params, Grid(10, l))
        assert report.jump_count == 1 and report.max_slope == pytest.approx(10.0 / l)
        assert not report.compatible and not report.boundary_ok
        for value, kind in zip(report, (bool, float, float, bool, float, int, float)):
            assert type(value) is kind, (report, value)
