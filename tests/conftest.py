import numpy as np
import pytest

from pfhx import Grid, Params


@pytest.fixture
def base_params() -> Params:
    return Params(h1=1.0, h2=2.0, l=1.0, tau=1.5, k1=0.5, k2=0.5)


def field_from(grid: Grid, f1, f2) -> np.ndarray:
    x = grid.nodes
    comp = lambda f: f(x) if callable(f) else np.full_like(x, float(f))
    return np.column_stack([comp(f1), comp(f2)])


def random_field(grid: Grid, rng, scale: float = 1.0) -> np.ndarray:
    return scale * rng.standard_normal((grid.n_cells + 1, 2))

