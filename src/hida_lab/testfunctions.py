"""The two kinds of test function the package evaluates: the indicator
directions eta_1, eta_2 of the pinning and seeded Gaussian-bump pairs."""

from __future__ import annotations

import random

import numpy as np

from .errors import InvalidParameterError
from .grid import Grid, GridFunctionPair, sample

# Parameter windows for the random suite, in units of the duration t.
# Centers and widths are chosen so the bumps decay below 1e-12 at both
# interval endpoints (effective compact support inside (0, t)).
_AMPLITUDE_RANGE = (0.5, 1.5)
_CENTER_RANGE = (0.40, 0.60)
_WIDTH_RANGE = (1.0 / 24.0, 1.0 / 16.0)


def indicator_pair(g: Grid, component: int) -> GridFunctionPair:
    """eta_1 = (1_[0,t), 0) or eta_2 = (0, 1_[0,t))."""
    if component == 1:
        return sample(1.0, 0.0, g)
    if component == 2:
        return sample(0.0, 1.0, g)
    raise InvalidParameterError(f"component must be 1 or 2, got {component}")


def random_suite(seed: int, count: int, g: Grid) -> list[GridFunctionPair]:
    """Reproducible Gaussian-bump pairs with both components populated."""
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    suite = []
    for _ in range(count):
        comps = []
        for _c in range(2):
            amp = rng.uniform(*_AMPLITUDE_RANGE)
            center = rng.uniform(*_CENTER_RANGE) * g.t
            width = rng.uniform(*_WIDTH_RANGE) * g.t
            s = (g.nodes - center) / width
            comps.append(amp * np.exp(-s ** 2).astype(complex))
        suite.append(GridFunctionPair(grid=g, comp1=comps[0], comp2=comps[1]))
    return suite
