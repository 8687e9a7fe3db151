"""Fixtures shared by several test modules."""

import pytest

from specwave.initial import build_initial
from specwave.semidisc import SchemeSpec
from specwave.spectral import make_grid
from specwave.timeint import EvolveConfig, evolve

from oracles import saint_venant_1d


@pytest.fixture(scope="session")
def drift_run_1d():
    """Sharp-scheme run of init1 (alpha=1.5) on 2M=256 with dt=1e-5 to T=0.1.

    Monitors are sampled at t=0, after 5000 steps (t=0.05) and at T=0.1.
    The first 5000 steps are exactly the steps of a run to T=0.05, so the
    first two rows are that run's monitors.
    """
    st0 = build_initial("init1", {"alpha": 1.5}, make_grid(1, 128))
    cfg = EvolveConfig(dt=1e-5, T=0.1, monitor_stride=5000)
    return evolve(SchemeSpec("sharp"), saint_venant_1d(), st0, cfg)
