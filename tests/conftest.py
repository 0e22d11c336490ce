import logging

import numpy as np
import pytest
from hypothesis import settings

from pqvar import registry
from pqvar.model import Grid, Region
from pqvar.solver import Schedule, boundary_family, run_scheme

# property tests explore a fixed corpus so the suite is reproducible run to run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_unasserted_pqvar_warnings(caplog):
    """Fail a test on any WARNING record of the `pqvar` logger, from its setup or
    its call, that the test did not assert and then drop with `caplog.clear()`."""
    yield
    stray = [f"{r.name}: {r.getMessage()}" for when in ("setup", "call")
             for r in caplog.get_records(when)
             if r.name.split(".")[0] == "pqvar" and r.levelno >= logging.WARNING]
    if stray:
        pytest.fail("unasserted pqvar warnings:\n" + "\n".join(stray), pytrace=False)


AMPLITUDES = (0.5, 1.0, 2.0, 4.0)
GRIDS = (32, 64)
REGION = Region((0.5, 0.5), 0.45, "ball")


@pytest.fixture(scope="session")
def solve_battery():
    """Scheme runs shared by the measurement tests: the scalar and vectorial
    quartic model over two grids and an amplitude sweep (sine data, 4 rungs)."""
    out = {}
    for case, entry_name in (("scalar", "aniso2d_q4"), ("vector", "aniso2d_q4_vec")):
        entry = registry.get(entry_name)
        amps = AMPLITUDES + ((8.0,) if case == "scalar" else ())
        for cells in GRIDS:
            grid = Grid(2, cells)
            for amp in amps:
                if amp == 8.0 and cells != 32:
                    continue
                g = boundary_family("sine", grid, amp, entry.regime.N)
                out[(case, cells, amp)] = run_scheme(
                    entry.integrand, entry.regime, grid, g, Schedule.dyadic(4))
    return out


@pytest.fixture(scope="session")
def scalar_entry():
    return registry.get("aniso2d_q4")


@pytest.fixture(scope="session")
def vector_entry():
    return registry.get("aniso2d_q4_vec")
