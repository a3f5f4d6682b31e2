import collections
import sys

import numpy as np
import pytest

from condlab import solver
from condlab.constitutive import Linear, MaterialMap, PowerLaw
from condlab.mesh import build_disk_mesh, build_rect_mesh
from condlab.solver import Problem


@pytest.fixture(scope="session")
def disk():
    """Unit disk, coarse enough for fast nonlinear solves."""
    return build_disk_mesh(1.0, 0.15)


@pytest.fixture(scope="session")
def disk_fine():
    return build_disk_mesh(1.0, 0.08)


@pytest.fixture(scope="session")
def square():
    return build_rect_mesh(1.0, 1.0, 0.25)


@pytest.fixture
def linear_unit():
    return MaterialMap({0: Linear(1.0)})


@pytest.fixture
def power4():
    return MaterialMap({0: PowerLaw(sigma_bar=2.0, e0=1.0, p=4.0)})


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def problem_builds(monkeypatch):
    """Records each ``Problem`` built while the test runs."""
    builds = []
    init = Problem.__init__

    def counting_init(self, *args):
        builds.append(1)
        init(self, *args)

    monkeypatch.setattr(Problem, "__init__", counting_init)
    return builds


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts the ``condlab.solver.solve`` calls made while the test runs,
    keyed by (id of the mesh, id of the material map, datum name).
    ``solve`` is patched under every name a ``condlab`` module bound it
    to."""
    calls = collections.Counter()
    orig = solver.solve

    def counting_solve(mesh, materials, datum, *args, **kwargs):
        calls[id(mesh), id(materials), datum.name] += 1
        return orig(mesh, materials, datum, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "condlab" \
                and vars(mod).get("solve") is orig:
            monkeypatch.setattr(mod, "solve", counting_solve)
    return calls
