"""SciPy loads on first use, not at import.

Only :meth:`~repro.optimization.linprog.LinearProgram.solve` and
:func:`~repro.apptracker.interas.nash_bargaining_weights` call into
SciPy, and they import it themselves.  Importing ``repro`` -- and with it
the simulator, the portal server and the CLI -- must not load it: SciPy
is ~0.4 s of start-up and ~48 MB resident in every process that pays it.

Each check runs in a fresh interpreter, since this test process has
long since imported whatever other tests needed.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

# A meta-path finder that makes ``import scipy`` (and any submodule) fail.
_NO_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, _NoScipy())
"""

_WITHOUT_SCIPY = _NO_SCIPY + """
import importlib
import pkgutil

import repro

names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)

from repro.experiments.comparison import ComparisonConfig, run_comparison
from repro.network.library import abilene

outcomes = run_comparison(abilene(), ComparisonConfig(n_peers=6, file_mbit=8.0))
assert set(outcomes) == {"native", "localized", "p4p"}, sorted(outcomes)

from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.pdistance import uniform_pid_map
from repro.observability import NULL_TELEMETRY
from repro.portal.aserver import AsyncPortalServer
from repro.portal.client import PortalClient

topology = abilene()
itracker = ITracker(
    topology=topology,
    config=ITrackerConfig(mode=PriceMode.DYNAMIC),
    pid_map=uniform_pid_map(topology),
    telemetry=NULL_TELEMETRY,
)
itracker.observe_loads({link: 40.0 for link in topology.links}, now=100.0)
with AsyncPortalServer(itracker, telemetry=NULL_TELEMETRY, workers=1) as server:
    with PortalClient(*server.address) as client:
        full = client.get_pdistances()
        pair = sorted(full.pids)[:2]
        restricted = client.get_pdistances(pids=pair)
assert full == itracker.view_snapshot()
assert sorted(restricted.pids) == pair
print(len(names), "modules")
"""

_LOADS_ON_SOLVE = """
import sys

import repro
from repro.optimization.linprog import LinearProgram

before = any(name.split(".")[0] == "scipy" for name in sys.modules)
lp = LinearProgram(name="cold")
lp.add_var("x", ub=3.0)
lp.add_var("y")
lp.add_le({"x": 1.0, "y": 1.0}, 4.0)
lp.add_le({"x": 1.0, "y": 3.0}, 7.0)
lp.set_objective({"x": 3.0, "y": 2.0}, maximize=True)
solution = lp.solve()
after = "scipy.optimize" in sys.modules
print(repr((before, after, solution.objective, solution.values,
            solution.dual_ub.tolist())))
"""


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.timeout(150)
def test_every_module_the_simulator_and_the_portal_run_without_scipy():
    assert _run(_WITHOUT_SCIPY).endswith(" modules\n")


@pytest.mark.timeout(150)
def test_scipy_loads_on_the_first_solve_with_the_same_answer():
    before, after, objective, values, duals = ast.literal_eval(_run(_LOADS_ON_SOLVE))
    assert (before, after) == (False, True)
    # x = 3 on its bound, y = 1 on x + y <= 4; x + 3y <= 7 is slack.
    assert objective == 11.0
    assert values == {"x": 3.0, "y": 1.0}
    assert duals == [-2.0, -0.0]
