"""Import budget: a simulation run loads only the modules it executes.

numpy loads at the first rng draw or statistic; tooling (lint, telemetry,
critical path, verifier, CLI) and optional subsystems (faults, IPoIB) load
on first use.  Each check runs in a fresh interpreter, since the test
process itself has loaded most of the package.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The NPB kernel modules: each registers its benchmarks on import.
NPB_KERNELS = tuple(f"repro.npb.{k}" for k in
                    ("bt_sp", "cg", "ep", "ft", "is_", "lu", "mg"))

#: Modules a fast-forwarded system L run must not load.
FORBIDDEN = ("numpy", "repro.sanitize.lint", "repro.sanitize.findings",
             "repro.telemetry", "repro.analysis.critpath",
             "repro.analysis.timeline", "repro.verify", "repro.cli",
             "repro.faults", "repro.kernel.ipoib", "repro.mpi") + NPB_KERNELS

#: The imports of the benchmark's workload list (perfbench/workloads.py),
#: then a system L pair and one tiny fast-forwarded latency and
#: bandwidth run each.
SYSTEM_L_RUN = """
import json, sys
from repro.analysis import check_between
from repro.hw.profiles import get_profile
from repro.npb.base import NpbConfig
from repro.npb.runner import run_npb
from repro.perftest.incast import IncastConfig, run_incast
from repro.perftest.runner import PerftestConfig, run_bw, run_lat
from repro.units import to_gbit_per_s
from repro.cluster import build_pair
from repro.sim import Simulator

build_pair(Simulator(seed=2), get_profile("L"))
cfg = PerftestConfig(system="L", iters=40, warmup=4, window=8, fastforward=True)
run_lat(cfg, 4096)
run_bw(cfg, 4096)
forbidden = %r
print(json.dumps(sorted(m for m in sys.modules
                        if any(m == f or m.startswith(f + ".") for f in forbidden))))
"""

#: Each opt-in path loads its module on demand, and only then.
ON_DEMAND = """
import json, os, sys
from repro.cluster import build_pair
from repro.hw.profiles import get_profile
from repro.sim import Simulator

out = {}

def loaded(name):
    return name in sys.modules

sim = Simulator(seed=1)
out["plain"] = [loaded("repro.sanitize.runtime"), loaded("repro.verify.monitors")]
out["sanitize_arg"] = [Simulator(sanitize=True)._sanitize is not None,
                       loaded("repro.sanitize.runtime"), loaded("repro.sanitize.lint")]
os.environ["REPRO_SANITIZE"] = "1"
out["sanitize_env"] = [Simulator()._sanitize is not None]
del os.environ["REPRO_SANITIZE"]
os.environ["REPRO_VERIFY_MONITORS"] = "1"
out["monitors_env"] = [Simulator()._monitor is not None, loaded("repro.verify.monitors")]
del os.environ["REPRO_VERIFY_MONITORS"]

fabric, host, _peer = build_pair(Simulator(seed=1), get_profile("L"))
out["faults"] = [loaded("repro.faults")]
from repro.faults import FaultPlan
fabric.inject_faults(FaultPlan())
out["faults"].append(loaded("repro.faults"))
out["ipoib"] = [loaded("repro.kernel.ipoib")]
host.kernel.ensure_ipoib()
out["ipoib"].append(loaded("repro.kernel.ipoib"))
from repro.npb import NpbConfig
from repro.npb.runner import run_npb
npb = ("repro.mpi",) + %r
out["npb"] = [any(map(loaded, npb))]
run_npb(NpbConfig(name="CG", klass="S", ranks=2, iterations=1), system="L")
out["npb"].append(all(map(loaded, npb)))

# Every public façade name resolves to its submodule's object.
import importlib
for pkg in ("repro.analysis", "repro.kernel", "repro.sanitize", "repro.telemetry"):
    mod = importlib.import_module(pkg)
    out[pkg] = sorted(name for name in mod.__all__ if getattr(mod, name, None) is None)
from repro.kernel import IPoIBDevice
from repro.kernel.ipoib import IPoIBDevice as direct
from repro.analysis import format_timeline
from repro.analysis.timeline import format_timeline as direct_timeline
out["same"] = [IPoIBDevice is direct, format_timeline is direct_timeline]
print(json.dumps(out))
"""


def _run(script: str, src: Path = SRC) -> object:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_system_l_fastforward_run_loads_no_tooling_and_no_numpy():
    assert _run(SYSTEM_L_RUN % (FORBIDDEN,)) == []


def test_budget_catches_a_top_level_numpy_import(tmp_path):
    """The budget has teeth: a seeded eager import in sim/rng.py fails it."""
    src = tmp_path / "src"
    shutil.copytree(SRC / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rng = src / "repro" / "sim" / "rng.py"
    rng.write_text(rng.read_text().replace(
        "import hashlib\n", "import hashlib\n\nimport numpy\n", 1))
    assert "numpy" in _run(SYSTEM_L_RUN % (FORBIDDEN,), src)


def test_opt_in_paths_load_their_modules_on_demand():
    out = _run(ON_DEMAND % (NPB_KERNELS,))
    assert out["plain"] == [False, False]
    assert out["sanitize_arg"] == [True, True, False]
    assert out["sanitize_env"] == [True]
    assert out["monitors_env"] == [True, True]
    assert out["faults"] == [False, True]
    assert out["ipoib"] == [False, True]
    assert out["npb"] == [False, True]
    for pkg in ("repro.analysis", "repro.kernel", "repro.sanitize", "repro.telemetry"):
        assert out[pkg] == [], pkg
    assert out["same"] == [True, True]
