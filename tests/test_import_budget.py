"""Import budget: a simulation run loads only the modules it executes.

No run loads numpy: the RNG (``repro.sim.rng``) and the latency and stage
statistics (``repro.stats``) are pure Python.  Tooling (lint, telemetry,
critical path, verifier, CLI) and optional subsystems (faults, IPoIB)
load on first use.  Each check runs in a fresh interpreter, since the
test process itself has loaded most of the package.
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
#: bandwidth run each, reading the latency statistics.
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
lat = run_lat(cfg, 4096)
assert lat.min_ns <= lat.p50_ns <= lat.p99_ns and lat.avg_ns > 0
run_bw(cfg, 4096)
forbidden = %r
print(json.dumps(sorted(m for m in sys.modules
                        if any(m == f or m.startswith(f + ".") for f in forbidden))))
"""

#: Stage statistics of a hand-built stage, read in a fresh interpreter.
STAGE_STATS = """
import json, sys
from repro.telemetry.attribution import StageStats

st = StageStats("post", durations=[float(d) for d in range(1, 200)])
print(json.dumps([st.p50_ns, st.p99_ns, "numpy" in sys.modules]))
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


#: The other workload paths, each drawing from the RNG: a jittered system
#: A latency and bandwidth run (fig5's path, lognormal syscall jitter), a
#: DCQCN incast on a bounded buffer (uniform ECN-marking draws) and an NPB
#: run on system A.  Per path: the numpy modules loaded so far, and
#: whether normals and uniforms were drawn.
DRAWING_RUNS = """
import json, sys
from repro.npb.base import NpbConfig
from repro.npb.runner import run_npb
from repro.perftest.incast import IncastConfig, run_incast
from repro.perftest.runner import PerftestConfig, run_bw, run_lat
from repro.sim.rng import Stream

draws = {"random": 0, "normals": 0}

def counting(kind, method):
    def counted(self, *args):
        draws[kind] += 1
        return method(self, *args)
    return counted

Stream.random = counting("random", Stream.random)
Stream.normals = counting("normals", Stream.normals)

def budget():
    drawn = [draws["normals"] > 0, draws["random"] > 0]
    draws.update(random=0, normals=0)
    return [sorted(m for m in sys.modules if m.split(".")[0] == "numpy"), drawn]

out = {}
cfg = PerftestConfig(system="A", client="cord", server="cord", iters=40,
                     warmup=4, window=8)
run_lat(cfg, 4096)
run_bw(cfg, 4096)
out["fig5"] = budget()
res = run_incast(IncastConfig(system="L", senders=8, size=64 * 1024,
                              msgs_per_sender=8, buffer_bytes=1 << 20,
                              congestion="dcqcn"))
assert res.ecn_marked > 0
out["incast"] = budget()
run_npb(NpbConfig(name="IS", klass="S", ranks=4, iterations=1),
        transport="cord", system="A", hosts_n=2)
out["npb"] = budget()
print(json.dumps(out))
"""

#: One short jittered system A latency run with numpy unimportable.
LAT_A = dict(system="A", client="cord", server="cord", iters=60, warmup=5)
BLOCKED_RUN = """
import json, sys
sys.modules["numpy"] = None
from repro.perftest.runner import PerftestConfig, run_lat

res = run_lat(PerftestConfig(**%r), 4096)
print(json.dumps([repr(x) for x in res.samples]))
"""


def _proc(script: str, src: Path = SRC) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def _run(script: str, src: Path = SRC) -> object:
    proc = _proc(script, src)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _seeded_numpy_import(tmp_path) -> Path:
    """A copy of the package whose sim/rng.py imports numpy eagerly."""
    src = tmp_path / "src"
    shutil.copytree(SRC / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rng = src / "repro" / "sim" / "rng.py"
    rng.write_text(rng.read_text().replace(
        "import hashlib\n", "import hashlib\n\nimport numpy\n", 1))
    return src


def test_system_l_fastforward_run_loads_no_tooling_and_no_numpy():
    assert _run(SYSTEM_L_RUN % (FORBIDDEN,)) == []


def test_stage_statistics_load_no_numpy():
    assert _run(STAGE_STATS) == [100.0, 197.02, False]


def test_drawing_runs_load_no_numpy():
    """System A, incast and NPB draw from the RNG without numpy.  The
    jittered paths draw uniforms too: the ziggurat's wedge and tail."""
    out = _run(DRAWING_RUNS)
    assert out == {"fig5": [[], [True, True]],
                   "incast": [[], [False, True]],
                   "npb": [[], [True, True]]}


def test_system_a_run_with_numpy_blocked_matches_this_process():
    from repro.perftest.runner import PerftestConfig, run_lat

    here = run_lat(PerftestConfig(**LAT_A), 4096)
    assert _run(BLOCKED_RUN % (LAT_A,)) == [repr(x) for x in here.samples]


def test_budget_catches_a_top_level_numpy_import(tmp_path):
    """The budget has teeth: a seeded eager import in sim/rng.py fails it."""
    src = _seeded_numpy_import(tmp_path)
    assert "numpy" in _run(SYSTEM_L_RUN % (FORBIDDEN,), src)
    assert all(path[0] for path in _run(DRAWING_RUNS, src).values())
    blocked = _proc(BLOCKED_RUN % (LAT_A,), src)
    assert blocked.returncode != 0 and "import of numpy halted" in blocked.stderr


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
