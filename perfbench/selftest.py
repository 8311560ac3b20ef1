#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` at ``--scale 0.05`` with one
pass, twice with the same seed and once traced, plus ``fig5-systemA`` with
a second seed.  It checks that:

- every end-to-end (untraced) and per-layer (traced) metric is printed
  with the unit ``BENCHMARK.json`` gives it, and no measurement failed;
- two same-seed runs give identical ``sim_*`` values and ``sim_digest``;
- another seed changes ``fig5-systemA``'s digest (the seed reaches the
  program);
- the traced run's ``self_s.*`` cover >= 90% of the profiled wall time,
  ``ff.skip_share`` is higher on ``fig34-systemL-ff`` than on
  ``fig5-systemA``, and ``self_s.mpi`` is nonzero only on ``npb-scaleout``.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.05"


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One tiny run: (last-line result, full record)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--scale", SCALE]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n"
                         f"{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    path = ROOT / ".perfbench" / f"{workload}.seed{seed}.trace{trace}.json"
    return result, json.loads(path.read_text())


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            problems.append(what)

    def units(result: dict) -> dict:
        return {name: m["unit"] for name, m in result["metrics"].items()}

    traced = {}
    digests = {}
    for w in spec["workloads"]:
        name = w["name"]
        print(name)
        first, rec1 = _run(name, 1, 0)
        second, rec2 = _run(name, 1, 0)
        for result in (first, second):
            expect(units(result) == e2e, "end-to-end metrics and units")
            expect(result["failed"] == 0 and result["attempted"] >= 1,
                   "no failed measurement")
        expect(rec1["sim"] == rec2["sim"], "same seed -> identical sim_* values")
        expect(rec1["sim_digest"] == rec2["sim_digest"],
               "same seed -> identical sim_digest")
        expect(rec1["deterministic"], "every pass reproduces the digest")
        digests[name] = rec1["sim_digest"]

        result, rec = _run(name, 1, 1)
        expect(units(result) == per_layer, "per-layer metrics and units")
        expect(result["failed"] == 0, "no failed measurement (traced)")
        expect(rec["deterministic"], "profiled pass reproduces the digest")
        expect(rec["sim_digest"] == rec1["sim_digest"],
               "traced run -> same sim_digest")
        traced[name] = {k: m["value"] for k, m in result["metrics"].items()}
        expect(traced[name]["profile_coverage"] >= 0.9,
               "self_s.* cover >= 90% of profiled wall time")

    print("fig5-systemA, seed 2")
    _result, rec = _run("fig5-systemA", 2, 0)
    expect(rec["sim_digest"] != digests["fig5-systemA"],
           "another seed changes the digest")
    print("layer separation")
    expect(traced["fig34-systemL-ff"]["ff.skip_share"]
           > traced["fig5-systemA"]["ff.skip_share"],
           "ff.skip_share: fig34-systemL-ff > fig5-systemA")
    expect(all((m["self_s.mpi"] > 0) == (name == "npb-scaleout")
               for name, m in traced.items()),
           "self_s.mpi nonzero only on npb-scaleout")

    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
