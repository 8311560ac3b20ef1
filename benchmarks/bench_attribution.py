"""Attribution record — per-stage blame for a pinned slice of every figure.

Runs every probe of ``ATTRIBUTION_PROBES`` (fig1, fig3, fig4, fig5) with
full tracing and writes its per-stage queueing/service totals into
``results/BENCH_attribution.json``.  Probe iteration counts are pinned,
never scaled by ``REPRO_BENCH_SCALE``, so every run writes the same bytes
and ``tools/check_results.py`` byte-compares the record with its
committed copy.

The record is written only if it honours the accounting contract: no
probe's trace dropped records (attribution over a truncated ring is never
acceptable), and named stages explain at least 95% of every op.
"""

from repro.bench_support import emit_record
from repro.telemetry.attribution import ATTRIBUTION_PROBES, run_probe

MIN_EXPLAINED = 0.95


def record() -> dict:
    """Every probe's entry, keyed by probe; raises on a contract breach."""
    probes = {}
    for specs in ATTRIBUTION_PROBES.values():
        for spec in specs:
            entry = run_probe(spec)
            if entry["dropped"]:
                raise AssertionError(f"{spec.key}: trace dropped "
                                     f"{entry['dropped']} records")
            if entry["explained_min"] < MIN_EXPLAINED:
                raise AssertionError(
                    f"{spec.key}: only {entry['explained_min']:.1%} of some "
                    f"op explained (< {MIN_EXPLAINED:.0%})")
            probes[spec.key] = entry
    return {"probes": probes}


def main():
    emit_record("BENCH_attribution", record())


def test_attribution_record():
    main()


if __name__ == "__main__":
    main()
