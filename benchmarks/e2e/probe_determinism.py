"""Does the interpreted Zipf hotspot repeat its virtual time?

    PYTHONPATH=src python benchmarks/e2e/probe_determinism.py

Runs the registered ``hotspot-zipf`` scenario (2 tasks per locale,
interpreted engine) at 64 and 128 locales, three times with the default
worker-pool size and once with a pool of one, then prints every virtual
time and whether they repeat.  It only reports — the exit code is always
0 — because the answer is the point: at 64 locales and more the default
pool does not repeat, which is why the benchmark's ``scale`` workload
runs compiled with the pool size pinned.
"""

from __future__ import annotations

from repro.bench.scenarios import get_scenario, run_scenario

LOCALES = (64, 128)
REPEATS = 3


def main() -> None:
    base = get_scenario("hotspot-zipf").with_topology(engine="interpreted")
    for locales in LOCALES:
        spec = base.with_topology(locales=locales)
        pooled = [run_scenario(spec).result.elapsed for _ in range(REPEATS)]
        single = run_scenario(spec.with_topology(worker_pool_size=1)).result.elapsed
        verdict = "repeats" if len(set(pooled + [single])) == 1 else "DOES NOT REPEAT"
        print(f"hotspot-zipf @ {locales} locales x {spec.topology.tasks_per_locale} tasks:"
              f" {verdict}")
        print(f"  default pool: {', '.join(repr(v) for v in pooled)}")
        print(f"  pool size 1:  {single!r}")


if __name__ == "__main__":
    main()
