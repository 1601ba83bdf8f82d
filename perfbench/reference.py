"""Reference figures quoted in perfbench/README.md, measured anew.

    python3 perfbench/reference.py [--seed 1] [--seconds 20]

Prints, for the host it runs on:

* the svc-small mix on default kernels against the same mix with every
  sort job pinned to ``kernels: "compiled"`` (jobs/s, median over 2 s
  windows, on a fresh ``repro serve --shards 2`` each);
* the campaign workload's campaign run serially (``jobs=1``) and with
  ``jobs`` = usable CPUs, after one warm-up pass each (scenarios/s).

The ``np.sort`` floor and the share of wall time spent in ``run_job``
come from the traced run (``--trace 1``: ``kernel.floor_ratio``,
``service.run_share``).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

sys.dont_write_bytecode = True

from common import median, remove_run_dir, require_program  # noqa: E402


class CompiledMix:
    """The svc-small mix with every sort job on compiled kernels."""

    def __init__(self, inner):
        self.inner = inner

    def next_job(self, tenant: str) -> dict:
        job = self.inner.next_job(tenant)
        return {**job, "kernels": "compiled"} if job["kind"] == "sort" else job


async def small_rate(seed: int, seconds: float, compiled: bool) -> float:
    import mix
    import service

    name = "ref-compiled" if compiled else "ref-default"
    server, client, _ = await service.setup(2, name, mix.warmup_jobs(),
                                            mix.TENANTS)
    try:
        job_mix = mix.SmallMix(seed)
        load = await service.small_load(
            server.port, CompiledMix(job_mix) if compiled else job_mix, seconds)
    finally:
        await server.drain(client)
        server.stop()
    if load.failed:
        raise RuntimeError(f"{load.failed} jobs failed: {load.errors[:3]}")
    return median(load.window_rates(2.0)[0])


def campaign_rate(jobs: int) -> float:
    import mix
    from repro.chaos.campaign import run_campaign
    from repro.parallel import warm_pool

    settings = dict(count=mix.CAMPAIGN_COUNT, seed=mix.CAMPAIGN_SEED,
                    fault_classes=mix.CAMPAIGN_CLASSES,
                    backends=mix.CAMPAIGN_BACKENDS, jobs=jobs)
    try:
        run_campaign(**settings)  # warm-up
        times = []
        for _ in range(3):
            start = time.perf_counter()
            run_campaign(**settings)
            times.append(time.perf_counter() - start)
    finally:
        if jobs > 1:
            warm_pool(jobs).shutdown(wait=True)
    return mix.CAMPAIGN_COUNT / median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    require_program()
    from repro.parallel import effective_cpu_count

    default = asyncio.run(small_rate(args.seed, args.seconds, False))
    compiled = asyncio.run(small_rate(args.seed, args.seconds, True))
    print(f"svc-small jobs/s: default kernels {default:.1f}, "
          f"compiled {compiled:.1f} ({compiled / default:.2f}x)")
    cpus = effective_cpu_count()
    serial = campaign_rate(1)
    parallel = campaign_rate(cpus)
    print(f"campaign scenarios/s: jobs=1 {serial:.1f}, jobs={cpus} "
          f"{parallel:.1f} ({parallel / serial:.2f}x)")
    remove_run_dir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
