"""Benchmark of the fault-tolerant sorting service and its chaos campaigns.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload svc-small --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

* ``svc-small``: ``repro serve --shards 2`` (a router and two shards),
  two tenants, small sort and plan jobs, results streamed;
* ``svc-bulk``: one ``repro serve``, 2^20-key sorts on compiled kernels;
* ``campaign``: ``run_campaign`` over every fault class and both engines.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced replay with
``--trace 1``).  Progress and problems go to standard error.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

from common import (  # noqa: E402
    BenchError,
    children_peak_rss_mb,
    emit,
    log,
    median,
    metric,
    out_dir,
    percentile,
    remove_run_dir,
    require_program,
)

WORKLOADS = ("svc-small", "svc-bulk", "campaign")

#: Launches per run; ``setup_s`` is their median.
SETUPS = 3


class Run:
    """Operation counts and check results of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []  # outputs the checkers rejected
        self.problems: list[str] = []  # failed operations

    def count(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)


#: svc-small throughput is the median over windows of this many seconds.
WINDOW_S = 2.0

#: svc-small's p99 is the median of the p99s of up to three consecutive
#: parts of the run, each with at least this many samples (so at least
#: ten lie beyond each p99): a burst of outside load that inflates one
#: part's tail does not move it.
P99_PART_SAMPLES = 1000


def tail_p99(latencies_ms: list[float]) -> float:
    """p99 as the median over up to three parts of the run in order."""
    parts = max(1, min(3, len(latencies_ms) // P99_PART_SAMPLES))
    size = len(latencies_ms) // parts
    return median([percentile(latencies_ms[i * size:(i + 1) * size], 99)
                   for i in range(parts)])


def end_to_end(*, setup_s: list[float], op_rates: list[float],
               key_rates: list[float], latencies_ms: list[float]) -> dict:
    """The seven end-to-end metrics, from what the client observed.

    Rates are medians over the windows or rounds of the run, so one
    stalled second does not move them.  A service job and a campaign
    scenario are both the unit of work of their workload, so
    ``jobs_per_s`` and ``scenarios_per_s`` read the same.  Latencies are
    in the order their operations were submitted.
    """
    if not op_rates:
        raise BenchError("the run completed no whole window or round")
    rate = median(op_rates)
    return {
        "setup_s": metric(median(setup_s), "s"),
        "jobs_per_s": metric(rate, "1/s"),
        "scenarios_per_s": metric(rate, "1/s"),
        "keys_per_s": metric(median(key_rates), "keys/s"),
        "latency_p50_ms": metric(median(latencies_ms), "ms"),
        "latency_p99_ms": metric(tail_p99(latencies_ms), "ms"),
        "peak_rss_mb": metric(children_peak_rss_mb(), "MB"),
    }


async def service_workload(workload: str, seed: int, seconds: float,
                           run: Run) -> dict:
    import mix
    import service

    small = workload == "svc-small"
    if small:
        shards, warmup, tenants = 2, mix.warmup_jobs(), mix.TENANTS
    else:
        shards, warmup, tenants = 1, mix.bulk_warmup_jobs(), ("bulk",)
    setups = []
    for k in range(SETUPS):
        server, client, setup_s = await service.setup(
            shards, f"{workload}{k}", warmup, tenants)
        setups.append(setup_s)
        if k == SETUPS - 1:
            break
        try:
            run.count(await server.drain(client))
        finally:
            server.stop()
    try:
        if small:
            stats = await client.stats()
            for tenant, shard in mix.TENANT_SHARDS.items():
                placed = stats["shards"][shard].get("tenants", {})
                if tenant not in placed:
                    run.mismatches.append(f"tenant {tenant} is not on {shard}")
            load = await service.small_load(server.port, mix.SmallMix(seed),
                                            seconds)
        else:
            load = await service.bulk_load(client, mix.BulkMix(seed), seconds)
    finally:
        problem = await server.drain(client)
        server.stop()
    run.attempted += len(load.records) + load.failed
    run.failed += load.failed
    run.mismatches += load.mismatches
    run.problems += load.errors
    run.count(problem)
    if small:
        op_rates, key_rates = load.window_rates(WINDOW_S)
    else:
        op_rates, key_rates = load.round_rates(len(mix.BULK_FAULTS))
    by_submit = sorted(load.records, key=lambda r: r.submitted)
    return end_to_end(setup_s=setups, op_rates=op_rates, key_rates=key_rates,
                      latencies_ms=[r.latency_ms for r in by_submit])


def campaign_workload(seconds: float, run: Run) -> dict:
    import time

    import campaign
    import mix
    from checkers import CheckFailed

    setups = []
    for k in range(SETUPS):
        proc = campaign.CampaignProcess(f"c{k}")
        try:
            _, report = proc.round(mix.CAMPAIGN_WARMUP)  # ends set-up
            setups.append(time.perf_counter() - proc.started)
            campaign.check_round(report, mix.CAMPAIGN_WARMUP)
        except CheckFailed as exc:
            run.mismatches.append(str(exc))
        except BaseException:
            proc.close()
            raise
        if k < SETUPS - 1:
            proc.close()
    round_s, key_rates = [], []
    try:
        start = time.perf_counter()
        while not round_s or time.perf_counter() - start < seconds:
            elapsed, report = proc.round()
            round_s.append(elapsed)
            run.attempted += mix.CAMPAIGN_COUNT
            try:
                failing, round_keys = campaign.check_round(report)
            except CheckFailed as exc:
                run.mismatches.append(str(exc))
                continue
            key_rates.append(round_keys / elapsed)
            run.failed += len(failing)
            unknown = sorted(set(failing) - set(mix.CAMPAIGN_KNOWN_FAILURES))
            if unknown:
                log(f"campaign scenarios {unknown} failed as well")
    finally:
        code = proc.close()
    if code != 0:
        raise BenchError(f"campaign process exited with {code}")
    return end_to_end(setup_s=setups,
                      op_rates=[mix.CAMPAIGN_COUNT / s for s in round_s],
                      key_rates=key_rates,
                      latencies_ms=[s * 1e3 for s in round_s])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
        import checkers

        checkers.selftest(str(out_dir("tmp")))
        run = Run()
        if args.trace:
            import traced

            if args.workload == "campaign":
                res = traced.run_campaign_traced(args.seed, args.seconds)
            else:
                res = asyncio.run(traced.svc(args.workload, args.seed,
                                             args.seconds))
            run.attempted, run.failed = res.attempted, res.failed
            run.mismatches += res.mismatches
            run.problems += res.problems
            metrics = res.metrics()
        elif args.workload == "campaign":
            metrics = campaign_workload(args.seconds, run)
        else:
            metrics = asyncio.run(service_workload(
                args.workload, args.seed, args.seconds, run))
    except BenchError as exc:
        log(f"error: {exc}")
        return 2
    for problem in (run.mismatches + run.problems)[:20]:
        log(problem)
    if not run.mismatches and not run.problems:
        remove_run_dir()
    emit(not run.mismatches, run.attempted, run.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
