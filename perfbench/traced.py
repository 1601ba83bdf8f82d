"""The traced run (``--trace 1``): per-layer figures of each workload.

Each workload is replayed with spans recorded from the benchmark's side
of every layer boundary:

* the live service: ``ServiceClient`` submit / stream / result spans,
  the result fields the server reports (``run_ms``, ``queue_ms``) and
  its ``stats`` op, a probe of what the router adds, the drain;
* the job engine, in this process on the same job specs:
  ``repro.service.jobs.run_job`` with spans around ``plan_partition``,
  ``lower_schedule`` and ``fault_tolerant_sort`` as run_job calls them,
  and ``np.sort`` on the same keys as the floor;
* the campaign, in this process: ``repro.parallel.run_tasks`` over the
  campaign's scenarios with a span around each ``run_scenario``.

The load windows alternate untraced and traced; the difference of their
median latencies is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

import campaign
import mix
import service
from checkers import CheckFailed
from common import SHM_PREFIX, median, metric, out_dir, shm_segments, traces_dir
from tracing import Tracer

#: Every per-layer metric with its unit; a workload that does not
#: exercise a layer reports 0 for it.
PER_LAYER = {
    "service.run_ms.p50": "ms",
    "service.queue_ms.p50": "ms",
    "service.overhead_ms.p50": "ms",
    "service.run_share": "ratio",
    "service.batch_size.mean": "jobs",
    "service.resubmits": "count",
    "router.added_ms.p50": "ms",
    "router.frames": "count",
    "router.frame_mb": "MB",
    "router.orbit_gossiped": "count",
    "stream.ms.p50": "ms",
    "stream.mb_per_s": "MB/s",
    "stream.frames": "count",
    "plancache.hit_ratio": "ratio",
    "plancache.misses": "count",
    "plancache.canonicalizations": "count",
    "plan.cold_ms.p50": "ms",
    "plan.warm_ms.p50": "ms",
    "lower.ms.p50": "ms",
    "lower.calls": "count",
    "kernel.small_ms.p50": "ms",
    "kernel.bulk_ms.p50": "ms",
    "kernel.bulk_ms.n6.p50": "ms",
    "kernel.bulk_ms.n8.p50": "ms",
    "kernel.bulk_ms.n10.p50": "ms",
    "kernel.np_sort_ms.p50": "ms",
    "kernel.floor_ratio": "ratio",
    "kernel.bytes_moved": "bytes",
    "kernel.gb_per_s": "GB/s",
    "parallel.busy_share": "ratio",
    "parallel.chunks": "count",
    "parallel.pickled_bytes": "bytes",
    "parallel.arena_bytes": "bytes",
    "shm.segments_left": "count",
    "scenario.phase_ms.p50": "ms",
    "scenario.spmd_ms.p50": "ms",
    "scenario.baseline_ms.p50": "ms",
    "scenario.comparison_ms.p50": "ms",
    "scenario.memory_ms.p50": "ms",
    "scenario.hybrid_ms.p50": "ms",
    "scenario.abft_ms.p50": "ms",
    "chaos.recoveries": "count",
    "chaos.retries": "count",
    "chaos.timeouts": "count",
    "chaos.shrink_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

#: Jobs of the svc-small mix replayed through run_job in this process.
SMALL_REPLAY_JOBS = 200


class Outcome:
    """What a traced run hands back to run.py."""

    def __init__(self):
        self.values = {name: 0.0 for name in PER_LAYER}
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.problems: list[str] = []

    def set(self, name: str, value: float) -> None:
        if name not in PER_LAYER:
            raise KeyError(name)
        self.values[name] = float(value)

    def metrics(self) -> dict:
        return {name: metric(self.values[name], unit)
                for name, unit in PER_LAYER.items()}


# -- service workloads -----------------------------------------------------------


async def _windows(run_window, seconds: float, tracer: Tracer):
    """Untraced, traced, traced, untraced (a drift in between cancels):
    return both sides' loads."""
    plain, traced = [], []
    for on in (False, True, True, False):
        load = await run_window(seconds / 4, tracer if on else None)
        (traced if on else plain).append(load)
    return plain, traced


def _merge(loads: list) -> service.LoadResult:
    out = service.LoadResult()
    for load in loads:
        out.records += load.records
        out.failed += load.failed
        out.mismatches += load.mismatches
        out.errors += load.errors
    return out


def _service_layers(res: Outcome, plain, traced, shard_stats: list[dict],
                    server_s: float) -> None:
    lat_plain = [r.latency_ms for r in plain.records]
    lat_traced = [r.latency_ms for r in traced.records]
    if lat_plain and lat_traced:
        res.set("trace.overhead_pct",
                100.0 * (median(lat_traced) - median(lat_plain))
                / median(lat_plain))
    run_ms, queue_ms, over_ms, stream_ms = [], [], [], []
    stream_bytes = stream_s = frames = 0
    for rec in traced.records:
        run = float(rec.result.get("run_ms", 0.0))
        queue = float(rec.result.get("queue_ms", 0.0))
        run_ms.append(run)
        queue_ms.append(queue)
        over_ms.append(rec.latency_ms - run - queue)
        if rec.frames:
            stream_ms.append((rec.done - rec.first_frame) * 1e3)
            stream_bytes += rec.nbytes
            stream_s += rec.done - rec.first_frame
            frames += rec.frames
    res.set("service.run_ms.p50", median(run_ms))
    res.set("service.run_share", sum(run_ms) / 1e3 / server_s)
    res.set("service.queue_ms.p50", median(queue_ms))
    res.set("service.overhead_ms.p50", median(over_ms))
    res.set("stream.ms.p50", median(stream_ms))
    res.set("stream.mb_per_s", stream_bytes / 2**20 / stream_s if stream_s else 0)
    res.set("stream.frames", frames)
    batches = sum(s.get("batches", 0) for s in shard_stats)
    batched = sum(s.get("batched_jobs", 0) for s in shard_stats)
    res.set("service.batch_size.mean", (batches + batched) / batches if batches else 0)
    res.set("service.resubmits", sum(
        s.get("rejected", {}).get("full", 0)
        + s.get("rejected", {}).get("rate_limited", 0) for s in shard_stats))
    hits = sum(s.get("plancache", {}).get("total_hits", 0) for s in shard_stats)
    misses = sum(s.get("plancache", {}).get("total_misses", 0) for s in shard_stats)
    res.set("plancache.hit_ratio", hits / (hits + misses) if hits + misses else 0)
    res.set("plancache.misses", misses)
    res.set("plancache.canonicalizations", sum(
        s.get("plancache", {}).get("canonicalizations", 0) for s in shard_stats))


async def _router_probe(server: service.ServerProcess, rounds: int = 40) -> float:
    """Median extra ms of a fixed probe sequence sent through the router
    over the same sequence sent straight to a shard."""
    from repro.service import ServiceClient

    plan = {"kind": "plan", "n": 6, "faults": [1, 22, 45]}
    routed = await ServiceClient.connect(port=server.port)
    direct = await ServiceClient.connect(port=server.shard_ports()["s0"])

    async def sequence(client) -> float:
        start = time.perf_counter()
        await client.ping()
        ack = await client.submit(plan, tenant="globex", retry=True)
        await client.result(ack["job_id"])
        return (time.perf_counter() - start) * 1e3

    added = []
    try:
        for i in range(rounds):
            # Alternate which path goes first so drift cancels out.
            if i % 2:
                a, b = await sequence(routed), await sequence(direct)
            else:
                b, a = await sequence(direct), await sequence(routed)
            added.append(a - b)
    finally:
        await routed.close()
        await direct.close()
    return median(added)


def _engine_replay(res: Outcome, tracer: Tracer, jobs: list[dict],
                   small: bool) -> None:
    """Run the workload's job specs through run_job in this process."""
    from repro.core.schedule import build_ft_schedule
    from repro.service.jobs import run_job
    from repro.service.protocol import JobSpec

    bytes_moved: list[int] = []

    def kernel_bytes(result) -> dict:
        if result.selection is None:
            return {}
        sched = build_ft_schedule(result.selection)
        moved = sched.worst_case_elements(result.block_size) * 8
        bytes_moved.append(moved)
        return {"bytes": moved, "n": result.selection.n}

    kernel = "kernel.small" if small else "kernel.bulk"
    with tracer.wrap("repro.core.ftsort", "plan_partition", "plan_partition"), \
            tracer.wrap("repro.core.schedule", "lower_schedule", "lower_schedule"), \
            tracer.wrap("repro.core.ftsort", "fault_tolerant_sort", kernel,
                        annotate=kernel_bytes):
        for job in jobs:
            spec = JobSpec.from_dict({**job, "stream": False})
            with tracer.span("run_job", kind=job["kind"], n=job["n"]):
                out = run_job(spec)
            if not out["ok"]:
                res.problems.append(f"replayed job failed: {out['result']}")
            if job["kind"] == "sort":
                keys = np.random.default_rng(job["seed"]).integers(
                    0, 10**6, size=job["keys"]).astype(float)
                with tracer.span("np.sort", n=job["n"]):
                    np.sort(keys)
    res.set("lower.calls", tracer.calls["lower_schedule"])
    kernel_ms = tracer.durations_ms(kernel)
    np_ms = tracer.durations_ms("np.sort")
    res.set(f"{kernel}_ms.p50", median(kernel_ms))
    res.set("kernel.np_sort_ms.p50", median(np_ms))
    if np_ms:
        res.set("kernel.floor_ratio", median(kernel_ms) / median(np_ms))
    res.set("kernel.bytes_moved", median(bytes_moved))
    if kernel_ms:
        res.set("kernel.gb_per_s", sum(bytes_moved) / 1e9 / (sum(kernel_ms) / 1e3))


def _plan_and_lower(res: Outcome, tracer: Tracer, jobs: list[dict]) -> None:
    """Each distinct plan of the jobs on an empty cache, again warm, and
    its lowering, called directly."""
    from repro.core.ftsort import plan_partition
    from repro.core.schedule import build_ft_schedule, lower_schedule
    from repro.plancache import PLAN_CACHE

    seen = set()
    for job in jobs:
        key = (job["n"], tuple(job["faults"]))
        if key in seen:
            continue
        seen.add(key)
        PLAN_CACHE.clear()
        with tracer.span("plan.cold", n=job["n"]):
            _, selection = plan_partition(*key)
        with tracer.span("plan.warm", n=job["n"]):
            plan_partition(*key)
        schedule = build_ft_schedule(selection)
        with tracer.span("lower", n=job["n"]):
            lower_schedule(schedule)
    res.set("plan.cold_ms.p50", median(tracer.durations_ms("plan.cold")))
    res.set("plan.warm_ms.p50", median(tracer.durations_ms("plan.warm")))
    res.set("lower.ms.p50", median(tracer.durations_ms("lower")))


async def _shard_stats(client, sharded: bool) -> tuple[list[dict], dict]:
    stats = await client.stats()
    if not sharded:
        return [stats], {}
    return [s for s in stats["shards"].values() if s.get("up")], stats["router"]


async def svc(workload: str, seed: int, seconds: float) -> Outcome:
    res = Outcome()
    tracer = Tracer()
    small = workload == "svc-small"
    if small:
        server, client, _ = await service.setup(
            2, "tsmall", mix.warmup_jobs(), mix.TENANTS)
        job_mix = mix.SmallMix(seed)

        async def window(length, tr):
            return await service.small_load(server.port, job_mix, length, tr)
    else:
        server, client, _ = await service.setup(
            1, "tbulk", mix.bulk_warmup_jobs(), ("bulk",))
        job_mix = mix.BulkMix(seed)

        async def window(length, tr):
            return await service.bulk_load(client, job_mix, length, tr)

    try:
        plain, traced = await _windows(window, seconds, tracer)
        # Server time on offer while the traced windows ran.
        server_s = (2 if small else 1) * sum(
            max(r.done for r in load.records) - load.started
            for load in traced if load.records)
        plain, traced = _merge(plain), _merge(traced)
        shard_stats, router = await _shard_stats(client, small)
        if small:
            res.set("router.added_ms.p50", await _router_probe(server))
            res.set("router.frames", router.get("frames", 0))
            res.set("router.frame_mb", router.get("frame_bytes", 0) / 2**20)
            res.set("router.orbit_gossiped", router.get("orbit_gossiped", 0))
    finally:
        problem = await server.drain(client)
        server.stop()
    res.set("shm.segments_left", len(shm_segments(server.shm_prefixes)))
    res.attempted = len(plain.records) + len(traced.records) + plain.failed \
        + traced.failed + 1
    res.failed = plain.failed + traced.failed + (problem is not None)
    res.mismatches += plain.mismatches + traced.mismatches
    res.problems += plain.errors + traced.errors
    if problem:
        res.problems.append(f"drain: {problem}")
    _service_layers(res, plain, traced, shard_stats, server_s)

    if small:
        replay_mix = mix.SmallMix(seed)
        jobs = [replay_mix.next_job(t) for _ in range(SMALL_REPLAY_JOBS // 2)
                for t in mix.TENANTS]
    else:
        bulk = mix.BulkMix(seed)
        jobs = [job for _ in range(2) for job in bulk.next_round()]
        # One warm pass (plans, lowered programs), as the server had.
        _engine_replay(Outcome(), Tracer(), mix.bulk_warmup_jobs(), small)
    _engine_replay(res, tracer, jobs, small)
    _plan_and_lower(res, tracer, jobs)
    if not small:
        for n in mix.BULK_FAULTS:
            res.set(f"kernel.bulk_ms.n{n}.p50",
                    median(tracer.durations_ms("kernel.bulk", n=n)))
    _finish(res, tracer, workload, seed)
    return res


# -- campaign ----------------------------------------------------------------------


@contextlib.contextmanager
def _traced_run_tasks(tracer: Tracer, timed: list):
    """Swap the campaign's ``run_tasks`` for one that times every task in
    the worker that runs it and records the spans here."""
    import repro.chaos.campaign as chaos_campaign

    original = chaos_campaign.run_tasks

    def run_tasks(fn, tasks, **kwargs):
        with tracer.span("run_tasks") as span:
            results = original(campaign.timed_task,
                               [(fn, task) for task in tasks], **kwargs)
        for r in results:
            tracer.record("run_scenario", r["start"], r["end"], span,
                          fault_class=r["fault_class"], backend=r["backend"],
                          pid=r["pid"])
        timed.extend(results)
        return [r["result"] for r in results]

    chaos_campaign.run_tasks = run_tasks
    try:
        yield
    finally:
        chaos_campaign.run_tasks = original


def run_campaign_traced(seed: int, seconds: float) -> Outcome:
    """Untraced ``run_campaign`` rounds against traced ones (ABBA order)."""
    from repro.chaos.campaign import run_campaign
    from repro.parallel import effective_cpu_count, last_run_stats, warm_pool

    res = Outcome()
    jobs = effective_cpu_count()
    os.environ["REPRO_SHM_TAG"] = f"pb{os.getpid()}c"
    report = str(out_dir("campaign") / f"traced-{os.getpid()}.jsonl")
    settings = dict(count=mix.CAMPAIGN_COUNT, seed=mix.CAMPAIGN_SEED,
                    fault_classes=mix.CAMPAIGN_CLASSES,
                    backends=mix.CAMPAIGN_BACKENDS, jobs=jobs)
    plain_s, traced_s = [], []

    def one_round(tracer: Tracer | None, timed: list) -> None:
        start = time.perf_counter()
        if tracer is None:
            run_campaign(out=report, **settings)
            plain_s.append(time.perf_counter() - start)
        else:
            with _traced_run_tasks(tracer, timed), \
                    tracer.wrap("repro.chaos.shrink", "shrink_scenario", "shrink"), \
                    tracer.span("run_campaign"):
                run_campaign(out=report, **settings)
            traced_s.append(time.perf_counter() - start)
        res.attempted += mix.CAMPAIGN_COUNT
        try:
            failing, _ = campaign.check_round(report)
        except CheckFailed as exc:
            res.mismatches.append(str(exc))
            return
        res.failed += len(failing)

    try:
        run_campaign(out=report, **settings)  # warm-up, as in set-up
        stats = last_run_stats()
        start = time.perf_counter()
        while not traced_s or time.perf_counter() - start < seconds:
            for on in (False, True, True, False):
                # Keep only the spans of the last traced round.
                tracer, timed = (Tracer(), []) if on else (None, None)
                one_round(tracer, timed)
                if on:
                    last, results = tracer, timed
    finally:
        if jobs > 1:
            warm_pool(jobs).shutdown(wait=True)
    tracer = last
    res.set("trace.overhead_pct",
            100.0 * (median(traced_s) - median(plain_s)) / median(plain_s))
    tasks_s = sum(r["end"] - r["start"] for r in results)
    wall_s = sum(tracer.durations_ms("run_tasks")) / 1e3
    res.set("parallel.busy_share", tasks_s / (wall_s * stats.get("jobs", 1)))
    res.set("parallel.chunks", stats.get("chunks", 0))
    res.set("parallel.pickled_bytes", stats.get("pickled_bytes", 0))
    res.set("parallel.arena_bytes", stats.get("arena_bytes", 0))
    res.set("scenario.phase_ms.p50",
            median(tracer.durations_ms("run_scenario", backend="phase")))
    res.set("scenario.spmd_ms.p50",
            median(tracer.durations_ms("run_scenario", backend="spmd")))
    for name in mix.CAMPAIGN_CLASSES:
        res.set(f"scenario.{name}_ms.p50",
                median(tracer.durations_ms("run_scenario", fault_class=name)))
    res.set("chaos.recoveries", sum(r["recoveries"] for r in results))
    res.set("chaos.retries", sum(r["retries"] for r in results))
    res.set("chaos.timeouts", sum(r["timeouts"] for r in results))
    res.set("chaos.shrink_ms", sum(tracer.durations_ms("shrink")))
    hits = sum(r["hits"] for r in results)
    misses = sum(r["misses"] for r in results)
    res.set("plancache.hit_ratio", hits / (hits + misses) if hits + misses else 0)
    res.set("plancache.misses", misses)
    res.set("plancache.canonicalizations",
            sum(r["canonicalizations"] for r in results))
    res.set("shm.segments_left",
            len(shm_segments([f"{SHM_PREFIX}_pb{os.getpid()}c_"])))
    _finish(res, tracer, "campaign", seed)
    return res


def _finish(res: Outcome, tracer: Tracer, workload: str, seed: int) -> None:
    res.set("trace.spans", len(tracer.spans))
    path = traces_dir() / f"{workload}-seed{seed}-{os.getpid()}.json"
    tracer.write(path)
