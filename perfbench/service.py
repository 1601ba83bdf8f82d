"""Service workloads: launch ``repro serve`` and drive it as a client.

The load generator is this process: one asyncio loop, one
:class:`repro.service.ServiceClient` connection per tenant, a closed loop
of a fixed number of outstanding jobs per connection.  Every result is
checked with :mod:`checkers` as it streams in.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

from checkers import CheckFailed, StreamCheck, check_plan, expected_sorted
from common import ROOT, SHM_PREFIX, BenchError, child_env, log, out_dir, shm_segments
import mix

START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0

#: Two known shutdown races of the program, not counted against a drain.
#: Each shows up in roughly one drain in five to fifteen, so a run that
#: counted them could not fail the same share of operations every time.
#: A traceback counts unless one of these headers, which asyncio prints
#: only for these cases, stands in the two lines before it:
#:
#: * the shard manager sends SIGTERM to a shard that has already drained,
#:   and the signal lands after asyncio closed the loop's wakeup pipe;
#: * loop teardown cancels a connection handler that is already awaiting
#:   ``writer.wait_closed()`` in its ``finally``, and asyncio 3.11's
#:   streams callback logs the cancelled task.
#:
#: Shards share the router's stderr, so their lines can interleave; the
#: headers are matched by fragments for that reason.
KNOWN_SHUTDOWN_RACES = (
    "when trying to write to the signal wakeup fd",
    "Exception in callback StreamReaderProtocol.connection_made",
)


def unexplained_tracebacks(log_text: str) -> tuple[int, int]:
    """(tracebacks not explained by a known race, known races seen)."""
    lines = log_text.splitlines()
    unexplained = known = 0
    for i, line in enumerate(lines):
        if "Traceback (most recent" not in line:
            continue
        if any(race in before for before in lines[max(0, i - 2):i]
               for race in KNOWN_SHUTDOWN_RACES):
            known += 1
        else:
            unexplained += 1
    return unexplained, known


class ServerProcess:
    """One ``repro serve`` process (a router with its shards, or a server)."""

    def __init__(self, shards: int, name: str):
        self.dir = out_dir("svc", name)
        self.port_file = self.dir / "port"
        self.shards_file = self.dir / "shards.json"
        self.log_path = self.dir / "server.log"
        self.tag = f"pb{os.getpid()}{name}"
        args = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--port-file", str(self.port_file)]
        if shards > 1:
            args += ["--shards", str(shards),
                     "--shards-file", str(self.shards_file)]
        for path in (self.port_file, self.shards_file):
            path.unlink(missing_ok=True)
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            args, cwd=ROOT, env=child_env(REPRO_SHM_TAG=self.tag),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log)
        self.port = 0

    @property
    def shm_prefixes(self) -> list[str]:
        # The server's own tag, and the tags the shard manager derives
        # from the router's pid for each shard.
        return [f"{SHM_PREFIX}_{self.tag}_", f"{SHM_PREFIX}_sh{self.proc.pid}x"]

    async def connect(self):
        """Wait for the port file, connect, and get a ``pong``."""
        from repro.service import ServiceClient

        deadline = self.started + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited with {self.proc.returncode} "
                                 f"at start; see {self.log_path}")
            text = (self.port_file.read_text().strip()
                    if self.port_file.exists() else "")
            if text:
                self.port = int(text)
                client = await ServiceClient.connect(port=self.port)
                pong = await client.ping()
                if pong.get("op") != "pong":
                    raise BenchError(f"unexpected ping reply {pong}")
                return client
            await asyncio.sleep(0.01)
        raise BenchError(f"server did not start within {START_TIMEOUT_S}s")

    def shard_ports(self) -> dict[str, int]:
        return {s["id"]: int(s["port"])
                for s in json.loads(self.shards_file.read_text())}

    async def drain(self, client) -> str | None:
        """The run's final operation: drain, wait for a clean exit.

        Returns ``None`` on a clean shutdown, else what went wrong: a
        non-zero exit, a logged traceback, or a ``/dev/shm`` segment left
        behind.
        """
        problems = []
        try:
            reply = await asyncio.wait_for(client.drain(), DRAIN_TIMEOUT_S)
            if not reply.get("ok"):
                problems.append(f"drain reply {reply}")
        except (asyncio.TimeoutError, ConnectionError) as exc:
            problems.append(f"drain failed: {exc!r}")
        await client.close()
        code = await asyncio.to_thread(self.wait, DRAIN_TIMEOUT_S)
        if code != 0:
            problems.append(f"exit code {code}")
        unexplained, known = unexplained_tracebacks(
            self.log_path.read_text(errors="replace"))
        if known:
            log(f"drain: {known} known shutdown race(s) in {self.log_path}")
        if unexplained:
            problems.append(f"traceback logged in {self.log_path}")
        left = shm_segments(self.shm_prefixes)
        if left:
            problems.append(f"/dev/shm segments left: {left}")
        return "; ".join(problems) or None

    def wait(self, timeout: float) -> int:
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            return self.proc.returncode if self.proc.returncode else -9

    def stop(self) -> None:
        """Make sure the process (and, through its drain, its shards) ended."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


@dataclass
class JobRecord:
    """What the client saw of one job."""

    kind: str
    keys: int
    submitted: float
    done: float
    result: dict = field(default_factory=dict)  # result / result_end message
    first_frame: float = 0.0
    frames: int = 0
    nbytes: int = 0

    @property
    def latency_ms(self) -> float:
        return (self.done - self.submitted) * 1e3


@dataclass
class LoadResult:
    records: list[JobRecord] = field(default_factory=list)
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)  # checker rejections
    errors: list[str] = field(default_factory=list)  # other failed jobs
    started: float = 0.0
    deadline: float = 0.0

    def window_rates(self, window_s: float) -> tuple[list[float], list[float]]:
        """Jobs and sorted keys completed per second in each whole window
        of ``window_s`` between the start of the load and its deadline."""
        count = int((self.deadline - self.started) // window_s)
        jobs, keys = [0] * count, [0] * count
        for rec in self.records:
            k = int((rec.done - self.started) // window_s)
            if 0 <= k < count:
                jobs[k] += 1
                keys[k] += rec.keys
        return ([j / window_s for j in jobs], [k / window_s for k in keys])

    def round_rates(self, size: int) -> tuple[list[float], list[float]]:
        """Jobs and keys per second of job time for each whole round of
        ``size`` consecutive jobs (one job outstanding at a time)."""
        jobs, keys = [], []
        for i in range(0, len(self.records) - size + 1, size):
            chunk = self.records[i:i + size]
            busy = sum(r.done - r.submitted for r in chunk)
            jobs.append(size / busy)
            keys.append(sum(r.keys for r in chunk) / busy)
        return jobs, keys


async def run_job(client, tenant: str, job: dict, out: LoadResult,
                  tracer=None) -> None:
    """Submit one job, consume and check its result, record its timing."""
    check = None
    if job["kind"] == "sort":
        check = StreamCheck(expected_sorted(job["seed"], job["keys"]))
    span = tracer.begin("client.job", kind=job["kind"], n=job["n"]) \
        if tracer else None
    start = time.perf_counter()
    rec = JobRecord(job["kind"], job.get("keys", 0) if check else 0,
                    start, start)
    try:
        sub = tracer.begin("client.submit", parent=span) if tracer else None
        ack = await client.submit(job, tenant=tenant, retry=True)
        if tracer:
            tracer.end(sub)
        if not ack.get("ok"):
            raise RuntimeError(f"submit rejected: {ack}")
        job_id = ack["job_id"]
        if check is not None:
            stream = None
            async for chunk in client.iter_result(job_id):
                if rec.frames == 0:
                    rec.first_frame = time.perf_counter()
                    stream = tracer.begin("client.stream", parent=span) \
                        if tracer else None
                rec.frames += 1
                rec.nbytes += chunk.nbytes
                check.feed(chunk)
            check.finish()
            rec.result = client.stream_summary(job_id) or {}
            if tracer and stream is not None:
                tracer.end(stream, frames=rec.frames, nbytes=rec.nbytes)
        else:
            wait = tracer.begin("client.result", parent=span) if tracer else None
            rec.result = await client.result(job_id)
            if tracer:
                tracer.end(wait)
            if not rec.result.get("ok"):
                raise RuntimeError(f"plan failed: {rec.result}")
            check_plan(job["n"], tuple(job["faults"]), rec.result["result"])
        rec.done = time.perf_counter()
        out.records.append(rec)
    except CheckFailed as exc:
        out.failed += 1
        out.mismatches.append(str(exc))
    except Exception as exc:  # a failed operation, counted, not fatal
        out.failed += 1
        out.errors.append(f"{job['kind']} job failed: {exc!r}")
    finally:
        if tracer and span is not None:
            tracer.end(span)


async def small_load(port: int, job_mix: mix.SmallMix, seconds: float,
                     tracer=None) -> LoadResult:
    """Closed loop: each tenant's connection keeps OUTSTANDING jobs open."""
    from repro.service import ServiceClient

    clients = [await ServiceClient.connect(port=port, jitter_seed=i)
               for i, _ in enumerate(mix.TENANTS)]
    start = time.perf_counter()
    out = LoadResult(started=start, deadline=start + seconds)

    async def worker(client, tenant: str) -> None:
        while time.perf_counter() < out.deadline:
            await run_job(client, tenant, job_mix.next_job(tenant), out,
                          tracer)

    try:
        await asyncio.gather(*(worker(c, t)
                               for c, t in zip(clients, mix.TENANTS)
                               for _ in range(mix.OUTSTANDING)))
    finally:
        for client in clients:
            await client.close()
    return out


async def bulk_load(client, job_mix: mix.BulkMix, seconds: float,
                    tracer=None) -> LoadResult:
    """One connection, one outstanding job, whole rounds of three sizes."""
    start = time.perf_counter()
    out = LoadResult(started=start, deadline=start + seconds)
    while time.perf_counter() < out.deadline:
        for job in job_mix.next_round():
            await run_job(client, "bulk", job, out, tracer)
    return out


async def warm(client, jobs: list[dict], tenant: str) -> None:
    """Untimed warm-up pass; any failure here aborts the run."""
    out = LoadResult()
    for job in jobs:
        await run_job(client, tenant, job, out)
    if out.failed:
        raise BenchError(f"warm-up failed: {out.mismatches + out.errors}")


async def setup(shards: int, name: str, warmup: list[dict],
                tenants: tuple[str, ...]):
    """Launch a server and bring it to its first accepted work.

    Returns ``(server, client, setup seconds)``: from launch until the
    server answered ``ping`` and finished the untimed warm-up pass.
    """
    server = ServerProcess(shards, name)
    try:
        client = await server.connect()
        for tenant in tenants:
            await warm(client, warmup, tenant)
    except BaseException:
        server.stop()
        raise
    return server, client, time.perf_counter() - server.started
