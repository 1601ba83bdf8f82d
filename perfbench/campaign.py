"""The ``campaign`` workload: chaos campaigns in a process of their own."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from checkers import check_campaign_report
from common import BENCH_DIR, ROOT, BenchError, child_env, out_dir
import mix

ROUND_TIMEOUT_S = 120.0


class CampaignProcess:
    """A ``campaign_proc.py`` child; :meth:`round` runs one campaign."""

    def __init__(self, name: str):
        self.dir = out_dir("campaign", name)
        self._log = open(self.dir / "campaign.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "campaign_proc.py")],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._log, text=True)
        self.rounds = 0

    def round(self, count: int = mix.CAMPAIGN_COUNT) -> tuple[float, str]:
        """Run one campaign of the workload's first ``count`` scenarios;
        return (seconds seen from here, report path)."""
        path = str(self.dir / f"round{self.rounds}.jsonl")
        self.rounds += 1
        start = time.perf_counter()
        self.proc.stdin.write(json.dumps(
            {"op": "round", "out": path, "count": count}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if not line:
            raise BenchError(f"campaign process exited with "
                             f"{self.proc.wait()}; see {self.dir}")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise BenchError(f"campaign round failed: {reply}")
        return elapsed, path

    def close(self) -> int:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
                self.proc.stdin.close()
                self.proc.wait(ROUND_TIMEOUT_S)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def check_round(path: str, count: int = mix.CAMPAIGN_COUNT
                ) -> tuple[list[int], int]:
    """Check a round's report; return (failing scenario ids, keys sorted)."""
    failing = check_campaign_report(path, count, mix.CAMPAIGN_CLASSES,
                                    mix.CAMPAIGN_BACKENDS)
    with open(path, encoding="utf-8") as fh:
        keys = sum(json.loads(line).get("scenario", {}).get("keys", 0)
                   for line in fh if line.strip())
    return sorted(row["scenario"]["scenario_id"] for row in failing), keys


def timed_task(pair: tuple) -> dict:
    """Pool task of the traced run: the campaign's own task, timed where
    it runs, with the plan-cache traffic of the worker that ran it."""
    from repro.plancache import PLAN_CACHE

    fn, task = pair
    before = PLAN_CACHE.stats()
    start = time.perf_counter()
    result = fn(task)
    end = time.perf_counter()
    after = PLAN_CACHE.stats()
    outcome = result[1]
    return {
        "result": result, "start": start, "end": end, "pid": os.getpid(),
        "fault_class": outcome.scenario.fault_class,
        "backend": outcome.scenario.backend,
        "recoveries": outcome.recoveries, "retries": outcome.retries,
        "timeouts": outcome.timeouts,
        "hits": after["total_hits"] - before["total_hits"],
        "misses": after["total_misses"] - before["total_misses"],
        "canonicalizations": (after["canonicalizations"]
                              - before["canonicalizations"]),
    }
