"""Shared helpers: checkout paths, statistics, child-process accounting.

The benchmark runs from the root of a source checkout.  Everything it
writes goes under ``.perfbench/`` in that checkout: traces under
``traces/``, and the port files, server logs, campaign reports and temp
files of one run under ``run-<pid>/``, which the run removes when it ends
without a problem.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
RUN_DIR = OUT / f"run-{os.getpid()}"

#: Prefix of every shared-memory segment the program creates.
SHM_PREFIX = "repro_shm"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, program did not start)."""


def require_program() -> None:
    """Fail fast unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "service" / "server.py").is_file():
        raise BenchError(f"no program sources under {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def out_dir(*parts: str) -> Path:
    """A directory of this run's own output."""
    path = RUN_DIR.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def traces_dir() -> Path:
    path = OUT / "traces"
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_run_dir() -> None:
    shutil.rmtree(RUN_DIR, ignore_errors=True)


def child_env(**extra: str) -> dict:
    """Environment for a program process: sources on the path, temp files
    inside the checkout, and no executor/job/kernel overrides inherited
    from the caller (the workloads state their own settings)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_EXECUTOR", "REPRO_JOBS", "REPRO_KERNELS",
                        "REPRO_SHM_TAG", "REPRO_SHARD_COUNT")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(out_dir("tmp"))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(extra)
    return env


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest program process this run started and reaped.

    ``RUSAGE_CHILDREN`` carries the largest resident set among waited-for
    descendants (grandchildren count once their parent reaped them), so it
    covers servers, shards, the router and pool workers, but never the
    benchmark's own process.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def shm_segments(prefixes: list[str]) -> list[str]:
    """``/dev/shm`` entries whose names start with any of ``prefixes``."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(n for n in names if any(n.startswith(p) for p in prefixes))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
