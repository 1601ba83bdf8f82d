"""Output checkers that do not use the program under test.

Each check is written from the service protocol and the paper's
definitions, not from repro's code:

* a streamed sort result must equal, byte for byte, ``np.sort`` of the
  keys the job's seed stands for (the protocol regenerates them as
  ``default_rng(seed).integers(0, 10**6, size=keys)`` as float64);
* a ``plan`` result's ``mincut`` must be the size of the smallest set of
  dimensions on which the faults' projections are pairwise distinct (a
  brute-force search over dimension subsets), and ``cut_dims`` must be
  such a set;
* a campaign's JSONL report must hold each requested scenario exactly
  once, spread evenly over the requested fault classes and engines.

Run ``python3 perfbench/checkers.py`` for the self-test: each checker
accepts a correct input and rejects a corrupted one (a swapped key, a
non-minimal cut, a lost scenario line).
"""

from __future__ import annotations

import itertools
import json
from collections import Counter

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagreed with its independent check."""


def expected_sorted(seed: int, count: int) -> np.ndarray:
    """``np.sort`` of the keys a sort job with ``seed`` and ``count`` sorts."""
    keys = np.random.default_rng(seed).integers(0, 10**6, size=count)
    return np.sort(keys.astype(np.float64))


class StreamCheck:
    """Byte-for-byte comparison of a result consumed frame by frame."""

    __slots__ = ("expected", "pos")

    def __init__(self, expected: np.ndarray):
        self.expected = np.ascontiguousarray(expected, dtype=np.float64)
        self.pos = 0

    def feed(self, chunk: np.ndarray) -> None:
        chunk = np.ascontiguousarray(chunk)
        if chunk.dtype != np.float64:
            raise CheckFailed(f"frame dtype {chunk.dtype}, expected float64")
        end = self.pos + chunk.size
        if end > self.expected.size:
            raise CheckFailed(f"stream longer than {self.expected.size} keys")
        if chunk.tobytes() != self.expected[self.pos:end].tobytes():
            raise CheckFailed(f"keys {self.pos}..{end} differ from np.sort")
        self.pos = end

    def finish(self) -> None:
        if self.pos != self.expected.size:
            raise CheckFailed(
                f"stream ended after {self.pos} of {self.expected.size} keys")


def distinct_on(faults: tuple[int, ...], dims: tuple[int, ...]) -> bool:
    """True when no two faults agree on every dimension in ``dims``."""
    seen = set()
    for addr in faults:
        proj = tuple((addr >> d) & 1 for d in dims)
        if proj in seen:
            return False
        seen.add(proj)
    return True


_MIN_CUT: dict[tuple[int, tuple[int, ...]], int] = {}


def brute_min_cut(n: int, faults: tuple[int, ...]) -> int:
    """Size of the smallest dimension set separating every pair of faults."""
    key = (n, tuple(sorted(faults)))
    if key not in _MIN_CUT:
        _MIN_CUT[key] = next(
            size for size in range(n + 1)
            if any(distinct_on(key[1], dims)
                   for dims in itertools.combinations(range(n), size)))
    return _MIN_CUT[key]


def check_plan(n: int, faults: tuple[int, ...], result: dict) -> None:
    """Check one ``plan`` job result against the brute-force minimum cut."""
    want = brute_min_cut(n, faults)
    if result.get("mincut") != want:
        raise CheckFailed(
            f"Q_{n} faults {list(faults)}: mincut {result.get('mincut')}, "
            f"brute force says {want}")
    if want == 0:
        return
    dims = tuple(result.get("cut_dims") or ())
    if (len(dims) != want or len(set(dims)) != want
            or not all(isinstance(d, int) and 0 <= d < n for d in dims)
            or not distinct_on(tuple(faults), dims)):
        raise CheckFailed(
            f"Q_{n} faults {list(faults)}: cut_dims {list(dims)} is not a "
            f"separating set of size {want}")


def check_campaign_report(path: str, count: int, classes: tuple[str, ...],
                          backends: tuple[str, ...]) -> list[dict]:
    """Check a campaign's JSONL report; return its failing scenarios.

    Every scenario id in ``range(count)`` must appear once, and each
    (fault class, engine) pair must hold ``count / (classes x engines)``
    of them.
    """
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    outcomes = [row for row in rows if "scenario" in row]
    ids = sorted(row["scenario"]["scenario_id"] for row in outcomes)
    if ids != list(range(count)):
        raise CheckFailed(f"{path}: {len(ids)} scenario lines, ids do not "
                          f"cover 0..{count - 1} exactly once")
    per = Counter((row["scenario"]["fault_class"], row["scenario"]["backend"])
                  for row in outcomes)
    share = count // (len(classes) * len(backends))
    want = {(c, b): share for c in classes for b in backends}
    if dict(per) != want:
        raise CheckFailed(f"{path}: per class/engine counts {dict(per)}, "
                          f"expected {share} each")
    return [row for row in outcomes if not row.get("passed")]


def selftest(workdir: str | None = None) -> None:
    """Each checker passes a correct input and rejects a corrupted one.

    Raises:
        RuntimeError: a checker accepted a corrupted input or rejected a
            correct one.
    """
    import os
    import tempfile

    def rejects(fn) -> bool:
        try:
            fn()
        except CheckFailed:
            return True
        return False

    def expect(ok: bool, message: str) -> None:
        if not ok:
            raise RuntimeError(f"checker self-test: {message}")

    # Streamed keys: the right bytes pass; one swapped pair fails.
    good = expected_sorted(7, 5000)
    check = StreamCheck(good)
    for start in range(0, good.size, 1024):
        check.feed(good[start:start + 1024])
    check.finish()
    bad = good.copy()
    i = int(np.flatnonzero(np.diff(bad) > 0)[0])
    bad[i], bad[i + 1] = bad[i + 1], bad[i]

    def feed_bad():
        c = StreamCheck(good)
        c.feed(bad)
        c.finish()

    expect(rejects(feed_bad), "stream check accepted a swapped key")
    expect(rejects(lambda: StreamCheck(good).finish()),
           "stream check accepted a short stream")

    # Plans on Q_4 with faults 0, 3, 5: dimension 0 alone leaves 3 and 5
    # together, {0, 1} separates all three, so the minimum cut is 2.
    faults = (0, 3, 5)
    expect(brute_min_cut(4, faults) == 2, "brute force missed the cut")
    check_plan(4, faults, {"mincut": 2, "cut_dims": [0, 1]})
    expect(rejects(lambda: check_plan(
        4, faults, {"mincut": 3, "cut_dims": [0, 1, 2]})),
        "plan check accepted a non-minimal cut")
    expect(rejects(lambda: check_plan(
        4, faults, {"mincut": 2, "cut_dims": [0, 3]})),
        "plan check accepted dimensions that do not separate the faults")

    # Campaign report: 4 scenarios over 1 class x 2 engines.
    rows = [{"scenario": {"scenario_id": i, "fault_class": "baseline",
                          "backend": ("phase", "spmd")[i % 2]},
             "passed": i != 3} for i in range(4)]
    fd, path = tempfile.mkstemp(suffix=".jsonl", dir=workdir)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in rows)
        failing = check_campaign_report(path, 4, ("baseline",),
                                        ("phase", "spmd"))
        expect([r["scenario"]["scenario_id"] for r in failing] == [3],
               "campaign check lost the failing scenario")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in rows[:3])
        expect(rejects(lambda: check_campaign_report(
            path, 4, ("baseline",), ("phase", "spmd"))),
            "campaign check accepted a lost scenario")
    finally:
        os.unlink(path)


if __name__ == "__main__":
    selftest()
    print("checkers self-test: ok")
