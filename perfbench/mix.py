"""Seeded inputs of the three workloads.

Every job the load generator sends is drawn here from ``--seed``; the
program only ever sees the resulting job specs.  A sort job carries the
seed its keys are regenerated from, so the checkers can rebuild the
expected output without trusting the program.
"""

from __future__ import annotations

import numpy as np

# -- svc-small -----------------------------------------------------------------

#: (cube dimension, keys) of the small sort jobs: blocks of 8..32 keys.
SMALL_SIZES = ((5, 256), (6, 1024), (7, 4096))

#: The two tenants.  On the two-shard hash ring ``acme`` lands on shard
#: ``s1`` and ``globex`` on ``s0``; the run checks this through ``stats``.
TENANTS = ("acme", "globex")
TENANT_SHARDS = {"acme": "s1", "globex": "s0"}

#: Jobs each tenant connection keeps outstanding (closed loop).
OUTSTANDING = 2

#: Shared fault-set orbits per cube size and fault count r (2 .. n-1),
#: and the automorphic images of each orbit in every tenant's catalog.
ORBITS_PER_R = 2
IMAGES_PER_ORBIT = 2

PLAN_SHARE = 0.25
FRESH_SHARE = 0.125
ROUND_JOBS = 24


def _random_faults(rng: np.random.Generator, n: int, r: int) -> tuple[int, ...]:
    return tuple(sorted(int(a) for a in rng.choice(1 << n, size=r,
                                                   replace=False)))


def _image(faults: tuple[int, ...], perm: np.ndarray, flip: int) -> tuple[int, ...]:
    """Apply the hypercube automorphism "permute dimensions, then XOR"."""
    return tuple(sorted(
        sum(((a >> i) & 1) << int(perm[i]) for i in range(len(perm))) ^ flip
        for a in faults))


class SmallMix:
    """Per-tenant job streams of the ``svc-small`` workload.

    Both tenants draw from the same orbits, ``ORBITS_PER_R`` for every
    fault count r from 2 to n - 1, but each catalog holds its own
    automorphic images: the exact fault sets never coincide across
    tenants, so one shard can only profit from the other's planning work
    through the router's orbit gossip.  Fresh fault sets cycle through
    the fault counts too, so every seed asks for the same amount of work.

    A tenant's stream is a sequence of rounds of ``ROUND_JOBS`` jobs with
    a fixed make-up: per cube size, ``ROUND_JOBS / 3`` jobs of which a
    quarter are ``plan`` jobs and one in eight uses a fault set the tenant
    has never used before.  A round cycles through the sizes (5, 6, 7, 5,
    6, 7, ...); the seed picks fault sets, key seeds and, within each
    size, which slot is a plan or a fresh fault set.  The fixed make-up
    and order keep the queueing tail of runs with different seeds
    comparable.
    """

    def __init__(self, seed: int):
        shared = np.random.default_rng([seed, 0])
        orbits = {n: [_random_faults(shared, n, r) for r in range(2, n)
                      for _ in range(ORBITS_PER_R)]
                  for n, _ in SMALL_SIZES}
        self._rng = {}
        self._catalog = {}
        self._seen = {}
        self._pending = {}
        for index, tenant in enumerate(TENANTS):
            rng = np.random.default_rng([seed, 1 + index])
            catalog = {}
            for n, _ in SMALL_SIZES:
                images = []
                for base in orbits[n]:
                    for _ in range(IMAGES_PER_ORBIT):
                        images.append(_image(base, rng.permutation(n),
                                             int(rng.integers(1 << n))))
                catalog[n] = images
            self._rng[tenant] = rng
            self._catalog[tenant] = catalog
            self._seen[tenant] = {(n, f) for n in catalog for f in catalog[n]}
            self._pending[tenant] = []
        self._rounds = dict.fromkeys(TENANTS, 0)

    def _round(self, tenant: str) -> list[dict]:
        rng = self._rng[tenant]
        per_size = ROUND_JOBS // len(SMALL_SIZES)
        self._rounds[tenant] += 1
        by_size = []
        for size, (n, keys) in enumerate(SMALL_SIZES):
            jobs = []
            for i in range(per_size):
                plan = i < per_size * PLAN_SHARE
                # The fresh slot moves round by round over plans and sorts.
                fresh = i % int(1 / FRESH_SHARE) == (self._rounds[tenant] + size) % per_size
                if fresh:
                    r = 2 + self._rounds[tenant] % (n - 2)
                    faults = _random_faults(rng, n, r)
                    while (n, faults) in self._seen[tenant]:
                        faults = _random_faults(rng, n, r)
                    self._seen[tenant].add((n, faults))
                else:
                    catalog = self._catalog[tenant][n]
                    faults = catalog[int(rng.integers(len(catalog)))]
                if plan:
                    jobs.append({"kind": "plan", "n": n, "faults": list(faults)})
                else:
                    jobs.append({"kind": "sort", "n": n, "faults": list(faults),
                                 "keys": keys, "seed": int(rng.integers(2**62)),
                                 "stream": True})
            by_size.append([jobs[i] for i in rng.permutation(per_size)])
        return [size_jobs[i] for i in range(per_size) for size_jobs in by_size]

    def next_job(self, tenant: str) -> dict:
        """The tenant's next job as a protocol ``job`` payload."""
        if not self._pending[tenant]:
            self._pending[tenant] = self._round(tenant)[::-1]
        return self._pending[tenant].pop()


def warmup_jobs() -> list[dict]:
    """One job of every shape on one fixed fault set per size (run
    during set-up, before timing)."""
    jobs = []
    for n, keys in SMALL_SIZES:
        faults = [0, (1 << n) - 1]
        jobs.append({"kind": "sort", "n": n, "faults": faults, "keys": keys,
                     "seed": 1, "stream": True})
        jobs.append({"kind": "plan", "n": n, "faults": faults})
    return jobs


# -- svc-bulk ------------------------------------------------------------------

BULK_KEYS = 1 << 20  # the admission maximum

#: Fixed fault sets per cube size (two per size, alternating by round).
#: With 2^20 keys they give blocks of about 17K, 4K and 1K keys.
BULK_FAULTS = {
    6: ((3, 9, 40), (5, 22, 48, 63)),
    8: ((3, 9, 14, 250), (17, 64, 129, 200, 255)),
    10: ((5, 100, 513, 900), (1, 2, 300, 700, 1023, 512)),
}


class BulkMix:
    """Rounds of three 2^20-key sorts (n = 6, 8, 10), compiled kernels."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng([seed, 7])
        self._round = 0

    def next_round(self) -> list[dict]:
        k = self._round
        self._round += 1
        return [{"kind": "sort", "n": n, "faults": list(sets[k % len(sets)]),
                 "keys": BULK_KEYS, "seed": int(self._rng.integers(2**62)),
                 "kernels": "compiled", "stream": True}
                for n, sets in BULK_FAULTS.items()]


def bulk_warmup_jobs() -> list[dict]:
    """Every bulk fault set once at 4096 keys: plans and lowered programs
    are cached before timing."""
    return [{"kind": "sort", "n": n, "faults": list(f), "keys": 4096,
             "seed": 1, "kernels": "compiled", "stream": True}
            for n, sets in BULK_FAULTS.items() for f in sets]


# -- campaign ------------------------------------------------------------------

#: The campaign every round replays.  Its inputs do not depend on
#: ``--seed``: every fault class fails on some campaign seeds, and a run
#: must fail the same share of operations whatever its seed.  Campaign
#: seed 3 holds three comparison-class failures, and nothing else fails.
CAMPAIGN_SEED = 3
CAMPAIGN_COUNT = 600
CAMPAIGN_CLASSES = ("baseline", "comparison", "memory", "hybrid", "abft")
CAMPAIGN_BACKENDS = ("phase", "spmd")

#: Set-up ends with a warm-up campaign of the first scenarios (none fail):
#: it starts the worker pool and imports the simulator in every worker.
CAMPAIGN_WARMUP = 20

#: Scenario ids of ``CAMPAIGN_SEED`` that fail (comparison class, lie rate
#: p = 0.0005): the known fault this workload keeps visible.
CAMPAIGN_KNOWN_FAILURES = (272, 572, 573)
