"""The campaign process: runs ``repro.chaos.campaign.run_campaign`` rounds.

Started by the ``campaign`` workload with the program's sources on
``PYTHONPATH``.  It reads one JSON request per line on stdin and answers
one JSON line on stdout:

* ``{"op": "round", "out": PATH}`` runs the workload's campaign (all five
  fault classes, both engines, ``jobs`` = usable CPUs, the default
  executor, shrinking on) and writes its JSONL report to ``PATH``;
  ``"count": K`` runs only its first K scenarios (the warm-up pass);
* ``{"op": "exit"}`` shuts the worker pool down, waiting for every
  worker, and exits.
"""

from __future__ import annotations

import json
import sys
import time

import mix


def main() -> int:
    from repro.chaos.campaign import run_campaign
    from repro.parallel import effective_cpu_count, warm_pool

    jobs = effective_cpu_count()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("op") != "round":
            break
        start = time.perf_counter()
        summary = run_campaign(
            count=request.get("count", mix.CAMPAIGN_COUNT),
            seed=mix.CAMPAIGN_SEED,
            out=request["out"],
            fault_classes=mix.CAMPAIGN_CLASSES,
            backends=mix.CAMPAIGN_BACKENDS,
            jobs=jobs,
        )
        reply = {"ok": True, "seconds": time.perf_counter() - start,
                 "scenarios": summary.scenarios, "passed": summary.passed,
                 "jobs": jobs}
        print(json.dumps(reply), flush=True)
    if jobs > 1:
        warm_pool(jobs).shutdown(wait=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
