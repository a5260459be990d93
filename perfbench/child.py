"""Run one advent pipeline in a fresh process, as `advent run` does.

    python3 child.py SPEC_JSON RESULT_JSON

SPEC_JSON holds the RunManifest fields under "manifest" and a "trace" flag.
RESULT_JSON receives the wall time of the run_pipeline call, the process's
peak resident memory and, when traced, the tracer snapshot; untraced, also
the wall time scaled to the reference host speed by a probe (probe.py).
The advent package is found through PYTHONPATH.
"""

import json
import resource
import sys

from probe import Probe
from tracer import PIPELINE_TARGETS, Tracer


def peak_rss_mb() -> float:
    """High-water resident memory of this process image.

    VmHWM starts afresh at exec; ru_maxrss would also count the memory of the
    benchmark process this one was spawned from.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from advent import runner

    manifest = runner.RunManifest(**spec["manifest"])
    tracer = Tracer()
    if spec["trace"]:
        tracer.install(PIPELINE_TARGETS)
    try:
        with Probe(active=not spec["trace"]) as probe:
            runner.run_pipeline(manifest)
    finally:
        tracer.restore()
    result = {"run_wall_s": probe.own_s, "peak_rss_mb": peak_rss_mb()}
    if spec["trace"]:
        result["trace"] = tracer.snapshot()
    else:
        result.update(run_s=probe.scaled_s, probes=len(probe.probes))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
