"""One round of one workload in a fresh interpreter: ``python3 bench/worker.py < spec.json``.

The spec names the checkout root, the workload, its inputs and whether to
trace. The round runs the whole batch of requests one at a time (a closed
loop with one client), timing each, and runs the workload's reference
kernel after every request. It then checks the outputs and prints one JSON object.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

from independent import time_reference


def _import_program(root: str) -> None:
    """Import ``harmonic_sums`` from the checkout's ``src/`` and from nowhere else."""
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import harmonic_sums

    if not os.path.realpath(harmonic_sums.__file__).startswith(src + os.sep):
        raise SystemExit(f"harmonic_sums imported from {harmonic_sums.__file__}, not {src}")


def peak_rss_kb() -> int:
    """High-water resident set of this process's own address space, in KiB.

    ``ru_maxrss`` would not do: Linux carries the spawning parent's peak
    across exec, so a worker started by a parent that has loaded sympy
    would report the parent's size. ``VmHWM`` belongs to the current
    address space only.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    spec = json.load(sys.stdin)
    _import_program(spec["root"])
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]](spec["inputs"])
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    requests = workload.requests()
    times, reference_times, outputs, errors = [], [], [], []
    for i, request in enumerate(requests):
        if tracer:
            tracer.begin(i)
        start = perf_counter()
        try:
            out = request()
        except Exception as exc:  # a failed request is counted, the round goes on
            out = None
            errors.append(f"request {i}: {exc!r}")
        times.append(perf_counter() - start)
        if tracer:
            tracer.end()
            tracer.count_built()
        outputs.append(out)
        reference_times.append(time_reference(workload.reference))
    peak_kb = peak_rss_kb()

    try:
        problems = workload.check(outputs)
    except Exception as exc:  # malformed output: a wrong answer, not a benchmark crash
        problems = [f"checking the outputs raised {exc!r}"]
    result = {
        "times": times,
        "reference_times": reference_times,
        "peak_rss_kb": peak_kb,
        "failed": len(errors),
        "errors": errors[:5],
        "problems": problems[:10],
        "problem_count": len(problems),
    }
    if hasattr(workload, "for_parent"):
        result.update(workload.for_parent(outputs))
    if tracer:
        result["layers"] = tracer.summary()
        result["span_count"] = tracer.span_count
        if spec.get("trace_path"):
            with open(spec["trace_path"], "w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
