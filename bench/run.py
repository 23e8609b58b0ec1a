"""The harmsum benchmark.

One run::

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 15 --trace 0

times the start-up of a fresh interpreter that imports ``harmonic_sums``
(``setup_s``), then runs whole rounds of the workload, each in a fresh
worker process, until ``--seconds`` have passed. It checks every output,
writes the run's full record under ``bench/out/`` and prints one JSON
object as the last line of standard output: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.

Steadiness check::

    python3 bench/run.py --steadiness 10 [--workload W] [--seconds S]

runs each workload ten times on seeds 1..10, prints every end-to-end
metric's median, quartiles, spread and bound, then one traced run per
workload with its layer shares and tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

from inputs import GENERATORS, make_inputs

SETUP_LAUNCHES = 11
ROUND_TIMEOUT_S = 120

# Times are reported at a nominal machine speed: a measured time is divided
# by the reference kernel's time measured next to it and multiplied by this
# nominal kernel time (about the kernel's time on an idle 2-core VM). The
# host under this benchmark changed speed by up to 1.7x within minutes;
# the ratio stays within a few per cent (see bench/README.md).
REFERENCE_NOMINAL_S = 0.0005
# setup_s is reported the same way, against a bare interpreter launch
# (`python3 -c pass`) and this nominal time for it
LAUNCH_NOMINAL_S = 0.05
# a request is normalised by the mean reference time of the requests at
# most this many places before or after it
REFERENCE_WINDOW = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_ref": "ref",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; "_s" metrics are span self times
PER_LAYER = {
    "identities.build_s": "s",
    "identities.build_calls": "count",
    "identities.terms": "count",
    "polynomial.coeffs": "count",
    "polynomial.const_den_coeffs": "count",
    "closed_form.evaluate_s": "s",
    "closed_form.evaluate_calls": "count",
    "oracle.direct_s": "s",
    "oracle.direct_calls": "count",
    "oracle.direct_summands": "count",
    "oracle.max_digits": "digits",
    "render.text_s": "s",
    "render.latex_s": "s",
    "render.json_s": "s",
    "render.parse_s": "s",
    "render.bytes": "bytes",
    "exact.bernoulli_s": "s",
    "exact.bernoulli_indices": "count",
    "catalog.entries_s": "s",
    "cli.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The program could not be run or a worker died; the run prints no result."""


def _program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_times(launches: int) -> tuple[list[float], list[float]]:
    """Wall time of `python3 -c 'import harmonic_sums'` from this checkout, per launch.

    Each import launch is paired with a launch of a bare interpreter
    (`python3 -c pass`), which does the same kind of work (process start,
    site imports) and so slows with the host in step. Returns the raw
    import-launch times and their ratios to the bare launches. One untimed
    pair first lets the interpreter write its bytecode cache.
    """
    src = str(ROOT / "src") + os.sep
    program = [
        sys.executable, "-c",
        "import sys, harmonic_sums; sys.exit(not harmonic_sums.__file__.startswith(sys.argv[1]))",
        src,
    ]  # fmt: skip
    bare = [sys.executable, "-c", "pass"]
    env = _program_env()

    def launch(argv: list[str]) -> float:
        start = time.perf_counter()
        done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"cannot import harmonic_sums from {src}: {done.stderr.decode()[-500:]}")
        return elapsed

    raw, ratios = [], []
    for i in range(launches + 1):
        # alternate which of the pair goes first, so a drift within the pair cancels
        if i % 2:
            base, elapsed = launch(bare), launch(program)
        else:
            elapsed, base = launch(program), launch(bare)
        if i:
            raw.append(elapsed)
            ratios.append(elapsed / base)
    return raw, ratios


def run_round(workload: str, inputs: dict, trace: bool, trace_path: Path | None) -> dict:
    spec = {
        "root": str(ROOT),
        "workload": workload,
        "inputs": inputs,
        "trace": trace,
        "trace_path": str(trace_path) if trace_path else None,
    }
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(spec).encode(),
            capture_output=True,
            timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round took over {ROUND_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload} worker exited {done.returncode}: {done.stderr.decode()[-2000:]}")
    return json.loads(done.stdout)


_SYMPY_BERNOULLI: dict[int, Fraction] = {}


def check_bernoulli_json(text: str) -> list[str]:
    """Every value of `harmsum bernoulli --format json` against sympy.bernoulli (B_1 = +1/2)."""
    import sympy

    problems = []
    for entry in json.loads(text)["values"]:
        k = entry["k"]
        if k not in _SYMPY_BERNOULLI:
            value = sympy.bernoulli(k)
            _SYMPY_BERNOULLI[k] = Fraction(int(value.p), int(value.q))
        if Fraction(int(entry["num"]), int(entry["den"])) != _SYMPY_BERNOULLI[k]:
            problems.append(f"B_{k} differs from sympy.bernoulli({k})")
    return problems


def normalised(times: list[float], references: list[float]) -> list[float]:
    """Each request's time in reference-kernel units, against the kernel runs nearest it."""
    out = []
    for i, t in enumerate(times):
        near = references[max(0, i - REFERENCE_WINDOW) : i + REFERENCE_WINDOW + 1]
        out.append(t / statistics.fmean(near))
    return out


def _round_scale(round_: dict) -> float:
    """Raw seconds -> seconds at the nominal speed, averaged over one round."""
    units = normalised(round_["times"], round_["reference_times"])
    return sum(units) * REFERENCE_NOMINAL_S / sum(round_["times"])


def _round_layers(round_: dict) -> dict[str, float]:
    """One traced round's per-layer metrics, span times at the nominal speed."""
    scale = _round_scale(round_)
    layers = round_["layers"]
    return {
        name: layers.get(name, 0) * (scale if unit == "s" else 1) for name, unit in PER_LAYER.items()
    }


def _timing(rounds: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Normalised request timings and the same figures raw, for the record."""
    units = [normalised(r["times"], r["reference_times"]) for r in rounds]
    pooled = [u * REFERENCE_NOMINAL_S * 1e3 for round_units in units for u in round_units]
    wall_ref = statistics.median(sum(round_units) for round_units in units)
    raw = [t * 1e3 for r in rounds for t in r["times"]]
    return {
        "wall_s": wall_ref * REFERENCE_NOMINAL_S,
        "wall_ref": wall_ref,
        "req_p50_ms": statistics.median(pooled),
        "req_p90_ms": statistics.quantiles(pooled, n=10)[8],
    }, {
        "wall_s": statistics.median(sum(r["times"]) for r in rounds),
        "req_p50_ms": statistics.median(raw),
        "req_p90_ms": statistics.quantiles(raw, n=10)[8],
        "reference_ms": statistics.median(t for r in rounds for t in r["reference_times"]) * 1e3,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record (the printed line is a subset)."""
    inputs = make_inputs(workload, seed)
    OUT.mkdir(exist_ok=True)
    setup_raw, setup_ratios = setup_times(SETUP_LAUNCHES)
    rounds: list[dict] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        trace_path = OUT / f"{workload}-seed{seed}.trace.jsonl" if trace and not rounds else None
        rounds.append(run_round(workload, inputs, trace, trace_path))
    measured_s = time.perf_counter() - start

    problems = [p for r in rounds for p in r["problems"]]
    problem_count = sum(r["problem_count"] for r in rounds)
    for r in rounds:
        if r.get("bernoulli_json") is not None:
            found = check_bernoulli_json(r["bernoulli_json"])
            problems += found
            problem_count += len(found)

    timing, raw = _timing(rounds)
    end_to_end = {
        "setup_s": statistics.median(setup_ratios) * LAUNCH_NOMINAL_S,
        **timing,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "rounds": len(rounds),
        "measured_s": measured_s,
        "requests_per_round": len(rounds[0]["times"]),
        "raw": {"setup_s": statistics.median(setup_raw), **raw},
        "correct": problem_count == 0,
        "attempted": sum(len(r["times"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "errors": [e for r in rounds for e in r["errors"]][:10],
        "problems": problems[:20],
        "end_to_end": end_to_end,
    }
    if trace:
        per_round = [_round_layers(r) for r in rounds]
        # the low median is one round's own value, so counts stay whole
        record["per_layer"] = {
            name: statistics.median_low(layer[name] for layer in per_round) for name in PER_LAYER
        }
        record["span_count"] = rounds[0]["span_count"]
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def result_line(record: dict) -> dict:
    """The contract line: correct, attempted, failed and the metrics of this run's kind."""
    if record["trace"]:
        metrics = {k: {"value": record["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": record["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def steadiness(workloads: list[str], runs: int, seconds: float) -> dict:
    """K untraced runs per workload on seeds 1..K, then one traced run each."""
    bounds = {m["name"]: m["bound"] for m in _benchmark_json()["end_to_end"]}
    report: dict = {"runs": runs, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        records = []
        for seed in range(1, runs + 1):
            records.append(run(workload, seed, seconds, False))
            print(f"{workload} seed {seed}: {json.dumps(result_line(records[-1]))}", file=sys.stderr)
        rows = {}
        print(f"\n{workload}: {runs} runs, {records[0]['rounds']}+ rounds each")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in END_TO_END:
            median, q1, q3, spread = _spread([r["end_to_end"][name] for r in records])
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name]}
            flag = "" if spread <= bounds[name] / 3 else "  > bound/3"
            print(f"  {name:<12} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3%} {bounds[name]:6.2f}{flag}")
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        print(f"  correct in every run: {all(r['correct'] for r in records)}; failed {failed} of {attempted}")

        traced = run(workload, 1, seconds, True)
        total = sum(v for k, v in traced["per_layer"].items() if PER_LAYER[k] == "s")
        overhead = traced["end_to_end"]["wall_ref"] / records[0]["end_to_end"]["wall_ref"] - 1
        print(f"  traced run (seed 1): {traced['span_count']} spans in its first round, "
              f"wall_ref {overhead:+.1%} against the untraced seed-1 run")
        for name, value in traced["per_layer"].items():
            share = f"{value / total:7.1%}" if PER_LAYER[name] == "s" and total else ""
            print(f"    {name:<30} {value:14.6g} {PER_LAYER[name]:<6} {share}")
        report["workloads"][workload] = {
            "end_to_end": rows,
            "failed": failed,
            "attempted": attempted,
            "traced": {
                "per_layer": traced["per_layer"],
                "wall_ref": traced["end_to_end"]["wall_ref"],
                "overhead": overhead,
            },
        }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(OUT / f"steadiness-{stamp}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="K", help="K runs per workload, then report spreads")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = _benchmark_json()["run_seconds"]
    try:
        if args.steadiness:
            workloads = [args.workload] if args.workload else list(GENERATORS)
            steadiness(workloads, args.steadiness, args.seconds)
            return 0
        if not args.workload:
            parser.error("--workload is required for a single run")
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
