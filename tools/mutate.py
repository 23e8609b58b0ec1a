"""Named mutants of the package, each run against the tier-1 tests in its own copy.

    python3 tools/mutate.py > mutants.json

Each mutant names a file of this repository, an exact snippet, its
replacement and what it breaks. Before anything runs, every snippet must occur
exactly once in its file and differ from its replacement: a snippet that no
longer matches (gone, or found more than once) is an error, reported with
exit 2, never a pass.

Each mutant then runs on its own temporary copy of the repository (without
`.git` and caches): the snippet is replaced there and tier-1 runs in the copy,

    PYTHONPATH=<copy>/src python -m pytest -q --continue-on-collection-errors

so the working tree is never touched. At most 2 copies run at a time, after
an unmutated one: a kill means something only when the tree itself passes.

Prints one line per run on stderr as the run ends, then a JSON report on
stdout in catalogue order: per mutant, killed or survived, the first failing
test and every failing test. A run past 15 minutes counts as killed, and
says so. Exits 0 when every mutant is killed and the unmutated copy passes,
1 otherwise, 2 on a stale snippet or a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-rfE", "-p", "no:cacheprovider")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
WORKERS = 2
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the root
    snippet: str
    replacement: str
    breaks: str


_IDENTITIES = "src/harmonic_sums/identities.py"
_POLYNOMIAL = "src/harmonic_sums/polynomial.py"
_ROW = "sigma, c, slope, end = (-1, s.b, -s.a - 1, s) if reverse else (1, -s.b - 1, -s.a, top)"

CATALOGUE = (
    # identities._by_parts: the (sigma, c, lambda, e) rows and the one Taylor shift
    Mutant("g-end-at-top", _IDENTITIES, _ROW, _ROW.replace("-s.a - 1, s)", "-s.a - 1, top)"),
           "G's boundary term taken at N+1, where its Q is zero"),
    Mutant("g-sigma-dropped", _IDENTITIES,
           "_taylor(antidiff.compose_linear(sigma, c), slope, sigma)",
           "_taylor(antidiff.compose_linear(sigma, c), slope, 1)",
           "G's Q is P(N-j), not -P(N-j): every q_t has the wrong sign"),
    Mutant("f-shift-minus-b", _IDENTITIES, _ROW, _ROW.replace("(1, -s.b - 1,", "(1, -s.b,"),
           "F's antidifference at P(j-s), one step late"),
    Mutant("g-slope-minus-a", _IDENTITIES, _ROW, _ROW.replace("(-1, s.b, -s.a - 1,", "(-1, s.b, -s.a,"),
           "G's antidifference at P(s-j), without the n of N = s+n"),
    Mutant("taylor-lambda-power-dropped", _IDENTITIES,
           "powers = [sign * int_pow(slope, u) for u in range(k)]",
           "powers = [sign for u in range(k)]",
           "the Taylor shift to j + lambda n taken at lambda = 1"),
    Mutant("offset-harmonic-sign-flipped", _IDENTITIES,
           "parts.append((-antidiff, harmonic_part(s, m)))",
           "parts.append((antidiff, harmonic_part(s, m)))",
           "offset_harmonic adds P(n) H_s^(m) instead of subtracting it"),
    Mutant("reverse-inverted", _IDENTITIES,
           'reverse=family.upper() == "G")', 'reverse=family.upper() == "F")',
           "build_closed_form builds G for 'F' and F for 'G'"),
    Mutant("offset-refusal-dropped", _IDENTITIES,
           "    if s.b < 0:  # s must be a nonnegative integer for every n >= 0\n"
           '        raise ValueError(f"offset {s} is negative at n = 0")\n', "",
           "an offset negative at n = 0 is built instead of refused"),
    Mutant("top-at-n", _IDENTITIES,
           "top = LinearArg(s.a + 1, s.b + 1)", "top = LinearArg(s.a + 1, s.b)",
           "the upper end of the summation by parts at N instead of N+1"),
    # polynomial._value_pair: the one evaluator
    Mutant("value-pair-sign-normalisation-dropped", _POLYNOMIAL,
           "return (num, den) if den > 0 else (-num, -den)", "return num, den",
           "a pair with den < 0 from a pole below the point"),
    Mutant("value-pair-gap-sign-flipped", _POLYNOMIAL,
           "gap = p * rq - r.numerator * q", "gap = r.numerator * q - p * rq",
           "n - r read as r - n: odd poles change the sign of the value"),
    Mutant("value-pair-pole-error-dropped", _POLYNOMIAL,
           "        if not gap:\n"
           '            raise PoleError(f"pole at n = {Fraction(p, q)}")\n', "",
           "a pole evaluates to a pair with den 0 instead of raising PoleError"),
    Mutant("value-pair-q-dropped-from-pole", _POLYNOMIAL,
           "num *= (q * rq) ** e", "num *= rq**e",
           "a pole at a fractional point loses q**e above"),
    Mutant("value-pair-q-power-dropped", _POLYNOMIAL,
           "        den *= q_power\n", "",
           "homogeneous Horner loses q**deg below"),
    Mutant("value-pair-integer-branch-always", _POLYNOMIAL,
           "    if q == 1:\n        for c in nums:", "    if True:\n        for c in nums:",
           "plain Horner at a fractional point reads p/q as p"),
)


def stale(root: Path, mutants: list[Mutant]) -> list[str]:
    """One message per mutant whose snippet is not found exactly once in its file."""
    problems = []
    for mutant in mutants:
        path = root / mutant.file
        count = path.read_text(encoding="utf-8").count(mutant.snippet) if path.is_file() else 0
        if count != 1:
            where = "missing file" if not path.is_file() else f"snippet found {count} times"
            problems.append(f"mutant {mutant.name}: {where} in {mutant.file}")
        elif mutant.replacement == mutant.snippet:
            problems.append(f"mutant {mutant.name}: the replacement changes nothing")
    return problems


def _failures(output: str) -> list[str]:
    """The test ids of pytest's short summary, in the order it lists them."""
    failed = []
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            failed.append(line.split(" ", 1)[1].split(" - ", 1)[0])
    return failed


def run_tier1(mutant: Mutant | None) -> dict:
    """Tier-1 on a temporary copy of the repository, with ``mutant`` applied if given."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        if mutant is not None:
            path = copy / mutant.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant.snippet, mutant.replacement, 1), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        try:
            done = subprocess.run(
                [sys.executable, *TIER1], cwd=copy, env=env, timeout=TIMEOUT_S,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )  # fmt: skip
            code, output, timed_out = done.returncode, done.stdout, False
        except subprocess.TimeoutExpired as exc:
            out = exc.stdout or ""
            code, output, timed_out = None, out if isinstance(out, str) else out.decode(), True
    failures = _failures(output)
    result = {
        "exit": code,
        "timed_out": timed_out,
        "seconds": round(time.perf_counter() - start, 1),
        "summary": output.strip().splitlines()[-1] if output.strip() else "",
        "first_failure": failures[0] if failures else None,
        "failures": failures,
    }
    if mutant is not None:
        killed = timed_out or code != 0
        result = {"name": mutant.name, "file": mutant.file, "breaks": mutant.breaks,
                  "status": "killed" if killed else "survived", **result}  # fmt: skip
    return result


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    problems = stale(ROOT, list(CATALOGUE))
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2

    jobs: list[Mutant | None] = [None, *CATALOGUE]
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        futures = {pool.submit(run_tier1, job): i for i, job in enumerate(jobs)}
        results: list[dict] = [{}] * len(jobs)
        for future in as_completed(futures):
            i = futures[future]
            results[i] = result = future.result()
            label = "unmutated" if jobs[i] is None else f"{result['name']}: {result['status']}"
            print(f"{label} ({result['summary']}, {result['seconds']} s)", file=sys.stderr, flush=True)
    baseline = results.pop(0)
    survived = [r["name"] for r in results if r["status"] == "survived"]
    report = {
        "command": ["python", *TIER1],
        "unmutated": baseline,
        "mutants": results,
        "killed": len(results) - len(survived),
        "survived": survived,
    }
    print(json.dumps(report, indent=2))
    return 1 if survived or baseline["exit"] != 0 else 0


if __name__ == "__main__":
    raise SystemExit(main())
