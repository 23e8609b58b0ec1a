"""Named mutants of the package, each run against the tier-1 tests in its own copy.

    python3 tools/mutate.py > mutants.json

Each mutant names a file of this repository, an exact snippet, its
replacement and what it breaks. Before anything runs, every snippet must occur
exactly once in its file and differ from its replacement: a snippet that no
longer matches (gone, or found more than once) is an error, reported with
exit 2, never a pass.

Each run takes a temporary copy of the repository (without `.git` and
caches), so the working tree is never touched, and runs tier-1 in it up to
its first failing test, naming every test file once:

    PYTHONPATH=<copy>/src python -m pytest -q -x --continue-on-collection-errors FILES...

An unmutated copy runs first and alone, with the files in name order: a kill
means something only when the tree itself passes, so a failing unmutated
copy ends the run with exit 1 before any mutant runs. Then each mutant
replaces its snippet in its own copy, at most 2 copies at a time, and its
run lists its own module's tests first (`tests/test_render.py` for a mutant
of `render.py`), then every other test file in name order, so a mutant that
its module's unit tests kill dies there.

Prints one line per run on stderr as the run ends, then a JSON report on
stdout: the unmutated run's command and record, then per mutant in
catalogue order, killed or survived, the first failing test, pytest's
summary line and the seconds. A run past 15 minutes counts as killed, and
says so. Exits 0 when every mutant is killed, 1 when one survives or the
unmutated copy fails, 2 on a stale snippet or a usage error.
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
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-rfE",
         "-p", "no:cacheprovider")  # fmt: skip
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
_ORACLE = "src/harmonic_sums/oracle.py"
_RENDER = "src/harmonic_sums/render.py"
_CLOSED_FORM = "src/harmonic_sums/closed_form.py"
_CLI = "src/harmonic_sums/cli.py"
_EXACT = "src/harmonic_sums/exact.py"
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
    Mutant("boundary-term-sign-flipped", _IDENTITIES,
           "parts = [(antidiff, harmonic_part(end, m))]",
           "parts = [(-antidiff, harmonic_part(end, m))]",
           "the boundary term P(n) H_e^(m) subtracted instead of added"),
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
           "gap = x * rq - r.numerator", "gap = r.numerator - x * rq",
           "n - r read as r - n: odd poles change the sign of the value"),
    Mutant("value-pair-pole-error-dropped", _POLYNOMIAL,
           "        if not gap:\n"
           '            raise PoleError(f"pole at n = {x}")\n', "",
           "a pole evaluates to a pair with den 0 instead of raising PoleError"),
    Mutant("value-pair-rq-dropped-from-pole", _POLYNOMIAL,
           "        num *= rq**e\n", "",
           "a pole r = rp/rq with rq > 1 loses rq**e above"),
    # identities._power_sum and exact.BernoulliCache: the power sums' two sources, and the tangent column
    Mutant("power-sum-k0-term-dropped", _IDENTITIES,
           "return faulhaber_poly(p) + int_pow(0, p)", "return faulhaber_poly(p)",
           "P(x) without its k = 0 term, 0**0 = 1 at p = 0"),
    Mutant("bernoulli-sign-flipped", _EXACT,
           "signed_tangent = self._column[-1] if j % 2 else -self._column[-1]",
           "signed_tangent = -self._column[-1] if j % 2 else self._column[-1]",
           "every even Bernoulli number from B_2 on with the wrong sign"),
    Mutant("tangent-recurrence-weight-off-by-one", _EXACT,
           "c = a * p + (a + 2) * c", "c = a * p + (a + 1) * c",
           "t_k(i) = (i-k) t_k(i-1) + (i-k+1) t_{k-1}(i): every T_j from T_3 on is wrong"),
    Mutant("tangent-last-entry-not-doubled", _EXACT,
           "out.append(2 * c)", "out.append(c)",
           "T_i read before the recurrence's last pass, half its value"),
    # oracle: the direct sums and the check rows, which share no code with the constructors
    Mutant("oracle-g-weights-not-reversed", _ORACLE,
           'weights = powers if family == "F" else powers[n::-1]',
           'weights = powers if family == "F" else powers',
           "the direct sum of G weighs H_{base+k} by k**p instead of (n-k)**p"),
    Mutant("oracle-w0-dropped", _ORACLE,
           "total += (suffix + weights[0]) * h", "total += suffix * h",
           "W H_base without the weight w_0"),
    Mutant("oracle-h-base-scale-dropped", _ORACLE,
           "        h *= (l // l_base) ** m\n", "",
           "H_base read over lcm(1..base)**m, not the common D = l**m"),
    Mutant("grid-rows-rhs-over-rd", _ORACLE,
           "yield CheckRow(n, ln * rd, rn * ld, ld * rd)",
           "yield CheckRow(n, ln * rd, rn * rd, ld * rd)",
           "the closed form's numerator scaled by its own denominator"),
    Mutant("sbp-up-at-n", _ORACLE,
           "up = _times_power(h, n + 1, w)", "up = _times_power(h, n, w)",
           "(n+1)**w H_n^(m) taken as n**w H_n^(m)"),
    Mutant("corollary-sign-flipped", _ORACLE,
           "sign = 1 if start else -1", "sign = -1 if start else 1",
           "H_t**2 + H_t^(2) and H_t**2 - H_t^(2) exchanged between the corollaries"),
    # polynomial.linear_factors: the root search
    Mutant("linear-factors-multiplicity-one", _POLYNOMIAL,
           "while (quot := poly.divide_linear(root)) is not None:",
           "if (quot := poly.divide_linear(root)) is not None:",
           "a repeated zero divided out once"),
    Mutant("linear-factors-p1-filter-sign", _POLYNOMIAL,
           "_divides(q - num, at_one)", "_divides(q + num, at_one)",
           "Gauss's P(1) filter tests q + p, dropping true roots"),
    # render: the display factoring
    Mutant("display-content-sign-dropped", _RENDER,
           "g = gcd(*rest.nums) if rest.nums[-1] > 0 else -gcd(*rest.nums)",
           "g = gcd(*rest.nums)",
           "a cofactor with a negative leading coefficient prints with the wrong sign"),
    Mutant("pole-factors-multiplicity-dropped", _RENDER,
           "den *= r.denominator**e", "den *= r.denominator",
           "the content of (q n - p)**e divides by q once"),
    # closed_form: the evaluation sweep
    Mutant("prefix-scale-power-dropped", _CLOSED_FORM,
           "scale = int_pow(step, order)", "scale = step",
           "H^(order)'s numerator scaled by step, not step**order, where the lcm grows"),
    Mutant("sweep-rescale-dropped", _CLOSED_FORM,
           "                total *= grown // common\n", "",
           "the running sum not rescaled when its common denominator grows"),
    # closed_form._digits and render._integer: exact integers past the int/str digit limit
    Mutant("digits-fallback-dropped", _CLOSED_FORM,
           "return str(Decimal(n))", "raise",
           "an integer past 4,300 digits raises ValueError instead of printing"),
    Mutant("integer-fallback-dropped", _RENDER,
           "return int(Decimal(text))", "return int(text)",
           "a JSON coefficient past 4,300 digits raises ValueError instead of parsing"),
    # cli: the exit codes and the --output file
    Mutant("output-removal-dropped", _CLI,
           "os.remove(args.output)", "pass",
           "a refused command leaves the --output file it created"),
    Mutant("verdict-always-zero", _CLI,
           "code = 0 if all_ok else 1", "code = 0",
           "a failing verify or check exits 0"),
)


def stale(root: Path, mutants: list[Mutant]) -> list[str]:
    """One message per mutant whose snippet is not found exactly once in its file,
    or whose replacement equals its snippet."""
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


def tier1_files(root: Path, mutant: Mutant | None = None) -> list[str]:
    """Every ``tests/test_*.py`` under root once, in name order; for a mutant,
    its own module's ``tests/test_<module>.py`` first. pytest keeps the order
    of a list of files, while a file named next to ``tests`` is folded back
    into the directory's order."""
    files = sorted(path.relative_to(root).as_posix() for path in (root / "tests").glob("test_*.py"))
    if mutant is not None:
        own = f"tests/test_{Path(mutant.file).stem}.py"
        files.remove(own)  # ValueError if the module has no test file
        files.insert(0, own)
    return files


def _first_failure(output: str) -> str | None:
    """The first test id of pytest's short summary, if any."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def run_tier1(mutant: Mutant | None) -> tuple[bool, dict]:
    """Tier-1 up to its first failing test, on a temporary copy of the repository
    with ``mutant`` applied if given: whether it failed, and the run's record."""
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
                [sys.executable, *TIER1, *tier1_files(copy, mutant)], cwd=copy, env=env, timeout=TIMEOUT_S,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )  # fmt: skip
            failed, output = done.returncode != 0, done.stdout
            summary = output.strip().splitlines()[-1] if output.strip() else ""
        except subprocess.TimeoutExpired as exc:
            out = exc.stdout or ""
            failed, output = True, out if isinstance(out, str) else out.decode()
            summary = f"timed out after {TIMEOUT_S} s"
    return failed, {
        "first_failure": _first_failure(output),
        "summary": summary,
        "seconds": round(time.perf_counter() - start, 1),
    }


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    problems = stale(ROOT, list(CATALOGUE))
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2

    failed, baseline = run_tier1(None)
    print(f"unmutated ({baseline['summary']}, {baseline['seconds']} s)", file=sys.stderr, flush=True)
    report: dict = {"command": ["python", *TIER1, *tier1_files(ROOT)], "unmutated": baseline}
    if failed:
        print("error: the unmutated copy fails, so no mutant was run", file=sys.stderr)
        print(json.dumps(report, indent=2))
        return 1

    results: list[dict] = [{}] * len(CATALOGUE)
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        futures = {pool.submit(run_tier1, mutant): i for i, mutant in enumerate(CATALOGUE)}
        for future in as_completed(futures):
            i = futures[future]
            killed, run = future.result()
            mutant, status = CATALOGUE[i], "killed" if killed else "survived"
            results[i] = {"name": mutant.name, "file": mutant.file, "breaks": mutant.breaks,
                          "status": status, **run}  # fmt: skip
            print(f"{mutant.name}: {status} ({run['summary']}, {run['seconds']} s)",
                  file=sys.stderr, flush=True)  # fmt: skip
    survived = [r["name"] for r in results if r["status"] == "survived"]
    report.update(mutants=results, killed=len(results) - len(survived), survived=survived)
    print(json.dumps(report, indent=2))
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
