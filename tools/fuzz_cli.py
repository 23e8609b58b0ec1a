"""Random command lines for `harmsum`, run in this process through `cli.main`.

    python3 tools/fuzz_cli.py --seconds 60 --seed 1

Draws argv for every command from small ranges, and malformed argv: values
out of bounds or not integers, unknown flags, a missing required flag,
flag combinations that `check` refuses, and `--output` paths: inside a
temporary directory (a new file, an existing one, paths that cannot be
opened, and on POSIX a named pipe whose reader thread reads at most one byte
and closes), the empty path, a path with a NUL byte, and the null device.
Each run's output is captured and dropped; no process is started.

Prints a JSON summary: the runs per command and exit code, the slowest run,
and every problem. A problem is an exit code other than 0 or 2 (a 1 means
an identity failed its check), an exception other than `SystemExit`, a run
over 5 s, a run after which fd 1 is no longer the file it was, or an
`--output` that breaks the promise of the README: after exit 0 or 1 a file
must hold the output, after exit 2 a new file must be gone and an existing
one unchanged, and the named pipe's early reader must end in exit 2 whenever
the output is more than its buffer and that one byte could take. Exits 1 if
there is any problem, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harmonic_sums import cli  # noqa: E402

RUN_BUDGET_S = 5.0
COMMANDS = ("identity", "table", "verify", "check", "bernoulli", "faulhaber")
INTEGER_FLAGS = ("--p", "--m", "--w", "--offset-a", "--offset-b", "--n-max")
# what a pipe's buffer (16 pages on Linux) and a reader of one byte can take
PIPE_BYTES = 65536 + 1
# values one step past the bounds of some integer flags (and small enough to be
# quick where another flag accepts them), past every bound, or not integers
PAST_BOUNDS = (cli.MAX_ORDER_BELOW - 1, cli.MAX_OFFSET + 1, cli.MAX_M + 1, cli.MAX_P + 1,
               -cli.MAX_SBP_EXPONENT - 1, cli.MAX_N + 1)  # fmt: skip
MALFORMED = ("-1", *map(str, PAST_BOUNDS), "x", "1.5", "", "1e3")


def _flag(rng: random.Random, argv: list[str], name: str, low: int, high: int) -> None:
    """Append `name value` half of the time, with value drawn in [low, high]."""
    if rng.random() < 0.5:
        argv += [name, str(rng.randint(low, high))]


def draw_argv(rng: random.Random, tmp: str) -> list[str]:
    command = rng.choice(COMMANDS)
    argv = [command]
    if command == "identity":
        argv += ["--family", rng.choice("fg"), "--p", str(rng.randint(0, 12))]
        argv += ["--m", str(rng.randint(-10, 10))]
        _flag(rng, argv, "--offset-a", 0, 3)
        _flag(rng, argv, "--offset-b", 0, 3)
    elif command == "verify":
        if rng.random() < 0.5:
            argv += ["--family", rng.choice("fg")]
        _flag(rng, argv, "--p", 0, 12)
        _flag(rng, argv, "--m", -10, 10)
        _flag(rng, argv, "--offset-a", 0, 3)
        _flag(rng, argv, "--offset-b", 0, 3)
        _flag(rng, argv, "--n-max", 0, 60)
    elif command == "check":
        if rng.random() < 0.5:
            argv.append("--sbp")
        if rng.random() < 0.5:
            argv += ["--corollary", rng.choice((*cli.COROLLARY_START, "both"))]
        _flag(rng, argv, "--m", -10, 10)
        _flag(rng, argv, "--w", -10, 10)
        _flag(rng, argv, "--n-max", 0, 60)
    elif command == "bernoulli":
        _flag(rng, argv, "--n-max", 0, 200)
    elif command == "faulhaber":
        argv += ["--p", str(rng.randint(0, 200))]
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(("text", "latex", "json"))]
    if rng.random() < 0.2:
        argv += ["--output", rng.choice(_outputs(tmp))]
    if rng.random() < 0.25:
        _spoil(rng, argv)
    return argv


def _outputs(tmp: str) -> tuple[str, ...]:
    """Output paths: in the temporary directory a new file, an existing one,
    one under a missing directory, one under a file, the directory itself,
    and the named pipe if there is one; and outside it the empty path, a path
    with a NUL byte and the null device."""
    fifo = os.path.join(tmp, "fifo")
    return (
        os.path.join(tmp, "out"),
        os.path.join(tmp, "existing"),
        os.path.join(tmp, "missing", "out"),
        os.path.join(tmp, "existing", "out"),
        tmp,
        tmp + os.sep,
        "",
        os.path.join(tmp, "nul\0out"),
        os.devnull,
    ) + ((fifo,) if os.path.exists(fifo) else ())


def _read(path: str) -> bytes | None:
    """The bytes of a readable file at path, else None."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except (OSError, ValueError):
        return None


def _output_problem(path: str, code: int | str, before: bytes | None) -> str | None:
    """What is wrong with the --output file after a run, given its bytes before."""
    after = _read(path)
    if code in (0, 1) and path != os.devnull:  # the old bytes are never a whole output
        if after is None or after == before or not after.endswith(b"\n"):
            return f"exit {code} but the --output file holds no output: {after!r}"
    if code == 2 and after != before:
        return "exit 2 left a new --output file" if before is None else "exit 2 changed --output"
    return None


def _early_reader(fifo: str) -> threading.Thread:
    """A thread that opens the named pipe, reads at most one byte and closes it."""

    def read_one_byte() -> None:
        with open(fifo, "rb", buffering=0) as pipe:  # blocks until a writer opens
            pipe.read(1)

    reader = threading.Thread(target=read_one_byte, daemon=True)
    reader.start()
    return reader


def _release(fifo: str, reader: threading.Thread) -> None:
    """Wait for the reader; if the run never opened the pipe, open and close
    it once as a writer, so that the reader's open returns and it reads EOF."""
    while reader.is_alive():
        with contextlib.suppress(OSError):  # ENXIO: the reader is not waiting in open
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(0.01)


def _output_bytes(argv: list[str], path: str) -> int:
    """The size of the output of argv, run again with a new file at path as
    its last --output."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main([*argv, "--output", path])
    return os.path.getsize(path)


def _spoil(rng: random.Random, argv: list[str]) -> None:
    """Make argv malformed in one way."""
    numbers = [i for i in range(2, len(argv)) if argv[i - 1] in INTEGER_FLAGS]
    how = rng.randrange(4)
    if how == 0 and numbers:
        argv[rng.choice(numbers)] = rng.choice(MALFORMED)
    elif how == 1:
        extra = ("--bogus", "--p", "--format", "--n-max=3", "-x", "--sbp")
        argv.insert(rng.randint(1, len(argv)), rng.choice(extra))
    elif how == 2 and len(argv) > 1:
        del argv[rng.randint(1, len(argv) - 1)]  # drops a flag or leaves one without its value
    else:
        argv[0] = rng.choice(("", "verif", "tables", "--help", "identity"))


def run_one(argv: list[str]) -> tuple[int | str, float, str | None]:
    """The exit code of main(argv), its time, and a traceback if it raised
    anything but SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code: int | str = cli.main(argv)
    except SystemExit as exc:  # argparse refuses, or --help
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # every other exception is a finding
        code, error = "exception", traceback.format_exc()
    return code, time.perf_counter() - start, error


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    counts: Counter[str] = Counter()
    problems: list[dict] = []
    slowest = (0.0, [])
    with tempfile.TemporaryDirectory() as tmp:
        fifo = os.path.join(tmp, "fifo")
        if hasattr(os, "mkfifo"):
            os.mkfifo(fifo)
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            run_argv = draw_argv(rng, tmp)
            Path(tmp, "existing").write_text("kept\n", encoding="utf-8")
            Path(tmp, "out").unlink(missing_ok=True)  # a new file on every run
            # the last --output's path, unless no command runs to open it (`--help`)
            outputs = [a for i, a in enumerate(run_argv[1:]) if run_argv[i] == "--output"]
            path = outputs[-1] if outputs and run_argv[0] in COMMANDS else None
            reader = _early_reader(fifo) if path == fifo else None
            before = None if path is None or reader else _read(path)
            stdout = os.fstat(1)
            code, seconds, error = run_one(run_argv)
            stdout_after = os.fstat(1)
            if reader:
                _release(fifo, reader)
            counts[f"{run_argv[0] or '(empty)'} {code}"] += 1
            slowest = max(slowest, (seconds, run_argv))
            problem = None
            if (stdout_after.st_dev, stdout_after.st_ino) != (stdout.st_dev, stdout.st_ino):
                problem = "fd 1 no longer points at the file it did before the run"
            elif error or code not in (0, 2):
                problem = error or f"exit {code}"
            elif seconds > RUN_BUDGET_S:
                problem = f"took {seconds:.2f} s"
            elif reader:
                size = 0 if code == 2 else _output_bytes(run_argv, os.path.join(tmp, "out"))
                if size > PIPE_BYTES:
                    problem = f"exit {code} although the pipe's reader took one byte of {size}"
            elif path is not None:
                problem = _output_problem(path, code, before)
            if problem:
                problems.append({"argv": run_argv, "problem": problem})
    summary = {
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": sum(counts.values()),
        "by_command_exit": dict(sorted(counts.items())),
        "slowest": {"seconds": round(slowest[0], 3), "argv": slowest[1]},
        "problems": problems,
    }
    print(json.dumps(summary, indent=2))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
