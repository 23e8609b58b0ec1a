"""Spans around the calls into each module of ``harmonic_sums``, set from outside.

``install`` rebinds each traced public function, in every module of the
package that holds it, to a wrapper that opens a span. The program's own
files are not touched, and an untraced run installs nothing.

A span's self time is its duration minus the time of the spans it
caused, so the self times of one request, plus the request's own
remainder (``cli.overhead``), add up to the request's time.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

ROOT = "cli.overhead"

# span name -> (module, function) pairs it wraps; the render entry point
# gets its span name from its format argument
TRACED: dict[str, tuple[tuple[str, str], ...]] = {
    "identities.build": (
        ("identities", "sum_f"),
        ("identities", "sum_g"),
        ("identities", "offset_sum_f"),
        ("identities", "offset_sum_g"),
        ("identities", "build_closed_form"),
    ),
    "closed_form.evaluate": (("closed_form", "evaluate_cf"),),
    "oracle.direct": (("oracle", "lhs_direct"),),
    "render.json": (("render", "closed_form_to_json"), ("render", "fraction_to_json")),
    "render.parse": (("render", "parse_closed_form"),),
    "render.format": (("render", "render"),),
    "exact.bernoulli": (("exact", "bernoulli_plus"),),
    "catalog.entries": (("catalog", "catalog_entries"),),
}

# at most this many raw spans are kept for the trace file
MAX_RECORDED_SPANS = 200_000


def _render_name(args: tuple, kwargs: dict) -> str:
    fmt = args[1] if len(args) > 1 else kwargs.get("fmt", "text")
    return f"render.{fmt}"


class Tracer:
    """Per-round span totals and counters; spans only open inside a request."""

    def __init__(self) -> None:
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.max_bits = 0
        self.bernoulli_indices: set[int] = set()
        self.built: list[Any] = []
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._stack: list[list] = []
        self._request = -1
        self.span_count = 0

    # request boundaries -------------------------------------------------

    def begin(self, request: int) -> None:
        self._request = request
        self._stack = [[ROOT, 0.0, self._new_id()]]
        self._t0 = perf_counter()

    def end(self) -> None:
        duration = perf_counter() - self._t0
        self.self_time[ROOT] += duration - self._stack[0][1]
        self._stack = []

    # spans --------------------------------------------------------------

    def _new_id(self) -> int:
        self.span_count += 1
        return self.span_count

    def wrap(self, name: str | Callable[[tuple, dict], str], fn: Callable) -> Callable:
        tracer = self
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            span = name_of(args, kwargs)
            parent = stack[-1]
            frame = [span, 0.0, tracer._new_id()]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent[1] += duration
                tracer.self_time[span] += duration - frame[1]
                if parent[0] != span:
                    tracer.calls[span] += 1
                if len(tracer.spans) < MAX_RECORDED_SPANS:
                    tracer.spans.append(
                        (tracer._request, frame[2], parent[2], span, start, duration)
                    )
            tracer._observe(span, parent[0] != span, args, result)
            return result

        return traced

    def _observe(self, span: str, outermost: bool, args: tuple, result: Any) -> None:
        """Counters read off a span's arguments and result (cheap, after its clock stops)."""
        if span == "identities.build" and outermost:
            self.built.append(result)
        elif span == "oracle.direct":
            self.counts["oracle.direct_summands"] += args[4] + 1
            self.max_bits = max(self.max_bits, result.numerator.bit_length(), result.denominator.bit_length())
        elif span == "exact.bernoulli":
            self.bernoulli_indices.add(args[0])
        elif span.startswith("render.") and isinstance(result, str):
            self.counts["render.bytes"] += len(result.encode())

    def count_built(self) -> None:
        """Fold the closed forms built since the last call into the counters."""
        for cf in self.built:
            self.counts["identities.terms"] += len(cf.terms)
            for rf in (cf.constant, *(coeff for _, coeff in cf.terms)):
                n = len(rf.num.coeffs) + len(rf.den.coeffs)
                self.counts["polynomial.coeffs"] += n
                if rf.den.degree == 0:
                    self.counts["polynomial.const_den_coeffs"] += n
        self.built.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the round: ``<span>_s`` self times, ``<span>_calls``, counts."""
        out: dict[str, float] = dict(self.counts)
        out.update({f"{span}_s": t for span, t in self.self_time.items()})
        out.update({f"{span}_calls": n for span, n in self.calls.items()})
        out["oracle.max_digits"] = math.ceil(self.max_bits * math.log10(2))
        out["exact.bernoulli_indices"] = len(self.bernoulli_indices)
        return out


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever the package binds it."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "harmonic_sums"]
    for span, targets in TRACED.items():
        name = _render_name if span == "render.format" else span
        for module_name, attr in targets:
            original = getattr(sys.modules[f"harmonic_sums.{module_name}"], attr)
            wrapper = tracer.wrap(name, original)
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"traced function {module_name}.{attr} is bound nowhere")
