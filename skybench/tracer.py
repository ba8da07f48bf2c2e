"""Span tracer for the skyburst benchmark.

The tracer wraps the package's public functions at every module binding
through which the package calls them (``from .skypoly import construct``
copies the name, so ``construct`` is replaced in ``skypoly``, ``moments``,
``recurrences``, ``zeros`` and the package namespace alike).  Nothing under
``src/`` is edited: the wrappers are installed from here, in the benchmark's
own process, and only in a traced run.

Each call records a span (name, start, end, parent, job id).  Self time is a
span's duration minus the time its child spans cover.  Aggregates are kept
for every span; the span records themselves are kept in memory up to a cap
and written out when the run ends.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from fractions import Fraction

# span name -> (module that defines the function, attribute name)
WRAPPED = {
    "scalarfield.pochhammer": ("scalarfield", "pochhammer"),
    "skypoly.construct": ("skypoly", "construct"),
    "skypoly.construct_series": ("skypoly", "construct_series"),
    "skypoly.construct_via_symmetry": ("skypoly", "construct_via_symmetry"),
    "moments.det_direct": ("moments", "toeplitz_det_direct"),
    "moments.determinantal": ("moments", "construct_determinantal"),
    "moments.bilinear": ("moments", "bilinear"),
    "recurrences.step_mixed": ("recurrences", "step_mixed"),
    "recurrences.step_omega_up": ("recurrences", "step_omega_up"),
    "recurrences.lifting": ("recurrences", "lifting"),
    "recurrences.lowering": ("recurrences", "lowering"),
    "recurrences.differential_step": ("recurrences", "differential_step"),
    "recurrences.ode_residual": ("recurrences", "ode_residual"),
    "recurrences.reflect_negative_omega": ("skypoly", "reflect_negative_omega"),
    "recurrences.run_identity_suite": ("recurrences", "run_identity_suite"),
    "zeros.find_zeros": ("zeros", "find_zeros"),
    "zeros.zeros_of": ("zeros", "zeros_of"),
    "zeros.trace": ("zeros", "trace"),
    "cli.main": ("cli", "main"),
}

CONSTRUCTION = ("skypoly.construct", "skypoly.construct_series", "skypoly.construct_via_symmetry")
STEPS = tuple(name for name in WRAPPED if name.startswith("recurrences.") and name != "recurrences.run_identity_suite")

# layer of each span name, for self-time shares
LAYERS = {
    "scalarfield.pochhammer": "scalarfield",
    **{name: "skypoly" for name in CONSTRUCTION},
    "moments.det_direct": "moments",
    "moments.determinantal": "moments",
    "moments.bilinear": "moments",
    **{name: "recurrences" for name in STEPS},
    "recurrences.run_identity_suite": "recurrences",
    "zeros.find_zeros": "zeros.roots",
    "zeros.zeros_of": "zeros.roots",
    "zeros.trace": "zeros.continuation",
    "cli.main": "cli",
    "job": "harness",
}

SUBMODULES = ("scalarfield", "skypoly", "moments", "recurrences", "zeros", "cli")
KEEP_SPANS = 200_000    # span records kept for the spans file; aggregates cover every span


def _omega_key(omega):
    value = getattr(omega, "value", omega)
    return Fraction(value) if isinstance(value, (int, Fraction)) else value


def _coeff_bits(poly) -> int:
    bits = 0
    for c in poly.coeffs:
        if isinstance(c, Fraction):
            bits += c.numerator.bit_length() + c.denominator.bit_length()
        elif isinstance(c, int):
            bits += c.bit_length() + 1
    return bits


class Tracer:
    """Stack-based span recorder; one instance per traced run."""

    def __init__(self, typed_errors, zeros_verdict):
        # typed_errors: the package's own exception types (a refusal, not a crash);
        # zeros_verdict(ZeroSet) -> True when the root set passes the benchmark's check
        self.typed_errors = typed_errors
        self.zeros_verdict = zeros_verdict
        self.spans = []
        self.dropped_spans = 0
        self.stack = []
        self.next_span = 0
        self.job_id = -1
        self.active = True
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.counts = {
            "construct_builds": 0,
            "construct_repeats": 0,
            "coeff_bits": 0,
            "find_zeros_refused": 0,
            "find_zeros_wrong": 0,
            "trace_solves": 0,
            "trace_ok": 0,
            "trace_ok_solves": 0,
            "trace_grid_points": 0,
            "trace_bursts": 0,
        }
        self._built = set()
        self._solves_in_trace = 0
        self._originals = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Replace every binding of each wrapped function in the package's modules."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in SUBMODULES]
        for name, (home, attr) in WRAPPED.items():
            original = getattr(getattr(package, home), attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._originals):
            setattr(module, key, original)
        self._originals.clear()

    # -- spans ---------------------------------------------------------------

    def start_job(self, job_id: int) -> None:
        self.job_id = job_id
        self._built = set()

    def _open(self, name):
        # frame: [name, start, child_time, span_id, parent_id]
        parent = self.stack[-1][3] if self.stack else -1
        frame = [name, 0.0, 0.0, self.next_span, parent]
        self.next_span += 1
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame, end):
        name, start, child, span_id, parent = frame
        self.stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((self.job_id, span_id, parent, name, start, end))
        else:
            self.dropped_spans += 1

    def _charge_parent(self, start):
        # the parent's children cover this span and the bookkeeping after it
        if self.stack:
            self.stack[-1][2] += time.perf_counter() - start

    def span(self, name, fn, *args, **kwargs):
        frame = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._close(frame, end)
            self._charge_parent(frame[1])

    def _wrap(self, name, fn):
        tracer = self
        outer_construction = name in CONSTRUCTION

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            nested = outer_construction and any(f[0] in CONSTRUCTION for f in stack)
            in_trace = name == "zeros.zeros_of" and bool(stack) and stack[-1][0] == "zeros.trace"
            if name == "zeros.trace":
                tracer._solves_in_trace = 0
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, time.perf_counter())
                if isinstance(exc, tracer.typed_errors):
                    tracer._refused(name, in_trace)
                tracer._charge_parent(frame[1])
                raise
            tracer._close(frame, time.perf_counter())
            tracer._after(name, args, result, nested, in_trace)
            tracer._charge_parent(frame[1])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _refused(self, name, in_trace):
        if name == "zeros.find_zeros":
            self.counts["find_zeros_refused"] += 1
        elif in_trace:
            self._count_solve()

    def _count_solve(self):
        self.counts["trace_solves"] += 1
        self._solves_in_trace += 1

    def _after(self, name, args, result, nested, in_trace):
        counts = self.counts
        if name in CONSTRUCTION and not nested:
            key = (args[0], _omega_key(args[1]))
            counts["construct_builds"] += 1
            if key in self._built:
                counts["construct_repeats"] += 1
            self._built.add(key)
            counts["coeff_bits"] += _coeff_bits(result)
        elif name == "zeros.find_zeros":
            with self.paused():
                if not self.zeros_verdict(result):
                    counts["find_zeros_wrong"] += 1
        elif in_trace:
            self._count_solve()
        elif name == "zeros.trace":
            counts["trace_ok"] += 1
            counts["trace_ok_solves"] += self._solves_in_trace
            counts["trace_grid_points"] += len(result.omega_grid)
            counts["trace_bursts"] += len(result.burst_events)

    @contextmanager
    def paused(self):
        """Let calls through the wrappers untraced (for the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- results -------------------------------------------------------------

    def layer_self_shares(self) -> dict:
        """Self time per layer as a share of all traced time."""
        by_layer = {}
        for name, value in self.self_time.items():
            layer = LAYERS.get(name, name)
            by_layer[layer] = by_layer.get(layer, 0.0) + value
        total = sum(by_layer.values()) or 1.0
        return {layer: value / total for layer, value in by_layer.items()}

    def per_layer_metrics(self, jobs: int, bytes_out: int) -> dict:
        """Every per-layer metric except trace_overhead_frac, which needs an untraced run."""
        jobs = max(jobs, 1)
        calls = self.calls.get
        self_s = self.self_time.get
        c = self.counts
        fz_calls = calls("zeros.find_zeros", 0)
        # steps after each returned trace's starting solve: accepted over attempted
        attempted_steps = c["trace_ok_solves"] - c["trace_ok"]
        accepted_steps = c["trace_grid_points"] - c["trace_ok"]

        def per_job(x):
            return x / jobs

        def share(num, den):
            return num / den if den else 0.0

        return {
            "scalarfield.pochhammer.calls": (per_job(calls("scalarfield.pochhammer", 0)), "count/job"),
            "scalarfield.pochhammer.self_s": (per_job(self_s("scalarfield.pochhammer", 0.0)), "s/job"),
            "skypoly.construct.calls": (per_job(c["construct_builds"]), "count/job"),
            "skypoly.construct.self_s": (per_job(sum(self_s(n, 0.0) for n in CONSTRUCTION)), "s/job"),
            "skypoly.coeff_bits": (per_job(c["coeff_bits"]), "bit/job"),
            "skypoly.construct.repeat_share": (share(c["construct_repeats"], c["construct_builds"]), "ratio"),
            "moments.det_direct.self_s": (per_job(self_s("moments.det_direct", 0.0)), "s/job"),
            "moments.determinantal.self_s": (per_job(self_s("moments.determinantal", 0.0)), "s/job"),
            "moments.bilinear.calls": (per_job(calls("moments.bilinear", 0)), "count/job"),
            "moments.bilinear.self_s": (per_job(self_s("moments.bilinear", 0.0)), "s/job"),
            "recurrences.steps.self_s": (per_job(sum(self_s(n, 0.0) for n in STEPS)), "s/job"),
            "zeros.find_zeros.calls": (per_job(fz_calls), "count/job"),
            "zeros.find_zeros.self_s": (per_job(self_s("zeros.find_zeros", 0.0)), "s/job"),
            "zeros.find_zeros.refused": (share(c["find_zeros_refused"], fz_calls), "ratio"),
            "zeros.find_zeros.wrong": (share(c["find_zeros_wrong"], fz_calls), "ratio"),
            "zeros.trace.self_s": (per_job(self_s("zeros.trace", 0.0)), "s/job"),
            "zeros.trace.solves": (per_job(c["trace_solves"]), "count/job"),
            "zeros.trace.grid_points": (per_job(c["trace_grid_points"]), "count/job"),
            "zeros.trace.accept_ratio": (share(accepted_steps, attempted_steps), "ratio"),
            "zeros.trace.bursts": (per_job(c["trace_bursts"]), "count/job"),
            "cli.main.self_s": (per_job(self_s("cli.main", 0.0)), "s/job"),
            "cli.bytes_out": (per_job(bytes_out), "byte/job"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("job,span,parent,name,start,end\n")
            for job, span_id, parent, name, start, end in self.spans:
                fh.write(f"{job},{span_id},{parent},{name},{start!r},{end!r}\n")

