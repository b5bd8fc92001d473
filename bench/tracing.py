"""Span tracing around qtherm's layer functions, installed from outside.

``Tracer.install`` replaces the named public functions of the qtherm
modules with wrappers that record a span (name, start, end, parent) per
call. Every module global that refers to the same function object is
replaced too, so ``from .floquet import classify_mode`` style copies are
covered. A few names are counted rather than spanned, so that their time
stays in the caller's self time: the ``solve_ivp`` that ``oscillators``
holds (its RHS evaluation count is credited to the enclosing span) and
the ``expm`` that ``cycles`` holds. The CLI's sweep pool is replaced by
one that hands each task its submitter's span as parent.

``uninstall`` puts the originals back. Spans stay in memory;
``per_layer`` reduces them to the benchmark's per-layer metrics and
``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# (module, attribute) pairs that get a span per call
SPANNED = (
    ("oscillators", "FrequencyRamp"),
    ("oscillators", "damp_thermalize"),
    ("oscillators", "squeeze"),
    ("lindblad", "build_generator"),
    ("lindblad", "decompose_coupling"),
    ("lindblad", "dissipator_super"),
    ("lindblad", "steady_state"),
    ("lindblad", "evolve"),
    ("lindblad", "heat_current"),
    ("lindblad", "entropy_production"),
    ("qcore", "matrix_exp"),
    ("qcore", "hermitian_eig"),
    ("qcore", "partial_trace"),
    ("battery", "charge_spins_xxz"),
    ("battery", "charge_dicke"),
    ("battery", "charge_lmg"),
    ("battery", "ergotropy"),
    ("battery", "variance_decomposition"),
    ("floquet", "sideband_weights"),
    ("floquet", "ctm_currents"),
    ("cycles", "outcoupled_multicycle"),
    ("cycles", "otto_numeric"),
    ("sta", "verify_ermakov_invariant"),
    ("metrology", "thermometry_simulate"),
    ("metrology", "magnetometry_null"),
    ("cli", "run"),
    ("cli", "validate_config"),
    ("cli", "write_csv"),
)

# per-layer metrics: (name, unit); ".self_s" comes from spans, the rest
# from counters
PER_LAYER = (
    [(f"{m}.{f}.self_s", "s") for m, f in SPANNED]
    + [
        ("oscillators.FrequencyRamp.nfev", "count"),
        ("oscillators.damp_thermalize.nfev", "count"),
        ("oscillators.squeeze.calls", "count"),
        ("lindblad.dissipator_super.calls", "count"),
        ("lindblad.dissipator_super.bytes_mb", "MB"),
        ("qcore.hermitian_eig.calls", "count"),
        ("qcore.partial_trace.calls", "count"),
        ("floquet.sideband_weights.calls", "count"),
        ("cycles.expm.calls", "count"),
    ]
)

MB = float(1 << 20)


def _nbytes(a) -> int:
    """Bytes held by a dense or scipy-sparse array (a sparse generator is
    the planned replacement, and the metric must survive it unedited)."""
    if hasattr(a, "indptr"):
        return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    return int(getattr(a, "nbytes", 0))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span or None]
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []  # (module, name, original value)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            stack = self._stack()
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else None]
            self.spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = time.perf_counter()
            self._count(name + ".calls")
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def nfev_to_caller(self, fn):
        """Credit an ODE solve's RHS evaluations to the enclosing span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            stack = self._stack()
            owner = stack[-1][0] if stack else "untraced"
            self._count(owner + ".nfev", sol.nfev)
            return sol

        return counted

    def calls_only(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._count(name + ".calls")
            return fn(*args, **kwargs)

        return counted

    def pool_class(self):
        tracer = self

        class SpanPool(ThreadPoolExecutor):
            """Thread pool whose tasks run under the submitter's span."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._stack()[-1:]

                def run(*a, **k):
                    stack = tracer._stack()
                    saved = stack[:]
                    stack[:] = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        stack[:] = saved

                return super().submit(run, *args, **kwargs)

        return SpanPool

    def install(self, modules: dict) -> None:
        """Wrap the traced names in ``modules`` (short name -> module)."""
        replace = {}
        for mod, attr in SPANNED:
            name = f"{mod}.{attr}"
            on_result = None
            if name == "lindblad.dissipator_super":
                def on_result(out):
                    self._count("lindblad.dissipator_super.bytes_mb",
                                _nbytes(out) / MB)
            orig = getattr(modules[mod], attr)
            replace[id(orig)] = (orig, self.span(name, orig, on_result))
        counted = (
            ("oscillators", "solve_ivp", self.nfev_to_caller),
            ("cycles", "expm", lambda fn: self.calls_only("cycles.expm", fn)),
        )
        for mod, attr, wrap in counted:
            self._set(modules[mod], attr, wrap(getattr(modules[mod], attr)))
        self._set(modules["cli"], "ThreadPoolExecutor", self.pool_class())
        for module in modules.values():
            for key, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, key, hit[1])

    def _set(self, module, name: str, value) -> None:
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def uninstall(self) -> None:
        """Put back every name ``install`` replaced."""
        while self._undo:
            module, name, value = self._undo.pop()
            setattr(module, name, value)

    def self_times(self) -> dict:
        """Total self time per span name: duration minus the union of the
        intervals its child spans cover (children may run in parallel)."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[id(rec[3])].append((rec[1], rec[2]))
        totals = defaultdict(float)
        for rec in self.spans:
            name, start, end, _parent = rec
            covered, cursor = 0.0, start
            for lo, hi in sorted(children.get(id(rec), ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[name] += (end - start) - covered
        return totals

    def per_layer(self, rounds: int) -> dict:
        """Every per-layer metric, as a total per round of the workload."""
        selfs = self.self_times()
        out = {}
        for name, unit in PER_LAYER:
            if name.endswith(".self_s"):
                total = selfs.get(name[: -len(".self_s")], 0.0)
            else:
                total = self.counts.get(name, 0.0)
            out[name] = {"value": total / rounds, "unit": unit}
        return out

    def dump(self, path) -> None:
        """Write spans as [id, name, start, end, parent id] rows."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [[i, rec[0], rec[1], rec[2],
                 ids[id(rec[3])] if rec[3] is not None else None]
                for i, rec in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)
