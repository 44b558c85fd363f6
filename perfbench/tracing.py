"""Spans around meancert's public functions, recorded from outside the package.

``installed`` rebinds every module-level reference to a traced function in
every loaded ``meancert`` module, including the copies that
``from .eigen import eig_sym`` leaves in ``means`` and ``sandwich``, so no
call can bypass the tracer.  ``SymPDMatrix`` is traced through its
``__init__``: replacing the class binding would break ``isinstance``.

Spans stay in memory until ``layer_metrics`` reads them.  A span's self
time is its duration minus the durations of its direct children; calls
nest strictly in this single-threaded process, so children never overlap.
The wrapper's own work before a span starts, chiefly hashing an
eigensolve's input, is subtracted from the parent too, so it shows in no
layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import sys
import time

import numpy as np

# module -> traced public functions.  Scalars are discovered, so a scalar
# function added later is traced without editing this table.
TRACED = {
    "eigen": ("eig_sym", "loewner_geq_zero", "mat_fpow", "congruence"),
    "means": ("op_nabla", "op_sharp", "op_harm"),
    "sandwich": ("sandwich_of", "uniform_box_of"),
    "certify": ("catalog", "verify", "compare_constants"),
    "cli": ("load_matrix", "certify_pair", "emit_report", "reports_to_csv",
            "_write_out"),
}
# Several functions make up one layer.
LAYER_OF = {"cli.emit_report": "cli.output", "cli.reports_to_csv": "cli.output",
            "cli._write_out": "cli.output"}

EIG = "eigen.eig_sym"
ROOT = "unit"
SELF_MS_LAYERS = (
    "eigen.eig_sym", "eigen.loewner_geq_zero", "eigen.SymPDMatrix",
    "eigen.mat_fpow", "eigen.congruence",
    "means.op_nabla", "means.op_sharp", "means.op_harm",
    "sandwich.sandwich_of", "sandwich.uniform_box_of",
    "certify.catalog", "certify.verify", "certify.compare_constants",
    "scalars",
    "cli.load_matrix", "cli.certify_pair", "cli.output",
)


class Tracer:
    """Collects spans as tuples (name, parent, start ns, end ns, pre ns, n, key).

    ``pre`` is the wrapper's time before the span starts.  ``n`` and
    ``key`` are set only on eigensolves: the dimension, and the digest of
    the input bytes from which repeated solves are counted.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        is_eig = name == EIG

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = key = None
            pre = clock()
            if is_eig:
                arr = np.ascontiguousarray(args[0], dtype=float)
                n = arr.shape[0]
                key = hashlib.blake2b(arr.tobytes(), digest_size=16).digest()
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end, start - pre, n, key)

        return traced

    @contextlib.contextmanager
    def span(self, name: str = ROOT):
        """A span opened by the benchmark itself, e.g. one timed unit."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, parent, start, end, 0, None, None)


def traced_functions() -> dict:
    """Original function object -> span name, for every traced function."""
    import meancert.cli  # noqa: F401  (imports every other submodule)

    out = {}
    for mod_name, names in TRACED.items():
        mod = sys.modules[f"meancert.{mod_name}"]
        for name in names:
            out[getattr(mod, name)] = f"{mod_name}.{name}"
    scalars = sys.modules["meancert.scalars"]
    for name, obj in vars(scalars).items():
        if (callable(obj) and not name.startswith("_") and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == scalars.__name__):
            out[obj] = "scalars"
    return out


def meancert_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "meancert" or name.startswith("meancert."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every meancert binding while the block runs, then restore them."""
    from meancert.eigen import SymPDMatrix

    wrappers = {fn: tracer.wrap(fn, LAYER_OF.get(name, name))
                for fn, name in traced_functions().items()}
    patched = []
    for mod in meancert_modules():
        for attr, value in list(vars(mod).items()):
            if callable(value) and value in wrappers:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    init = SymPDMatrix.__init__
    SymPDMatrix.__init__ = tracer.wrap(init, "eigen.SymPDMatrix")
    try:
        yield
    finally:
        SymPDMatrix.__init__ = init
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def layer_metrics(tracer: Tracer, reports: int) -> dict:
    """Per-layer counts and self times, normalised per certified report."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for _, parent, start, end, pre, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start + pre
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    eig_busy_ns = eig_n3 = eig_repeats = 0
    seen = set()
    for i, (name, _, start, end, _, n, key) in enumerate(spans):
        self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[i]
        calls[name] = calls.get(name, 0) + 1
        if name == EIG:
            eig_busy_ns += end - start
            eig_n3 += n ** 3
            eig_repeats += key in seen
            seen.add(key)
    eig_calls = calls.get(EIG, 0)
    out = {
        "eigen.eig_sym.ns_per_n3": (eig_busy_ns / eig_n3, "ns"),
        "eigen.eig_sym.calls_per_report": (eig_calls / reports, "count"),
        "eigen.eig_sym.n3_per_report": (eig_n3 / reports, "count"),
        "eigen.eig_sym.repeat_frac": (eig_repeats / eig_calls, "ratio"),
        "eigen.loewner_geq_zero.calls_per_report":
            (calls.get("eigen.loewner_geq_zero", 0) / reports, "count"),
        "scalars.calls_per_report": (calls.get("scalars", 0) / reports, "count"),
    }
    for layer in SELF_MS_LAYERS:
        out[f"{layer}.self_ms_per_report"] = (self_ns.get(layer, 0) / 1e6 / reports, "ms")
    return out
