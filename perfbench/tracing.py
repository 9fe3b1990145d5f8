"""Per-layer tracing from outside the program.

The traced run wraps public functions at the module boundaries of `subforge`
(plus the LAPACK eigensolvers in `numpy.linalg`) and records one span per
call: layer name, start, end, parent span and op id, plus a key for calls
whose argument identity matters. Spans stay in memory until the run ends.

Each thread keeps its own span stack. A span opened on a worker thread (the
candidate eigensolves run in a thread pool when SUBFORGE_THREADS > 1) takes
as parent the span that is open on the op's own thread, and is subtracted
from its parent's self time only when both ran on the same thread: a pool's
children overlap in time, and their sum may exceed the parent's wall time.

A function is patched in every module that binds it: `from .realroot import
smax` makes `smax` an attribute of `barrier`, `submatrix` and `cli` as well,
and a wrapper installed in `realroot` alone would miss those calls. Bindings
are found by object identity, so a new `from x import f` is picked up without
editing this file. The wrappers are installed only for the duration of one
traced op, so untraced ops and the output checks run the bare functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

# (layer, defining module, attribute). Several attributes may share a layer.
TARGETS = (
    ("lapack.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("submatrix.select", "subforge.submatrix", "select_smax_greedy"),
    ("submatrix.select", "subforge.submatrix", "select_maxroot_greedy"),
    ("submatrix.select", "subforge.submatrix", "select_low_norm"),
    ("submatrix.select", "subforge.submatrix", "select_two_sided"),
    ("submatrix.select", "subforge.submatrix", "select_invertible"),
    ("submatrix.select", "subforge.submatrix", "select_columns"),
    ("realroot.smax", "subforge.realroot", "smax"),
    ("realroot.smax_batch", "subforge.realroot", "_smax_batch"),
    ("realroot.derivative_roots", "subforge.realroot", "derivative_roots"),
    ("realroot.nth_derivative_roots", "subforge.realroot", "nth_derivative_roots"),
    ("barrier.optimize_barrier", "subforge.barrier", "optimize_barrier"),
    ("gausslucas.complex_roots", "subforge.gausslucas", "complex_roots"),
    ("gausslucas.hull", "subforge.gausslucas", "hull"),
    ("gausslucas.derivative", "subforge.gausslucas", "derivative"),
    ("formats.load", "subforge.formats", "load_matrix"),
    ("formats.load", "subforge.formats", "load_poly_complex"),
    ("formats.load", "subforge.formats", "load_poly_real_rooted"),
    ("formats.write", "subforge.formats", "write_json"),
    ("formats.write", "subforge.formats", "write_roots_csv"),
    ("cli.main", "subforge.cli", "main"),
)

# complex_roots spans are keyed by the polynomial, to count distinct inputs
_KEYS = {"gausslucas.complex_roots": lambda p, *_a, **_k: hash(p.coeffs)}

CALLS = ("lapack.eigvalsh", "realroot.smax_batch", "realroot.derivative_roots",
         "realroot.nth_derivative_roots", "realroot.smax", "barrier.optimize_barrier",
         "gausslucas.complex_roots")
SELF = ("lapack.eigvalsh", "submatrix.select", "realroot.smax_batch",
        "realroot.derivative_roots", "realroot.smax", "barrier.optimize_barrier",
        "gausslucas.complex_roots", "gausslucas.hull", "gausslucas.derivative",
        "formats.load", "formats.write", "cli.main")


class Tracer:
    def __init__(self):
        self.spans: list = []  # [layer, start, end, parent, op, key, thread]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list[int] = []  # the stack of the thread that runs the op
        self._op = None
        self.bindings: list[tuple] = []  # (layer, module, attribute, original, wrapper)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "subforge" or name.startswith("subforge."))]
        seen = set()
        for layer, modname, attr in TARGETS:
            home = importlib.import_module(modname)
            original = getattr(home, attr)
            wrapper = self._wrap(layer, original)
            for mod in [home] + modules:
                for name, value in list(vars(mod).items()):
                    if value is original and (mod.__name__, name) not in seen:
                        seen.add((mod.__name__, name))
                        self.bindings.append((layer, mod, name, original, wrapper))

    def _wrap(self, layer, fn):
        key = _KEYS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._op_stack
            span = [layer, 0.0, 0.0, outer[-1] if outer else -1, self._op,
                    key(*args, **kwargs) if key else None, threading.get_ident()]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def binding_names(self) -> dict[str, list[str]]:
        """Every patched binding, by layer."""
        out = defaultdict(list)
        for layer, mod, name, _, _ in self.bindings:
            out[layer].append(f"{mod.__name__}.{name}")
        return dict(out)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Install every wrapper for the duration of one op."""
        self._op = op_id
        self._op_stack = self._stack()
        for _, mod, name, _, wrapper in self.bindings:
            setattr(mod, name, wrapper)
        try:
            yield
        finally:
            for _, mod, name, original, _ in self.bindings:
                setattr(mod, name, original)
            self._op = None
            self._op_stack.clear()

    def write(self, path) -> None:
        fields = ("layer", "start", "end", "parent", "op", "key", "thread")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")

    def layer_metrics(self, n_ops: int, removed: int) -> dict[str, float]:
        """Per-op averages over `n_ops` traced ops; self time excludes wrapped
        children that ran on the span's own thread."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _, _, thread in spans:
            if parent >= 0 and spans[parent][6] == thread:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        keys = defaultdict(set)
        under_select = 0
        for i, (layer, start, end, parent, op, key, _) in enumerate(spans):
            calls[layer] += 1
            self_s[layer] += (end - start) - child_time[i]
            if key is not None:
                keys[op].add(key)
            if layer == "lapack.eigvalsh":
                p = parent
                while p >= 0 and spans[p][0] != "submatrix.select":
                    p = spans[p][3]
                under_select += p >= 0
        out = {f"{layer}.calls_per_op": calls[layer] / n_ops for layer in CALLS}
        out.update({f"{layer}.self_s_per_op": self_s[layer] / n_ops for layer in SELF})
        out["submatrix.candidates_per_removal"] = under_select / removed if removed else 0.0
        cr_calls = calls["gausslucas.complex_roots"]
        distinct = sum(len(v) for v in keys.values())
        out["gausslucas.complex_roots.unique_ratio"] = distinct / cr_calls if cr_calls else 0.0
        return out
