"""Outside-in span tracer for the six troplectra layers.

The tracer wraps every public function of a layer (the functions named in
the module's ``__all__`` and defined there) plus ``SMatrix.__matmul__``, and
installs each wrapper at every module binding of the original function: the
defining module, the ``from .matrix import ...`` copies in other layers and
the package re-exports.  Nothing in the library changes; uninstalling puts
the originals back.

Each call records a span (name, start, end, parent span, op id).  Spans stay
in memory in compact columns and are written out once, at the end of the
run.  Self time and call counts are aggregated as the calls return, so they
stay exact even after the span store is full.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

PACKAGE = "troplectra"
LAYERS = ("cli", "spectral", "valuation", "polynomial", "matrix", "semiring")
# Past this many spans only the aggregates are kept (about 32 MB of spans).
MAX_SPANS = 1_000_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.op = -1
        self.dropped = 0
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def targets(self) -> list[tuple[str, object, str, object]]:
        """(span name, owner, attribute, original) for every traced callable."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    out.append((f"{layer}.{attr}", mod, attr, fn))
        smatrix = sys.modules[f"{PACKAGE}.matrix"].SMatrix
        out.append(
            ("matrix.SMatrix.__matmul__", smatrix, "__matmul__",
             smatrix.__dict__["__matmul__"])
        )
        return out

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, owner, attr, fn in self.targets():
            wrapper = self._wrap(fn, name)
            wrappers[id(fn)] = (fn, wrapper)
            if inspect.isclass(owner):
                self._rebind(owner, attr, wrapper)
        modules = [
            m for key, m in sys.modules.items()
            if m is not None
            and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(mod, attr, hit[1])

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent, span_op = self.span_end, self.span_parent, self.span_op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            if idx < MAX_SPANS:
                span_name.append(name_id)
                span_start.append(0.0)
                span_end.append(0.0)
                span_parent.append(stack[-1][0] if stack else -1)
                span_op.append(self.op)
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[name_id] += 1
                self_s[name_id] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    span_start[idx] = start
                    span_end[idx] = end

        return traced

    # --- results ------------------------------------------------------------

    def aggregates(self) -> dict[str, float]:
        """Per-function and per-layer ``calls`` and ``self_s``."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{layer}.calls"] += calls
            out[f"{layer}.self_s"] += self_s
        return out

    def write_spans(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            dropped=np.array(self.dropped),
        )
