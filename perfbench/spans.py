"""In-memory spans around mimopower's public functions, installed from outside.

A span is a list ``[name, start, end, parent, pass_id, note]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``pass_id`` the workload
pass it belongs to, and ``note`` whatever the span's note function derived
from the call's arguments and result. Spans stay in memory; the runner writes
them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

# Span name of the benchmark's own work done after a wrapped call returns
# (its note). It is a child of the caller's span, so the caller's self time
# excludes it, and it belongs to no layer.
NOTE_SPAN = "bench.note"


class Recorder:
    """Records properly nested spans of wrapped calls on one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.pass_id = -1

    def wrapper(self, name, fn, note=None):
        """``fn`` wrapped so each call records a span called ``name``.

        ``note(args, kwargs, result)`` runs after the span has ended, and its
        return value is stored on the span.
        """
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.pass_id, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if note is not None:
                start = clock()
                spans[idx][5] = note(args, kwargs, result)
                spans.append([NOTE_SPAN, start, clock(), stack[-1] if stack else -1, self.pass_id, None])
            return result

        return traced

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, pass_id, note in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "pass": pass_id}
                if note is not None:
                    rec["note"] = note
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - c for span, c in zip(spans, child)]


def _package_modules(package):
    return [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]


@contextlib.contextmanager
def patched(targets, make_wrapper, package="mimopower"):
    """Replace each target function everywhere the package refers to it.

    ``targets`` holds ``(span name, module name, attribute)`` triples; the
    attribute is a function or ``Class.method`` for a classmethod. A function
    is replaced on *every* attribute of every loaded module of the package
    that is the same object, because modules import each other's functions
    by name (``power_assoc`` binds ``lp.solve`` as ``lp_solve``); patching
    only the defining module would miss those calls. ``make_wrapper(name,
    fn)`` builds the replacement. Everything is restored on exit.
    """
    for _, module_name, _ in targets:
        importlib.import_module(module_name)
    modules = _package_modules(package)
    undo = []
    try:
        for name, module_name, attr in targets:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                setattr(cls, meth, classmethod(make_wrapper(name, raw.__func__)))
                undo.append((cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapped = make_wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, original))
        yield
    finally:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)
