"""In-memory span recorder and the wrappers that feed it.

The benchmark measures the program from the outside: it replaces
public functions and methods of ``repro`` modules with thin wrappers
(:meth:`Patches.wrap`) and restores them afterwards
(:meth:`Patches.restore`).
Nothing inside ``src/repro`` changes.

A span is one call into a wrapped entry point, kept as the tuple
``(layer, name, start, end, child_ns, depth, outer, info)``: start and
end on the host's monotonic clock (``perf_counter_ns``, comparable
across processes on one host), the nanoseconds its child spans
covered, its nesting depth on its thread, whether no enclosing span
has the same layer, and an optional value the wrapper extracts from
the call (a task count, a stage number, keys). Self time is the
duration minus the child time.

A span nested inside a ``hardware`` span is charged to ``hardware``:
the board's ground-truth runs go through the simulator, and that time
belongs to the measurement, not to simulator trials.

Spans stay in per-thread lists until :meth:`Recorder.dump` writes them
as JSON, once, when the process is done. Forked children (the
process executor's pool) inherit the wrappers; :meth:`Recorder.after_fork`
gives them an empty buffer and arranges a dump when the child exits.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time

_now = time.perf_counter_ns


class Recorder:
    """Collects spans per thread; one instance per process."""

    def __init__(self, out_dir: str = None) -> None:
        self.out_dir = out_dir
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list = []
        from multiprocessing import util

        # Runs in multiprocessing children after their finalizer
        # registry is reset, so the dump registered there survives.
        util.register_after_fork(self, Recorder.after_fork)

    # ------------------------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans: list = []
            state = (spans, [])  # (finished spans, open-span stack)
            self._local.state = state
            with self._lock:
                self._buffers.append((threading.current_thread().name, spans))
        return state

    def call(self, layer: str, name: str, fn, args, kwargs, info):
        """Run ``fn`` inside a span; re-raises whatever it raises."""
        spans, stack = self._state()
        if stack and stack[-1][0] == "hardware":
            layer = "hardware"
        outer = all(frame[0] != layer for frame in stack)
        frame = [layer, 0]  # [layer, child ns]
        stack.append(frame)
        start = _now()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = _now()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            extra = None
            if info is not None:
                try:
                    extra = info(args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 — never break the call
                    extra = {"info_error": repr(exc)}
            spans.append((layer, name, start, end, frame[1], len(stack),
                          outer, extra))

    # ------------------------------------------------------------------
    def after_fork(self) -> None:
        """Forked pool child: drop the parent's spans, dump on exit."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        if self.enabled and self.out_dir is not None:
            from multiprocessing import util

            util.Finalize(None, self.dump, exitpriority=100)

    def dump(self, role: str = "child") -> str:
        """Write every recorded span to ``<out_dir>/<pid>.json``."""
        if self.out_dir is None:
            return None
        with self._lock:
            buffers = [(thread, list(spans)) for thread, spans in self._buffers]
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "role": role,
                       "threads": buffers}, fh)
        os.replace(tmp, path)
        return path

    def clear(self) -> None:
        """Forget every span recorded so far (all threads)."""
        with self._lock:
            for _thread, spans in self._buffers:
                spans.clear()


class Patches:
    """Installed wrappers, restorable in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def restore(self) -> None:
        """Put every original attribute back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make):
        """Replace ``owner.attr`` by ``make(original function)``.

        ``owner`` is a module or a class. Static and class methods keep
        their kind. A module function is also rebound in every loaded
        ``repro`` module that imported it by name, so callers that did
        ``from module import fn`` see the wrapper too.
        """
        raw = inspect.getattr_static(owner, attr)
        if attr not in owner.__dict__:
            raise AttributeError(f"{owner!r} does not define {attr!r}")
        if isinstance(raw, staticmethod):
            self._set(owner, attr, staticmethod(make(raw.__func__)))
        elif isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(make(raw.__func__)))
        elif inspect.isclass(owner):
            self._set(owner, attr, make(raw))
        else:
            wrapper = make(raw)
            self._set(owner, attr, wrapper)
            for mod_name, module in list(sys.modules.items()):
                if module is owner or not mod_name.startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, name, wrapper)


def span_wrapper(recorder: Recorder, layer: str, name: str, info=None):
    """A ``make`` for :meth:`Patches.wrap` that records one span per call."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            return recorder.call(layer, name, fn, args, kwargs, info)

        return wrapper

    return make
