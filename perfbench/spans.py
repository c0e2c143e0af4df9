"""Outside-in instrumentation for the dxcouncil benchmark.

Two tools, both applied from the benchmark's side of the public API:

* ``BackendProxy`` stands in front of a chat, embedding or rerank backend
  object. Every call of any public method counts as one backend request: the
  proxy sleeps a fixed delay (the simulated round trip), forwards the call,
  and reports the request to a ``Meter``.
* ``SpanRecorder`` wraps named functions and methods of the ``dxcouncil``
  modules so each call becomes a span (name, start, end, parent, case id).
  A function is patched in every module namespace that holds it, because
  modules import each other's functions by name. Spans stay in memory; the
  caller summarises them or writes them out once at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Meter:
    """Request log shared by the backend proxies of one run."""

    def __init__(self):
        # set while a traced batch runs, so requests also become spans
        self.recorder: SpanRecorder | None = None
        self.reset()

    def reset(self) -> None:
        self.requests: list[tuple[str, float, float, int]] = []

    def take(self) -> "Meter":
        """Move the requests logged so far into a new Meter."""
        taken = Meter()
        taken.requests, self.requests = self.requests, []
        return taken

    def count(self, kind: str | None = None) -> int:
        return sum(1 for r in self.requests if kind is None or r[0] == kind)

    def wait_ms(self, kind: str) -> float:
        return sum(end - start for k, start, end, _ in self.requests if k == kind) * 1e3

    def items(self, kind: str) -> int:
        return sum(n for k, _, _, n in self.requests if k == kind)

    def inflight_mean(self) -> float:
        """Summed request time over the time with any request in flight."""
        intervals = sorted((start, end) for _, start, end, _ in self.requests)
        busy = total = 0.0
        cur_start = cur_end = None
        for start, end in intervals:
            total += end - start
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    busy += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            busy += cur_end - cur_start
        return total / busy if busy else 0.0


class BackendProxy:
    """Latency and counting proxy around one backend object.

    Any public callable attribute is forwarded through ``_request``, so a
    method the backend gains later (a batched scorer, say) is counted as one
    request without changes here. Non-callable attributes pass through.
    """

    def __init__(self, inner, kind: str, delay_s: float, meter: Meter):
        self._inner = inner
        self._kind = kind
        self._delay_s = delay_s
        self._meter = meter

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if name.startswith("_") or not callable(attr):
            return attr
        return functools.partial(self._request, attr)

    def _request(self, method, *args, **kwargs):
        recorder = self._meter.recorder
        span = recorder.open(f"backends.{self._kind}") if recorder else None
        start = perf_counter()
        try:
            if self._delay_s:
                time.sleep(self._delay_s)
            return method(*args, **kwargs)
        finally:
            end = perf_counter()
            if span is not None:
                recorder.close(span, end)
            items = len(args[0]) if args and isinstance(args[0], list) else 1
            self._meter.requests.append((self._kind, start, end, items))


class SpanRecorder:
    """In-memory span store plus the patches that feed it.

    A span is ``[name, start, end, parent_index, case_id]``; parent_index is
    -1 for a root. Calls are assumed to nest on one thread (the benchmark
    runs with one worker).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.case_id: str | None = None
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int | None:
        if not self.enabled:
            return None
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.case_id])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int | None, end: float | None = None) -> None:
        if index is None:
            return
        self.spans[index][2] = perf_counter() if end is None else end
        self._stack.pop()

    def clear(self) -> None:
        self.spans = []
        self._stack = []

    # -- patching ------------------------------------------------------------

    def wrap(self, target: str, name: str | None = None, hook=None,
             case_arg: int | None = None) -> None:
        """Wrap ``module:function`` or ``module:Class.method`` in a span.

        The span is called ``name``, by default ``module.function``.
        ``hook(result, args, kwargs)`` runs after each traced call, outside
        the span, to count work. ``case_arg`` names the positional argument
        holding the case, whose id then tags every span until the next case.
        A target the package no longer has is noted in ``absent`` instead of
        failing the run.
        """
        module_name, _, attr_path = target.partition(":")
        module = sys.modules.get(f"dxcouncil.{module_name}")
        owner_name, _, method = attr_path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = getattr(owner, "__dict__", {}).get(method or attr_path)
        if raw is None:
            self.absent.append(target)
            return
        name = name or f"{module_name}.{method or attr_path}"
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            if case_arg is not None:
                self.case_id = args[case_arg].case_id
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None and index is not None:
                hook(result, args, kwargs)
            return result

        replacement = type(raw)(spanned) if func is not raw else spanned
        if owner_name:
            self._set(owner, method, replacement)
            return
        # module-level function: rebind every name that refers to it
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "dxcouncil":
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._set(mod, key, replacement)

    def _set(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, "__dict__")[key]))
        setattr(owner, key, value)

    def unpatch(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- summaries -----------------------------------------------------------

    def totals(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms, over the spans
        from index ``first`` on.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap because calls nest on one thread.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (name, start, end, _, _) in enumerate(spans[first:], first):
            row = out[name]
            row["calls"] += 1
            row["ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_time[i]) * 1e3
        return dict(out)
