"""Call spans around mblab's public functions, recorded from outside the
package.

install() replaces each target function at every mblab module attribute
bound to it, because callers import by name: staggered.helmholtz_solve,
cweno.helmholtz_solve and the package-level helmholtz_solve are separate
bindings of one function.  A reference captured elsewhere (a default
argument, a closure) still reaches the original; such calls count towards
the self time of the traced caller.  A target that is absent from its
module is listed in ``missing`` instead of failing.

Spans stay in memory until write() is called.  Each span records its id,
its parent's id (0 at the top of a thread), the thread, name, start, end,
self time (duration minus the duration of its child spans) and a size
given by the target's label function.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time


class Tracer:
    def __init__(self, targets, labels=None):
        self.targets = tuple(targets)
        self.labels = dict(labels or {})
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "mblab" or name.startswith("mblab."))]
        for qualname in self.targets:
            module_name, func_name = qualname.rsplit(".", 1)
            home = sys.modules.get(f"mblab.{module_name}")
            func = getattr(home, func_name, None)
            if not callable(func):
                self.missing.append(qualname)
                continue
            wrapper = self._wrap(qualname, func, self.labels.get(qualname))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, func))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._patched):
            setattr(module, attr, func)
        self._patched.clear()

    def _wrap(self, qualname, func, label):
        local, ids, append = self._local, self._ids, self.spans.append
        clock, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]  # span id, time covered by children
            stack.append(frame)
            done = False
            start = clock()
            try:
                result = func(*args, **kwargs)
                done = True
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                name, size = (label(args, kwargs, result) if done and label
                              else (qualname, 0))
                append((frame[0], parent[0] if parent else 0, get_ident(),
                        name, start, end, duration - frame[1], size))
            return result

        return wrapper

    def summary(self) -> dict:
        """span name -> calls, total and self seconds, summed size."""
        out: dict = {}
        for _, _, _, name, start, end, self_s, size in self.spans:
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "size": 0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += self_s
            agg["size"] += size
        return out

    def cache_lookups(self, lookup: str, compute: str) -> dict:
        """Hits and misses of a memoizing function: a lookup span with a
        child compute span is a miss."""
        computed = {s[1] for s in self.spans if s[3] == compute}
        lookups = [s[0] for s in self.spans if s[3] == lookup]
        misses = sum(1 for span_id in lookups if span_id in computed)
        return {"hits": len(lookups) - misses, "misses": misses}

    def write(self, path) -> None:
        """One JSON array per line: id, parent, thread, name, start, end,
        self_s, size."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
