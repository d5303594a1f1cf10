"""In-memory span and counter tracing, installed from outside the program.

`Tracer.install` replaces the public functions of the named modules by
wrappers that record one span per call: (name, start, end, parent span,
query id). Every binding of such a function in any loaded module of the
package is replaced too, so `cycles.embed`, which is `graph.embed`
imported by name, is traced as `graph.embed`. Functions look their
globals up at call time, so calls inside a module are traced as well.

Counters are recorded at the same boundaries by hooks that read a traced
function's arguments and return value. Everything stays in memory; the
caller writes it out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# A two-line tuple helper called once per dart; a span per call would
# trace more than it measures.
SKIP = {"graph.dart_reverse"}


class Tracer:
    def __init__(self, hooks=None):
        self.spans = []  # [name, start, end, parent index or -1, query id]
        self.counters = defaultdict(lambda: defaultdict(float))
        self.query = None
        self.hooks = hooks or {}
        self._stack = []
        self._restore = []

    def count(self, name, value=1):
        self.counters[self.query][name] += value

    def wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1,
                          self.query])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = clock()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self, package, modules):
        """Trace the public functions defined in `package`.`modules`."""
        wrapped = {}
        for short in modules:
            mod = sys.modules[f"{package}.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrapped[obj] = self.wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def self_times(self):
        """{(query id, name): seconds} of span duration minus the part of
        it that child spans cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append(span)
        out = defaultdict(float)
        for i, (name, start, end, _, qid) in enumerate(self.spans):
            covered, reach = 0.0, start
            for _, c_start, c_end, _, _ in sorted(children[i],
                                                  key=lambda s: s[1]):
                lo, hi = max(c_start, reach), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[(qid, name)] += (end - start) - covered
        return out

    def inclusive_times(self):
        """{(query id, name): seconds} of outermost spans of each name."""
        out = defaultdict(float)
        for name, start, end, parent, qid in self.spans:
            p, nested = parent, False
            while p >= 0:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                out[(qid, name)] += end - start
        return out

    def call_counts(self):
        out = defaultdict(int)
        for name, _, _, _, qid in self.spans:
            out[(qid, name)] += 1
        return out
