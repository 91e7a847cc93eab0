"""
Spans around the public functions of the duckwords modules, recorded from
outside the program: nothing under src/ changes.

`Tracer.install()` replaces every public function of the traced modules with
a wrapper, on the defining module and on every duckwords module that imported
it by name.  Each call of a wrapped function is one span; for a generator
function each resumption is one span, so its busy time is summed across
resumptions and the consumer's time between them is not counted.

A span's self time is its duration minus the time covered by its child
spans.  Closed spans are folded at once into totals per (caller, callee)
pair, because a traced `count` pass closes several million of them; the
totals stay in memory and are written when the pass ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

MODULES = ("perms", "hooks", "words", "maps", "counts", "render", "cli")
ROOT = "<benchmark>"


class Tracer:
    def __init__(self):
        # open spans: [name, start, time covered by closed child spans]
        self._stack: list[list] = [[ROOT, 0.0, 0.0]]
        # (caller, callee) -> [calls, yielded, self_s, total_s]
        self.edges: dict[tuple[str, str], list] = {}

    def _record(self, callee: str) -> list:
        key = (self._stack[-1][0], callee)
        rec = self.edges.get(key)
        if rec is None:
            rec = self.edges[key] = [0, 0, 0.0, 0.0]
        return rec

    def _close(self, calls: int, yielded: int) -> None:
        end = perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        self._stack[-1][2] += duration
        rec = self._record(name)
        rec[0] += calls
        rec[1] += yielded
        rec[2] += duration - child
        rec[3] += duration

    def wrap(self, name: str, fn):
        stack, close = self._stack, self._close
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                self._record(name)[0] += 1
                return self._resumptions(name, fn(*args, **kwargs))
            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            stack.append([name, perf_counter(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                close(1, 0)
        return call

    def _resumptions(self, name: str, gen):
        stack, close = self._stack, self._close
        while True:
            stack.append([name, perf_counter(), 0.0])
            try:
                item = next(gen)
            except StopIteration:
                close(0, 0)
                return
            except BaseException:
                close(0, 0)
                raise
            close(0, 1)
            yield item

    def install(self, package: str = "duckwords") -> None:
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_")
                        and inspect.isfunction(inspect.unwrap(obj))
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        importers = [m for n, m in list(sys.modules.items())
                     if n == package or n.startswith(package + ".")]
        for mod in importers:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])

    def functions(self) -> dict[str, dict]:
        """Totals per wrapped function, summed over its callers."""
        out: dict[str, dict] = {}
        for (_, callee), (calls, yielded, self_s, _) in self.edges.items():
            f = out.setdefault(callee, {"calls": 0, "yielded": 0, "self_s": 0.0})
            f["calls"] += calls
            f["yielded"] += yielded
            f["self_s"] += self_s
        return out

    def report(self) -> dict:
        """Exact counts kept apart from timings, so counts can be compared
        between runs as they are."""
        funcs = self.functions()
        return {
            "counts": {n: {"calls": f["calls"], "yielded": f["yielded"]}
                       for n, f in sorted(funcs.items())},
            "self_s": {n: f["self_s"] for n, f in sorted(funcs.items())},
            "edges": [{"caller": c, "callee": n, "calls": r[0], "yielded": r[1],
                       "self_s": r[2], "total_s": r[3]}
                      for (c, n), r in sorted(self.edges.items())],
        }
