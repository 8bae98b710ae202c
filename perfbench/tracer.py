"""Run one ``bifc`` CLI call with spans around the package's functions.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/tracer.py TRACE.json enumerate --type LLL,111 --class nc

The call's arguments follow the trace file; its standard output, standard
error and exit code are those of ``python -m bifc.cli`` with the same
arguments.  Before the call runs, every public function of every
``bifc`` module (plus the few private ones that hold a layer's work, see
``EXTRA``) is wrapped, and the wrapper is bound in every module namespace
and module-level dict that holds the original, so ``from .x import y``
imports and calls between functions of one module go through it too.

* A span wrapper keeps a stack of open spans; a span's self time is its
  duration minus the time of the spans opened inside it.
* A generator function is timed over each resumption of its iteration,
  and the items it yields are counted.
* Hot leaf functions (``COUNT_ONLY``) are only counted; their time stays
  in the caller's self time.  The ``lru_cache`` leaves ``standard_order``,
  ``type_of``, ``translucent_positions`` and ``opaque_positions`` are not
  wrapped at all: their hits and misses come from ``cache_info()``.

The trace file holds, per wrapped function, its calls, self and total
seconds and yielded items, plus the cache figures, the enumeration
candidates and kept bipartitions, the check counts of verification suites
and the import time of ``bifc.cli``.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

_T0 = perf_counter()
import bifc.cli  # noqa: E402  (timed: this is the import every call pays)

IMPORT_S = perf_counter() - _T0

MODULES = ("biset", "translucent", "bipartition", "words", "functional",
           "cumulants", "single_faced", "diagrams", "verify", "cli")
EXTRA = {"bipartition": ("_enumerate_cached",), "cli": ("_load_table", "_dump_table")}
COUNT_ONLY = {
    "biset": ("check_lr_word", "restrict_lr"),
    "translucent": ("make", "source", "target", "composable", "is_right_factor", "iota"),
    "bipartition": ("make_bipartition", "is_noncrossing"),
    "words": ("opaque_positions_w", "translucent_positions_w", "is_complete",
              "is_placeholder_only", "placeholder_word", "min_opaque",
              "restrict_word", "translucidate_word"),
    "functional": ("star_eval", "prec_eval", "succ_eval"),
}
UNWRAPPED = {
    "biset": ("standard_order",),
    "translucent": ("translucent_positions", "opaque_positions"),
    "words": ("type_of",),
}
CACHES = {
    "biset.standard_order": ("biset", "standard_order"),
    "words.type_of": ("words", "type_of"),
    "bipartition.enum_cache": ("bipartition", "_enumerate_cached"),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s, items]
        self.stack: list[list[float]] = []  # child seconds of each open span
        self.enum_depth = 0
        self.counters = {"candidates": 0, "kept": 0}
        self.suites: dict[str, int] = {}
        # lru_cache objects, kept before wrapping hides their cache_info
        self.caches = {name: getattr(sys.modules[f"bifc.{mod}"], attr)
                       for name, (mod, attr) in CACHES.items()}

    def _entry(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def count(self, name: str, fn):
        st = self._entry(name)

        def counted(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)

        return counted

    def span(self, name: str, fn):
        st = self._entry(name)
        stack = self.stack
        active = [0]

        def spanned(*args, **kwargs):
            st[0] += 1
            active[0] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[0] -= 1
                st[1] += dt - frame[0]
                if not active[0]:  # recursion: count the outermost span once
                    st[2] += dt
                if stack:
                    stack[-1][0] += dt

        return spanned

    def gen_span(self, name: str, fn):
        st = self._entry(name)
        stack = self.stack

        def resume(gen):
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    st[1] += dt - frame[0]
                    st[2] += dt
                    if stack:
                        stack[-1][0] += dt
                st[3] += 1
                yield item

        def spanned(*args, **kwargs):
            st[0] += 1
            return resume(fn(*args, **kwargs))

        return spanned

    def wrap(self, mod: str, attr: str, fn):
        name = f"{mod}.{attr}"
        if attr in COUNT_ONLY.get(mod, ()):
            wrapped = self.count(name, fn)
        elif inspect.isgeneratorfunction(fn):
            wrapped = self.gen_span(name, fn)
        else:
            wrapped = self.span(name, fn)
        if name == "bipartition.make_bipartition":
            inner = wrapped

            def wrapped(*args, **kwargs):
                self.counters["candidates"] += self.enum_depth > 0
                return inner(*args, **kwargs)
        elif name == "bipartition._enumerate_cached":
            inner = wrapped

            def wrapped(*args, **kwargs):
                misses = fn.cache_info().misses
                self.enum_depth += 1
                try:
                    out = inner(*args, **kwargs)
                finally:
                    self.enum_depth -= 1
                if fn.cache_info().misses != misses:
                    self.counters["kept"] += len(out)
                return out
        elif mod == "verify" and attr.startswith("suite_"):
            inner = wrapped

            def wrapped(*args, **kwargs):
                result = inner(*args, **kwargs)
                suite = attr[len("suite_"):]
                self.suites[suite] = self.suites.get(suite, 0) + result.checked
                return result
        return wrapped

    def install(self) -> None:
        modules = {m: sys.modules[f"bifc.{m}"] for m in MODULES}
        replace: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if not callable(fn) or inspect.isclass(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                if attr.startswith("_") and attr not in EXTRA.get(short, ()):
                    continue
                if attr in UNWRAPPED.get(short, ()):
                    continue
                replace[id(fn)] = (fn, self.wrap(short, attr, fn))

        def swap(value):
            original, wrapper = replace.get(id(value), (None, None))
            return wrapper if original is value else None

        for module in [sys.modules["bifc"], *modules.values()]:
            for attr, value in list(vars(module).items()):
                if swap(value):
                    setattr(module, attr, swap(value))
                elif isinstance(value, dict):  # e.g. verify.SUITES
                    for key, item in list(value.items()):
                        if swap(item):
                            value[key] = swap(item)
        functional = modules["functional"].Functional
        functional.eval = self.count("functional.Functional.eval", functional.eval)

    def report(self) -> dict:
        caches = {name: {"hits": fn.cache_info().hits, "misses": fn.cache_info().misses}
                  for name, fn in self.caches.items()}
        return {
            "import_s": IMPORT_S,
            "functions": {name: {"calls": c, "self_s": s, "total_s": t, "items": i}
                          for name, (c, s, t, i) in sorted(self.stats.items())},
            "caches": caches,
            "counters": self.counters,
            "suites": self.suites,
        }


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = bifc.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors and --version
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.report(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
