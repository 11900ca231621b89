"""In-memory span aggregation around the public functions of specsense.

`Tracer.install` replaces every public function and method of the layer
modules with a timing wrapper, at every binding site: the defining
module, each module that imported it by name (`montecarlo.complex_gaussian`
as well as `numerics.complex_gaussian`), and the class for methods
(`RngStream.generator`).  `uninstall` restores the originals, so untraced
passes run the unmodified code.

Per function it keeps count, busy time (inclusive) and self time (busy
minus the time of wrapped calls made from inside it).  Time spent in
private helpers, such as `montecarlo._simulate_trial`, is therefore self
time of the nearest wrapped caller.  Per tag (a layer module, or a named
group of functions) it keeps the count and busy time of outermost calls,
so nested calls within one tag are not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("numerics", "signals", "observation", "detectors",
          "montecarlo", "analysis", "config", "cli")


class Tracer:
    def __init__(self, package: str, groups: dict[str, str]):
        """`groups` maps a function key such as "numerics.RngStream.generator"
        to an extra tag aggregated alongside its layer."""
        self.package = package
        self.groups = groups
        self.funcs: dict[str, list] = {}    # key -> [count, busy, self]
        self.tags: dict[str, list] = {}     # tag -> [depth, count, busy]
        self.top_busy = 0.0                 # busy time of outermost spans
        self._stack: list[float] = []       # wrapped-child time per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, key: str, tags: tuple[str, ...]):
        stat = self.funcs.setdefault(key, [0, 0.0, 0.0])
        tag_stats = [self.tags.setdefault(t, [0, 0, 0.0]) for t in tags]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            for ts in tag_stats:
                ts[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    tracer.top_busy += dt
                for ts in tag_stats:
                    ts[0] -= 1
                    if ts[0] == 0:
                        ts[1] += 1
                        ts[2] += dt

        span.__wrapped__ = fn
        return span

    def _tags(self, layer: str, key: str) -> tuple[str, ...]:
        group = self.groups.get(key)
        return (layer,) if group is None else (layer, group)

    def _layer_targets(self, layer: str):
        """(owner, name, original, replacement) for one layer module."""
        mod = importlib.import_module(f"{self.package}.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if inspect.isgeneratorfunction(obj):
                    continue  # a span would only cover creating the generator
                key = f"{layer}.{name}"
                yield mod, name, obj, self._wrap(obj, key, self._tags(layer, key))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    key = f"{layer}.{name}.{attr}"
                    tags = self._tags(layer, key)
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(raw.__func__, key, tags))
                    elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                        wrapped = self._wrap(raw, key, tags)
                    else:
                        continue  # properties, cached properties, data
                    yield obj, attr, raw, wrapped

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacement = {}
        for layer in LAYERS:
            for owner, name, original, wrapped in self._layer_targets(layer):
                if inspect.isclass(owner):
                    self._patches.append((owner, name, original))
                    setattr(owner, name, wrapped)
                else:
                    replacement[id(original)] = (original, wrapped)
        # every module of the package that binds one of those functions
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- reading ------------------------------------------------------------

    def count(self, key: str) -> int:
        return self.funcs.get(key, [0, 0.0, 0.0])[0]

    def busy(self, key: str) -> float:
        return self.funcs.get(key, [0, 0.0, 0.0])[1]

    def self_time(self, key: str) -> float:
        return self.funcs.get(key, [0, 0.0, 0.0])[2]

    def tag_busy(self, tag: str) -> float:
        return self.tags.get(tag, [0, 0, 0.0])[2]

    def tag_count(self, tag: str) -> int:
        return self.tags.get(tag, [0, 0, 0.0])[1]

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s[2] for k, s in self.funcs.items() if k.startswith(prefix))

    def table(self) -> dict:
        """Per-function and per-layer aggregates, for writing out."""
        return {
            "functions": {k: {"count": c, "busy_s": b, "self_s": s}
                          for k, (c, b, s) in sorted(self.funcs.items()) if c},
            "tags": {t: {"count": c, "busy_s": b}
                     for t, (_, c, b) in sorted(self.tags.items()) if c},
            "layer_self_s": {layer: self.layer_self(layer) for layer in LAYERS},
            "top_busy_s": self.top_busy,
        }
