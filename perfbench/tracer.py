"""Outside-in span tracer for the memthermo package.

`Tracer.install()` wraps every public function and every public method of
every class defined in memthermo. Each wrapper replaces the original
wherever that object is bound: in the defining module and in every module
that copied it with `from .x import ...`, so a call is recorded whichever
name the caller used. The program's source is not touched.

A span is (name, parent, start, end) in nanoseconds. Spans stay in memory
and are written by `dump()` when the invocation ends; `analyse()` turns a
dump into per-name calls, self time and inclusive time.
"""
from __future__ import annotations

import collections
import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

# Private hooks that count work the public-name rule would miss.
EXTRA_METHODS = {"device.ThermalFit": ("__post_init__",)}

# Root finders bound at module level; their residual evaluations are
# counted as `<enclosing span>.evals`.
ROOT_FINDERS = ("brentq",)

# Spans of these runs are marked when their trace records are dropped,
# so the reads they make are counted as discarded.
DISCARDING_RUN = "experiments.run_heat_stimulate_retention"


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_pulses(tracer, idx, fn, args, kwargs, result):
    tracer.counters["device.apply_pulse_train.pulses"] += int(
        _bound(fn, args, kwargs)["count"])


def _count_reset_pulses(tracer, idx, fn, args, kwargs, result):
    tracer.counters["device.reset_to_reference.pulses"] += int(result.pulses)


def _count_csv(tracer, idx, fn, args, kwargs, result):
    with open(result, "rb") as fh:
        data = fh.read()
    tracer.counters["csvio.emit_csv.rows"] += data.count(b"\n") - 1
    tracer.counters["csvio.emit_csv.bytes"] += len(data)


def _mark_discarding(tracer, idx, fn, args, kwargs, result):
    if not _bound(fn, args, kwargs)["keep_records"]:
        tracer.marked.append(idx)


HOOKS = {
    "device.apply_pulse_train": _count_pulses,
    "device.reset_to_reference": _count_reset_pulses,
    "csvio.emit_csv": _count_csv,
    DISCARDING_RUN: _mark_discarding,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.marked: list[int] = []
        self.counters: collections.Counter = collections.Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        sid = self._id(name)
        hook = HOOKS.get(name)
        name_a, parent_a, start_a, end_a = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start_a)
            name_a.append(sid)
            parent_a.append(stack[-1])
            end_a.append(0)
            stack.append(idx)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, idx, fn, args, kwargs, result)
            return result

        return traced

    def wrap_root_finder(self, finder):
        counters, names, name_a, stack = self.counters, self.names, self.name, self.stack

        @functools.wraps(finder)
        def counted(f, *args, **kwargs):
            owner = names[name_a[stack[-1]]] if stack[-1] >= 0 else "toplevel"
            key = owner + ".evals"

            def residual(*a, **k):
                counters[key] += 1
                return f(*a, **k)

            return finder(residual, *args, **kwargs)

        return counted

    def install(self) -> None:
        import memthermo

        modules = [memthermo] + [
            importlib.import_module(f"memthermo.{info.name}")
            for info in pkgutil.iter_modules(memthermo.__path__)
            if info.name != "__main__"
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(obj, f"{short}.{obj.__qualname__}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(obj, f"{short}.{obj.__qualname__}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
            for attr in ROOT_FINDERS:
                finder = vars(mod).get(attr)
                if finder is not None and not getattr(finder, "__module__", "").startswith("memthermo"):
                    setattr(mod, attr, self.wrap_root_finder(finder))

    def _wrap_methods(self, cls, prefix: str) -> None:
        extra = EXTRA_METHODS.get(prefix, ())
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(member.__func__, name)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(member, name))

    def dump(self, path: str) -> None:
        keys = sorted(self.counters)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(self.names, dtype=str),
                name=np.frombuffer(self.name, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.int64),
                end=np.frombuffer(self.end, dtype=np.int64),
                marked=np.array(self.marked, dtype=np.int64),
                counter_keys=np.array(keys, dtype=str),
                counter_values=np.array([self.counters[k] for k in keys], dtype=np.int64),
            )


def analyse(path: str) -> dict[str, float]:
    """Per-name `.calls`, `.self_s`, `.incl_s`, the hook counters, and
    `device.read_resistance.discarded` from one dump."""
    with np.load(path, allow_pickle=False) as z:
        names = [str(n) for n in z["names"]]
        name, parent = z["name"], z["parent"]
        dur = (z["end"] - z["start"]).astype(np.float64)
        marked = z["marked"]
        out = {str(k): float(v) for k, v in zip(z["counter_keys"], z["counter_values"])}
    n, k = name.size, len(names)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_ns = dur - children
    calls = np.bincount(name, minlength=k)
    self_by = np.bincount(name, weights=self_ns, minlength=k)
    incl_by = np.bincount(name, weights=dur, minlength=k)
    for i, nm in enumerate(names):
        out[f"{nm}.calls"] = float(calls[i])
        out[f"{nm}.self_s"] = self_by[i] * 1e-9
        out[f"{nm}.incl_s"] = incl_by[i] * 1e-9
    # a span is under a discarding run if it or any ancestor is marked; each
    # pass pushes the mark down one level, until nothing changes
    under = np.zeros(n + 1, dtype=bool)
    under[marked] = True
    up = np.where(has_parent, parent, n)
    while True:
        nxt = under.copy()
        nxt[:n] |= under[up]
        if np.array_equal(nxt, under):
            break
        under = nxt
    reads = names.index("device.read_resistance") if "device.read_resistance" in names else -1
    out["device.read_resistance.discarded"] = float(np.count_nonzero(under[:n] & (name == reads)))
    return out
