"""Outside-in span tracing of the ``latent_abcss`` modules, plus summary rules.

The tracer re-binds every function defined in a traced module, in every
``latent_abcss.*`` namespace that holds it, to a wrapper that times the call.
Callers look module globals up at call time, so calls made through closures
(the ``g1``/``g2`` lambdas of ``jgnn``) and through private imports (the
``_plain_entropic_ot`` that ``diagnostics`` imports from ``sinkhorn``) are
caught as well.  Nothing in the package itself is edited.

A span is keyed by ``(layer, function)``, where the layer is the short name
of the callee's defining module.  Spans are aggregated as they close:
inclusive time, self time (inclusive time minus the time of direct child
spans) and call count per key, call counts per (caller, callee) edge, and,
for selected keys, every call's duration.  Because each span's self time
excludes exactly its children, the self times of all spans add up to the
time covered by the outermost spans; the traced wall time is that sum plus
the untraced remainder.
"""

from __future__ import annotations

import functools
import inspect
import math
import re
import sys
import time
import types
from dataclasses import dataclass

PACKAGE = "latent_abcss"
LAYERS = (
    "sinkhorn",
    "neural",
    "jgnn",
    "subsim",
    "diagnostics",
    "rng_linalg",
    "gp_prior",
    "tomography",
    "analytic_posterior",
    "workflows",
)
# class methods traced besides module-level functions: (module, class, method)
METHODS = (("rng_linalg", "RngStream", "generator"),)

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """A letter or digit first, then at most 63 letters, digits, ``_ . -``."""
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def tail_percentile(values, q: float):
    """Nearest-rank percentile that keeps at least ten samples beyond it.

    Returns ``(value, q_used)``: the ``q``-th percentile when at least ten
    samples lie above it, otherwise the highest percentile that still has
    ten above.  With ten samples or fewer no tail can be reported and the
    result is ``(None, None)``.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return None, None
    want = max(math.ceil(q / 100.0 * n) - 1, 0)
    idx = min(want, n - 11)
    return xs[idx], (q if idx == want else 100.0 * (idx + 1) / n)


def median(values):
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def package_modules() -> dict:
    """The loaded ``latent_abcss`` modules, by name."""
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def package_bindings() -> dict:
    """Every function bound in a package namespace, plus the traced methods.

    Two snapshots compare equal when every attribute a tracer re-binds is
    the original object again.
    """
    out = {
        (name, attr): value
        for name, mod in package_modules().items()
        for attr, value in vars(mod).items()
        if isinstance(value, types.FunctionType)
    }
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
        out[(cls_name, meth)] = cls.__dict__[meth]
    return out


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span recorder; install it around a region, then read the aggregates.

    Args:
        sample_keys: ``(layer, function)`` keys whose every call duration is
            kept, for percentiles.
        observers: ``{(layer, function): fn(tracer, arguments, result)}``
            run after each successful call, with the call's arguments by
            parameter name, to derive work counts into ``tracer.counters``.
        clock: monotonic clock in seconds.
    """

    def __init__(self, sample_keys=(), observers=None, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[tuple, Stat] = {}
        self.edges: dict[tuple, int] = {}
        self.samples: dict[tuple, list] = {k: [] for k in sample_keys}
        self.counters: dict[str, float] = {}
        self.observers = dict(observers or {})
        self._stack: list[list] = []  # [key, start, child_time]
        self._saved: list[tuple] = []

    # --- span bookkeeping -------------------------------------------------

    def enter(self, key) -> None:
        self._stack.append([key, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        key, start, child = self._stack.pop()
        dur = end - start
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        stat.calls += 1
        stat.incl_s += dur
        stat.self_s += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        edge = (parent[0] if parent is not None else None, key)
        self.edges[edge] = self.edges.get(edge, 0) + 1
        samples = self.samples.get(key)
        if samples is not None:
            samples.append(dur)

    def wrap(self, key, fn):
        observer = self.observers.get(key)
        signature = inspect.signature(fn) if observer is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if observer is not None:
                observer(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # --- installing into the package ------------------------------------------

    def install(self) -> None:
        """Re-bind the layers' functions in every loaded package namespace."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        mods = package_modules()
        traced_mods = {f"{PACKAGE}.{layer}" for layer in LAYERS}
        wrappers = {}
        for name in sorted(traced_mods):
            if name not in mods:
                raise RuntimeError(f"module {name} is not imported")
            for fn in vars(mods[name]).values():
                if isinstance(fn, types.FunctionType) and fn.__module__ == name:
                    key = (name.rsplit(".", 1)[1], fn.__name__)
                    wrappers[id(fn)] = (fn, self.wrap(key, fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self.wrap((layer, f"{cls_name}.{meth}"), original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- reading the aggregates -------------------------------------------

    def stat(self, layer: str, fn: str) -> Stat:
        return self.stats.get((layer, fn), Stat())

    def layer_self(self) -> dict[str, float]:
        out = {}
        for (layer, _), st in self.stats.items():
            out[layer] = out.get(layer, 0.0) + st.self_s
        return out

    def layer_calls(self) -> dict[str, int]:
        out = {}
        for (layer, _), st in self.stats.items():
            out[layer] = out.get(layer, 0) + st.calls
        return out

    def calls_from(self, callers, callee) -> int:
        """Calls of ``callee`` whose nearest traced caller is in ``callers``."""
        return sum(self.edges.get((c, callee), 0) for c in callers)

    def covered_s(self) -> float:
        """Time inside outermost spans: the sum of every span's self time."""
        return sum(st.self_s for st in self.stats.values())
