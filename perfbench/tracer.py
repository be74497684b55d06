"""Per-layer spans around specdrift's public functions, installed from
outside the package.

Each wrapped call records its duration and its self time (duration minus the
time of wrapped calls made inside it) under a span name
``<module>.<function>`` or ``<module>.<Class>.<method>``. Span records
(id, parent id, name, start, end) are kept in memory; functions called from
quadrature integrands or per matrix element are aggregated only, so a long
run does not hold millions of records.

The wrappers are installed before the CLI runs: LAPACK entry points in
numpy/scipy are patched in place (the package calls them as
``np.linalg.eigh`` etc.), and every package-level reference to a wrapped
package function is rebound, including names one module imported from
another.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("profiles", "matrices", "montecarlo", "stieltjes", "laws", "subspace")

# Private functions that mark a layer boundary of their own.
PRIVATE_SPANS = {"montecarlo": ("_draw_sample",)}

# Called once per root-finding iteration; its time belongs to the caller.
NOT_WRAPPED = {"profiles.SemicircleQuantileProfile.cdf"}

# Foreign functions imported by name into a layer module: span or counter.
FOREIGN = {
    "quad_vec": ("span", "quad_vec"),
    "quad": ("count", "quad"),
    "brentq": ("count", "root_finds"),
}

LAPACK = (
    ("numpy.linalg", "eigh", "matrices.eigh"),
    ("numpy.linalg", "eigvalsh", "matrices.eigvalsh"),
    ("numpy.linalg", "svd", "subspace.svd"),
    ("scipy.linalg", "eigh", "matrices.eigh"),
    ("scipy.linalg", "eigvalsh", "matrices.eigvalsh"),
    ("scipy.linalg", "svd", "subspace.svd"),
)

MAX_SPAN_RECORDS = 1_000_000


def _aggregate_only(name: str) -> bool:
    # profile methods and quadrature calls run inside integrands
    return (name.startswith("profiles.") and name not in
            ("profiles.make_profile", "profiles.TabulatedProfile.from_csv")) \
        or name.endswith(".quad_vec")


class Tracer:
    """Span stack, per-name aggregates and span records for one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (span name, exception type)
        self.spans: list = []  # (id, parent id, name, start, end)
        self.dropped = 0
        self._stack = [[0, 0.0]]  # [span id, time inside child spans]
        self._next_id = 1
        self._last_error = None

    def span(self, name: str, fn, record: bool = True, hook=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_error(name, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                dt = end - start
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                parent = stack[-1]
                parent[1] += dt
                if record:
                    if len(spans) < MAX_SPAN_RECORDS:
                        spans.append((sid, parent[0], name, start, end))
                    else:
                        tracer.dropped += 1
            if hook is not None:
                hook(tracer, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _note_error(self, name, exc):
        # an exception is counted once, at the innermost span it leaves
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[(name, type(exc).__name__)] += 1

    def snapshot_calls(self) -> dict:
        calls = {name: st[0] for name, st in self.stats.items()}
        calls.update(self.counts)
        return calls

    def report(self) -> dict:
        return {
            "stats": {name: {"calls": st[0], "total_s": st[1], "self_s": st[2]}
                      for name, st in sorted(self.stats.items()) if st[0]},
            "counts": dict(self.counts),
            "errors": [[name, kind, n] for (name, kind), n in self.errors.items()],
            "spans": self.spans,
            "dropped_spans": self.dropped,
        }


def _count_points(tracer, solution):
    tracer.counts["stieltjes.solve_grid.points"] += int(solution.values.size)


def _count_rank_deficient(tracer, result):
    tracer.counts["subspace.rank_deficient"] += sum(
        1 for d in result.distances if d == float("inf"))


HOOKS = {
    "stieltjes.solve_grid": _count_points,
    "subspace.run_subspace_experiment": _count_rank_deficient,
}


def _from_package(fn, wrapped):
    """Dispatch to the span wrapper only for calls made from specdrift code
    (numpy itself calls eigvalsh, e.g. in leggauss)."""

    @functools.wraps(fn)
    def dispatch(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        return (wrapped if caller.startswith("specdrift.") else fn)(*args, **kwargs)

    return dispatch


def _wrap(tracer, name, fn):
    return tracer.span(name, fn, record=not _aggregate_only(name), hook=HOOKS.get(name))


def install(tracer: Tracer):
    """Patch LAPACK entry points, then import specdrift and wrap the public
    functions and methods of each layer module. Returns the cli module."""
    for module_name, attr, name in LAPACK:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        setattr(module, attr, _from_package(fn, tracer.span(name, fn)))

    import scipy.integrate
    import scipy.optimize
    foreign_originals = {
        "quad_vec": scipy.integrate.quad_vec,
        "quad": scipy.integrate.quad,
        "brentq": scipy.optimize.brentq,
    }

    package = importlib.import_module("specdrift")
    cli = importlib.import_module("specdrift.cli")
    modules = {layer: importlib.import_module(f"specdrift.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                if not attr.startswith("_") or attr in PRIVATE_SPANS.get(layer, ()):
                    replaced[obj] = _wrap(tracer, f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                _wrap_methods(tracer, layer, obj)
        for attr, (kind, metric) in FOREIGN.items():
            if vars(module).get(attr) is foreign_originals[attr]:
                fn = foreign_originals[attr]
                name = f"{layer}.{metric}"
                setattr(module, attr, tracer.span(name, fn, record=False) if kind == "span"
                        else tracer.counter(name, fn))
    for module in [package, cli, *modules.values()]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, attr, replaced[obj])
    return cli


def _wrap_methods(tracer, layer, cls):
    for attr, member in list(vars(cls).items()):
        name = f"{layer}.{cls.__name__}.{attr}"
        if attr.startswith("_") or name in NOT_WRAPPED:
            continue
        if isinstance(member, (classmethod, staticmethod)):
            setattr(cls, attr, type(member)(_wrap(tracer, name, member.__func__)))
        elif inspect.isfunction(member):
            setattr(cls, attr, _wrap(tracer, name, member))
