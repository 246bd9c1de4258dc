"""Span tracer that measures sbcool's layers from outside the package.

`Tracer.install()` wraps the public functions of each layer module in every
`sbcool.*` namespace that holds them (cli has no `__all__`; its `main` is
wrapped explicitly).  Three kinds of hook record more than a span:

* `sbcool.dynamics.solve_ivp` (scipy's integrator as dynamics imports it):
  counts solves and `nfev`, and times the right-hand-side callable by
  wrapping the `fun` argument.  RHS calls are accumulated, not recorded as
  spans, because there are ~10^5 of them per thermometry task.
* `sbcool.qcore.DensityMatrix.__post_init__`: one span per state validation.
* hooks on return values: `FitResult.n_evaluations`, the cooling trajectory
  length, the Lindblad model dimension and the size of every written file.

Spans carry (id, name, start, end, parent id, task id).  They stay in memory
until the run writes them out.  A target that no longer exists is recorded in
`absent` instead of raising, so engine rewrites do not break the tracer.
`uninstall()` restores every original object.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

# Layer modules whose public functions are wrapped.
LAYERS = ("cli", "config", "runio", "ion", "qcore", "dynamics", "cooling", "thermometry")

# Targets the per-layer metrics are computed from; a missing one is absent.
REQUIRED = (
    "sbcool.cli:main",
    "sbcool.config:load_config",
    "sbcool.runio:write_csv",
    "sbcool.runio:write_manifest",
    "sbcool.runio:read_csv",
    "sbcool.ion:effective_two_level_hamiltonian",
    "sbcool.ion:build_dressed_rf_hamiltonian",
    "sbcool.qcore:DensityMatrix.__post_init__",
    "sbcool.dynamics:solve_ivp",
    "sbcool.dynamics:evolve_lindblad",
    "sbcool.dynamics:simulate_scan",
    "sbcool.dynamics:simulate_flop",
    "sbcool.cooling:simulate_cooling",
    "sbcool.cooling:heat_distribution",
    "sbcool.thermometry:fit_nbar_spectra",
)


def _import(module_name: str):
    """The module, or None when a rewrite removed it."""
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None


def span_name(target: str) -> str:
    """'sbcool.dynamics:evolve_lindblad' -> 'dynamics.evolve_lindblad'."""
    module, _, qualname = target.partition(":")
    return f"{module.rpartition('.')[2]}.{qualname}"


class Tracer:
    """In-memory spans and per-task counters for one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self.task = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def begin(self) -> tuple[int, int, float]:
        sid = len(self.spans)
        self.spans.append(None)  # reserved so that ids follow start order
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, perf_counter()

    def end(self, name: str, token: tuple[int, int, float]) -> None:
        t1 = perf_counter()
        sid, parent, t0 = token
        self._stack.pop()
        self.spans[sid] = (sid, name, t0, t1, parent, self.task)

    def add(self, key: str, value: float) -> None:
        self.counts[self.task][key] += value

    def peak(self, key: str, value: float) -> None:
        row = self.counts[self.task]
        row[key] = max(row[key], value)

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(name, token)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _solve_ivp_wrapper(self, solve_ivp):
        tracer = self

        @functools.wraps(solve_ivp)
        def wrapper(fun, *args, **kwargs):
            busy = [0.0]

            def timed_rhs(t, y):
                t0 = perf_counter()
                out = fun(t, y)
                busy[0] += perf_counter() - t0
                return out

            token = tracer.begin()
            try:
                sol = solve_ivp(timed_rhs, *args, **kwargs)
            finally:
                tracer.end("dynamics.solve_ivp", token)
            tracer.add("dynamics.solves", 1)
            tracer.add("dynamics.rhs_evals", int(getattr(sol, "nfev", 0)))
            tracer.add("dynamics.rhs.s", busy[0])
            return sol

        return wrapper

    def _return_hooks(self) -> dict:
        def first_arg(args, kwargs, key):
            return args[0] if args else kwargs.get(key)

        def model_dim(args, kwargs, _result):
            model = first_arg(args, kwargs, "model")
            dim = getattr(getattr(model, "space", None), "dim", 0)
            self.peak("dynamics.max_dim", int(dim))

        def fit_evals(_args, _kwargs, result):
            self.add("thermometry.fit_evals", int(getattr(result, "n_evaluations", 0)))

        def pulses(_args, _kwargs, result):
            self.add("cooling.pulses", max(len(getattr(result, "nbar", ())) - 1, 0))

        def csv_bytes(args, kwargs, _result):
            self.add("runio.bytes_written", os.path.getsize(first_arg(args, kwargs, "path")))

        def manifest_bytes(_args, _kwargs, result):
            self.add("runio.bytes_written", os.path.getsize(result))

        return {
            "sbcool.dynamics:evolve_lindblad": model_dim,
            "sbcool.thermometry:fit_nbar_spectra": fit_evals,
            "sbcool.cooling:simulate_cooling": pulses,
            "sbcool.runio:write_csv": csv_bytes,
            "sbcool.runio:write_manifest": manifest_bytes,
        }

    @staticmethod
    def _targets() -> list[str]:
        """Every public function of every layer, plus the required targets."""
        targets = []
        for layer in LAYERS:
            module = _import(f"sbcool.{layer}")
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                # a re-export is wrapped once, under the layer that defines it
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    targets.append(f"sbcool.{layer}:{name}")
        for target in REQUIRED:
            if target not in targets:
                targets.append(target)
        return targets

    def install(self) -> None:
        """Wrap every target; record the ones that cannot be found."""
        hooks = self._return_hooks()
        self.absent = []
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "sbcool" or n.startswith("sbcool."))]
        for target in self._targets():
            module_name, _, qualname = target.partition(":")
            owner = _import(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                if target in REQUIRED:
                    self.absent.append(span_name(target))
                continue
            if target == "sbcool.dynamics:solve_ivp":
                wrapper = self._solve_ivp_wrapper(original)
            else:
                wrapper = self._span_wrapper(original, span_name(target), hooks.get(target))
            if path:  # a method: patch the class once, every namespace sees it
                self._patch(owner, attr, original, wrapper)
                continue
            for module in namespaces:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per task: span name -> summed self time (duration minus children)."""
        children: dict[int, list[tuple]] = defaultdict(list)
        for span in self.spans:
            if span is not None and span[4] >= 0:
                children[span[4]].append(span)
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            if span is None:
                continue
            sid, name, t0, t1, _parent, task = span
            # one thread and stack discipline: children are disjoint and nested
            covered = sum(c[3] - c[2] for c in children.get(sid, ()))
            out[task][name] += (t1 - t0) - covered
        return out

    def durations(self) -> dict[int, dict[str, tuple[int, float]]]:
        """Per task: span name -> (calls, summed duration)."""
        out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for span in self.spans:
            if span is None:
                continue
            row = out[span[5]][span[1]]
            row[0] += 1
            row[1] += span[3] - span[2]
        return out

    def solves_under(self, ancestor: str) -> dict[int, int]:
        """Per task: solve_ivp spans that have a span named ancestor above them."""
        by_id = {s[0]: s for s in self.spans if s is not None}
        out: dict[int, int] = defaultdict(int)
        for span in by_id.values():
            if span[1] != "dynamics.solve_ivp":
                continue
            parent = span[4]
            while parent >= 0:
                if by_id[parent][1] == ancestor:
                    out[span[5]] += 1
                    break
                parent = by_id[parent][4]
        return out
