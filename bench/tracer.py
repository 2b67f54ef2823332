"""Span tracer that wraps ``toposig``'s public functions from outside.

Every traced function is replaced by a wrapper at its defining module *and* at
every other ``toposig`` module that imported it by name (``cli`` binds
``compute_all_features`` and others, ``nullmodel`` binds
``pair_sample_distances``), so a call is seen whichever name it went through.
A function that no longer exists is reported as absent instead of failing the
run.  Spans live in memory; a span's self time is its duration minus the time
covered by the spans opened inside it.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

MODULES = ("cli", "graph", "features", "embedding", "nullmodel", "synth")

# (module, function) pairs the per-layer metrics are read from
TRACED = (
    ("cli", "run_stage"),
    ("graph", "parse_edges_tsv"),
    ("graph", "parse_links"),
    ("graph", "parse_nodes_tsv"),
    ("graph", "parse_geo"),
    ("graph", "build_graph"),
    ("graph", "write_edges_tsv"),
    ("graph", "write_nodes_tsv"),
    ("graph", "write_geo_tsv"),
    ("features", "compute_all_features"),
    ("features", "write_features_tsv"),
    ("features", "read_features_tsv"),
    ("embedding", "fit_embedding"),
    ("embedding", "transform_all"),
    ("embedding", "pair_sample_distances"),
    ("nullmodel", "sample_null"),
    ("nullmodel", "fit_null_scaling"),
    ("nullmodel", "group_mean_distance"),
    ("nullmodel", "summarize"),
    ("synth", "gen_spatial_gravity"),
)


@dataclass
class Span:
    name: str  # "module.function"
    start: float
    end: float = 0.0
    child_s: float = 0.0
    stage: str | None = None  # enclosing cli stage
    info: dict[str, Any] = field(default_factory=dict)  # what the observer read

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


Observer = Callable[[tuple, dict, Any], dict]


class Tracer:
    """Install with ``with Tracer(observers) as tr:``; spans are in ``tr.spans``.

    ``observers`` maps a traced name to a function of (args, kwargs, result)
    that returns the counts to keep; arguments and results themselves are not
    kept, so large arrays are freed as the program frees them.
    """

    def __init__(
        self,
        observers: dict[str, Observer] | None = None,
        traced: tuple[tuple[str, str], ...] = TRACED,
    ):
        self.observers = observers or {}
        self.traced = traced
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.overhead_s = 0.0  # time spent in the wrappers, outside the traced calls
        self._stack: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._stage: str | None = None

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"toposig.{name}")
            except ModuleNotFoundError:
                self.absent.append(name)
        for mod_name, func_name in self.traced:
            mod = modules.get(mod_name)
            original = getattr(mod, func_name, None) if mod is not None else None
            if original is None:
                self.absent.append(f"{mod_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{func_name}", original)
            for site in modules.values():
                for attr, value in list(vars(site).items()):
                    if value is original:
                        self._patches.append((site, attr, value))
                        setattr(site, attr, wrapper)
        return self

    def __exit__(self, *exc: object) -> None:
        for site, attr, value in reversed(self._patches):
            setattr(site, attr, value)
        self._patches.clear()

    def _wrap(self, name: str, func: Callable) -> Callable:
        tracer = self
        observe = self.observers.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            span = Span(name, entered, stage=tracer._stage)
            if name == "cli.run_stage":
                tracer._stage = span.stage = args[0]
            tracer._stack.append(span)
            try:
                span.start = time.perf_counter()
                result = func(*args, **kwargs)
                span.end = time.perf_counter()
                if observe is not None:
                    span.info = observe(args, kwargs, result)
                return result
            finally:
                if not span.end:
                    span.end = time.perf_counter()
                tracer._stack.pop()
                if name == "cli.run_stage":
                    tracer._stage = None
                tracer.spans.append(span)
                outer = time.perf_counter() - entered
                # the parent's self time excludes this call's bookkeeping too
                if tracer._stack:
                    tracer._stack[-1].child_s += outer
                tracer.overhead_s += outer - span.duration

        return wrapper

    # -- queries ------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_s(self, *names: str) -> float:
        return sum(s.self_s for s in self.spans if s.name in names)

    def fired(self) -> set[str]:
        return {s.name for s in self.spans}

