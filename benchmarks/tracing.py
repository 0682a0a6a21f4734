"""Spans around calls into edgekit's layers, recorded from outside the package.

`Tracer.install()` rebinds each traced public function on every loaded
`edgekit` module whose namespace holds it.  Callers that look the name up at
call time (a package attribute such as `pipeline`'s `L.run`, a module global
such as `full_breakdown` calling `reservation_probability`, or a name bound by
`from x import y` in another module of the package) then reach the wrapper.
References captured any other way (closures, default arguments, locals) stay
invisible.  `uninstall()` restores every original binding.

Spans live in memory as `Span` records and are written out once, at the end
of the run.  Nothing under `src/` is edited.
"""
from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property, wraps
from pathlib import Path

# (span name, module that defines the function, attribute name)
TARGETS = (
    ("learning.run", "edgekit.learning.runner", "run"),
    ("learning.build_topology", "edgekit.learning.topology", "build_topology"),
    ("placement.solve_optimal", "edgekit.placement.solvers", "solve_optimal"),
    ("placement.solve_heuristic", "edgekit.placement.solvers", "solve_heuristic"),
    ("placement.generate_network", "edgekit.placement.generators", "generate_network"),
    ("placement.evaluate_assignment", "edgekit.placement.model", "evaluate_assignment"),
    ("radio.reservation_probability", "edgekit.radio.model", "reservation_probability"),
    ("radio.full_breakdown", "edgekit.radio.model", "full_breakdown"),
    ("scenario.parse_scenario", "edgekit.scenario", "parse_scenario"),
    ("pipeline.run_scenario", "edgekit.pipeline", "run_scenario"),
    ("cli.main", "edgekit.cli", "main"),
)


def _run_attrs(result, args, kwargs):
    """Counts a learning run exposes through its public output."""
    trace = result
    return {
        "variant": args[0] if args else kwargs["variant"],
        "workers": len(args[1] if len(args) > 1 else kwargs["problems"]),
        "iters": len(trace),
        "censored": trace.censored_cum[-1] if len(trace) else 0,
    }


def _energy_attrs(result, args, kwargs):
    """The total energy of a returned placement."""
    return {"total_energy": result.total_energy}


ATTRS = {
    "learning.run": _run_attrs,
    "placement.solve_optimal": _energy_attrs,
    "placement.solve_heuristic": _energy_attrs,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int  # op index in the timed loop, -1 for set-up
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "edgekit" or n.startswith("edgekit.")]
        for name, home, attr in TARGETS:
            original = getattr(sys.modules[home], attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapped)
        # NetGraph.path_energy is a lazily computed property, not a module
        # function: wrap the class attribute so its first access per graph
        # gets a span.
        net_graph = sys.modules["edgekit.placement.model"].NetGraph
        original = vars(net_graph)["path_energy"]
        prop = cached_property(self._wrap("placement.path_energy", original.func))
        prop.__set_name__(net_graph, "path_energy")
        self._saved.append((net_graph, "path_energy", original))
        setattr(net_graph, "path_energy", prop)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover.

        One thread runs every call, so children of a span never overlap each
        other and their durations can simply be subtracted.
        """
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.attrs]) + "\n")
