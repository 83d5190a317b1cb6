"""Per-layer tracing from outside the program.

The traced run wraps public functions of each layer of the repo
(``api``, ``core``, ``rest``, ``composition``, ``geometry``) with
timing spans, installed on the classes that define them and removed
afterwards.  Nothing inside ``src/`` is edited: the spans sit at the
layer boundaries a caller can see.

Spans nest on one thread, so a layer's *self* time is each span's
duration minus the time its child spans cover.  Summed over every
span, self time equals the time covered by the outermost spans, so the
per-layer self times plus an explicit remainder (time under no span)
add up to the traced wall time exactly.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

#: (span name, layer it belongs to, module, class, attribute).  The
#: layer is the repo package the code lives in.
TIMED = [
    ("api.dispatch", "api", "repro.api.session", "Session", "dispatch"),
    ("core.abut", "core", "repro.core.editor", "RiotEditor", "do_abut"),
    ("core.route", "core", "repro.core.editor", "RiotEditor", "do_route"),
    ("core.stretch", "core", "repro.core.editor", "RiotEditor", "do_stretch"),
    ("core.finish", "core", "repro.core.editor", "RiotEditor", "finish"),
    ("core.pending.resolve", "core", "repro.core.pending", "PendingConnection", "resolve"),
    ("core.replay", "core", "repro.core.replay", "Journal", "replay"),
    ("rest.solve", "rest", "repro.rest.graph", "ConstraintGraph", "solve"),
    ("composition.connectors", "composition", "repro.composition.instance", "Instance", "connectors"),
    ("composition.connector", "composition", "repro.composition.instance", "Instance", "connector"),
    ("composition.instance_bbox", "composition", "repro.composition.instance", "Instance", "bounding_box"),
    ("composition.cell_bbox", "composition", "repro.composition.cell", "CompositionCell", "bounding_box"),
    ("composition.refresh_connectors", "composition", "repro.composition.cell", "CompositionCell", "refresh_connectors"),
    ("geometry.transform_apply", "geometry", "repro.geometry.transform", "Transform", "apply"),
]

#: Spans too numerous to keep one record each (millions per build):
#: they are timed and counted, and aggregated instead of stored.
AGGREGATED = {"geometry.transform_apply"}

#: Layers whose self time is reported, in blocking order.
LAYERS = ("floorplan", "api", "core", "rest", "composition", "geometry")


class LayerTracer:
    """Timing spans around layer calls, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        #: Inclusive seconds per span name, outermost call only, so a
        #: recursive call (a cell's box asking its instances' boxes)
        #: is not counted twice.
        self.inclusive: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.points_created = 0
        #: Connectors built by ``Instance.connectors`` — in total, and
        #: while a named ``Instance.connector`` lookup was running.
        self.connectors_built = 0
        self.connectors_built_in_lookup = 0
        #: (span id, name, start, duration, parent id or -1), in end order.
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[list] = []  # [name, start, child seconds, id]
        self._opened = 0
        self._active: Counter = Counter()
        self._undo: list[tuple[type, str, object]] = []
        self.covered_s = 0.0  # time under an outermost span

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> list:
        self._opened += 1
        frame = [name, time.perf_counter(), 0.0, self._opened]
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _close(self, frame: list, layer: str) -> None:
        end = time.perf_counter()
        name, start, child, span_id = frame
        duration = end - start
        self._stack.pop()
        self._active[name] -= 1
        self.calls[name] += 1
        self.self_s[layer] += duration - child
        if not self._active[name]:
            self.inclusive[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_s += duration
        if name not in AGGREGATED:
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append((span_id, name, start, duration, parent))

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span the benchmark opens itself."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame, layer)

    def _timed(self, name: str, layer: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, layer)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove ---------------------------------------------------

    def _patch(self, cls: type, attr: str, value) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def install(self) -> None:
        import importlib

        for name, layer, module, cls_name, attr in TIMED:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, attr, self._timed(name, layer, cls.__dict__[attr]))

        from repro.composition.instance import Instance
        from repro.geometry.point import Point

        tracer = self
        connectors = Instance.__dict__["connectors"]
        connector = Instance.__dict__["connector"]

        def count_connectors(inst):
            result = connectors(inst)
            tracer.connectors_built += len(result)
            return result

        def count_lookup(inst, name):
            before = tracer.connectors_built
            try:
                return connector(inst, name)
            finally:
                tracer.connectors_built_in_lookup += (
                    tracer.connectors_built - before
                )

        self._patch(Instance, "connectors", count_connectors)
        self._patch(Instance, "connector", count_lookup)

        post_init = Point.__dict__["__post_init__"]

        def count_point(point):
            tracer.points_created += 1
            post_init(point)

        self._patch(Point, "__post_init__", count_point)

    def uninstall(self) -> None:
        while self._undo:
            cls, attr, value = self._undo.pop()
            setattr(cls, attr, value)

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer numbers for a traced region of ``wall_s`` seconds."""
        out = {
            "traced_wall_s": wall_s,
            "remainder_s": wall_s - self.covered_s,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        out["api.dispatch.calls"] = self.calls["api.dispatch"]
        out["api.dispatch.self_s"] = out["api.self_s"]
        for name in ("core.abut", "core.route", "core.stretch", "core.finish",
                     "core.replay", "rest.solve", "composition.connectors",
                     "composition.connector", "composition.instance_bbox",
                     "composition.cell_bbox", "composition.refresh_connectors"):
            out[f"{name}.s"] = self.inclusive.get(name, 0.0)
        out["core.pending.resolve_s"] = self.inclusive.get("core.pending.resolve", 0.0)
        for name in ("rest.solve", "composition.connectors",
                     "composition.connector", "composition.instance_bbox",
                     "composition.cell_bbox", "geometry.transform_apply"):
            out[f"{name}.calls"] = self.calls[name]
        lookups = self.calls["composition.connector"]
        out["composition.connector.scan_ratio"] = (
            self.connectors_built_in_lookup / lookups if lookups else 0.0
        )
        out["geometry.points_created"] = self.points_created
        return out

    def dump(self, path) -> None:
        """Write the kept spans, one tab-separated line each (id, parent
        id, name, start, duration), then the aggregated ones."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("# id\tparent\tname\tstart_s\tdur_s\n")
            for span_id, name, start, duration, parent in self.spans:
                f.write(f"{span_id}\t{parent}\t{name}\t{start:.9f}\t{duration:.9f}\n")
            for name in sorted(AGGREGATED):
                f.write(f"# aggregated\t{name}\tcalls={self.calls[name]}"
                        f"\ts={self.inclusive[name]:.9f}\n")
