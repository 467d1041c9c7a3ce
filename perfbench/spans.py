"""Span recorder for the traced run: wraps bdlab's layer boundaries from the
outside, keeps spans in memory, and turns them into per-layer self times.

Nothing under src/ is changed.  `Tracer.install()` replaces the listed
functions and methods with recording wrappers in every bdlab module that
binds them (and `scipy.optimize.minimize`, whose objective is wrapped too so
evaluations and rejections are counted where they happen);
`Tracer.uninstall()` puts the originals back.  A span is (name, start, end,
parent, step, iteration).  A layer's self time is the duration of its spans
minus the time their child spans cover; the benchmark's own root span per
step collects whatever no wrapper claims, so the layer self times plus
`trace.untracked_s` add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref

import numpy as np

# (module, attribute, layer metric that receives the span's self time)
TARGETS = (
    ("bdlab.cli", "main", "cli.self_s"),
    ("bdlab.geometry", "Polygon.__init__", "geometry.polygon_s"),
    ("bdlab.geometry", "PolygonalPartition.__init__", "geometry.interfaces_s"),
    ("bdlab.geometry", "extract_interfaces", "geometry.interfaces_s"),
    ("bdlab.geometry", "triangulate", "geometry.triangulate_s"),
    ("bdlab.geometry", "clip_segment_params", "geometry.clip_s"),
    ("bdlab.geometry", "polygon_overlap_area", "geometry.clip_s"),
    ("bdlab.functions", "PiecewiseAffine.jump_segments", "functions.jump_segments_s"),
    ("bdlab.functions", "compact_deviation", "functions.other_s"),
    ("bdlab.functions", "make_elementary", "functions.other_s"),
    ("bdlab.densities", "Density.__call__", "densities.call_s"),
    ("bdlab.densities", "check_subadditivity", "densities.checks_s"),
    ("bdlab.densities", "check_convexity_in_nu", "densities.checks_s"),
    ("bdlab.densities", "symmetry_violation", "densities.checks_s"),
    ("bdlab.fields", "ConservativeField.__call__", "fields.call_s"),
    ("bdlab.fields", "ConservativeField.pairing", "fields.call_s"),
    ("bdlab.energy", "surface_energy", "energy.surface_energy_s"),
    ("bdlab.energy", "jump_flux", "energy.jump_flux_s"),
    ("bdlab.energy", "integrate_polygon", "energy.volume_s"),
    ("bdlab.energy", "integration_by_parts_residual", "energy.ibp_s"),
    ("bdlab.ellipticity", "insert_competitor", "ellipticity.build_s"),
    ("bdlab.ellipticity", "counterexample1_competitor", "ellipticity.build_s"),
    ("bdlab.ellipticity", "counterexample2_competitor", "ellipticity.build_s"),
    ("bdlab.ellipticity", "tile_construction", "ellipticity.build_s"),
    ("bdlab.ellipticity", "falsify", "ellipticity.other_s"),
    ("bdlab.ellipticity", "ce1_energy_breakdown", "ellipticity.other_s"),
    ("bdlab.ellipticity", "ce2_energy_breakdown", "ellipticity.other_s"),
    ("bdlab.ellipticity", "tiling_report", "ellipticity.other_s"),
    ("bdlab.ellipticity", "bv_necessary_report", "ellipticity.other_s"),
    ("scipy.optimize", "minimize", "ellipticity.search_self_s"),
)
# the objective handed to minimize: its own code is the family generator
OBJECTIVE = ("ellipticity.objective", "ellipticity.build_s")
ROOT = ("benchmark.step", "trace.untracked_s")
SENTINEL = 1e30  # falsify's value for a rejected (infeasible) parameter vector

TIME_METRICS = tuple(
    dict.fromkeys([t[2] for t in TARGETS] + [OBJECTIVE[1], ROOT[1]])
)
COUNT_METRICS = (
    "geometry.polygons",
    "geometry.partitions",
    "geometry.interfaces",
    "functions.jump_segments_calls",
    "functions.jump_segments_repeats",
    "functions.segments",
    "densities.calls",
    "densities.points",
    "fields.calls",
    "fields.points",
    "ellipticity.evals",
    "ellipticity.rejected",
)

# what each boundary counts: count(tracer, call args, result)
COUNTERS = {
    "Polygon.__init__": lambda t, args, out: t.add("geometry.polygons", 1),
    "PolygonalPartition.__init__": lambda t, args, out: t.add("geometry.partitions", 1),
    "extract_interfaces": lambda t, args, out: t.add("geometry.interfaces", len(out)),
    "PiecewiseAffine.jump_segments": lambda t, args, out: t.count_jump_segments(args[0], out),
    "Density.__call__": lambda t, args, out: (
        t.add("densities.calls", 1), t.add("densities.points", int(np.size(out)))),
    # a field maps (..., d) to (..., d): one point per trailing vector
    "ConservativeField.__call__": lambda t, args, out: (
        t.add("fields.calls", 1), t.add("fields.points", int(np.size(out)) // np.shape(out)[-1])),
    "ConservativeField.pairing": lambda t, args, out: (
        t.add("fields.calls", 1), t.add("fields.points", int(np.size(out)))),
}


class Tracer:
    """Records spans while `recording` is set; counts at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.step: list[int] = []
        self.iteration: list[int] = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.recording = False
        self.current_step = -1
        self.current_iteration = -1
        self._stack: list[int] = []
        self._seen_functions = weakref.WeakSet()
        self._restore: list[tuple] = []
        self._bucket: dict[str, str] = {OBJECTIVE[0]: OBJECTIVE[1], ROOT[0]: ROOT[1]}

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(self.current_step)
        self.iteration.append(self.current_iteration)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_iteration(self, iteration: int):
        self.current_iteration = iteration
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._seen_functions = weakref.WeakSet()

    def run_step(self, step: int, fn):
        """Run fn() inside the root span of one step, recording spans."""
        self.current_step = step
        self.recording = True
        idx = self.open(ROOT[0])
        try:
            return fn()
        finally:
            self.close(idx)
            self.recording = False

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer, args, out)
            return out

        return wrapper

    def add(self, key: str, n: int):
        self.counts[key] += n

    def count_jump_segments(self, u, segments):
        self.add("functions.jump_segments_calls", 1)
        self.add("functions.segments", len(segments))
        if u in self._seen_functions:
            self.add("functions.jump_segments_repeats", 1)
        else:
            self._seen_functions.add(u)

    def _wrap_minimize(self, span: str, minimize):
        tracer = self

        @functools.wraps(minimize)
        def wrapper(fun, *args, **kwargs):
            if not tracer.recording:
                return minimize(fun, *args, **kwargs)

            def objective(x, *a):
                idx = tracer.open(OBJECTIVE[0])
                try:
                    val = fun(x, *a)
                finally:
                    tracer.close(idx)
                tracer.add("ellipticity.evals", 1)
                if val >= SENTINEL:
                    tracer.add("ellipticity.rejected", 1)
                return val

            idx = tracer.open(span)
            try:
                return minimize(objective, *args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def install(self):
        """Wrap every target; bdlab must already be imported."""
        bdlab_modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "bdlab" or name.startswith("bdlab."))
        ]
        for module_name, attr, bucket in TARGETS:
            module = importlib.import_module(module_name)
            span = f"{module_name.split('.')[-1]}.{attr}"
            self._bucket[span] = bucket
            if module_name == "scipy.optimize":
                self._set(module, "minimize", self._wrap_minimize(span, module.minimize))
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(span, orig, COUNTERS.get(attr)))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(span, orig, COUNTERS.get(attr))
            # modules that imported the function by name hold their own binding
            for m in bdlab_modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapper)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    # -- analysis ------------------------------------------------------------

    def self_times(self, iteration: int, factors: list[float]) -> dict[str, float]:
        """Self time per layer metric over one iteration, each step's spans
        scaled to reference seconds by that step's speed factor."""
        it = np.asarray(self.iteration)
        sel = np.nonzero(it == iteration)[0]
        out = dict.fromkeys(TIME_METRICS, 0.0)
        if sel.size == 0:
            return out
        start = np.asarray(self.start)[sel]
        end = np.asarray(self.end)[sel]
        dur = end - start
        parent = np.asarray(self.parent)[sel]
        # spans of one iteration are contiguous, so parents map by offset
        child = np.zeros(sel.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent] - sel[0], dur[has_parent])
        own = dur - child
        scale = np.asarray(factors)[np.asarray(self.step)[sel]]
        names = np.asarray(self.name_id)[sel]
        per_name = np.bincount(names, weights=own * scale, minlength=len(self.names))
        for nid, total in enumerate(per_name):
            if total:
                out[self._bucket[self.names[nid]]] += float(total)
        return out

    def save(self, path):
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.name_id, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            step=np.asarray(self.step, dtype=np.int32),
            iteration=np.asarray(self.iteration, dtype=np.int32),
        )
