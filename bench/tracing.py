"""Spans and counters around the public functions of the torpers layers.

The tracer replaces, at module-attribute level, every public function of the
layer modules (and the `__init__` of their public classes) with a wrapper
that records one span per call.  Every other module-level name bound to the
same function object (a `from x import f` alias in another layer) is
replaced too.  `uninstall()` puts the original objects back.

Spans live in flat arrays in memory: name, start, end, parent span, pass id,
call id, and a work count (Σ rows·cols of the input for `exactla.rref`, grid
size for a `PersistenceModule` construction, else 0).  Methods are not
wrapped: their time counts toward the layer of the function that called them.
"""

import array
import importlib
import inspect
import time

import numpy as np

LAYERS = ("complexes", "exactla", "modules", "tor", "hypertor", "orbits", "cli")

# span name -> metric counting its calls
COUNTED = {
    "exactla.rref": "exactla.rref.calls",
    "exactla.matmul": "exactla.matmul.calls",
    "modules.PersistenceModule": "modules.built",
    "modules.free_module": "modules.free_module.calls",
    "tor.xi": "tor.xi.calls",
    "tor.koszul_delta": "tor.koszul_delta.calls",
    "orbits.apply_group_element": "orbits.apply_group_element.calls",
    "orbits.family_to_module": "orbits.family_to_module.calls",
    "complexes.parse_mfc": "complexes.parse_mfc.calls",
}
INCLUSIVE = (
    "modules.homology_module",
    "tor.koszul_tor",
    "tor.minimal_resolution",
    "hypertor.hypertor_dims",
    "hypertor.e1_page",
    "hypertor.d2",
    "hypertor.build_t_complex",
    "orbits.enumerate_families",
    "orbits.orbit_partition",
)


def _rref_entries(a, *rest, **kw):
    shape = getattr(a, "shape", None)
    if shape is None:
        shape = np.shape(a)
    if len(shape) == 2:
        return shape[0] * shape[1]
    return shape[0] if shape else 0


def _module_grid_points(self, n=None, bound=(), *rest, **kw):
    size = 1
    for b in bound:
        size *= int(b) + 1
    return size


WORK = {"exactla.rref": _rref_entries, "modules.PersistenceModule": _module_grid_points}


class Tracer:
    def __init__(self, package="torpers"):
        self.modules = [importlib.import_module(package + "." + m) for m in LAYERS]
        self.names = []  # span name id -> "layer.function"
        self.name_id = {}
        self.span_name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.pass_id = array.array("i")
        self.call_id = array.array("i")
        self.work = array.array("q")
        self.stack = [-1]
        self.current_pass = -1
        self.current_call = -1
        self._restore = []  # (owner, attribute, original object)

    # -- wrapping ------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name) for every function to wrap."""
        out = []
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    out.append((mod, attr, "%s.%s" % (layer, attr)))
                elif inspect.isclass(obj) and "__init__" in vars(obj):
                    out.append((obj, "__init__", "%s.%s" % (layer, attr)))
        return out

    def _wrap(self, fn, name):
        nid = self.name_id.setdefault(name, len(self.name_id))
        if nid == len(self.names):
            self.names.append(name)
        work_of = WORK.get(name)
        span_name, start, end = self.span_name, self.start, self.end
        parent, pass_id, call_id, work = (
            self.parent,
            self.pass_id,
            self.call_id,
            self.work,
        )
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            work.append(work_of(*args, **kwargs) if work_of else 0)
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            pass_id.append(tracer.current_pass)
            call_id.append(tracer.current_call)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrapper_of = {}  # id(original) -> (original, wrapper)
        for owner, attr, name in self._targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name)
            wrapper_of[id(original)] = (original, wrapper)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        # aliases: `from torpers.x import f` bound in another layer module
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapper_of.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        n = len(self.span_name)
        if len(self.end) != n or self.stack != [-1]:
            raise RuntimeError("spans are still open")
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32).copy(),
            "call_id": np.frombuffer(self.call_id, dtype=np.int32).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
        }

    def save(self, path, **extra):
        """Write every span, once, as a compressed numpy archive."""
        np.savez_compressed(path, names=np.array(self.names), **extra, **self.arrays())

    def per_pass(self):
        """Per-layer figures of every traced pass: {pass id: {metric: value}}."""
        a = self.arrays()
        n = len(a["name"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=n
        )
        self_time = dur - covered
        layer_of = np.array(
            [LAYERS.index(nm.split(".", 1)[0]) for nm in self.names], dtype=np.int64
        )
        span_layer = layer_of[a["name"]] if n else np.zeros(0, dtype=np.int64)
        outermost = self._outermost(a)
        out = {}
        for pid in sorted(set(a["pass_id"].tolist())):
            sel = a["pass_id"] == pid
            row = {}
            for k, layer in enumerate(LAYERS):
                row["%s.self_s" % layer] = float(self_time[sel & (span_layer == k)].sum())
            for name, metric in COUNTED.items():
                row[metric] = int(np.count_nonzero(sel & self._is(a, name)))
            rref = sel & self._is(a, "exactla.rref")
            row["exactla.rref.entries"] = int(a["work"][rref].sum())
            row["exactla.rref.max_entries"] = int(a["work"][rref].max(initial=0))
            built = sel & self._is(a, "modules.PersistenceModule")
            row["modules.grid_points"] = int(a["work"][built].sum())
            for name in INCLUSIVE:
                hit = sel & self._is(a, name) & outermost
                row["%s.incl_s" % name] = float(dur[hit].sum())
            out[pid] = row
        return out

    def _is(self, a, name):
        nid = self.name_id.get(name)
        if nid is None:
            return np.zeros(len(a["name"]), dtype=bool)
        return a["name"] == nid

    def _outermost(self, a):
        """True for spans with no ancestor of the same name (recursion)."""
        names, parents = a["name"], a["parent"]
        flags = np.ones(len(names), dtype=bool)
        watched = {self.name_id[nm] for nm in INCLUSIVE if nm in self.name_id}
        for idx in np.flatnonzero(np.isin(names, list(watched))):
            up = parents[idx]
            while up >= 0:
                if names[up] == names[idx]:
                    flags[idx] = False
                    break
                up = parents[up]
        return flags
