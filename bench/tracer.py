"""Per-module call timing for qssa, installed from outside the package.

`Tracer.install()` replaces every public function of each qssa module, the
public methods and ``__init__`` of its public classes, and numpy's
``eigvalsh``/``eigh`` with timing wrappers. It rebinds every name a wrapped
function is reachable under in the qssa modules, including values of
module-level dicts such as ``suites.SUITES``, so no call escapes through an
alias imported before installation. Nothing under ``src/`` changes;
``uninstall()`` restores the originals.

Each wrapped call is a span of its module (its layer). A layer's self time is
the time inside its spans minus the time covered by spans they called. Every
eigensolve is booked to ``linalg`` under the name ``eig``, wherever it is made,
so the layer that called it does not get its time as self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("linalg", "randgen", "entropy", "measurement", "checks", "wehrl", "suites", "report", "cli")
EIG_FUNCS = ("eigvalsh", "eigh")
EIG = ("linalg", "eig")


class Stat:
    __slots__ = ("count", "incl_s", "self_s", "n3")

    def __init__(self):
        self.count = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.n3 = 0


class Tracer:
    """Aggregated spans of qssa calls, keyed by (layer, function name)."""

    def __init__(self):
        self.stats: dict[tuple[str, str], Stat] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, object, object]] = []

    def reset(self) -> None:
        self.stats = {}

    def _wrap(self, fn, key, eig=False):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                st = self.stats.get(key)
                if st is None:
                    st = self.stats[key] = Stat()
                st.count += 1
                st.incl_s += dur
                st.self_s += dur - child[0]
                if eig:
                    shape = np.shape(args[0] if args else kwargs["a"])
                    st.n3 += int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3

        return wrapper

    def _set(self, owner, name, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"qssa.{layer}") for layer in LAYERS]
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, (layer, name)))
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                            self._set(obj, attr, self._wrap(member, (layer, f"{name}.{attr}")))
        for name in EIG_FUNCS:
            self._set(np.linalg, name, self._wrap(getattr(np.linalg, name), EIG, eig=True))

        def rebind(owner, items):
            for name, obj in items:
                if isinstance(name, str) and name.startswith("__"):
                    continue
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(owner, name, hit[1])
                elif isinstance(obj, dict) and owner is not obj:
                    rebind(obj, list(obj.items()))

        for mod in [importlib.import_module("qssa"), *modules]:
            rebind(mod, list(vars(mod).items()))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- summaries -----------------------------------------------------------

    def stat(self, layer: str, name: str) -> Stat:
        return self.stats.get((layer, name), Stat())

    def self_s(self, layer: str) -> float:
        return sum(st.self_s for (lay, name), st in self.stats.items()
                   if lay == layer and (lay, name) != EIG)

    def layer_metrics(self, reports: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per report written: name -> (value, unit)."""
        per = 1.0 / reports
        eig = self.stat(*EIG)
        out = {
            "linalg.eig_per_report": (eig.count * per, "count/report"),
            "linalg.eig_s": (eig.incl_s * per, "s/report"),
            "linalg.eig_n3_per_report": (eig.n3 * per, "count/report"),
            "linalg.density_init_per_report": (self.stat("linalg", "DensityMatrix.__init__").count * per, "count/report"),
            "randgen.rng_streams_per_report": (self.stat("randgen", "rng_for").count * per, "count/report"),
            "entropy.von_neumann_per_report": (self.stat("entropy", "von_neumann").count * per, "count/report"),
            "entropy.relative_entropy_s": (self.stat("entropy", "relative_entropy").incl_s * per, "s/report"),
            "measurement.kraus_apply_per_report": (self.stat("measurement", "apply_kraus_op").count * per, "count/report"),
            "measurement.kraus_apply_s": (self.stat("measurement", "apply_kraus_op").incl_s * per, "s/report"),
            "wehrl.grids_per_report": (self.stat("wehrl", "make_grid").count * per, "count/report"),
            "wehrl.make_grid_s": (self.stat("wehrl", "make_grid").incl_s * per, "s/report"),
            "wehrl.husimi_s": (self.stat("wehrl", "husimi").incl_s * per, "s/report"),
            "suites.serialize_s": (sum(self.stat("suites", f).incl_s for f in ("reports_to_ndjson", "reports_to_csv")) * per, "s/report"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s(layer) * per, "s/report")
        return out
