"""In-memory span tracer wrapped around kuzlab's module-level functions.

The tracer never edits the package: it rebinds names in module namespaces.
Every public function of each layer module, the acceleration entry points
of ``dynamics`` (private ones included) and the numpy FFT transforms are
replaced by wrappers that record one span per call: name, start, end and
the enclosing span. ``from .fields import laplacian_values`` copies a
reference into the importing module, so every kuzlab module namespace is
scanned and each name bound to a traced callable is rebound; calls across
modules are traced as well as calls inside one.

Spans are kept in flat ``array`` columns, about 24 bytes each, because a
1-d sweep makes close to a million of them. ``summary`` turns the columns
into per-layer metrics; ``dump`` writes the raw spans as ``.npz``.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np
import numpy.fft

LAYERS = ("fields", "dynamics", "jets", "gamma", "energies", "experiments", "io", "config", "cli")

FFT_NAMES = (
    "fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn",
    "fft2", "ifft2", "rfft2", "irfft2",
)

# Acceleration entry points are matched by name, not listed, so that a
# renamed or merged kernel is still counted.
ACCEL_MARKERS = ("accel", "nonlinear_remainder")

# Monitors count toward dynamics.monitor_s only when an experiment function
# calls them directly; the same functions inside a step or a report do not.
MONITORS = (
    "dynamics.hyperbolicity_factor",
    "dynamics.spectral_tail_fraction",
    "dynamics.support_radius",
)

# Jet-based functionals: the Sobolev towers, the theorem energy and the
# Klainerman word pass.
TOWERS = (
    "energies.energy_m",
    "energies.energy_half_m",
    "energies.s_half_m",
    "energies.theorem_45_energy",
    "energies.klainerman_energies",
    "energies.klainerman_ratio",
)


def fft_flops(arr_in: np.ndarray, arr_out: np.ndarray) -> float:
    """Computed flops: 5 N log2 N for a complex transform, half for a real one.

    N is the point count of the real array for a real transform (input of
    rfft*, output of irfft*) and of the input for a complex one.
    """
    if np.isrealobj(arr_in):
        n, scale = arr_in.size, 2.5
    elif np.isrealobj(arr_out):
        n, scale = arr_out.size, 2.5
    else:
        n, scale = arr_in.size, 5.0
    return scale * n * math.log2(n) if n > 1 else 0.0


class Tracer:
    """Records spans for the traced callables of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.fft_bytes = 0
        self.fft_flops = 0.0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, is_fft: bool = False):
        """Return a wrapper of fn that records one span per call under name."""
        name_id = len(self.names)
        self.names.append(name)
        stack, names, parents = self._stack, self.name_col, self.parent_col
        starts, ends = self.start_col, self.end_col
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        if not is_fft:
            return traced

        def traced_fft(a, *args, **kwargs):
            out = traced(a, *args, **kwargs)
            a = np.asarray(a)
            self.fft_bytes += a.nbytes + out.nbytes
            self.fft_flops += fft_flops(a, out)
            return out

        return traced_fft

    def _targets(self, package: str) -> dict[int, tuple[object, str]]:
        """id(callable) -> (callable, span name) for everything to trace."""
        targets: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                accel = layer == "dynamics" and any(m in attr for m in ACCEL_MARKERS)
                if not attr.startswith("_") or accel:
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        for attr in FFT_NAMES:
            obj = getattr(numpy.fft, attr, None)
            if obj is not None:
                targets[id(obj)] = (obj, f"fft.{attr}")
        return targets

    def install(self, package: str = "kuzlab") -> "Tracer":
        """Rebind every reference to a traced callable in the package and numpy.fft."""
        targets = self._targets(package)
        wrappers = {
            key: self.wrap(obj, name, is_fft=name.startswith("fft."))
            for key, (obj, name) in targets.items()
        }
        modules = [numpy.fft] + [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                key = id(obj)
                if key in wrappers and targets[key][0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[key])
        return self

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def columns(self) -> dict[str, np.ndarray]:
        """Span columns plus duration, self time and run id per span.

        Self time is the duration minus the time covered by child spans. A
        run is one call of an experiments function; every span belongs to
        the innermost such call around it, or to run 0 outside any.
        """
        name = np.frombuffer(self.name_col, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent_col, dtype=np.int32).copy()
        start = np.frombuffer(self.start_col, dtype=np.float64).copy()
        end = np.frombuffer(self.end_col, dtype=np.float64).copy()
        dur = end - start
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        is_experiment = np.array([n.startswith("experiments.") for n in self.names] + [False])
        starts_run = is_experiment[name].tolist()
        run = [0] * len(dur)
        runs = 0
        parent_list = parent.tolist()
        for i, p in enumerate(parent_list):
            if starts_run[i]:
                runs += 1
                run[i] = runs
            elif p >= 0:
                run[i] = run[p]
        return {
            "name": name,
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child_time,
            "run": np.array(run, dtype=np.int32),
        }

    def dump(self, path, cols: dict[str, np.ndarray] | None = None) -> None:
        cols = self.columns() if cols is None else cols
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: cols[k] for k in ("name", "parent", "start", "end", "run")},
        )

    def summary(self, cols: dict[str, np.ndarray] | None = None) -> dict[str, float]:
        """Per-layer counts and times in seconds over all recorded spans."""
        cols = self.columns() if cols is None else cols
        dur, self_time, parent = cols["dur"], cols["self"], cols["parent"]
        names = np.array(self.names + ["<root>"])
        root = len(self.names)
        span = names[cols["name"]]
        up = names[np.where(parent >= 0, cols["name"][parent], root)]
        layers = np.array([n.split(".", 1)[0] for n in names])
        span_layer = layers[cols["name"]]
        up_layer = layers[np.where(parent >= 0, cols["name"][parent], root)]

        def outermost(group) -> np.ndarray:
            return np.isin(span, list(group)) & ~np.isin(up, list(group))

        def count(n: str) -> int:
            return int(np.sum(span == n))

        fft = (span_layer == "fft") & (up_layer != "fft")
        fields_ops = span_layer == "fields"
        accel = [n for n in self.names if n.startswith("dynamics.") and any(m in n for m in ACCEL_MARKERS)]
        experiments = span_layer == "experiments"
        exp_parents = parent[experiments & (parent >= 0)]
        has_exp_child = np.zeros(len(dur), dtype=bool)
        has_exp_child[exp_parents[span_layer[exp_parents] == "experiments"]] = True
        steps = count("dynamics.step")
        fft_calls = int(np.sum(fft))
        return {
            "fields.fft_calls": fft_calls,
            "fields.fft_per_step": fft_calls / steps if steps else 0.0,
            "fields.fft_s": float(np.sum(dur[fft])),
            "fields.op_calls": int(np.sum(fields_ops)),
            "fields.op_self_s": float(np.sum(self_time[fields_ops])),
            "fields.fft_bytes_computed": int(self.fft_bytes),
            "fields.fft_flops_computed": float(self.fft_flops),
            "dynamics.steps": steps,
            "dynamics.accel_evals": int(np.sum(outermost(accel))),
            "dynamics.step_self_s": float(np.sum(self_time[span == "dynamics.step"])),
            "dynamics.monitor_s": float(np.sum(dur[np.isin(span, MONITORS) & (up_layer == "experiments")])),
            "jets.build_calls": count("jets.build_jet"),
            "jets.build_s": float(np.sum(dur[outermost(["jets.build_jet"])])),
            "gamma.apply_calls": count("gamma.apply_gamma"),
            "gamma.apply_s": float(np.sum(dur[outermost(["gamma.apply_gamma"])])),
            "energies.report_calls": count("energies.make_report"),
            "energies.report_s": float(np.sum(dur[outermost(["energies.make_report"])])),
            "energies.tower_s": float(np.sum(dur[outermost(TOWERS)])),
            "energies.word_sweeps": count("gamma.gamma_words"),
            "experiments.runs": int(np.sum(experiments & ~has_exp_child)),
            "experiments.self_s": float(np.sum(self_time[experiments])),
            "io.write_s": float(np.sum(dur[(span_layer == "io") & (up_layer != "io")])),
            "config.parse_s": float(np.sum(dur[outermost(["config.parse_config"])])),
            "config.initial_data_s": float(np.sum(dur[outermost(["config.initial_data"])])),
            "cli.self_s": float(np.sum(self_time[span_layer == "cli"])),
        }
