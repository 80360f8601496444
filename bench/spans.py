"""Spans around calls into nhlab's modules, recorded from outside the package.

Modules bind the names they import, so a span is recorded by replacing a
name in the namespace where the caller looks it up (``nhlab.cli.track_band``,
``numpy.linalg.eigvals``, ...). ``Tracer.install`` swaps the wrappers in and
``Tracer.uninstall`` restores the originals, so untraced passes run the
unmodified program. Spans are kept in memory; ``summary`` turns them into
per-name call counts and self times (span time minus the time covered by
its child spans).
"""

from __future__ import annotations

import importlib
import math
import os
from time import perf_counter

# Layer of each span name is its first dotted component.
LAYERS = ("model", "spectra", "topology", "dynamics", "lapack", "cli")

# (module, attribute, span name). A name imported into several modules is
# wrapped in each namespace that looks it up during a workload.
# numpy.linalg.norm(H, 2) calls numpy.linalg._linalg.svd, so that binding is
# wrapped too and its work counts under lapack.svd.
TARGETS = (
    ("nhlab.model", "build_real_space", "model.build_real_space"),
    ("nhlab.cli", "build_real_space", "model.build_real_space"),
    ("nhlab.spectra", "build_real_space", "model.build_real_space"),
    ("nhlab.spectra", "build_bloch", "model.build_bloch"),
    ("nhlab.dynamics", "build_bloch", "model.build_bloch"),
    ("nhlab.spectra", "spectral_report", "spectra.spectral_report"),
    ("nhlab.spectra", "geometric_multiplicity", "spectra.geometric_multiplicity"),
    ("nhlab.spectra", "zero_mode_analysis", "spectra.zero_mode_analysis"),
    ("nhlab.spectra", "smallest_singular_values", "spectra.smallest_singular_values"),
    ("nhlab.spectra", "bloch_eigensystem", "spectra.bloch_eigensystem"),
    ("nhlab.dynamics", "bloch_eigensystem", "spectra.bloch_eigensystem"),
    ("nhlab.cli", "track_band", "topology.track_band"),
    ("nhlab.cli", "winding_number", "topology.winding_number"),
    ("nhlab.cli", "evolve", "dynamics.evolve"),
    ("nhlab.dynamics", "propagator", "dynamics.propagator"),
    ("nhlab.cli", "fourier_detect", "dynamics.fourier_detect"),
    ("nhlab.cli", "adiabatic_sweep", "dynamics.adiabatic_sweep"),
    ("numpy.linalg", "eigvals", "lapack.eigvals"),
    ("numpy.linalg", "eig", "lapack.eig"),
    ("numpy.linalg", "svd", "lapack.svd"),
    ("numpy.linalg._linalg", "svd", "lapack.svd"),
    ("numpy.linalg", "lstsq", "lapack.lstsq"),
    ("scipy.linalg", "expm", "lapack.expm"),
    ("nhlab.cli", "main", "cli.main"),
    ("nhlab.cli", "load_config", "cli.load_config"),
    ("nhlab.cli", "write_csv", "cli.write_csv"),
    ("nhlab.cli", "write_json", "cli.write_json"),
    ("nhlab.cli", "disorder_transition", "cli.disorder_transition"),
)

# Every span name a summary reports, in report order. adiabatic_sweep is
# split by its mode argument.
SPAN_NAMES = tuple(dict.fromkeys(
    name for _, _, name in TARGETS if name != "dynamics.adiabatic_sweep"
)) + ("dynamics.adiabatic_sweep.transport", "dynamics.adiabatic_sweep.dynamical")


def _n3(a) -> int:
    """Operation count of one dense factorization: batch * m * n * min(m, n)."""
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) < 2:
        return 0
    m, n = int(shape[-2]), int(shape[-1])
    return math.prod(int(s) for s in shape[:-2]) * m * n * min(m, n)


class Tracer:
    """Records one span per wrapped call: (name, start, end, parent, extra)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        # (target, seed, d) of every disordered Hamiltonian built.
        self.disorder_points: set = set()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        layer = name.split(".", 1)[0]
        sweep = name == "dynamics.adiabatic_sweep"
        csv = name == "cli.write_csv"
        disorder_build = name == "model.build_real_space"

        def wrapper(*args, **kwargs):
            span_name = name
            if sweep:
                span_name = f"{name}.{getattr(kwargs.get('mode'), 'value', 'transport')}"
            extra = _n3(args[0]) if layer == "lapack" and args else 0
            if disorder_build:
                dis = kwargs.get("disorder")
                if dis is not None:
                    self.disorder_points.add((dis.target.value, dis.seed, dis.strength))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if csv and os.path.exists(args[0]):
                    extra = os.path.getsize(args[0])
                spans[idx] = (span_name, t0, t1, parent, extra)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.disorder_points.clear()

    def summary(self) -> dict:
        """Per-name calls, self seconds and extra counts of the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {n: {"calls": 0, "self_s": 0.0, "extra": 0} for n in SPAN_NAMES}
        for i, (name, t0, t1, _, extra) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - child[i]
            rec["extra"] += extra
        return out
