"""Spans and counts around the calls into each gkdvlab layer.

The program itself carries no tracing. `Tracer.install` replaces the public
functions listed in `TARGETS` with timing wrappers in every gkdvlab module
namespace that binds them (``evaluate_power`` is bound in nonlinearity and
picard, for example), and wraps ``numpy.fft.fft``/``ifft`` to count
transforms. `Tracer.uninstall` puts every original back. Callers reach the
wrapped functions through module attributes, never through names they
imported themselves. A target the program no longer has is skipped and
listed in `Tracer.missing`: its layer then simply records no time.

A span is ``[name, start, end, parent, op]``: parent is the index of the
enclosing span or -1, and spans of one op share its op id. Spans stay in
memory until the run ends. A span's self time is its duration minus the
time its child spans cover; calls are sequential, so the children of one
span never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, self-time metric). The span name is "module.attribute";
# several spans may feed one metric. Class attributes read "Class.attr".
TARGETS = (
    ("grid", "Field.from_values", "grid.field_build_s"),
    ("grid", "Field.from_coefficients", "grid.field_build_s"),
    ("grid", "Path.from_spectral_matrix", "grid.path_build_s"),
    ("grid", "Path.__add__", "grid.path_build_s"),
    ("grid", "Path.__sub__", "grid.path_build_s"),
    ("grid", "Path.__mul__", "grid.path_build_s"),
    ("grid", "Path.__rmul__", "grid.path_build_s"),
    ("grid", "mixed_norm", "grid.mixed_norm_s"),
    ("littlewood_paley", "symbol_array", "littlewood_paley.symbol_s"),
    ("littlewood_paley", "_compute_symbol", "littlewood_paley.symbol_s"),
    ("littlewood_paley", "psi_symbol", "littlewood_paley.symbol_s"),
    ("littlewood_paley", "leq_symbol", "littlewood_paley.symbol_s"),
    ("littlewood_paley", "partition_sum", "littlewood_paley.partition_sum_s"),
    ("airy", "free_solution", "airy.free_solution_s"),
    ("airy", "duhamel", "airy.duhamel_s"),
    ("airy", "phase_matrix", "airy.phase_matrix_s"),
    ("variation", "vp_norm", "variation.vp_norm_s"),
    ("variation", "increment_tables", "variation.increment_tables_s"),
    ("norms", "xs_report", "norms.xs_report_s"),
    ("norms", "besov_report", "norms.besov_report_s"),
    ("norms", "sobolev_report", "norms.sobolev_report_s"),
    ("norms", "out_of_band_fraction", "norms.out_of_band_fraction_s"),
    ("nonlinearity", "evaluate_power", "nonlinearity.evaluate_power_s"),
    ("estimates", "verify_bernstein_linfty", "estimates.bernstein_s"),
    ("estimates", "verify_strichartz", "estimates.strichartz_s"),
    ("estimates", "verify_multilinear", "estimates.multilinear_s"),
    ("estimates", "l6_smallness_report", "estimates.l6_smallness_s"),
    ("picard", "solve_picard", "picard.solve_picard_s"),
    ("picard", "picard_step", "picard.picard_step_s"),
    ("picard", "gkdv_residual", "picard.gkdv_residual_s"),
    ("picard", "direct_solve", "picard.direct_solve_s"),
    ("io", "atomic_write_bytes", "io.write_s"),
    ("io", "canonical_json", "io.canonical_json_s"),
)

FFT_SPAN = "numpy.fft"
SPAN_METRIC = {f"{mod}.{attr}": metric for mod, attr, metric in TARGETS}
SPAN_METRIC[FFT_SPAN] = "grid.fft_s"


def _fft_points(args, kwargs) -> int:
    """Transform length times the number of transforms in one call."""
    a = np.asarray(args[0])
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    length = a.shape[axis] if n is None else int(n)
    return length * (a.size // max(a.shape[axis], 1))


def _count(name, parent_name, args, kwargs, result, counts) -> None:
    """Counters taken where the numerical effort is decided."""
    if name == FFT_SPAN:
        counts["grid.fft_calls"] += 1
        counts["grid.fft_points"] += _fft_points(args, kwargs)
    elif name == "littlewood_paley.symbol_array":
        counts["littlewood_paley.symbol_calls"] += 1
    elif name == "littlewood_paley._compute_symbol":
        counts["littlewood_paley.symbol_computes"] += 1
        counts["littlewood_paley.symbol_bytes"] += int(result.nbytes)
    elif name == "airy.phase_matrix":
        counts["airy.phase_matrix_calls"] += 1
    elif name == "variation.vp_norm":
        m = len(args[0])
        counts["variation.vp_norm_calls"] += 1
        counts["variation.dp_cells"] += m * m
        if parent_name == "norms.xs_report":
            counts["norms.xs_bands_solved"] += 1
    elif name == "norms.xs_report":
        counts["norms.xs_bands_in_range"] += result.band_hi - result.band_lo + 1
    elif name == "nonlinearity.evaluate_power":
        counts["nonlinearity.evaluate_power_calls"] += 1
    elif name == "picard.solve_picard":
        counts["picard.iterations"] += len(result[1].rows)
    elif name == "io.atomic_write_bytes":
        counts["io.bytes_written"] += len(args[1])


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.op = None
        self.missing: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.op]
            tracer._stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if tracer.op is not None:
                _count(name, spans[parent][0] if parent >= 0 else None,
                       args, kwargs, result, tracer.counts[tracer.op])
            return result

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [mod for name, mod in sys.modules.items()
                   if name == "gkdvlab" or name.startswith("gkdvlab.")]
        self.missing = []
        for modname, attr, _ in TARGETS:
            home = sys.modules.get("gkdvlab." + modname)
            span = f"{modname}.{attr}"
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            raw = vars(owner).get(meth) if owner is not None else None
            if raw is None:
                self.missing.append(span)
                continue
            if owner_name:  # a method: patch the class itself
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, span))
                else:
                    new = self._wrap(raw, span)
                setattr(owner, meth, new)
                self._undo.append((owner, meth, raw))
                continue
            wrapped = self._wrap(raw, span)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, raw))
        for attr in ("fft", "ifft"):
            original = getattr(np.fft, attr)
            setattr(np.fft, attr, self._wrap(original, FFT_SPAN))
            self._undo.append((np.fft, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) with the wrappers installed and the op's spans
        recorded under op_id; returns (result, seconds)."""
        self.op = op_id
        self.install()
        try:
            start = time.perf_counter()
            result = fn(*args)
            seconds = time.perf_counter() - start
        finally:
            self.uninstall()
            self.op = None
        return result, seconds

    def save(self, path) -> None:
        """Write the spans as an .npz file: ``names`` and ``rows`` of
        (name index, start, end, parent, op), op -1 outside any op."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = np.array([(index[n], t0, t1, parent, -1 if op is None else op)
                         for n, t0, t1, parent, op in self.spans],
                        dtype=np.float64).reshape(-1, 5)
        np.savez(path, names=np.array(names, dtype=str), rows=rows)

    def load(self, path, op_id) -> None:
        """Append the spans another process saved, under op_id."""
        with np.load(path) as data:
            names, rows = [str(n) for n in data["names"]], data["rows"]
        offset = len(self.spans)
        self.spans.extend(
            [names[int(k)], t0, t1, int(parent) + offset if parent >= 0 else -1, op_id]
            for k, t0, t1, parent, _ in rows.tolist())

    def inclusive_times(self, op_id) -> dict:
        """Duration per span name over the op, not counting a span nested in
        one of the same name twice."""
        out = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if op == op_id and (parent < 0 or self.spans[parent][0] != name):
                out[name] += end - start
        return dict(out)

    def layer_times(self, op_id) -> dict:
        """Self time per metric over the op's spans, plus the time its
        top-level spans cover (``covered_s``)."""
        children = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if op == op_id and parent >= 0:
                children[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op != op_id:
                continue
            out[SPAN_METRIC[name]] += (end - start) - children[i]
            if parent < 0:
                out["covered_s"] += end - start
        return dict(out)
