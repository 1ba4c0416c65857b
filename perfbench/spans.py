"""In-memory spans and counters for a traced benchmark run.

The tracer wraps chosen public functions of the ``tmsvlab`` package.  Callers
import names directly (``criteria.simulate_shots``,
``tomography.hermite_functions``), so a function is replaced at every
``tmsvlab.*`` module binding of it, not only in the module that defines it.
Each call records a span (name, start, end, parent); self time is a span's
duration minus the time its child spans cover.  Counts come from arguments
and return values, never from inside the program.
"""

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

# (defining module, function, span name).  Two functions may share a span.
TRACED = (
    ("tmsvlab.cli", "main", "cli.main"),
    ("tmsvlab.pipelines", "run_fig3", "pipelines.run_fig3"),
    ("tmsvlab.pipelines", "run_fig_s3", "pipelines.run_fig_s3"),
    ("tmsvlab.homodyne", "simulate_shots", "homodyne.simulate_shots"),
    ("tmsvlab.homodyne", "sample_quadratures", "homodyne.sample_quadratures"),
    ("tmsvlab.homodyne", "shots_to_samples", "homodyne.shots_to_samples"),
    ("tmsvlab.fock", "hermite_functions", "fock.hermite_functions"),
    ("tmsvlab.states", "tmsv_rotated", "states.build"),
    ("tmsvlab.states", "phase_noisy_state", "states.build"),
    ("tmsvlab.tomography", "bin_samples", "tomography.bin_samples"),
    ("tmsvlab.tomography", "ml_reconstruct", "tomography.ml_reconstruct"),
    ("tmsvlab.criteria", "time_sweep", "criteria.time_sweep"),
    ("tmsvlab.criteria", "epr_report", "criteria.epr_report"),
    ("tmsvlab.criteria", "group_samples", "criteria.group_samples"),
    ("tmsvlab.metrics", "metrics_report", "metrics.metrics_report"),
    ("tmsvlab.metrics", "qfi_fixed_n", "metrics.qfi_fixed_n"),
    ("tmsvlab.metrics", "fit_squeezing", "metrics.fit_squeezing"),
    ("tmsvlab.metrics", "log_negativity", "metrics.log_negativity"),
    ("tmsvlab.metrics", "fidelity_mixed", "metrics.fidelity_mixed"),
    ("tmsvlab.io", "write_samples", "io.write_samples"),
    ("tmsvlab.io", "write_shots", "io.write_shots"),
    ("tmsvlab.io", "read_samples", "io.read_samples"),
    ("tmsvlab.io", "write_json", "io.write_json"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_size(args, kwargs) -> int:
    return Path(_arg(args, kwargs, 0, "path")).stat().st_size


def _populated_bins(hists) -> int:
    return sum(int((h.counts != 0).sum()) for h in hists)


# span name -> function (args, kwargs, result) -> {counter: increment}
COUNTERS = {
    "homodyne.simulate_shots": lambda a, k, r: {"homodyne.shots": len(r)},
    "homodyne.sample_quadratures": lambda a, k, r: {"homodyne.shots": len(r)},
    "tomography.bin_samples": lambda a, k, r: {"tomography.populated_bins": _populated_bins(r)},
    "tomography.ml_reconstruct": lambda a, k, r: {"tomography.ml_iterations": r.iterations,
                                                   "tomography.ml_fits": 1,
                                                   "tomography.ml_converged": int(r.converged)},
    "io.write_samples": lambda a, k, r: {"io.rows": len(_arg(a, k, 1, "samples")),
                                         "io.bytes_written": _file_size(a, k)},
    "io.write_shots": lambda a, k, r: {"io.rows": len(_arg(a, k, 1, "shots")),
                                       "io.bytes_written": _file_size(a, k)},
    "io.read_samples": lambda a, k, r: {"io.rows": len(r)},
    "io.write_json": lambda a, k, r: {"io.bytes_written": _file_size(a, k)},
}

# Per-layer metrics: (name, unit, better, what it should move).  Every ``.s``
# metric is self time except ``cli.main.s``, the inclusive time of the CLI
# calls.  A metric of a layer the workload does not run reads 0.
PER_LAYER = (
    ("homodyne.simulate_shots.s", "s", "lower",
     "wall_s and peak_rss_mb on fig3, partly on files; barely fig_s3"),
    ("homodyne.sample_quadratures.s", "s", "lower",
     "wall_s and peak_rss_mb on files; barely fig_s3"),
    ("homodyne.shots_to_samples.s", "s", "lower", "wall_s and peak_rss_mb on fig3"),
    ("homodyne.shots", "count", "higher", "none: the shots the sampler returned"),
    ("homodyne.us_per_shot", "us", "lower",
     "wall_s on fig3, partly on files; barely fig_s3"),
    ("fock.hermite_functions.s", "s", "lower", "wall_s on fig3 and fig_s3"),
    ("fock.hermite_functions.calls", "count", "lower", "wall_s on fig3 and fig_s3"),
    ("states.build.s", "s", "lower", "wall_s on fig_s3"),
    ("tomography.bin_samples.s", "s", "lower", "wall_s on fig_s3 only"),
    ("tomography.populated_bins", "count", "lower", "wall_s on fig_s3 only"),
    ("tomography.ml_reconstruct.s", "s", "lower", "wall_s on fig_s3 only"),
    ("tomography.ml_iterations", "count", "lower", "wall_s on fig_s3 only"),
    ("tomography.ml_ms_per_iter", "ms", "lower", "wall_s on fig_s3 only"),
    ("tomography.ml_converged_frac", "fraction", "higher",
     "correctness on fig_s3 (converged fits / fits)"),
    ("criteria.time_sweep.s", "s", "lower", "wall_s on fig3"),
    ("criteria.epr_report.s", "s", "lower", "wall_s on files"),
    ("criteria.group_samples.s", "s", "lower", "wall_s on files"),
    ("criteria.group_samples.calls", "count", "lower", "wall_s on files"),
    ("metrics.metrics_report.s", "s", "lower", "wall_s on fig_s3 only"),
    ("metrics.qfi_fixed_n.s", "s", "lower", "wall_s on fig_s3 only"),
    ("metrics.fit_squeezing.s", "s", "lower", "wall_s on fig_s3 only"),
    ("metrics.log_negativity.s", "s", "lower", "wall_s on fig_s3 only"),
    ("metrics.fidelity_mixed.s", "s", "lower", "wall_s on fig_s3 only"),
    ("io.write_samples.s", "s", "lower", "wall_s and peak_rss_mb on files"),
    ("io.write_shots.s", "s", "lower", "wall_s and peak_rss_mb on files"),
    ("io.read_samples.s", "s", "lower", "wall_s and peak_rss_mb on files"),
    ("io.write_json.s", "s", "lower", "wall_s on files"),
    ("io.rows", "count", "higher", "none: CSV rows written and read"),
    ("io.bytes_written", "bytes", "lower", "wall_s on files"),
    ("pipelines.run_fig3.s", "s", "lower", "wall_s on fig3"),
    ("pipelines.run_fig_s3.s", "s", "lower", "wall_s on fig_s3"),
    ("cli.main.s", "s", "lower", "wall_s on every workload"),
    ("cli.cpu_s", "s", "lower", "wall_s on every workload"),
    ("cli.trace_overhead_pct", "%", "lower", "none: traced against untraced wall_s"),
)


def rebind(original, replacement) -> int:
    """Replace ``original`` by ``replacement`` at every ``tmsvlab.*`` module
    binding; returns the number of bindings replaced."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "tmsvlab" or name.startswith("tmsvlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


class Tracer:
    """Records a span per call of each function in :data:`TRACED`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self.bindings = 0
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, func_name, span in TRACED:
            module = sys.modules.get(module_name)
            func = getattr(module, func_name, None)
            if func is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            self.bindings += rebind(func, self._wrap(span, func, COUNTERS.get(span)))

    def _wrap(self, span, func, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([span, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counters[key] += value
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: call count, inclusive and self seconds; plus counters."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), child in zip(self.spans, covered):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(self_s),
                "counters": dict(self.counters), "bindings": self.bindings,
                "missing": self.missing}


def layer_metrics(summary: dict, cpu_s: float) -> dict:
    """Per-layer metrics of one traced process, except the trace overhead,
    which needs an untraced process to compare with."""
    calls, total, self_s = summary["calls"], summary["total_s"], summary["self_s"]
    counters = summary["counters"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {name: 0.0 for name, *_ in PER_LAYER}
    for name in out:
        if name.endswith(".s"):
            out[name] = self_s.get(name[:-2], 0.0)
    out["cli.main.s"] = total.get("cli.main", 0.0)
    out["cli.cpu_s"] = cpu_s
    shots = counters.get("homodyne.shots", 0.0)
    out["homodyne.shots"] = shots
    out["homodyne.us_per_shot"] = 1e6 * ratio(
        total.get("homodyne.simulate_shots", 0.0)
        + total.get("homodyne.sample_quadratures", 0.0), shots)
    out["fock.hermite_functions.calls"] = calls.get("fock.hermite_functions", 0)
    out["tomography.populated_bins"] = counters.get("tomography.populated_bins", 0.0)
    iterations = counters.get("tomography.ml_iterations", 0.0)
    out["tomography.ml_iterations"] = iterations
    out["tomography.ml_ms_per_iter"] = 1e3 * ratio(
        total.get("tomography.ml_reconstruct", 0.0), iterations)
    out["tomography.ml_converged_frac"] = ratio(
        counters.get("tomography.ml_converged", 0.0), counters.get("tomography.ml_fits", 0.0))
    out["criteria.group_samples.calls"] = calls.get("criteria.group_samples", 0)
    out["io.rows"] = counters.get("io.rows", 0.0)
    out["io.bytes_written"] = counters.get("io.bytes_written", 0.0)
    return out
