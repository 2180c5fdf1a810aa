"""Spans around the calls into each layer of the package, recorded from the
benchmark's own files.

`Tracer.installed()` replaces each traced function where its caller looks
it up (for example `synth.correlation`, the name `generate` calls, and
`oracle.integrate.quad`) and restores the originals on exit.  No file of
the package changes.  Each call records a span: name, tag, start, end,
parent span and op id.  Spans stay in memory; `layer_metrics` reduces them
once the traced ops are done.
"""

import contextlib
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from bubblehbt import correlators, inference, oracle, synth
from bubblehbt.sources import SourceCase

NAME, TAG, START, END, PARENT, OP = range(6)

CORRELATION_TAGS = ("A", "B", "C", "D", "E_direct", "E_series")
ORACLE_TAGS = ("A", "B", "C", "D", "E")
INFERENCE_STAGES = ("chaoticity_test", "fit_tau_slices", "factorization_test",
                    "estimate_kappa", "shape_discrimination")
LAYERS = ("correlators", "special_functions", "synth", "inference", "oracle")


def _case_tag(spec, *_args) -> str:
    return spec.case.value


def _correlation_tag(spec, q, *_args) -> str:
    if spec.case is not SourceCase.E_EXPANDING_SHOCK:
        return spec.case.value
    mu = spec.r_dot * spec.tau * q
    return "E_direct" if mu > correlators.MU_SERIES_MAX else "E_series"


class _Overlay:
    """A module as one caller sees it: a few attributes replaced, the rest
    looked up in the module."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op: int = -1
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable,
             tag: Optional[Callable[..., str]] = None,
             observe: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, tag(*args) if tag else "", 0.0, 0.0,
                   stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(result, *args)
            return result

        return traced

    def _patches(self) -> List[Tuple[object, str, object]]:
        counts = self.counts

        def fit_tau_seen(result, *_):
            counts["inference.slices_fitted"] += len(result[2])

        def fit_seen(report, *_):
            if report.tau_hat is not None:
                counts["inference.tau_returned"] += 1
            elif report.chaoticity is not inference.Chaoticity.COHERENT:
                counts["inference.tau_dropped"] += 1

        def bytes_seen(key, path_arg):
            def seen(_result, *args):
                counts[key] += os.path.getsize(args[path_arg])
            return seen

        real_quad = oracle.integrate.quad

        def quad(f, *args, **kwargs):
            def integrand(*x):
                counts["oracle.quad.evals"] += 1
                return f(*x)
            return real_quad(integrand, *args, **kwargs)

        real_numeric = oracle.numeric_correlation

        def numeric_correlation(*args, **kwargs):
            try:
                return real_numeric(*args, **kwargs)
            except oracle.OracleConvergenceError:
                counts["oracle.convergence_errors"] += 1
                raise

        traced_correlation = self.wrap("correlators.correlation",
                                       correlators.correlation,
                                       tag=_correlation_tag)
        numpy_for_synth = _Overlay(synth.np, random=_Overlay(
            synth.np.random, default_rng=self.wrap(
                "synth.default_rng", synth.np.random.default_rng)))
        integrate_for_oracle = _Overlay(
            oracle.integrate, quad=self.wrap("oracle.quad", quad))

        patches = [
            (correlators, "correlation", traced_correlation),
            (synth, "correlation", traced_correlation),
            (correlators, "faddeeva",
             self.wrap("special_functions.faddeeva", correlators.faddeeva)),
            (synth, "np", numpy_for_synth),
            (synth, "generate", self.wrap("synth.generate", synth.generate)),
            (synth, "write_surface_csv",
             self.wrap("synth.write_csv", synth.write_surface_csv,
                       observe=bytes_seen("synth.write_csv_bytes", 1))),
            (synth, "read_surface_csv",
             self.wrap("synth.read_csv", synth.read_surface_csv,
                       observe=bytes_seen("synth.read_csv_bytes", 0))),
            (inference, "renormalize_at_origin",
             self.wrap("synth.renormalize", inference.renormalize_at_origin)),
            (inference, "phi_of_X",
             self.wrap("correlators.phi_of_X", inference.phi_of_X)),
            (inference, "fit_surface",
             self.wrap("inference.fit_surface", inference.fit_surface,
                       observe=fit_seen)),
            (oracle, "numeric_correlation",
             self.wrap("oracle.numeric_correlation", numeric_correlation,
                       tag=_case_tag)),
            (oracle, "integrate", integrate_for_oracle),
        ]
        for stage in INFERENCE_STAGES:
            patches.append((inference, stage, self.wrap(
                f"inference.{stage}", getattr(inference, stage),
                observe=fit_tau_seen if stage == "fit_tau_slices" else None)))
        return patches

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        originals = [(module, attr, getattr(module, attr))
                     for module, attr, _ in patches]
        try:
            for module, attr, replacement in patches:
                setattr(module, attr, replacement)
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)


def _self_times(spans: List[list], only_child: Optional[str] = None
                ) -> List[float]:
    """Each span's duration minus the time its children cover (children of
    one call run one after another, so their durations add)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0 and (only_child is None or s[NAME] == only_child):
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(tracer: Tracer, n_ops: int, op_seconds: float
                  ) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, float]]:
    """Per-layer metrics of `n_ops` traced ops, and each layer's share of
    the op time `op_seconds` (summed over those ops) by self time.

    Counts are totals over the traced ops; times are seconds per op (per
    call for the `point_*` metrics).  A layer the workload never calls
    reads 0.
    """
    spans = tracer.spans
    counts = tracer.counts
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    by_tag: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for s in spans:
        dur = s[END] - s[START]
        total[s[NAME]] += dur
        calls[s[NAME]] += 1
        if s[TAG]:
            by_tag[s[NAME], s[TAG]].append(dur)
    self_all = _self_times(spans)
    self_total: Dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_all):
        self_total[s[NAME]] += own
    gen_self = sum(own for s, own in
                   zip(spans, _self_times(spans, "correlators.correlation"))
                   if s[NAME] == "synth.generate")

    def per_op(name: str) -> float:
        return total[name] / n_ops

    def mean(name: str, tag: str, scale: float) -> float:
        durs = by_tag[name, tag]
        return scale * sum(durs) / len(durs) if durs else 0.0

    fits = calls["inference.fit_surface"]
    m: Dict[str, Tuple[float, str]] = {
        "correlators.correlation.calls": (calls["correlators.correlation"],
                                          "count"),
        "correlators.correlation_s": (per_op("correlators.correlation"), "s"),
        "correlators.phi_of_X.calls": (calls["correlators.phi_of_X"],
                                       "count"),
        "correlators.phi_of_X_s": (per_op("correlators.phi_of_X"), "s"),
        "special_functions.faddeeva.calls": (
            calls["special_functions.faddeeva"], "count"),
        "special_functions.faddeeva_s": (per_op("special_functions.faddeeva"),
                                         "s"),
        "synth.generate_s": (per_op("synth.generate"), "s"),
        "synth.generate_self_s": (gen_self / n_ops, "s"),
        "synth.rng_streams": (calls["synth.default_rng"], "count"),
        "synth.write_csv_s": (per_op("synth.write_csv"), "s"),
        "synth.read_csv_s": (per_op("synth.read_csv"), "s"),
        "synth.write_csv_bytes": (counts["synth.write_csv_bytes"], "bytes"),
        "synth.read_csv_bytes": (counts["synth.read_csv_bytes"], "bytes"),
        "synth.renormalize_s": (per_op("synth.renormalize"), "s"),
        "inference.fit_surface.calls": (fits, "count"),
        "inference.fit_surface_s": (per_op("inference.fit_surface"), "s"),
        "inference.fit_surface_self_s": (
            self_total["inference.fit_surface"] / n_ops, "s"),
        "inference.slices_fitted": (counts["inference.slices_fitted"],
                                    "count"),
        "inference.tau_dropped": (counts["inference.tau_dropped"], "count"),
        "inference.tau_yield": (
            counts["inference.tau_returned"] / fits if fits else 0.0,
            "ratio"),
        "oracle.numeric_correlation.calls": (
            calls["oracle.numeric_correlation"], "count"),
        "oracle.numeric_correlation_s": (per_op("oracle.numeric_correlation"),
                                         "s"),
        "oracle.quad.calls": (calls["oracle.quad"], "count"),
        "oracle.quad.evals": (counts["oracle.quad.evals"], "count"),
        "oracle.convergence_errors": (counts["oracle.convergence_errors"],
                                      "count"),
    }
    for tag in CORRELATION_TAGS:
        m[f"correlators.point_us.{tag}"] = (
            mean("correlators.correlation", tag, 1e6), "us")
    for tag in ORACLE_TAGS:
        m[f"oracle.point_ms.{tag}"] = (
            mean("oracle.numeric_correlation", tag, 1e3), "ms")
    for stage in INFERENCE_STAGES:
        m[f"inference.{stage}_s"] = (per_op(f"inference.{stage}"), "s")

    shares = {layer: 0.0 for layer in LAYERS}
    for name, own in self_total.items():
        shares[name.split(".")[0]] += own / op_seconds
    shares["unattributed"] = 1.0 - sum(shares.values())
    return m, shares


def span_table(tracer: Tracer) -> Dict:
    """Spans in a column layout for writing out."""
    return {"columns": ["name", "tag", "start", "end", "parent", "op"],
            "spans": tracer.spans}
