"""The permfield layer functions the benchmark measures, and how it reaches them.

``permfield.experiments`` imports its collaborators by name (and ``ratefn``
as a module). ``Layers.installed()`` swaps those references for wrappers,
so the experiments call the layers through the benchmark without any change
to the package; the benchmark's own direct calls go through the same
wrappers. Without a tracer the wrappers only record the calls the checks
need (scan results, point evaluations, tail estimates); with one they also
time every call as a span.
"""

import types
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

from permfield import arith, cycles, experiments, field, kronecker, ratefn, streams

EVAL_RECORD_CAP = 64  # eval_point calls kept per execution for checking


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def distinct_lengths(spec):
    """Distinct cycle lengths the field sums over, after truncation."""
    lengths, _ = spec.counts.as_arrays()
    if spec.truncation is not None:
        return int(np.count_nonzero(lengths <= spec.truncation))
    return int(len(lengths))


def _describe_scan(args, kwargs, result):
    spec, mesh = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "mesh")
    kind = "traced" if _arg(args, kwargs, 3, "want_trace", False) else spec.kind
    blocks = -(-mesh.q // field.BLOCK)
    return ([kind, f"{kind}.q{mesh.q}"],
            {"terms": mesh.q * distinct_lengths(spec), "blocks": blocks})


def _record_scan(args, kwargs, result):
    # the trace array is dropped: arc-profile would otherwise keep 2e5
    # floats per replica alive
    return (_arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "mesh"),
            result.index, result.value)


def _describe_eval(args, kwargs, result):
    return (), {"lengths": distinct_lengths(_arg(args, kwargs, 0, "spec"))}


def _record_eval(args, kwargs, result):
    return _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "t"), result


def _describe_sampler(args, kwargs, result):
    return (), {"cycles": result.total_cycles}


def _describe_tilted(args, kwargs, result):
    q, samples = _arg(args, kwargs, 1, "q"), _arg(args, kwargs, 2, "samples")
    return (), {"draws": q * samples}


def _record_tilted(args, kwargs, result):
    return _arg(args, kwargs, 1, "q"), _arg(args, kwargs, 2, "samples"), result


def _describe_phi_hat(args, kwargs, result):
    z = complex(_arg(args, kwargs, 0, "z"))
    return ["complex" if z.imag else "real"], None


def _describe_bytes(args, kwargs, result):
    return (), {"bytes": len(result)}


def json_bytes(report):
    return report.json_bytes()


def csv_text(report):
    return report.csv_text().encode("utf-8")


# span name -> (function, describe, record). The last part of the name is
# the attribute the benchmark calls; for cycles, field, arith and streams
# it is also the global name permfield.experiments uses, and ratefn
# functions are reached there as attributes of the ratefn module.
LAYERS = {
    "cycles.sample_cycle_structure": (cycles.sample_cycle_structure, _describe_sampler, None),
    "cycles.sample_poisson_counts": (cycles.sample_poisson_counts, _describe_sampler, None),
    "cycles.block_bounds": (cycles.block_bounds, None, None),
    "cycles.block_mean": (cycles.block_mean, None, None),
    "field.scan_max": (field.scan_max, _describe_scan, _record_scan),
    "field.eval_point": (field.eval_point, _describe_eval, _record_eval),
    "field.log_abs_term_array": (field.log_abs_term_array, None, None),
    "arith.classify": (arith.classify, None, None),
    "arith.arithmetic_distance": (arith.arithmetic_distance, None, None),
    "streams.stream": (streams.stream, None, None),
    "ratefn.legendre": (ratefn.legendre, None, None),
    "ratefn.bahadur_rao_tail": (ratefn.bahadur_rao_tail, None, None),
    "ratefn.tilted_tail_estimate": (ratefn.tilted_tail_estimate, _describe_tilted, _record_tilted),
    "ratefn.solve_critical": (ratefn.solve_critical, None, None),
    "kronecker.phi_hat": (kronecker.phi_hat, _describe_phi_hat, None),
    "kronecker.log_average": (kronecker.log_average, None, None),
    "reports.json_bytes": (json_bytes, _describe_bytes, None),
    "reports.csv_text": (csv_text, _describe_bytes, None),
}


class Layers:
    """The layer functions one pass calls, with the calls it records.

    Attribute access gives the (possibly wrapped) function by its short
    name, e.g. ``layers.scan_max``. ``records[name]`` lists what the
    recorded functions returned since the last ``clear_records()``.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.records = defaultdict(list)
        self.record_calls = defaultdict(int)
        self._by_attr = {
            name.rsplit(".", 1)[1]: self._wrap(name, fn, describe, record)
            for name, (fn, describe, record) in LAYERS.items()
        }

    def _wrap(self, name, fn, describe, record):
        if record is not None:
            sink, cap = self.records[name], (
                EVAL_RECORD_CAP if name == "field.eval_point" else None)

            def keep(args, kwargs, result):
                self.record_calls[name] += 1
                if cap is None or len(sink) < cap:
                    sink.append(record(args, kwargs, result))

        if self.tracer is not None:
            if record is None:
                return self.tracer.wrap(name, fn, describe)

            def describe_and_keep(args, kwargs, result):
                keep(args, kwargs, result)
                return describe(args, kwargs, result)

            return self.tracer.wrap(name, fn, describe_and_keep)
        if record is None:
            return fn

        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            keep(args, kwargs, result)
            return result

        return recorded

    def __getattr__(self, short):
        try:
            return self.__dict__["_by_attr"][short]
        except KeyError:
            raise AttributeError(short) from None

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def clear_records(self):
        for sink in self.records.values():
            sink.clear()
        self.record_calls.clear()

    @contextmanager
    def installed(self):
        """Route permfield.experiments' calls into the layers through self."""
        namespace = vars(experiments)
        ratefn_proxy = types.SimpleNamespace(**vars(ratefn))
        patches = {"ratefn": ratefn_proxy}
        for name, (fn, _, _) in LAYERS.items():
            module, attr = name.split(".")
            if module == "ratefn":
                setattr(ratefn_proxy, attr, self._by_attr[attr])
            elif namespace.get(attr) is fn:
                patches[attr] = self._by_attr[attr]
        saved = {attr: namespace[attr] for attr in patches}
        try:
            for attr, fn in patches.items():
                setattr(experiments, attr, fn)
            yield self
        finally:
            for attr, fn in saved.items():
                setattr(experiments, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

EXPERIMENT_NAMES = ("lln", "imag", "clt", "conditional-tail", "two-point",
                    "arc-profile", "occupancy")
SCAN_CLASSES = {"1e6_real": "real.q2000000", "1e6_imag": "imag.q2000000",
                "1e7_real": "real.q20000000"}

PER_LAYER = [
    ("field.scan_max.calls", "count"),
    ("field.scan_max.busy_s", "s"),
    ("field.scan_max.terms", "count"),
    ("field.scan_max.share", "ratio"),
    ("field.scan_max.real_ns_per_term", "ns"),
    ("field.scan_max.imag_ns_per_term", "ns"),
    ("field.scan_max.traced_ns_per_term", "ns"),
    *[(f"field.scan_max.{m}_{c}", u) for c in SCAN_CLASSES
      for m, u in (("speedup", "ratio"), ("blocks", "count"))],
    ("field.eval_point.calls", "count"),
    ("field.eval_point.us_per_call", "us"),
    ("field.eval_point.ns_per_length", "ns"),
    ("field.log_abs_term_array.calls", "count"),
    ("field.log_abs_term_array.busy_s", "s"),
    ("cycles.sample_cycle_structure.calls", "count"),
    ("cycles.sample_cycle_structure.us_per_call", "us"),
    ("cycles.sample_cycle_structure.ns_per_cycle", "ns"),
    ("cycles.sample_poisson_counts.calls", "count"),
    ("cycles.sample_poisson_counts.us_per_call", "us"),
    ("cycles.block_mean.calls", "count"),
    ("cycles.block_mean.busy_s", "s"),
    ("streams.stream.calls", "count"),
    ("streams.stream.us_per_call", "us"),
    ("ratefn.tilted_tail_estimate.calls", "count"),
    ("ratefn.tilted_tail_estimate.busy_s", "s"),
    ("ratefn.tilted_tail_estimate.draws", "count"),
    ("ratefn.tilted_tail_estimate.ns_per_draw", "ns"),
    ("ratefn.legendre.calls", "count"),
    ("ratefn.legendre.us_per_call", "us"),
    ("ratefn.solve_critical.ms", "ms"),
    ("kronecker.phi_hat.calls", "count"),
    ("kronecker.phi_hat.us_real", "us"),
    ("kronecker.phi_hat.us_complex", "us"),
    ("kronecker.log_average.calls", "count"),
    ("kronecker.log_average.us_per_call", "us"),
    ("arith.classify.calls", "count"),
    ("arith.classify.us_per_call", "us"),
    ("arith.arithmetic_distance.calls", "count"),
    ("arith.arithmetic_distance.us_per_call", "us"),
    *[(f"experiments.{name}.self_s", "s") for name in EXPERIMENT_NAMES],
    ("experiments.clt.cycles_streams_eval_s", "s"),
    ("experiments.block_draws", "count"),
    ("experiments.ns_per_block_draw", "ns"),
    ("reports.json_bytes.us_per_call", "us"),
    ("reports.csv_text.us_per_call", "us"),
    ("reports.bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def per_layer_metrics(tracer, traced_wall, untraced_wall, solve_ms, block_draws,
                      tag="nproc", serial_tag="1thread"):
    """Values of PER_LAYER from the spans of pass ``tag``.

    Speedups divide the busy time of the same scans in pass ``serial_tag``
    (one thread) by that in ``tag``. A layer the workload never calls reads
    0 calls and 0 time.
    """
    from tracer import Stat

    def st(name, t=tag):
        return tracer.stats.get((t, name)) or Stat()

    out = {}
    scan = st("field.scan_max")
    out["field.scan_max.calls"] = scan.calls
    out["field.scan_max.busy_s"] = scan.busy
    out["field.scan_max.terms"] = scan.work["terms"]
    out["field.scan_max.share"] = _ratio(scan.busy, traced_wall)
    for kind in ("real", "imag", "traced"):
        s = st(f"field.scan_max[{kind}]")
        out[f"field.scan_max.{kind}_ns_per_term"] = _ratio(s.busy, s.work["terms"], 1e9)
    for label, cls in SCAN_CLASSES.items():
        par, ser = st(f"field.scan_max[{cls}]"), st(f"field.scan_max[{cls}]", serial_tag)
        out[f"field.scan_max.speedup_{label}"] = _ratio(ser.busy, par.busy)
        out[f"field.scan_max.blocks_{label}"] = par.work["blocks"] // par.calls if par.calls else 0

    def per_call(name, scale=1e6):
        s = st(name)
        return s.calls, _ratio(s.busy, s.calls, scale)

    for name in ("field.eval_point", "cycles.sample_cycle_structure",
                 "cycles.sample_poisson_counts", "streams.stream", "ratefn.legendre",
                 "kronecker.log_average", "arith.classify", "arith.arithmetic_distance"):
        out[f"{name}.calls"], out[f"{name}.us_per_call"] = per_call(name)
    for name in ("field.log_abs_term_array", "cycles.block_mean",
                 "ratefn.tilted_tail_estimate"):
        out[f"{name}.calls"], out[f"{name}.busy_s"] = st(name).calls, st(name).busy
    ev = st("field.eval_point")
    out["field.eval_point.ns_per_length"] = _ratio(ev.busy, ev.work["lengths"], 1e9)
    sampler = st("cycles.sample_cycle_structure")
    out["cycles.sample_cycle_structure.ns_per_cycle"] = _ratio(
        sampler.busy, sampler.work["cycles"], 1e9)
    tilted = st("ratefn.tilted_tail_estimate")
    out["ratefn.tilted_tail_estimate.draws"] = tilted.work["draws"]
    out["ratefn.tilted_tail_estimate.ns_per_draw"] = _ratio(
        tilted.busy, tilted.work["draws"], 1e9)
    out["ratefn.solve_critical.ms"] = solve_ms
    out["kronecker.phi_hat.calls"] = st("kronecker.phi_hat").calls
    for cls in ("real", "complex"):
        out[f"kronecker.phi_hat.us_{cls}"] = per_call(f"kronecker.phi_hat[{cls}]")[1]
    for name in EXPERIMENT_NAMES:
        out[f"experiments.{name}.self_s"] = st(f"experiments.{name}").self_time
    out["experiments.clt.cycles_streams_eval_s"] = sum(
        busy for (t, parent, name), busy in tracer.child_busy.items()
        if t == tag and parent == "experiments.clt"
        and name.startswith(("cycles.", "streams.", "field.eval_point")))
    out["experiments.block_draws"] = block_draws
    out["experiments.ns_per_block_draw"] = _ratio(
        st("experiments.conditional-tail").self_time + st("experiments.two-point").self_time,
        block_draws, 1e9)
    for name in ("reports.json_bytes", "reports.csv_text"):
        out[f"{name}.us_per_call"] = per_call(name)[1]
    out["reports.bytes"] = (st("reports.json_bytes").work["bytes"]
                            + st("reports.csv_text").work["bytes"])
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    missing = set(out) ^ {name for name, _ in PER_LAYER}
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {missing}")
    return {name: out[name] for name, _ in PER_LAYER}
