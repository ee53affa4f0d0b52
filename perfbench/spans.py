"""Spans around the benchmark's calls into mebagg, and the per-layer table.

Nothing inside ``src/`` is instrumented: every layer is timed from the
outside, at the call the benchmark itself makes. Calls that a library
function makes internally (``minmax_meb`` calling ``solve_minmax``, a
certificate calling ``meb``) are part of the caller's span.
"""

from __future__ import annotations

import contextlib
import time
from importlib import import_module

# The public functions the workloads call, by module.
LAYERS = {
    "aggregate": ("candidate_balls", "minmax_meb", "mda", "medoid", "geometric_median"),
    "geometry": ("meb",),
    "validity": (
        "check_c_meb",
        "check_convex",
        "check_box",
        "check_bias_bound",
        "relation_check",
        "theoretical_bound",
    ),
    "oracle": ("exhaustive_factor", "worst_designation"),
    "io": ("validate_report",),
}
FUNCTIONS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)
CLI_COMMANDS = ("aggregate", "certify")


class Tracer:
    """Keeps spans in memory: op id, name, start, end, parent, error.

    Op spans have parent None; every other span's parent is its op. Extra
    fields given to ``annotate`` land on the latest span; callables among
    them are evaluated in ``record_op``, after the op's clock has stopped, so
    derived counters cost no op time.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._deferred: list[tuple[dict, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"op": self.op_id, "name": name, "start": time.perf_counter(),
                  "end": None, "parent": "op", "error": None}
        try:
            yield
        except Exception as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self.spans.append(record)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def annotate(self, **fields) -> None:
        latest = self.spans[-1]
        for key, value in fields.items():
            if callable(value):
                self._deferred.append((latest, key, value))
            else:
                latest[key] = value

    def record_op(self, op_id: int, start: float, end: float, error: str | None) -> None:
        self.spans.append({"op": op_id, "name": "op", "start": start, "end": end,
                           "parent": None, "error": error})
        for record, key, fn in self._deferred:
            record[key] = fn()
        self._deferred.clear()


class Layers:
    """The traced mebagg functions as attributes, e.g. ``lay.meb(points)``.

    Without a tracer the attributes are the library functions themselves and
    ``span``/``annotate`` do nothing, so an untraced run pays no tracing cost.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        for module, names in LAYERS.items():
            mod = import_module(f"mebagg.{module}")
            for name in names:
                fn = getattr(mod, name)
                setattr(self, name, fn if tracer is None else tracer.wrap(f"{module}.{name}", fn))

    def span(self, name: str):
        return contextlib.nullcontext() if self.tracer is None else self.tracer.span(name)

    def annotate(self, **fields) -> None:
        if self.tracer is not None:
            self.tracer.annotate(**fields)


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def per_layer(
    spans: list[dict], untraced_ops_per_s: float, traced_ops_per_s: float, host_factor: float
) -> dict:
    """The per-layer metrics of one traced run, as {name: (value, unit)}.

    Shares are busy time over the summed op time; child spans never nest,
    so the shares plus ``bench.self_share`` add up to 1. Times in seconds
    are divided by the traced loop's host factor, as the end-to-end times are.
    """
    op_s = sum(_dur(s) for s in spans if s["parent"] is None)
    children = [s for s in spans if s["parent"] is not None]
    by_name: dict[str, list[dict]] = {}
    for s in children:
        by_name.setdefault(s["name"], []).append(s)

    out: dict[str, tuple[float, str]] = {}

    def layer(name: str, busy_key: str = "busy_s") -> list[dict]:
        mine = by_name.get(name, [])
        busy = sum(_dur(s) for s in mine)
        out[f"{name}.calls"] = (len(mine), "count")
        out[f"{name}.{busy_key}"] = (busy, "s")
        out[f"{name}.share"] = (busy / op_s if op_s else 0.0, "ratio")
        return mine

    for name in FUNCTIONS:
        mine = layer(name)
        if name == "aggregate.candidate_balls":
            subsets = sum(s.get("subsets", 0) for s in mine)
            distinct = sum(s.get("distinct", 0) for s in mine)
            out[f"{name}.subsets"] = (subsets, "count")
            out[f"{name}.distinct"] = (distinct, "count")
            out[f"{name}.distinct_ratio"] = (distinct / subsets if subsets else 0.0, "ratio")
            for side in ("fast_side", "enum_side"):
                busy = sum(_dur(s) for s in mine if s.get("side") == side)
                out[f"{name}.{side}.busy_s"] = (busy, "s")
        if name == "validity.check_convex":
            out[f"{name}.failed"] = (sum(1 for s in mine if s["error"]), "count")

    for command in CLI_COMMANDS:
        mine = layer(f"cli.{command}", busy_key="wall_s")
        wall = out[f"cli.{command}.wall_s"][0]
        compute = sum(s.get("compute_s", 0.0) for s in mine)
        out[f"cli.{command}.compute_s"] = (compute, "s")
        out[f"cli.{command}.startup_s"] = (wall - compute, "s")

    self_s = op_s - sum(_dur(s) for s in children)
    out["bench.self_s"] = (self_s, "s")
    out["bench.self_share"] = (self_s / op_s if op_s else 0.0, "ratio")
    out["trace_overhead"] = (
        untraced_ops_per_s / traced_ops_per_s if traced_ops_per_s else 0.0, "ratio"
    )
    return {k: (v / host_factor if unit == "s" else v, unit) for k, (v, unit) in out.items()}
