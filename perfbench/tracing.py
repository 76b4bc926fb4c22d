"""Thread-aware span tracer for the rydsim benchmark.

Spans are recorded from the benchmark's own files: ``Tracer.install`` swaps
each traced function for a wrapper at the place its caller looks it up
(``WRAPPED``), and ``Tracer.restore`` puts the originals back.  Nothing in
the package itself changes.

Every thread keeps its own span stack.  A span records its id, its parent
span's id, its thread, its layer and its start and end.  The first span a
pool thread opens has, as parent, the innermost span open on the thread that
installed the tracer at that moment: ``monte_carlo_error`` submits its chunks
from there.

Wall-time attribution walks the span tree from the roots on the installing
thread.  A span's attributed self time is its duration minus its children
on the same thread and minus the busy time of the busiest other thread that
ran children of it; the walk then descends into both.  The attributed self
times of one root tree add up to the root's duration, so the layer self
times plus ``cli.overhead_s`` account for the traced wall time, and what is
left is time outside any span (the benchmark's own output checks and file
reads).  Pool threads other than the busiest ran concurrently with it; their
time shows in the per-function totals (``gate.evolve_s`` and so on), which
sum durations over all threads.

``budget.mc_wait_s`` is the attributed self time of ``monte_carlo_error``:
its wall time less its own thread's child calls (the sampling, and the
chunks when the pool is bypassed) and less the busiest pool thread's busy
time, which is the time the call waited on the pool beyond its critical
path.  ``budget.workers`` is the number of threads that ran its chunks.
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "params", "budget", "noise", "gate", "trap", "laser", "qnd",
          "analysis")


def _evolve_counts(args, kwargs, result):
    psi = args[0] if args else kwargs["psi"]
    return {"shots": len(psi)}


def _sample_counts(args, kwargs, result):
    return {"shots": len(result), "redraws": sum(s.redraws for s in result)}


def _mc_counts(args, kwargs, result):
    return {"integration_failures": result.integration_failures}


def _simulate_counts(args, kwargs, result):
    return {"trajectories": sum(sum(h.values()) for h in result.values())}


# (module, attribute, layer, counts).  Each entry sits where the caller
# looks the name up: cli calls ``budget.X``, ``laser.X``, ``analysis.X`` and
# ``qnd.X`` through the module, but holds ``resolve_config`` and
# ``params_digest`` by name; budget holds the noise and gate functions by
# name; ``gate.bell_errors_batch`` and ``gate.pulse_state_nominal`` reach
# ``evolve_batch`` and ``bell_error_from_pulse_state`` as gate globals; and
# ``SystemParams.localization_um`` calls the ``localization_sigmas`` that
# params imported.
WRAPPED = (
    ("rydsim.cli", "main", "cli", None),
    ("rydsim.cli", "resolve_config", "params", None),
    ("rydsim.cli", "params_digest", "params", None),
    ("rydsim.params", "localization_sigmas", "trap", None),
    ("rydsim.budget", "monte_carlo_error", "budget", _mc_counts),
    ("rydsim.budget", "sample_shots", "noise", _sample_counts),
    ("rydsim.budget", "resolve_drive_batch", "noise", None),
    ("rydsim.budget", "resolve_drives", "noise", None),
    ("rydsim.budget", "bell_errors_batch", "gate", None),
    ("rydsim.budget", "pulse_state_nominal", "gate", None),
    ("rydsim.budget", "bell_error_from_pulse_state", "gate", None),
    ("rydsim.budget", "optimal_virtual_rz", "gate", None),
    ("rydsim.gate", "evolve_batch", "gate", _evolve_counts),
    ("rydsim.gate", "bell_error_from_pulse_state", "gate", None),
    ("rydsim.qnd", "parse_circuit", "qnd", None),
    ("rydsim.qnd", "simulate", "qnd", _simulate_counts),
    ("rydsim.qnd", "predicted_fqnd", "qnd", None),
    ("rydsim.qnd", "exact_distribution", "qnd", None),
    ("rydsim.laser", "read_trace", "laser", None),
    ("rydsim.laser", "model_from_json", "laser", None),
    ("rydsim.laser", "fit_heterodyne", "laser", None),
    ("rydsim.laser", "error_vs_rabi_curve", "laser", None),
    ("rydsim.laser", "rabi_error", "laser", None),
    ("rydsim.analysis", "fit_geometric_decay", "analysis", None),
    ("rydsim.analysis", "fit_decay_oscillation", "analysis", None),
    ("rydsim.analysis", "cz_fidelity_from_fits", "analysis", None),
    ("rydsim.analysis", "dirichlet_qnd", "analysis", None),
)


class Span:
    __slots__ = ("id", "parent", "thread", "layer", "name", "start", "end",
                 "counts")

    def __init__(self, span_id, parent, thread, layer, name, start):
        self.id = span_id
        self.parent = parent
        self.thread = thread
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around the functions in ``WRAPPED``; see module doc."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[Span] = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, modules: dict) -> None:
        for mod_name, attr, layer, counts in WRAPPED:
            module = modules[mod_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, layer,
                                             f"{mod_name}.{attr}", counts))
            self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take(self) -> list[Span]:
        """Hand over the finished spans and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, layer, name, counts):
        def traced(*args, **kwargs):
            stack = self._stack()
            thread = threading.get_ident()
            if stack:
                parent = stack[-1].id
            elif thread != self._home:
                home = self._home_stack[-1:]
                parent = home[0].id if home else None
            else:
                parent = None
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            span = Span(span_id, parent, thread, layer, name,
                        time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def quantile(values, q):
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def layer_metrics(spans: list[Span], home: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced iteration lasting ``wall_s``."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    attributed = dict.fromkeys(LAYERS, 0.0)
    mc_wait = 0.0
    workers = 0

    def walk(span):
        nonlocal mc_wait, workers
        same, others = [], defaultdict(list)
        for kid in children[span.id]:
            (same if kid.thread == span.thread else others[kid.thread]).append(kid)
        busiest = max(others.values(), default=[],
                      key=lambda ks: sum(k.duration for k in ks))
        self_s = (span.duration - sum(k.duration for k in same)
                  - sum(k.duration for k in busiest))
        attributed[span.layer] += self_s
        if span.name == "rydsim.budget.monte_carlo_error":
            mc_wait += self_s
            workers = max(workers, len(others) or 1)
        for kid in same + busiest:
            walk(kid)

    roots = [s for s in children[None] if s.thread == home]
    for root in roots:
        walk(root)

    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name.rsplit(".", 1)[1]].append(s)

    def total(*names):
        return sum(s.duration for n in names for s in by_name[n])

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def count(name, key):
        return sum((s.counts or {}).get(key, 0) for s in by_name[name])

    evolve_ms = [1e3 * s.duration for s in by_name["evolve_batch"]]
    rabi_ms = [1e3 * s.duration for s in by_name["rabi_error"]]
    evolve_s = total("evolve_batch")
    shots_evolved = count("evolve_batch", "shots")
    sample_s = total("sample_shots")
    shots_sampled = count("sample_shots", "shots")
    simulate_s = total("simulate")
    trajectories = count("simulate", "trajectories")

    out = {f"{layer}.self_s": attributed[layer] for layer in LAYERS
           if layer != "cli"}
    accounted = sum(attributed.values())
    out.update({
        "cli.commands": calls("main"),
        "cli.overhead_s": attributed["cli"],
        "trace.unattributed_s": wall_s - accounted,
        "gate.evolve_s": evolve_s,
        "gate.shots_evolved": shots_evolved,
        "gate.evolve_us_per_shot": (1e6 * evolve_s / shots_evolved
                                    if shots_evolved else 0.0),
        "gate.evolve_calls": len(evolve_ms),
        "gate.evolve_call_ms_p50": quantile(evolve_ms, 0.5),
        "gate.evolve_call_ms_p99": quantile(evolve_ms, 0.99),
        "gate.bell_reduce_s": total("bell_error_from_pulse_state",
                                    "optimal_virtual_rz"),
        "noise.sample_s": sample_s,
        "noise.shots_sampled": shots_sampled,
        "noise.sample_us_per_shot": (1e6 * sample_s / shots_sampled
                                     if shots_sampled else 0.0),
        "noise.redraws": count("sample_shots", "redraws"),
        "noise.resolve_s": total("resolve_drive_batch", "resolve_drives"),
        "noise.resolve_calls": calls("resolve_drive_batch", "resolve_drives"),
        "trap.localization_calls": calls("localization_sigmas"),
        "trap.localization_s": total("localization_sigmas"),
        "budget.mc_calls": calls("monte_carlo_error"),
        "budget.mc_s": total("monte_carlo_error"),
        "budget.mc_wait_s": mc_wait,
        "budget.workers": workers,
        "budget.integration_failures": count("monte_carlo_error",
                                             "integration_failures"),
        "qnd.simulate_s": simulate_s,
        "qnd.trajectories": trajectories,
        "qnd.trajectories_per_s": (trajectories / simulate_s
                                   if simulate_s else 0.0),
        "qnd.exact_s": total("exact_distribution"),
        "qnd.exact_calls": calls("exact_distribution"),
        "laser.rabi_error_s": total("error_vs_rabi_curve"),
        "laser.rabi_points": len(rabi_ms),
        "laser.rabi_point_ms_p50": quantile(rabi_ms, 0.5),
        "laser.fit_s": total("fit_heterodyne"),
        "analysis.fit_s": total("fit_geometric_decay", "fit_decay_oscillation"),
        "analysis.fit_calls": calls("fit_geometric_decay",
                                    "fit_decay_oscillation"),
    })
    return out
