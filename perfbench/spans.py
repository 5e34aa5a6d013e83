"""Span and counter recorder for the traced run.

The benchmark wraps the package's public functions from outside: every
binding of a target function in any ``mfbcs`` module namespace is replaced
(``cli``, ``classical`` and ``verification`` import flow functions by name),
classmethods and methods are replaced in their class, and the tuple
``verification.ALL_CHECKS`` is rebuilt with the wrapped checks.  ``install``
returns an undo function that restores every binding.

Each wrapped call records one span ``[name, start, end, parent, pass_id,
rhs_evals, items]``.  Hot functions are counters only: calls to
``model.effective_hamiltonian`` are counted per pass and attributed to every
open span (``rhs_evals`` is inclusive), and calls to
``equilibrium.approx_gibbs_onsite`` are counted per pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

CHECKS = (
    "check_car_exactness", "check_conserved_densities", "check_cooper_field_law",
    "check_interference", "check_fv_convergence", "check_gap_equation",
    "check_pressure_trend", "check_liouville", "check_poisson_algebra",
    "check_rotor_diagram", "check_equilibrium_stationarity", "check_dyson",
    "check_energy_bound",
)

# (module, attribute path) of every function recorded as a span
SPAN_TARGETS = (
    ("cli", "parse_config"),
    ("cli", "run"),
    ("cli", "ResultTable.to_csv"),
    ("dynamics", "evolve_expectation"),
    ("dynamics", "Propagator.from_matrix"),
    ("dynamics", "product_state"),
    ("dynamics", "pure_product_state"),
    ("dynamics", "pressure_fv"),
    ("dynamics", "gibbs_state"),
    ("dynamics", "condensate_density_fv"),
    ("equilibrium", "gap_solve"),
    ("equilibrium", "variational_vs_finite_pressure"),
    ("equilibrium", "equilibrium_mixture"),
    ("flow", "flow_onsite"),
    ("flow", "mixture_flow"),
    ("flow", "dyson_phillips"),
    ("flow", "heisenberg_propagator_ode"),
    ("classical", "liouville_residuals"),
    ("classical", "rotor_flow"),
    ("classical", "rotor_map"),
    ("classical", "poisson_bracket"),
    ("model", "hamiltonian"),
    ("model", "hamiltonian_sparse"),
    ("model", "energy_bound_check"),
    ("fock", "embed_local"),
    ("states", "OnSiteState.from_matrix"),
    *(("verification", check) for check in CHECKS),
)
RHS_COUNTER = ("model", "effective_hamiltonian")
CALL_COUNTERS = (("equilibrium", "approx_gibbs_onsite"),)

# argument holding the time grid, for the per-call item counts
_ITEMS_ARG = {
    "dynamics.evolve_expectation": "times",
    "flow.flow_onsite": "times",
    "flow.mixture_flow": "times",
}


class Recorder:
    """Spans and counters, kept in memory until the run writes them out."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.pass_id = 0
        self._stack: List[int] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn: Callable, name_of: Callable = None) -> Callable:
        items_arg = _ITEMS_ARG.get(name)
        signature = inspect.signature(fn) if items_arg or name_of else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = 0
            label = name
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                if items_arg:
                    items = len(bound[items_arg])
                if name_of:
                    label = name_of(bound)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([label, time.perf_counter(), 0.0, parent, self.pass_id, 0, items])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record = spans[index]
                record[2] = time.perf_counter()
                if parent >= 0:
                    spans[parent][5] += record[5]

        return wrapper

    def counter(self, name: str, fn: Callable, attribute: bool) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.pass_id, name)] += 1
            if attribute and stack:
                spans[stack[-1]][5] += 1
            return fn(*args, **kwargs)

        return wrapper


def _evolve_label(dynamics) -> Callable:
    def name_of(bound: dict) -> str:
        backend = bound.get("backend", "auto")
        if backend == "auto":
            backend = dynamics.propagation_backend(bound["n_sites"], bound["initial"].kind)
        if backend == "spectral":
            backend += "_pure" if bound["initial"].kind == "pure" else "_mixed"
        return f"dynamics.evolve_expectation.{backend}"

    return name_of


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every target at every binding site; return the undo function."""
    import mfbcs.cli  # noqa: F401  (imports every module of the package)

    modules = [m for k, m in sys.modules.items() if k == "mfbcs" or k.startswith("mfbcs.")]
    pkg = {k.rsplit(".", 1)[-1]: m for k, m in sys.modules.items() if k.startswith("mfbcs.")}
    undo: List[Tuple[object, str, object]] = []
    replaced: Dict[int, Callable] = {}

    def replace(owner, attr: str, value) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(original: Callable, wrapped: Callable) -> None:
        replaced[id(original)] = wrapped
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    replace(mod, key, wrapped)

    for module, path in SPAN_TARGETS:
        name = f"{module}.{path}"
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(pkg[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                replace(cls, attr, classmethod(recorder.span(name, raw.__func__)))
            else:
                replace(cls, attr, recorder.span(name, raw))
            continue
        original = getattr(pkg[module], path)
        name_of = _evolve_label(pkg["dynamics"]) if name == "dynamics.evolve_expectation" else None
        rebind(original, recorder.span(name, original, name_of))

    module, path = RHS_COUNTER
    original = getattr(pkg[module], path)
    rebind(original, recorder.counter(f"{module}.{path}", original, attribute=True))
    for module, path in CALL_COUNTERS:
        original = getattr(pkg[module], path)
        rebind(original, recorder.counter(f"{module}.{path}", original, attribute=False))

    verification = pkg["verification"]
    replace(
        verification,
        "ALL_CHECKS",
        tuple((label, replaced.get(id(fn), fn)) for label, fn in verification.ALL_CHECKS),
    )

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall



# --- aggregation into per-layer metrics ---------------------------------------

EVOLVE_MODES = ("spectral_mixed", "spectral_pure", "krylov")

# (span name, stats): every span-derived per-layer metric is <span>.<stat>
LAYER_STATS = (
    *((f"dynamics.evolve_expectation.{m}", ("s", "self_s", "calls", "points"))
      for m in EVOLVE_MODES),
    ("dynamics.Propagator.from_matrix", ("s", "calls")),
    ("dynamics.product_state", ("s",)),
    ("dynamics.pure_product_state", ("s",)),
    ("dynamics.pressure_fv", ("s",)),
    ("dynamics.gibbs_state", ("s",)),
    ("dynamics.condensate_density_fv", ("s",)),
    ("equilibrium.gap_solve", ("s", "calls")),
    ("equilibrium.variational_vs_finite_pressure", ("s",)),
    ("equilibrium.equilibrium_mixture", ("s",)),
    ("flow.flow_onsite", ("s", "calls", "samples", "rhs_evals")),
    ("flow.mixture_flow", ("s", "calls", "samples", "rhs_evals")),
    *((f"classical.{f}", ("s", "self_s", "calls", "rhs_evals"))
      for f in ("liouville_residuals", "rotor_flow", "rotor_map", "poisson_bracket")),
    ("flow.dyson_phillips", ("s",)),
    ("flow.heisenberg_propagator_ode", ("s",)),
    *((f"verification.{c}", ("s",)) for c in CHECKS),
    ("model.hamiltonian", ("s",)),
    ("model.hamiltonian_sparse", ("s",)),
    ("model.energy_bound_check", ("s",)),
    ("fock.embed_local", ("s", "calls")),
    ("states.OnSiteState.from_matrix", ("s", "calls")),
    ("cli.parse_config", ("s",)),
    ("cli.ResultTable.to_csv", ("s",)),
    ("cli.run", ("self_s",)),
)
_ITEM_STAT = {"points": "items", "samples": "items"}


def unit_of(metric: str) -> str:
    stat = metric.rsplit(".", 1)[-1]
    if stat in ("s", "self_s", "overhead_s"):
        return "s"
    if stat in ("evolve_per_propagator", "gibbs_per_gap_solve", "rhs_per_sample"):
        return "ratio"
    if stat == "output_bytes":
        return "B"
    return "count"


def _pass_stats(recorder: Recorder, pass_id: int) -> Dict[str, Dict[str, float]]:
    stats: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "rhs_evals": 0, "items": 0}
    )
    children: Dict[int, float] = defaultdict(float)
    mine = [(i, s) for i, s in enumerate(recorder.spans) if s[4] == pass_id]
    for _, (_, start, end, parent, _, _, _) in mine:
        if parent >= 0:
            children[parent] += end - start
    for index, (name, start, end, _, _, rhs, items) in mine:
        entry = stats[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - children[index]
        entry["rhs_evals"] += rhs
        entry["items"] += items
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder, pass_ids: List[int]) -> Dict[str, float]:
    """Per-layer metrics of each traced pass, then the median over passes."""
    per_pass: Dict[str, List[float]] = defaultdict(list)
    for pid in pass_ids:
        stats = _pass_stats(recorder, pid)
        values: Dict[str, float] = {}
        for span, stat_names in LAYER_STATS:
            for stat in stat_names:
                values[f"{span}.{stat}"] = stats[span][_ITEM_STAT.get(stat, stat)]
        evolve_calls = sum(stats[f"dynamics.evolve_expectation.{m}"]["calls"]
                           for m in EVOLVE_MODES)
        values["dynamics.evolve_per_propagator"] = _ratio(
            evolve_calls, stats["dynamics.Propagator.from_matrix"]["calls"])
        gibbs = recorder.counts[(pid, "equilibrium.approx_gibbs_onsite")]
        values["equilibrium.approx_gibbs_onsite.calls"] = gibbs
        values["equilibrium.gibbs_per_gap_solve"] = _ratio(
            gibbs, stats["equilibrium.gap_solve"]["calls"])
        values["model.effective_hamiltonian.calls"] = recorder.counts[
            (pid, "model.effective_hamiltonian")]
        values["flow.rhs_per_sample"] = _ratio(
            stats["flow.flow_onsite"]["rhs_evals"], stats["flow.flow_onsite"]["items"])
        for key, value in values.items():
            per_pass[key].append(value)
    # counts repeat exactly between passes; median_low keeps them integers
    return {key: (statistics.median(vals) if unit_of(key) == "s" else statistics.median_low(vals))
            for key, vals in per_pass.items()}


def dump_spans(recorder: Recorder, path: str) -> None:
    """Write the spans as JSON lines: name, start, end, parent, pass, rhs_evals, items."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in recorder.spans:
            fh.write(json.dumps(span) + "\n")
