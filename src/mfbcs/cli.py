"""Command-line harness: config parsing, experiment orchestration, CSV output.

Commands
--------
flow      : one mean-field trajectory, full observable + rotor columns
simulate  : exact finite-volume expectations of the on-site observables
converge  : per-N deviation between exact dynamics and the mean-field flow
gap       : solve the variational gap problem
scan      : phase-diagram scan of the gap solution over a parameter grid
liouville : Liouville-equation residuals over the polynomial suite
rotor     : rotor commuting-diagram deviations
verify    : run the full property suite (exit code 4 on failure)

Configs are YAML; see README for the schema.  Identical config + seed gives
byte-identical output files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import math
import re
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from . import __version__, classical, dynamics, equilibrium, fock, model, verification
from .errors import CapacityError, ConfigError, MfbcsError, NumericalAbortError
from .flow import flow_onsite, mixture_flow
from .states import OnSiteState, ProductMixture

TRAJECTORY_HEADER = (
    "t,d,m,w,z_re,z_im,kappa,theta,nu,omega1,omega2,omega3"
)

_COMMANDS = ("flow", "simulate", "converge", "gap", "scan", "liouville", "rotor", "verify")

_TOP_KEYS = {
    "command", "mu", "h", "lambda", "gamma", "beta", "sites", "times",
    "initial", "mixture", "scan", "states", "out", "seed",
    "threads",
}
_TIME_KEYS = {"start", "stop", "step"}
_STATE_KEYS = {"kind", "angle", "phase", "seed", "c"}
_SCAN_KEYS = {"mu", "h", "lambda", "gamma", "beta"}
_STATE_KINDS = ("vacuum", "doubly_occupied", "mixed", "pair", "random", "gibbs")

#: Most points a time grid or a scan may have, and most rows a table may
#: have.  The closed-form site series costs the same at any site count, so
#: the grids and the seeded-state count set the size of a run.
MAX_GRID_POINTS = 10**6
#: Largest magnitude of mu, h, lambda, gamma and beta, at the top level and
#: in a scan: below it the precession frequency 2(mu - lam) + gamma (1 - d)
#: and beta times any one-site energy stay below 1e301, clear of overflow.
MAX_COUPLING = 1e150
#: The C parser and emitter of libyaml where PyYAML was built with it; same
#: documents, same marks, several times faster than the pure-Python ones.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
_YAML_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper
#: A decimal with an exponent that YAML 1.1 reads as text: ``8e0``,
#: ``8.0e0`` and ``1e-11`` lack the dot or the exponent sign it requires.
_EXPONENT_FLOAT = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+")
#: The time grid of a config without ``times``: t = 0, 0.1, ..., 1.
DEFAULT_TIMES = tuple(float(t) for t in np.round(np.arange(0.0, 1.0001, 0.1), 12))


@dataclass(frozen=True)
class StateSpec:
    kind: str
    angle: float = 0.0
    phase: float = 0.0
    seed: int = 0
    c: complex = 0.0


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: model.ModelParams
    beta: float = 1.0
    sites: Tuple[int, ...] = (2, 3, 4, 5)
    times: Tuple[float, ...] = DEFAULT_TIMES
    initial: Optional[StateSpec] = None
    mixture: Tuple[Tuple[float, StateSpec], ...] = ()
    scan: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()
    n_states: int = 5
    out: Optional[str] = None
    seed: int = 0
    threads: int = 1


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"config field '{path}': {message}")


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        hint = ""
        if isinstance(value, str) and _EXPONENT_FLOAT.fullmatch(value):
            hint = "; write the number with a dot and a signed exponent, for example 8.0e+0"
        raise _fail(path, f"expected a number, got {value!r}{hint}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise _fail(path, f"expected a finite number, got {value!r}")
    return number


def _coupling(raw: dict, key: str, default: float) -> float:
    value = _as_float(raw.get(key, default), key)
    if abs(value) > MAX_COUPLING:
        raise _fail(key, f"magnitude must be at most {MAX_COUPLING:.0e}")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {value!r}")
    return int(value)


def _as_seed(value, path: str) -> int:
    seed = _as_int(value, path)
    if seed < 0:
        raise _fail(path, f"a seed must be >= 0, got {seed}")
    return seed


def _check_keys(mapping: dict, allowed: set, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise _fail(f"{path}{key}" if path else str(key), "unknown key")


def _parse_state(raw, path: str) -> StateSpec:
    if not isinstance(raw, dict):
        raise _fail(path, "expected a mapping with a 'kind' entry")
    _check_keys(raw, _STATE_KEYS, path + ".")
    kind = raw.get("kind")
    if kind not in _STATE_KINDS:
        raise _fail(f"{path}.kind", f"must be one of {_STATE_KINDS}")
    c = raw.get("c", 0.0)
    if isinstance(c, (list, tuple)):
        if len(c) != 2:
            raise _fail(f"{path}.c", "expected [re, im]")
        c = complex(_as_float(c[0], f"{path}.c[0]"), _as_float(c[1], f"{path}.c[1]"))
    else:
        c = complex(_as_float(c, f"{path}.c"), 0.0)
    return StateSpec(
        kind=kind,
        angle=_as_float(raw.get("angle", math.pi / 6.0), f"{path}.angle"),
        phase=_as_float(raw.get("phase", 0.0), f"{path}.phase"),
        seed=_as_seed(raw.get("seed", 0), f"{path}.seed"),
        c=c,
    )


def _parse_times(raw, path: str) -> Tuple[float, ...]:
    if not isinstance(raw, dict):
        raise _fail(path, "expected a mapping {start, stop, step}")
    _check_keys(raw, _TIME_KEYS, path + ".")
    start = _as_float(raw.get("start", 0.0), f"{path}.start")
    stop = _as_float(raw.get("stop", 1.0), f"{path}.stop")
    step = _as_float(raw.get("step", 0.1), f"{path}.step")
    if step <= 0:
        raise _fail(f"{path}.step", "must be > 0 (times strictly increasing)")
    if stop < start:
        raise _fail(f"{path}.stop", "must be >= start")
    span = (stop - start) / step + 1e-9  # inf when stop - start overflows
    if not span < MAX_GRID_POINTS:
        raise _fail(path, f"more than {MAX_GRID_POINTS} time points")
    n = int(math.floor(span)) + 1
    return tuple(float(start + k * step) for k in range(n))


def _parse_grid(raw, path: str) -> Tuple[float, ...]:
    if isinstance(raw, (list, tuple)):
        return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(raw))
    if isinstance(raw, dict):
        _check_keys(raw, {"start", "stop", "num"}, path + ".")
        start = _as_float(raw.get("start", 0.0), f"{path}.start")
        stop = _as_float(raw.get("stop", 1.0), f"{path}.stop")
        num = _as_int(raw.get("num", 5), f"{path}.num")
        if not 1 <= num <= MAX_GRID_POINTS:
            raise _fail(f"{path}.num", f"must be within 1..{MAX_GRID_POINTS}")
        return tuple(float(v) for v in np.linspace(start, stop, num))
    raise _fail(path, "expected a list or {start, stop, num}")


def _table_rows(command: str, sites: Sequence[int], n_states: int, n_times: int) -> int:
    """Rows of the tables that grow with more than one grid; 0 for the others."""
    if command == "converge":
        return len(fock.SITE_COLUMNS) * len(set(sites)) * n_times
    if command == "liouville":
        return len(classical.polynomial_suite()) * n_states * n_times
    if command == "rotor":
        return n_states * n_times
    return 0


def parse_config(
    text: str, command: Optional[str] = None, overrides: Optional[Dict[str, object]] = None
) -> RunConfig:
    """Parse a YAML config document into a validated RunConfig.

    Unknown keys are rejected; defaults are seed=0 and threads=1.  Time
    grids, scans and the converge, liouville and rotor tables are held to
    MAX_GRID_POINTS points or rows before anything is computed.
    A command passed by the CLI must agree with any command in the document.
    ``overrides`` (the CLI's --seed, --threads and --out) replace the
    document's top-level values before any of them is checked.
    """
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{where}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    raw = {**raw, **(overrides or {})}
    _check_keys(raw, _TOP_KEYS, "")

    doc_command = raw.get("command")
    if doc_command is not None and doc_command not in _COMMANDS:
        raise _fail("command", f"must be one of {_COMMANDS}")
    if command is not None and doc_command is not None and command != doc_command:
        raise _fail("command", f"CLI command {command!r} conflicts with config {doc_command!r}")
    final_command = command or doc_command
    if final_command is None:
        raise _fail("command", "missing (give it in the config or on the CLI)")

    gamma = _coupling(raw, "gamma", 0.0)
    if gamma < 0:
        raise _fail("gamma", "violates the model invariant gamma >= 0")
    lam = _coupling(raw, "lambda", 0.0)
    if lam < 0:
        raise _fail("lambda", "violates the model invariant lambda >= 0")
    params = model.ModelParams(
        mu=_coupling(raw, "mu", 0.0), h=_coupling(raw, "h", 0.0), lam=lam, gamma=gamma
    )

    beta = _coupling(raw, "beta", 1.0)
    if beta <= 0:
        raise _fail("beta", "must be > 0")

    sites_raw = raw.get("sites", [2, 3, 4, 5])
    if not isinstance(sites_raw, (list, tuple)) or not sites_raw:
        raise _fail("sites", "expected a non-empty list of site counts")
    sites = tuple(_as_int(v, f"sites[{i}]") for i, v in enumerate(sites_raw))
    for i, n in enumerate(sites):
        if not 1 <= n <= dynamics.PRODUCT_SITE_LIMIT:
            raise _fail(f"sites[{i}]", f"must be within 1..{dynamics.PRODUCT_SITE_LIMIT}")

    times = _parse_times(raw["times"], "times") if "times" in raw else DEFAULT_TIMES

    initial = _parse_state(raw["initial"], "initial") if "initial" in raw else None

    mixture: List[Tuple[float, StateSpec]] = []
    if "mixture" in raw:
        if not isinstance(raw["mixture"], list) or not raw["mixture"]:
            raise _fail("mixture", "expected a non-empty list")
        for i, entry in enumerate(raw["mixture"]):
            if not isinstance(entry, dict):
                raise _fail(f"mixture[{i}]", "expected a mapping")
            _check_keys(entry, {"weight", "state"}, f"mixture[{i}].")
            if "weight" not in entry or "state" not in entry:
                raise _fail(f"mixture[{i}]", "needs 'weight' and 'state'")
            mixture.append(
                (
                    _as_float(entry["weight"], f"mixture[{i}].weight"),
                    _parse_state(entry["state"], f"mixture[{i}].state"),
                )
            )

    scan: List[Tuple[str, Tuple[float, ...]]] = []
    if "scan" in raw:
        if not isinstance(raw["scan"], dict) or not raw["scan"]:
            raise _fail("scan", "expected a non-empty mapping of parameter grids")
        _check_keys(raw["scan"], _SCAN_KEYS, "scan.")
        points = 1
        for key in sorted(raw["scan"]):
            grid = _parse_grid(raw["scan"][key], f"scan.{key}")
            if key in ("gamma", "lambda") and min(grid) < 0:
                raise _fail(f"scan.{key}", f"violates the model invariant {key} >= 0")
            if max(map(abs, grid)) > MAX_COUPLING:
                raise _fail(f"scan.{key}", f"magnitudes must be at most {MAX_COUPLING:.0e}")
            scan.append((key, grid))
            points *= len(grid)
        if points > MAX_GRID_POINTS:
            raise _fail("scan", f"more than {MAX_GRID_POINTS} points in all")

    n_states = _as_int(raw.get("states", 5), "states")
    if n_states < 1:
        raise _fail("states", "must be >= 1")

    seed = _as_seed(raw.get("seed", 0), "seed")
    threads = _as_int(raw.get("threads", 1), "threads")
    if threads < 1:
        raise _fail("threads", "must be >= 1")

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise _fail("out", "expected a path string")

    rows = _table_rows(final_command, sites, n_states, len(times))
    if rows > MAX_GRID_POINTS:
        raise _fail(
            "sites" if final_command == "converge" else "states",
            f"the {final_command} table would have {rows} rows, more than {MAX_GRID_POINTS}",
        )

    return RunConfig(
        command=final_command,
        params=params,
        beta=beta,
        sites=sites,
        times=times,
        initial=initial,
        mixture=tuple(mixture),
        scan=tuple(scan),
        n_states=n_states,
        out=out,
        seed=seed,
        threads=threads,
    )


def _materialize_state(spec: StateSpec, config: RunConfig) -> OnSiteState:
    if spec.kind == "vacuum":
        return OnSiteState.vacuum()
    if spec.kind == "doubly_occupied":
        return OnSiteState.doubly_occupied()
    if spec.kind == "mixed":
        return OnSiteState.maximally_mixed()
    if spec.kind == "pair":
        return OnSiteState.pair_superposition(spec.angle, spec.phase)
    if spec.kind == "random":
        return OnSiteState.random_even(np.random.default_rng(spec.seed))
    if spec.kind == "gibbs":
        return equilibrium.approx_gibbs_onsite(config.params, config.beta, spec.c)
    raise ConfigError(f"unknown state kind {spec.kind!r}")


def _initial_state(config: RunConfig) -> OnSiteState:
    spec = config.initial or StateSpec(kind="pair", angle=math.pi / 6.0)
    return _materialize_state(spec, config)


def _initial_mixture(config: RunConfig) -> ProductMixture:
    if config.mixture:
        components = [(w, _materialize_state(s, config)) for w, s in config.mixture]
        try:
            return ProductMixture.from_components(components)
        except ValueError as exc:
            raise _fail("mixture", str(exc)) from exc
    return ProductMixture.single(_initial_state(config))


#: Rows formatted at a time by ResultTable.to_csv.
CSV_BLOCK_ROWS = 2**14


def _cells(column: np.ndarray) -> List[str]:
    """The CSV cells of a column, written by its dtype."""
    kind, values = column.dtype.kind, column.tolist()
    if kind == "f":
        return list(map(repr, values))
    if kind == "b":
        return ["true" if v else "false" for v in values]
    if kind in "iu":
        return list(map(str, values))
    return ['"' + t.replace('"', '""') + '"' if "," in t or '"' in t or "\n" in t else t
            for t in map(str, values)]


@dataclass
class ResultTable:
    """A CSV table held as one array per column.  Floats are written by
    ``repr`` and must all be finite, bools as true/false, integers by
    ``str``, anything else as text, quoted where it holds , " or a newline."""

    header: List[str]
    columns: List[np.ndarray]
    metadata: Dict[str, object]

    def __post_init__(self) -> None:
        self.columns = [np.asarray(col) for col in self.columns]
        if len(self.columns) != len(self.header):
            raise ValueError("column count does not match header")
        if len({len(col) for col in self.columns}) > 1:
            raise ValueError("columns differ in length")
        for col in self.columns:
            if col.dtype.kind == "f" and not np.isfinite(col).all():
                bad = col[~np.isfinite(col)][0]
                raise NumericalAbortError(f"non-finite value {float(bad)!r} in output table")

    def to_csv(self) -> str:
        """The header line and every row, formatted CSV_BLOCK_ROWS rows at a time."""
        n_rows = len(self.columns[0]) if self.columns else 0
        blocks = [",".join(self.header) + "\n"]
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            cells = [_cells(col[start:start + CSV_BLOCK_ROWS]) for col in self.columns]
            blocks.append("\n".join(map(",".join, zip(*cells))) + "\n")
        return "".join(blocks)


def _config_digest(config: RunConfig) -> str:
    """SHA-256 of the whole normalized config; the output path is not part of it."""
    return hashlib.sha256(repr(replace(config, out=None)).encode()).hexdigest()


def _run_flow(config: RunConfig) -> ResultTable:
    # mixtures evolve componentwise; the columns then carry the mixture
    # expectations (kappa = |mixture z|^2 shows the interference beats)
    traj = mixture_flow(config.params, _initial_mixture(config), np.array(config.times))
    z = traj.z
    # rotor coordinates: the Cooper-field quadratures and the frequency
    return ResultTable(
        TRAJECTORY_HEADER.split(","),
        [traj.times, traj.d, traj.m, traj.w, z.real, z.imag, traj.kappa, traj.theta,
         traj.nu, z.real, z.imag, traj.nu],
        {"backend": "closed-form", "initial": "mixture" if config.mixture else "product"},
    )


def _run_simulate(config: RunConfig) -> ResultTable:
    n = config.sites[0]
    times = np.array(config.times)
    columns = fock.site_columns(
        dynamics.product_site_series(n, config.params, _initial_mixture(config), times)
    )
    return ResultTable(
        ["t", *fock.SITE_COLUMNS],
        [times, *(columns[name] for name in fock.SITE_COLUMNS)],
        {"backend": "closed-form", "sites": n},
    )


def _run_converge(config: RunConfig) -> ResultTable:
    mix = _initial_mixture(config)
    times = np.array(config.times)
    traj = mixture_flow(config.params, mix, times)
    flow_series = fock.site_columns((traj.d, traj.m, traj.w, traj.z))
    sites = sorted(set(config.sites))
    # one block of rows per N, observable-major inside it
    blocks = []
    for n in sites:
        series = fock.site_columns(dynamics.product_site_series(n, config.params, mix, times))
        blocks.extend(series[name] for name in fock.SITE_COLUMNS)
    finite = np.concatenate(blocks)
    flow = np.tile(np.concatenate([flow_series[name] for name in fock.SITE_COLUMNS]), len(sites))
    rows_per_n = len(fock.SITE_COLUMNS) * len(times)
    return ResultTable(
        ["N", "t", "observable", "finite", "flow", "deviation"],
        [
            np.repeat(np.array(sites, dtype=np.int64), rows_per_n),
            np.tile(times, len(sites) * len(fock.SITE_COLUMNS)),
            np.tile(np.repeat(fock.SITE_COLUMNS, len(times)), len(sites)),
            finite,
            flow,
            np.abs(finite - flow),
        ],
        {"backend": "closed-form"},
    )


def _run_gap(config: RunConfig) -> ResultTable:
    sol = equilibrium.gap_solve(config.params, config.beta)
    values = (sol.r_star, sol.condensate_density, sol.pressure_value,
              sol.superconducting, sol.indeterminate, sol.density_at_solution)
    return ResultTable(
        ["r_star", "condensate_density", "pressure", "superconducting",
         "indeterminate", "density"],
        [[v] for v in values],
        {"beta": config.beta},
    )


def _run_scan(config: RunConfig) -> ResultTable:
    grids = dict(config.scan) or {"gamma": tuple(float(g) for g in np.linspace(0.0, 8.0, 9))}
    names = sorted(grids)
    base = {
        "mu": config.params.mu, "h": config.params.h,
        "lambda": config.params.lam, "gamma": config.params.gamma,
        "beta": config.beta,
    }

    points: List[Tuple[float, ...]] = [()]
    for name in names:
        points = [p + (v,) for p in points for v in grids[name]]

    def solve(point: Tuple[float, ...]):
        vals = dict(base)
        vals.update(dict(zip(names, point)))
        params = model.ModelParams(
            mu=vals["mu"], h=vals["h"], lam=vals["lambda"], gamma=vals["gamma"]
        )
        sol = equilibrium.gap_solve(params, vals["beta"])
        return (
            vals["mu"], vals["h"], vals["lambda"], vals["gamma"], vals["beta"],
            sol.r_star, sol.density_at_solution, sol.superconducting, sol.indeterminate,
        )

    if config.threads > 1:
        with concurrent.futures.ThreadPoolExecutor(config.threads) as pool:
            rows = list(pool.map(solve, points))
    else:
        rows = [solve(p) for p in points]
    return ResultTable(
        ["mu", "h", "lambda", "gamma", "beta", "r_star", "density",
         "superconducting", "indeterminate"],
        list(zip(*rows)),
        {"grid": {k: list(v) for k, v in grids.items()}},
    )


def _run_liouville(config: RunConfig) -> ResultTable:
    rng = np.random.default_rng(config.seed)
    suite = classical.polynomial_suite()
    names = sorted(suite)
    times = np.array(config.times)
    fields = ("lhs", "rhs", "residual")
    blocks = []
    for k in range(config.n_states):
        rho0 = OnSiteState.random_even(rng)
        results = classical.liouville_residuals(config.params, suite, rho0, times)
        # rows by time, then by observable name
        blocks.append(
            [np.full(len(times) * len(names), k), np.repeat(times, len(names)),
             np.tile(names, len(times))]
            + [np.stack([getattr(results[n], f) for n in names], axis=1).ravel() for f in fields]
        )
    return ResultTable(
        ["state", "t", "observable", "lhs", "rhs", "residual"],
        [np.concatenate(col) for col in zip(*blocks)],
        {},
    )


def _run_rotor(config: RunConfig) -> ResultTable:
    rng = np.random.default_rng(config.seed)
    times = np.array(config.times)
    deviations = []
    for _ in range(config.n_states):
        rho0 = OnSiteState.random_even(rng)
        traj = flow_onsite(config.params, rho0, times)
        rotor = classical.rotor_flow(classical.rotor_map(config.params, rho0), times)
        via_flow = classical.rotor_map(config.params, traj.state_matrix(times))
        deviations.append(np.max(np.abs(via_flow.as_array() - rotor.as_array()), axis=-1))
    return ResultTable(
        ["state", "t", "deviation"],
        [np.repeat(np.arange(config.n_states, dtype=np.int64), len(times)),
         np.tile(times, config.n_states), np.concatenate(deviations)],
        {},
    )


def _run_verify(config: RunConfig) -> ResultTable:
    results = verification.run_all(config.seed)
    for r in results:
        print(r.line())
    fields = ("name", "passed", "max_violation", "threshold", "detail")
    return ResultTable(
        ["check", "passed", "violation", "threshold", "detail"],
        [[getattr(r, f) for r in results] for f in fields],
        {"all_passed": all(r.passed for r in results)},
    )


_DISPATCH = {
    "flow": _run_flow,
    "simulate": _run_simulate,
    "converge": _run_converge,
    "gap": _run_gap,
    "scan": _run_scan,
    "liouville": _run_liouville,
    "rotor": _run_rotor,
    "verify": _run_verify,
}


def run(config: RunConfig) -> ResultTable:
    """Execute a validated config and write its CSV + metadata sidecar."""
    table = _DISPATCH[config.command](config)
    table.metadata.update(
        {
            "version": __version__,
            "command": config.command,
            "seed": config.seed,
            "config_digest": _config_digest(config),
            "columns": list(table.header),
        }
    )
    out = config.out or f"{config.command}.csv"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table.to_csv())
    with open(out + ".meta.yaml", "w", encoding="utf-8", newline="\n") as fh:
        yaml.dump(table.metadata, fh, Dumper=_YAML_DUMPER, sort_keys=True)
    return table


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfbcs",
        description="Strong-coupling pairing model: dynamics, flow, gap equation.",
    )
    # optional here: parse_config takes it from the config or reports it missing
    parser.add_argument("command", nargs="?", choices=_COMMANDS)
    parser.add_argument("--config", help="YAML config path", default=None)
    parser.add_argument("--out", help="output CSV path", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error exits 1, as a config error does; 2 is capacity
        return 1 if exc.code == 2 else exc.code

    try:
        text = ""
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        overrides = {
            key: value
            for key, value in (("out", args.out), ("seed", args.seed), ("threads", args.threads))
            if value is not None
        }
        config = parse_config(text, command=args.command, overrides=overrides)
        table = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalAbortError, MfbcsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:  # e.g. an eigensolver fed couplings that overflow
        print(f"error: linear algebra failed: {exc}", file=sys.stderr)
        return 3
    if config.command == "verify" and not table.metadata.get("all_passed", False):
        return 4
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
