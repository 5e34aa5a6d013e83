"""Correctness gate: every CLI output is checked against independent oracles.

Cheap checks run on every invocation: exit code, expected header, expected
row count, the generated time grid, finite numeric values, and equality with
the first pass's output of the same command.  The oracle checks run once per
command, on the first pass's output, after the timed passes:

* exact dynamics (``converge``/``simulate``): dense ``scipy.linalg.expm`` of a
  Hamiltonian built here from the model's definition, applied to the same
  product state; pure pair states are also evolved in the invariant
  pair-occupation subspace (dimension 2^N), which reaches N = 6;
* mean-field columns: the paper's closed forms (d, m, w constant, z rotating
  rigidly at nu = 2(mu - lam) + gamma (1 - d)), and for mixtures
  ``flow.interference_prediction``;
* Liouville residuals and rotor deviations: the thresholds of the repo's own
  checks (1e-5 and 1e-6);
* ``verify``: exit code 0, ``all_passed`` in the sidecar, every row passed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import yaml

from workloads import Command

HEADERS = {
    "converge": ["N", "t", "observable", "finite", "flow", "deviation"],
    "simulate": ["t", "d", "m", "w", "z_re", "z_im"],
    "flow": ["t", "d", "m", "w", "z_re", "z_im", "kappa", "theta", "nu",
             "omega1", "omega2", "omega3"],
    "liouville": ["state", "t", "observable", "lhs", "rhs", "residual", "fd_error"],
    "rotor": ["state", "t", "deviation"],
    "verify": ["check", "passed", "violation", "threshold", "detail"],
}
_TEXT_COLUMNS = {"observable", "check", "passed", "detail"}

#: the column the self-test corrupts, per command
_CORRUPT_COLUMN = {
    "converge": "finite", "simulate": "z_re", "flow": "z_re",
    "liouville": "residual", "rotor": "deviation", "verify": "violation",
}

EXACT_TOL = 1e-8  # exact dynamics against the expm oracle
FLOW_TOL = 1e-6  # threshold of verification.check_cooper_field_law / interference
LIOUVILLE_TOL = 1e-5  # threshold of verification.check_liouville
ROTOR_TOL = 1e-6  # threshold of verification.check_rotor_diagram


@dataclass
class Output:
    """What one invocation left behind."""

    rc: Optional[int]
    error: str = ""
    csv: Optional[str] = None
    meta: Optional[dict] = None
    nbytes: int = 0


def read_output(rc: Optional[int], error: str, out_path: str) -> Output:
    try:
        with open(out_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(out_path + ".meta.yaml", "r", encoding="utf-8") as fh:
            meta_text = fh.read()
    except OSError as exc:
        return Output(rc, error or f"missing output: {exc}")
    return Output(rc, error, text, yaml.safe_load(meta_text),
                  len(text.encode()) + len(meta_text.encode()))


# --- cheap checks ---------------------------------------------------------


def _table(text: str) -> List[Dict[str, str]]:
    rows = list(csv.reader(io.StringIO(text)))
    return [dict(zip(rows[0], r)) for r in rows[1:]]


def structural(cmd: Command, out: Output) -> List[str]:
    if out.error:
        return [out.error]
    if out.rc != 0:
        return [f"exit code {out.rc}"]
    if out.csv is None:
        return ["no output"]
    header = out.csv.split("\n", 1)[0].split(",")
    if header != HEADERS[cmd.command]:
        return [f"header {header} != {HEADERS[cmd.command]}"]
    rows = _table(out.csv)
    problems = []
    if len(rows) != cmd.expected_rows:
        problems.append(f"{len(rows)} rows, expected {cmd.expected_rows}")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            problems.append(f"row {i} has {len(row)} fields")
            continue
        for key, value in row.items():
            if key in _TEXT_COLUMNS:
                continue
            try:
                number = float(value)
            except ValueError:
                problems.append(f"row {i} {key}={value!r} is not a number")
                continue
            if not math.isfinite(number):
                problems.append(f"row {i} {key}={value!r} is not finite")
    if "times" in cmd.config:
        start, step = cmd.config["times"]["start"], cmd.config["times"]["step"]
        grid = {start + k * step for k in range(_grid_size(cmd))}
        for i, row in enumerate(rows):
            if "t" in row and _float(row["t"]) not in grid:
                problems.append(f"row {i} t={row['t']} is off the generated grid")
                break
    return problems


def _grid_size(cmd: Command) -> int:
    spec = cmd.config["times"]
    return int(round((spec["stop"] - spec["start"]) / spec["step"] + 0.5))


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


# --- independent model and dynamics ---------------------------------------
# One-site basis (vacuum, up, down, up+down); the pair annihilator
# a_dn a_up maps a_up^+ a_dn^+ |vac> to |vac>, so its only entry is <0|P|3> = 1.
# Both terms of H are even, so the N-site operators are plain tensor products.


def _onsite_energies(p: Dict[str, float]) -> np.ndarray:
    mu, h, lam = p["mu"], p["h"], p["lambda"]
    return np.array([0.0, -mu - h, -mu + h, 2.0 * lam - 2.0 * mu])


def full_hamiltonian(n: int, p: Dict[str, float]) -> np.ndarray:
    eps = _onsite_energies(p)
    diag = np.zeros(1)
    pair = sp.csr_matrix(([1.0], ([0], [3])), shape=(4, 4))
    pair_sum = sp.csr_matrix((1, 1))
    for site in range(n):
        # sites 0..site-1 already placed; append one more tensor factor
        diag = np.add.outer(diag, eps).ravel()
        pair_sum = sp.kron(pair_sum, sp.identity(4)) + sp.kron(sp.identity(4**site), pair)
    pair_sum = pair_sum.toarray()
    return np.diag(diag).astype(complex) - (p["gamma"] / n) * (pair_sum.T @ pair_sum)


def pair_hamiltonian(n: int, p: Dict[str, float]) -> np.ndarray:
    """H restricted to the invariant span of {vac, up+down}^N (2^N states)."""
    eps = 2.0 * p["lambda"] - 2.0 * p["mu"]
    dim = 2**n
    h = np.zeros((dim, dim))
    for b in range(dim):
        occupied = [x for x in range(n) if b >> (n - 1 - x) & 1]
        h[b, b] = eps * len(occupied) - p["gamma"] / n * len(occupied)
        for y in occupied:
            for x in range(n):
                if not b >> (n - 1 - x) & 1:
                    h[b ^ (1 << (n - 1 - y)) | (1 << (n - 1 - x)), b] -= p["gamma"] / n
    return h.astype(complex)


def _site0_records(r: np.ndarray) -> Dict[str, float]:
    """d, m, w, z of a 4x4 site-0 reduced density in the basis above."""
    z = complex(r[3, 0])
    return {
        "d": float((r[1, 1] + r[2, 2] + 2.0 * r[3, 3]).real),
        "m": float((r[1, 1] - r[2, 2]).real),
        "w": float(r[3, 3].real),
        "z_re": z.real,
        "z_im": z.imag,
    }


def _reduced_pure(psi: np.ndarray, local: int) -> np.ndarray:
    mat = psi.reshape(local, -1)
    return mat @ mat.conj().T


def _reduced_mixed(dmat: np.ndarray) -> np.ndarray:
    rest = dmat.shape[0] // 4
    return np.einsum("ajbj->ab", dmat.reshape(4, rest, 4, rest))


def _pair_reduced_as_full(r2: np.ndarray) -> np.ndarray:
    r = np.zeros((4, 4), dtype=complex)
    r[np.ix_([0, 3], [0, 3])] = r2
    return r


def _product(factors: np.ndarray, n: int) -> np.ndarray:
    out = np.ones((1,) * factors.ndim, dtype=complex)
    for _ in range(n):
        out = np.kron(out, factors)
    return out


def _compare(label: str, got: float, want: float, tol: float, problems: List[str]) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{label}: {got!r} vs oracle {want!r} (tol {tol:g})")


# --- oracle checks per command --------------------------------------------


def _random_state(seed: int):
    # the config's state constructor; the oracles evolve the matrix independently
    from mfbcs.states import OnSiteState

    return OnSiteState.random_even(np.random.default_rng(seed))


def _closed_form_flow(rho0: np.ndarray, p: Dict[str, float], t: float) -> Dict[str, float]:
    rec = _site0_records(rho0)
    nu = 2.0 * (p["mu"] - p["lambda"]) + p["gamma"] * (1.0 - rec["d"])
    z = complex(rec["z_re"], rec["z_im"]) * np.exp(1j * nu * t)
    return {**rec, "z_re": z.real, "z_im": z.imag}


def _oracle_converge(cmd: Command, rows: List[Dict[str, str]]) -> List[str]:
    cfg = cmd.config
    rho0 = _random_state(cfg["initial"]["seed"]).matrix
    times = sorted({_float(r["t"]) for r in rows})
    problems: List[str] = []
    for n in cfg["sites"]:
        # every time point up to N=4; the last one at N=5 (one 1024^2 expm)
        sample = times if n < 5 else times[-1:]
        h = full_hamiltonian(n, cfg)
        d0 = _product(rho0, n)
        for t in sample:
            u = scipy.linalg.expm(-1j * t * h)
            want = _site0_records(_reduced_mixed(u @ d0 @ u.conj().T))
            flow = _closed_form_flow(rho0, cfg, t)
            for row in rows:
                if int(row["N"]) == n and _float(row["t"]) == t:
                    name = row["observable"]
                    finite, mf = _float(row["finite"]), _float(row["flow"])
                    _compare(f"N={n} t={t} {name} finite", finite, want[name],
                             EXACT_TOL, problems)
                    _compare(f"N={n} t={t} {name} flow", mf, flow[name], FLOW_TOL, problems)
                    _compare(f"N={n} t={t} {name} deviation", _float(row["deviation"]),
                             abs(finite - mf), 1e-12, problems)
    return problems


def _oracle_simulate(cmd: Command, rows: List[Dict[str, str]]) -> List[str]:
    cfg = cmd.config
    n = cfg["sites"][0]
    angle, phase = cfg["initial"]["angle"], cfg["initial"]["phase"]
    local = np.array([math.cos(angle), np.exp(1j * phase) * math.sin(angle)])
    psi2 = _product(local, n)
    h2 = pair_hamiltonian(n, cfg)
    problems: List[str] = []
    for row in rows:
        t = _float(row["t"])
        want = _site0_records(
            _pair_reduced_as_full(_reduced_pure(scipy.linalg.expm(-1j * t * h2) @ psi2, 2))
        )
        for name in ("d", "m", "w", "z_re", "z_im"):
            _compare(f"t={t} {name}", _float(row[name]), want[name], EXACT_TOL, problems)
    if n <= 5:
        # the full 4^N space as well, at the last time point
        full = np.zeros(4, dtype=complex)
        full[0], full[3] = local
        row = rows[-1]
        t = _float(row["t"])
        psi = scipy.linalg.expm(-1j * t * full_hamiltonian(n, cfg)) @ _product(full, n)
        want = _site0_records(_reduced_pure(psi, 4))
        for name in ("d", "m", "w", "z_re", "z_im"):
            _compare(f"full space t={t} {name}", _float(row[name]), want[name],
                     EXACT_TOL, problems)
    return problems


def _oracle_flow(cmd: Command, rows: List[Dict[str, str]]) -> List[str]:
    from mfbcs.flow import interference_prediction
    from mfbcs.model import ModelParams
    from mfbcs.states import ProductMixture

    cfg = cmd.config
    comps = [(c["weight"], _random_state(c["state"]["seed"])) for c in cfg["mixture"]]
    params = ModelParams(mu=cfg["mu"], h=cfg["h"], lam=cfg["lambda"], gamma=cfg["gamma"])
    mix = ProductMixture.from_components(comps)
    const = {
        k: sum(u * _site0_records(s.matrix)[k] for u, s in comps) for k in ("d", "m", "w")
    }
    nu = 2.0 * (cfg["mu"] - cfg["lambda"]) + cfg["gamma"] * (1.0 - const["d"])
    problems: List[str] = []
    for row in rows:
        t = _float(row["t"])
        z = complex(interference_prediction(params, mix, t))
        want = {**const, "z_re": z.real, "z_im": z.imag, "kappa": abs(z) ** 2,
                "nu": nu, "omega1": z.real, "omega2": z.imag, "omega3": nu}
        for name, value in want.items():
            _compare(f"t={t} {name}", _float(row[name]), value, FLOW_TOL, problems)
        if abs(z) > 1e-3:
            _compare(f"t={t} theta", abs(np.exp(1j * _float(row["theta"])) - z / abs(z)),
                     0.0, FLOW_TOL / abs(z), problems)
    return problems


def _oracle_liouville(cmd: Command, rows: List[Dict[str, str]]) -> List[str]:
    problems: List[str] = []
    for i, row in enumerate(rows):
        residual = _float(row["residual"])
        if not residual < LIOUVILLE_TOL:
            problems.append(f"row {i} residual {residual!r} >= {LIOUVILLE_TOL}")
        if not abs(_float(row["lhs"]) - _float(row["rhs"])) <= residual + 1e-12:
            problems.append(f"row {i} residual {residual!r} < |lhs - rhs|")
    return problems


def _oracle_rotor(cmd: Command, rows: List[Dict[str, str]]) -> List[str]:
    return [
        f"row {i} deviation {row['deviation']} >= {ROTOR_TOL}"
        for i, row in enumerate(rows)
        if not _float(row["deviation"]) < ROTOR_TOL
    ]


def _oracle_verify(cmd: Command, rows: List[Dict[str, str]], meta: Optional[dict]) -> List[str]:
    problems = []
    if not (meta or {}).get("all_passed"):
        problems.append("sidecar all_passed is not true")
    for row in rows:
        # the CSV writes a numpy bool as "True" (finite-volume-convergence);
        # the gate reads the value, the format quirk is a separate defect
        if row["passed"].lower() != "true":
            problems.append(f"check {row['check']} did not pass")
        if not _float(row["violation"]) <= _float(row["threshold"]):
            problems.append(f"check {row['check']} violation {row['violation']} "
                            f"> threshold {row['threshold']}")
    return problems


def oracle(cmd: Command, out: Output) -> List[str]:
    problems = structural(cmd, out)
    if problems:
        return problems
    rows = _table(out.csv)
    if cmd.command == "verify":
        return _oracle_verify(cmd, rows, out.meta)
    return {
        "converge": _oracle_converge,
        "simulate": _oracle_simulate,
        "flow": _oracle_flow,
        "liouville": _oracle_liouville,
        "rotor": _oracle_rotor,
    }[cmd.command](cmd, rows)


# --- tally ------------------------------------------------------------------


@dataclass
class Gate:
    """Counts attempted and failed invocations; oracles run in ``finish``."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    reference: Dict[str, Output] = field(default_factory=dict)
    _pending: List[tuple] = field(default_factory=list)

    def record(self, cmd: Command, out: Output) -> None:
        problems = structural(cmd, out)
        ref = self.reference.setdefault(cmd.label, out)
        if not problems and ref is not out and out.csv != ref.csv:
            problems = ["output differs from the first pass"]
        self.attempted += 1
        self._pending.append((cmd, problems))

    def finish(self) -> None:
        """Run the oracles on the first output of every command, then count."""
        verdicts = {}
        for cmd, _ in self._pending:
            if cmd.label not in verdicts:
                verdicts[cmd.label] = oracle(cmd, self.reference[cmd.label])
        for cmd, problems in self._pending:
            problems = problems or verdicts[cmd.label]
            if problems:
                self.failed += 1
                self.problems.append(f"{cmd.label}: " + "; ".join(problems[:3]))
        self._pending.clear()


def self_test(cmd: Command, reference: Output) -> Gate:
    """Gate one copy of ``reference`` with a single value corrupted.

    The returned gate must count that invocation as failed.
    """
    gate = Gate()
    if reference.csv is None:
        return gate  # nothing to corrupt; counts as a failed self-test
    rows = list(csv.reader(io.StringIO(reference.csv)))
    col = rows[0].index(_CORRUPT_COLUMN[cmd.command])
    value = float(rows[-1][col])
    rows[-1][col] = repr(value + 1e-3 + 1e-3 * abs(value))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    gate.record(cmd, Output(0, "", buf.getvalue(), reference.meta, reference.nbytes))
    gate.finish()
    return gate
