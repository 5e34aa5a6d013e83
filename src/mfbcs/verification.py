"""Property suites behind ``mfbcs verify`` and the acceptance tests.

Each check returns a :class:`CheckResult` with the worst observed violation
and its threshold; the CLI prints one line per check and the acceptance
test module asserts each one.  Checks are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import classical, dynamics, equilibrium, fock, model
from .flow import (
    OracleSolution,
    Trajectory,
    dyson_phillips,
    flow_ode,
    flow_onsite,
    heisenberg_propagator_ode,
    interference_prediction,
    mixture_flow,
    observables,
)
from .states import OnSiteState, ProductMixture

#: Oracle-pinned maximizer of the gap problem at beta=1, gamma=8, mu=h=lam=0
#: (root of r = tanh(4 r)/2, found by bisection to machine precision).
GAP_RSTAR_GAMMA8 = 0.47875201203863437

#: Oracle-pinned peak-to-trough of the designated two-component beat example
#: (equal weights, kappa_j = 1/8, opposite frequencies: swing = kappa = 1/8).
BEAT_PEAK_TO_TROUGH = 0.125

#: Largest distance finite-volume-convergence allows between the closed-form
#: site series and the dense spectral oracle (N = 2..4, t = 1).
CLOSED_FORM_TOL = 1e-12

#: Largest residual liouville-residuals allows, far inside its 1e-5
#: threshold: both sides are exact, from the tangent of the phase map.
LIOUVILLE_EXACT_TOL = 1e-12

#: Largest relative distance pressure-identity-trend allows between the
#: pressure from the sector spectrum and from a full eigvalsh (N = 1..4).
SECTOR_PRESSURE_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_violation: float
    threshold: float
    runtime_s: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"[{status}] {self.name}: violation {self.max_violation:.3e} "
            f"(threshold {self.threshold:.1e}, {self.runtime_s * 1e3:.1f} ms)"
        )
        if self.detail:
            out += f" | {self.detail}"
        return out


def _timed(fn: Callable[[], Tuple[bool, float, float, str]], name: str) -> CheckResult:
    t0 = time.perf_counter()
    passed, violation, threshold, detail = fn()
    return CheckResult(
        name=name,
        passed=passed,
        max_violation=violation,
        threshold=threshold,
        runtime_s=time.perf_counter() - t0,
        detail=detail,
    )


# --- 1. CAR exactness ------------------------------------------------------


def check_car_exactness(seed: int = 0) -> CheckResult:
    def body():
        worst = 0.0
        for n in range(1, 6):
            worst = max(worst, fock.car_report(fock.FermionOperatorSet.build(n)))
        return worst == 0.0, worst, 0.0, "N = 1..5, integer construction"

    return _timed(body, "car-exactness")


# --- 2/3/10. Prop-1 suite (shared flows) -----------------------------------


@lru_cache(maxsize=4)
def _prop1_suite(seed: int) -> Tuple[Tuple[model.ModelParams, OnSiteState, Trajectory], ...]:
    """Closed-form trajectories of 50 seeded states on t in [0, 10]."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 10.0, 41)
    draws = [(model.ModelParams.random(rng), OnSiteState.random_even(rng)) for _ in range(50)]
    return tuple((params, rho0, flow_onsite(params, rho0, times)) for params, rho0 in draws)


@lru_cache(maxsize=4)
def _prop1_oracle(seed: int) -> OracleSolution:
    """The Taylor oracle's (50, 41, 4, 4) stack of the Prop-1 suite, one solve."""
    suite = _prop1_suite(seed)
    params, seeds = zip(*((p, r.matrix) for p, r, _ in suite))
    return flow_ode(params, np.array(seeds), suite[0][2].times)


def check_conserved_densities(seed: int = 0) -> CheckResult:
    # the model's generator on the flow's states leaves d, m, w still: tr([dh, D] A) = 0
    densities = np.array([fock.SITE_OBSERVABLES[name] for name in "dmw"])

    def body():
        drift = rate = 0.0
        for params, _rho0, traj in _prop1_suite(seed):
            drift = max(drift, float(sum(abs(c - c[0]) for c in (traj.d, traj.m, traj.w)).max()))
            states = traj.state_matrix(traj.times)
            flux = model.hermitian_commutator(model.effective_hamiltonian(params, states), states)
            rate = max(rate, float(np.abs(np.einsum("tij,aji->ta", flux, densities)).max()))
        detail = (
            f"50 states, t in [0, 10]; generator rate of d, m, w {rate:.2e}, "
            f"column drift {drift:.1e} (the seed's columns by construction)"
        )
        return max(drift, rate) < 1e-8, max(drift, rate), 1e-8, detail

    return _timed(body, "density-conservation")


def check_cooper_field_law(seed: int = 0) -> CheckResult:
    def body():
        suite = _prop1_suite(seed)
        worst_z = worst_kappa = 0.0
        for params, rho0, traj in suite:
            rec0 = observables(params, rho0)
            predicted = math.sqrt(rec0.kappa) * np.exp(1j * (traj.times * rec0.nu + rec0.theta))
            worst_z = max(worst_z, float(np.max(np.abs(traj.z - predicted))))
            worst_kappa = max(worst_kappa, float(np.max(np.abs(traj.kappa - rec0.kappa))))
        ode = _prop1_oracle(seed)
        matrices = np.array([traj.state_matrix(traj.times) for _, _, traj in suite])
        worst_ode = float(np.max(np.abs(matrices - ode.value)))
        passed = worst_z < 1e-6 and worst_kappa < 1e-8 and worst_ode <= 1e-9
        detail = (
            f"kappa drift {worst_kappa:.2e} (limit 1e-8), "
            f"closed form vs Taylor oracle {worst_ode:.2e} (limit 1e-9), "
            f"oracle truncation {ode.truncation:.1e} at order <= {ode.order}"
        )
        return passed, worst_z, 1e-6, detail

    return _timed(body, "cooper-field-rotation")


def check_rotor_diagram(seed: int = 0) -> CheckResult:
    def body():
        worst = np.zeros(2)
        for (params, rho0, traj), ode in zip(_prop1_suite(seed), _prop1_oracle(seed).value):
            rotor = classical.rotor_flow(classical.rotor_map(params, rho0), traj.times).as_array()
            # the flow is the phase law of rotor_flow itself; the Taylor oracle is independent
            via = classical.rotor_map(params, np.array([traj.state_matrix(traj.times), ode]))
            worst = np.maximum(worst, np.abs(via.as_array() - rotor).max(axis=(1, 2)))
        detail = f"rotor_map o flow = rotor_flow o rotor_map; Taylor oracle {worst[1]:.2e}"
        return worst.max() < 1e-6, float(worst.max()), 1e-6, detail

    return _timed(body, "rotor-commuting-diagram")


# --- 4. Interference --------------------------------------------------------


def _beat_example() -> Tuple[model.ModelParams, ProductMixture, float]:
    """Two equal-weight branches with kappa = 1/8 and opposite frequencies."""
    params = model.ModelParams(mu=0.0, h=0.0, lam=0.0, gamma=2.0)
    mix = ProductMixture.from_components(
        [
            (0.5, OnSiteState.pair_superposition(math.pi / 8.0)),
            (0.5, OnSiteState.pair_superposition(3.0 * math.pi / 8.0)),
        ]
    )
    nu1 = observables(params, mix.states[0]).nu
    nu2 = observables(params, mix.states[1]).nu
    beat_period = 2.0 * math.pi / abs(nu1 - nu2)
    return params, mix, beat_period


def check_interference(seed: int = 0) -> CheckResult:
    def body():
        rng = np.random.default_rng(seed + 4)
        times = np.linspace(0.0, 3.0, 31)
        worst = 0.0
        for _ in range(20):
            params = model.ModelParams.random(rng)
            n_comp = int(rng.integers(2, 5))
            weights = rng.dirichlet(np.ones(n_comp))
            comps = [
                (float(u), OnSiteState.random_even(rng)) for u in weights
            ]
            mix = ProductMixture.from_components(comps)
            result = mixture_flow(params, mix, times)
            predicted = interference_prediction(params, mix, times)
            worst = max(worst, float(np.max(np.abs(result.z - predicted))))

        params, mix, period = _beat_example()
        times = np.linspace(0.0, period, 201)
        result = mixture_flow(params, mix, times)
        swing = float(result.kappa.max() - result.kappa.min())
        beat_ok = swing > 0.1 and abs(swing - BEAT_PEAK_TO_TROUGH) < 1e-3
        detail = f"beat swing {swing:.4f} (pinned {BEAT_PEAK_TO_TROUGH})"
        return (worst < 1e-6 and beat_ok), worst, 1e-6, detail

    return _timed(body, "mixture-interference")


# --- 5. Finite-volume convergence -------------------------------------------


def convergence_table(
    params: model.ModelParams,
    rho0: OnSiteState,
    t: float,
    site_counts: Sequence[int],
) -> Dict[int, float]:
    """Max deviation between exact N-site and mean-field expectations at t.

    The observable set is the standard one: total density, magnetization,
    double occupancy, and both pair-field quadratures, all on one site.  The
    exact side is the closed-form :func:`dynamics.product_site_series`.
    """
    traj = flow_onsite(params, rho0, [t])
    targets = fock.site_columns((traj.d, traj.m, traj.w, traj.z))
    out: Dict[int, float] = {}
    for n in site_counts:
        finite = fock.site_columns(dynamics.product_site_series(n, params, rho0, [t]))
        out[n] = max(
            abs(float(finite[c][0]) - float(targets[c][0])) for c in fock.SITE_COLUMNS
        )
    return out


def check_fv_convergence(seed: int = 0) -> CheckResult:
    def body():
        params = model.ModelParams(mu=0.0, h=0.0, lam=0.0, gamma=2.0)
        rho0 = OnSiteState.pair_superposition(math.pi / 6.0)
        table = convergence_table(params, rho0, 1.0, [2, 3, 4, 5])
        ratio = table[2] / table[5]
        # the closed form against the dense spectral oracle where both run cheaply
        oracle_gap = 0.0
        for n in (2, 3, 4):
            dense = dynamics.evolve_expectation(
                n, params, dynamics.product_state(n, rho0), fock.SITE_OBSERVABLES.values(), [1.0]
            )
            closed = dynamics.product_site_series(n, params, rho0, [1.0])
            oracle_gap = max(oracle_gap, float(np.max(np.abs(closed - dense))))
        detail = ", ".join(f"N={n}: {v:.4f}" for n, v in sorted(table.items()))
        # the row carries the condition that failed: how far the ratio falls
        # short of 2, or else the closed form's distance from dense
        if ratio >= 2.0 and oracle_gap > CLOSED_FORM_TOL:
            violation, threshold = oracle_gap, CLOSED_FORM_TOL
        else:
            violation, threshold = max(0.0, 2.0 - ratio), 0.0
        passed = ratio >= 2.0 and oracle_gap <= CLOSED_FORM_TOL
        return passed, violation, threshold, (
            f"ratio {ratio:.2f} | {detail} | closed form vs dense N=2..4: {oracle_gap:.1e}"
        )

    return _timed(body, "finite-volume-convergence")


# --- 6. Gap equation ---------------------------------------------------------


def check_gap_equation(seed: int = 0) -> CheckResult:
    def body():
        normal = equilibrium.gap_solve(model.ModelParams(gamma=2.0), beta=1.0)
        strong = equilibrium.gap_solve(model.ModelParams(gamma=8.0), beta=1.0)
        v_normal = abs(normal.r_star)
        v_strong = abs(strong.r_star - GAP_RSTAR_GAMMA8)
        worst_density = 0.0
        checked = 0
        for dml in np.linspace(-0.5, 0.5, 5):
            for gamma in np.linspace(4.0, 12.0, 5):
                params = model.ModelParams(mu=float(dml), gamma=float(gamma))
                res = equilibrium.superconducting_density_check(params, beta=1.0)
                if res.applicable:
                    checked += 1
                    worst_density = max(worst_density, abs(res.lhs - res.rhs))
        passed = v_normal == 0.0 and v_strong < 1e-4 and worst_density < 1e-6
        detail = (
            f"r*(gamma=8) = {strong.r_star:.10f}, density identity on "
            f"{checked}/25 superconducting grid points, worst {worst_density:.2e}"
        )
        return passed, v_strong, 1e-4, detail

    return _timed(body, "gap-equation")


# --- 7. Pressure identity trend ----------------------------------------------


def check_pressure_trend(seed: int = 0) -> CheckResult:
    def body():
        params, beta = model.ModelParams(gamma=8.0), 1.0
        rows = equilibrium.variational_vs_finite_pressure(params, beta=beta, n_max=5)
        gaps = {r.n_sites: r.gap for r in rows}
        # the sector pressure against one eigvalsh of the whole 4**N matrix
        sector_gap = 0.0
        for r in rows[:4]:
            w = np.linalg.eigvalsh(model.hamiltonian(r.n_sites, params))
            dense = np.logaddexp.reduce(-beta * w) / (beta * r.n_sites)
            sector_gap = max(sector_gap, abs(r.pressure - dense) / max(1.0, abs(r.pressure)))
        detail = "; ".join(
            f"N={r.n_sites}: p={r.pressure:.6f} gap={r.gap:.4f}" for r in rows
        )
        trend, agree = gaps[5] < gaps[1], sector_gap <= SECTOR_PRESSURE_TOL
        # the row carries the condition that failed, as finite-volume-convergence does
        violation, threshold = (
            (gaps[5], gaps[1]) if agree or not trend else (sector_gap, SECTOR_PRESSURE_TOL)
        )
        return trend and agree, violation, threshold, (
            f"{detail} | sectors vs dense eigvalsh N=1..4: {sector_gap:.1e}"
        )

    return _timed(body, "pressure-identity-trend")


# --- 8. Liouville residuals ---------------------------------------------------


def check_liouville(seed: int = 0) -> CheckResult:
    def body():
        rng = np.random.default_rng(seed + 8)
        suite = classical.polynomial_suite()
        worst = 0.0
        times = np.array([0.0, 0.5, 1.0])
        for _ in range(20):
            params = model.ModelParams.random(rng)
            rho0 = OnSiteState.random_even(rng)
            results = classical.liouville_residuals(params, suite, rho0, times)
            worst = max(worst, *(float(r.residual.max()) for r in results.values()))
        detail = (
            "6 observables x 20 states x 3 times, exact tangent "
            f"(limit {LIOUVILLE_EXACT_TOL:.0e})"
        )
        return worst <= LIOUVILLE_EXACT_TOL, worst, 1e-5, detail

    return _timed(body, "liouville-residuals")


# --- 9. Poisson algebra --------------------------------------------------------


def _random_monomials(rng: np.random.Generator, n_ops: int) -> Tuple[classical.Monomial, ...]:
    monos = []
    for _ in range(int(rng.integers(1, 4))):
        degree = int(rng.integers(0, 4))
        idx = tuple(rng.integers(0, n_ops, size=degree).tolist())
        monos.append((complex(rng.normal()), idx))
    return tuple(monos)


def check_poisson_algebra(seed: int = 0) -> CheckResult:
    """Antisymmetry, Leibniz rule and Jacobi identity of the bracket on 100
    seeded states, each with three random polynomials f, g, h.

    The draws (a state, then f, g and h) are evaluated as one (100, 4, 4)
    stack of states against three stacks of 100 polynomials.  In the Jacobi
    sum the inner bracket {b, c} is itself a function on states, whose
    convex derivative comes from exact differentiation of the bracket
    expression through the product rule on polynomials: the bracket is a
    polynomial in the expectations of the operators and of their brackets
    (:func:`classical.bracket_polynomial`).  That polynomial's value must
    also equal the direct bracket, within 1e-10.
    """

    def body():
        rng = np.random.default_rng(seed + 9)
        ops = (
            classical.PAIR_X,
            classical.PAIR_Y,
            (fock.N_UP + fock.N_DN).astype(complex),
            (fock.N_UP @ fock.N_DN).astype(complex),
        )
        states, draws = [], []
        for _ in range(100):
            states.append(OnSiteState.random_even(rng).matrix)
            draws.append([_random_monomials(rng, len(ops)) for _ in range(3)])
        rho = np.array(states)
        f, g, h = (classical.PolynomialFunction.stack(ops, column) for column in zip(*draws))
        bracket = classical.poisson_bracket
        fg = bracket(f, g, rho)
        anti = np.abs(fg + bracket(g, f, rho)).max()
        rhs = fg * h(rho) + g(rho) * bracket(f, h, rho)
        leibniz = np.abs(bracket(f, g * h, rho) - rhs).max()
        inner = [classical.bracket_polynomial(b, c) for b, c in ((g, h), (h, f), (f, g))]
        jacobi = np.abs(sum(bracket(a, bc, rho) for a, bc in zip((f, g, h), inner))).max()
        # the Jacobi sum is blind to a scale of the inner brackets, so {f, g}
        # as a polynomial must also equal the direct bracket
        closure = np.abs(inner[2](rho) - fg).max()
        worst_anti, worst_leibniz, worst_jacobi, worst_closure = map(
            float, (anti, leibniz, jacobi, closure)
        )
        passed = (
            worst_anti == 0.0
            and worst_leibniz < 1e-10
            and worst_jacobi < 1e-9
            and worst_closure < 1e-10
        )
        detail = (
            f"antisym {worst_anti:.1e}, leibniz {worst_leibniz:.2e}, "
            f"jacobi {worst_jacobi:.2e}, bracket polynomial {worst_closure:.2e}"
        )
        return passed, max(worst_leibniz, worst_jacobi, worst_closure), 1e-9, detail

    return _timed(body, "poisson-algebra")


# --- 11. Equilibrium stationarity ---------------------------------------------


def check_equilibrium_stationarity(seed: int = 0) -> CheckResult:
    def body():
        params = model.ModelParams(gamma=8.0)
        times = np.linspace(0.0, 10.0, 21)
        drifts = {}
        for n_phases in (8, 16):
            mix = equilibrium.equilibrium_mixture(params, beta=1.0, n_phases=n_phases)
            result = mixture_flow(params, mix, times)
            drift = 0.0
            for arr in (result.d, result.m, result.w):
                drift = max(drift, float(np.max(np.abs(arr - arr[0]))))
            drift = max(drift, float(np.max(np.abs(result.z - result.z[0]))))
            for traj in result.components:
                drift = max(drift, float(np.max(np.abs(traj.kappa - traj.kappa[0]))))
            drifts[n_phases] = drift
        refinement = abs(drifts[8] - drifts[16])
        passed = drifts[8] < 1e-8 and refinement < 1e-8
        detail = f"drift(8 phases) {drifts[8]:.2e}, refinement change {refinement:.2e}"
        return passed, drifts[8], 1e-8, detail

    return _timed(body, "equilibrium-stationarity")


# --- 12. Dyson series cross-check ----------------------------------------------


def check_dyson(seed: int = 0) -> CheckResult:
    def body():
        rng = np.random.default_rng(seed + 12)
        t = 0.1
        worst = remainder = quad_err = truncation = 0.0
        for _ in range(10):
            params = model.ModelParams.random(rng)
            rho0 = OnSiteState.random_even(rng)
            drive = flow_onsite(params, rho0, [0.0, t]).state_matrix
            # the oracle integrates the flow itself from rho0, not the closed form
            t_prop = heisenberg_propagator_ode(params, rho0, t)
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = a + a.conj().T
            series = dyson_phillips(params, drive, t, order=8, a_op=a)
            reference = (t_prop.value @ a.ravel()).reshape(4, 4)
            worst = max(worst, float(np.max(np.abs(series.operator - reference))))
            remainder = max(remainder, series.remainder_bound)
            quad_err = max(quad_err, series.quadrature_error)
            truncation = max(truncation, t_prop.truncation)
        detail = (
            f"order 8, t = 0.1, 10 seeded drives; worst remainder bound {remainder:.2e}, "
            f"worst quadrature error {quad_err:.2e}, "
            f"Taylor propagator truncation {truncation:.1e}"
        )
        return worst < 1e-8, worst, 1e-8, detail

    return _timed(body, "dyson-series")


# --- 13. Energy bound ------------------------------------------------------------


def check_energy_bound(seed: int = 0) -> CheckResult:
    """||H_N|| <= C N (||h0|| + 4 C gamma) with C = pi**2/3 - 1, at N = 1..4."""

    def body():
        rng = np.random.default_rng(seed + 13)
        worst_margin = -np.inf
        for _ in range(10):
            params = model.ModelParams.random(rng, gamma_max=3.0)
            for n in range(1, 5):
                res = model.energy_bound_check(n, params)
                if not res.passed:
                    return False, res.lhs - res.rhs, 0.0, f"failed at N={n}, {params}"
                worst_margin = max(worst_margin, res.lhs - res.rhs)
        detail = f"largest lhs - rhs = {worst_margin:.3f} (negative means slack)"
        return True, max(0.0, worst_margin), 0.0, detail

    return _timed(body, "energy-bound")


ALL_CHECKS: Tuple[Tuple[str, Callable[[int], CheckResult]], ...] = (
    ("car-exactness", check_car_exactness),
    ("density-conservation", check_conserved_densities),
    ("cooper-field-rotation", check_cooper_field_law),
    ("mixture-interference", check_interference),
    ("finite-volume-convergence", check_fv_convergence),
    ("gap-equation", check_gap_equation),
    ("pressure-identity-trend", check_pressure_trend),
    ("liouville-residuals", check_liouville),
    ("poisson-algebra", check_poisson_algebra),
    ("rotor-commuting-diagram", check_rotor_diagram),
    ("equilibrium-stationarity", check_equilibrium_stationarity),
    ("dyson-series", check_dyson),
    ("energy-bound", check_energy_bound),
)


def run_all(seed: int = 0) -> List[CheckResult]:
    return [fn(seed) for _name, fn in ALL_CHECKS]
