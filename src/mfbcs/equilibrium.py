"""Variational gap problem, approximating Gibbs states, equilibrium mixtures.

The infinite-volume pressure of the model is the supremum over a complex
order parameter c of

    f(c) = -gamma |c|**2 + p1(c),

where p1 is the one-site pressure of the pair-field-decoupled Hamiltonian.
f depends on c only through r = |c| (gauge invariance), and any maximizer
modulus r* is the square root of the Cooper-pair condensate density.  At a
maximizer the one-site Gibbs state reproduces the order parameter
(self-consistency), which pins r* to machine precision via root finding on
the stationarity residual after a coarse bracketing scan; the scan guards
against the competing local maxima of the first-order transition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from . import dynamics, fock, model
from .errors import NumericalAbortError
from .flow import observables
from .states import OnSiteState, ProductMixture


def pressure_onsite(
    params: model.ModelParams, beta: float, c: Union[complex, np.ndarray]
) -> Union[float, np.ndarray]:
    """Limit pressure of the decoupled Hamiltonian: one-site free energy.

    Because the decoupled Hamiltonian is a sum of shifts of one operator,
    this equals the finite-volume pressure at every site count; it depends
    on c only through |c|.  A scalar c gives a float, an array of c an
    array of the same shape.
    """
    # imported here, not at module level: scipy.special takes ~0.2 s to load
    from scipy.special import logsumexp

    if beta <= 0:
        raise ValueError("beta must be > 0")
    w = np.linalg.eigvalsh(model.decoupled_hamiltonian(params, c))
    p = logsumexp(-beta * w, axis=-1) / beta
    return float(p) if np.ndim(c) == 0 else p


def _pair_expectation_at(params: model.ModelParams, beta: float, r: float) -> float:
    state = approx_gibbs_onsite(params, beta, r)
    return float(state.pair_expectation().real)


@dataclass(frozen=True)
class GapSolverConfig:
    """Coarse-grid resolution and refinement settings for the gap search."""

    grid_points: int = 4097
    refine_tol: float = 1e-13
    superconducting_threshold: float = 1e-3

    def __post_init__(self) -> None:
        if self.grid_points < 3:
            raise ValueError("grid_points must be >= 3")
        if self.refine_tol <= 0:
            raise ValueError("refine_tol must be > 0")


@dataclass(frozen=True)
class GapSolution:
    """Maximizer data of the variational pressure problem."""

    r_star: float
    pressure_value: float  # sup value, the infinite-volume pressure
    superconducting: bool
    indeterminate: bool  # r_star within one grid cell of the threshold
    density_at_solution: float

    @property
    def condensate_density(self) -> float:
        return self.r_star**2


def gap_solve(
    params: model.ModelParams,
    beta: float,
    cfg: Optional[GapSolverConfig] = None,
) -> GapSolution:
    """Maximize f(r) = -gamma r**2 + pressure_onsite(r) over r in [0, 1].

    A dense grid scan brackets the global maximum (including both
    endpoints), then the stationarity condition

        omega_r(a_dn a_up) = r

    is solved exactly inside the bracket.  Degenerate flat maxima (gamma=0)
    tie-break to the smallest maximizer, keeping phase-boundary scans
    deterministic.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    cfg = cfg or GapSolverConfig()
    rs = np.linspace(0.0, 1.0, cfg.grid_points)
    f = -params.gamma * rs**2 + pressure_onsite(params, beta, rs)
    fmax = float(f.max())
    if not math.isfinite(fmax):
        raise NumericalAbortError(
            f"the variational pressure is not finite on the grid (max {fmax}); "
            "the couplings overflow"
        )
    tie_tol = 1e-12 * max(1.0, abs(fmax))
    candidates = np.nonzero(f >= fmax - tie_tol)[0]
    idx = int(candidates.min())  # smallest maximizer on ties
    r_star = float(rs[idx])

    if params.gamma > 0.0 and 0 < idx < len(rs) - 1:
        # strict interior maximum: refine on the stationarity residual
        def residual(r: float) -> float:
            return _pair_expectation_at(params, beta, r) - r

        lo, hi = rs[idx - 1], rs[idx + 1]
        if residual(lo) > 0.0 > residual(hi):
            # imported here, not at module level: scipy.optimize takes ~0.2 s to load
            from scipy.optimize import brentq

            r_star = float(brentq(residual, lo, hi, xtol=cfg.refine_tol))
    value = float(
        -params.gamma * r_star**2 + pressure_onsite(params, beta, r_star)
    )
    spacing = 1.0 / (cfg.grid_points - 1)
    threshold = cfg.superconducting_threshold
    state = approx_gibbs_onsite(params, beta, r_star)
    rec = observables(params, state)
    return GapSolution(
        r_star=r_star,
        pressure_value=value,
        superconducting=bool(r_star > threshold),
        indeterminate=bool(abs(r_star - threshold) < spacing),
        density_at_solution=rec.d,
    )


def approx_gibbs_onsite(
    params: model.ModelParams, beta: float, d: complex
) -> OnSiteState:
    """One-site Gibbs state of the decoupled Hamiltonian at order parameter d.

    Always even; its pair expectation carries the phase of d, and at a gap
    maximizer it reproduces d itself.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    w, u = np.linalg.eigh(model.decoupled_hamiltonian(params, d))
    weights = np.exp(-beta * (w - w.min()))
    weights /= weights.sum()
    return OnSiteState.from_matrix((u * weights) @ u.conj().T)


@dataclass(frozen=True)
class DensityCheckResult:
    applicable: bool
    lhs: float  # d at the gap solution
    rhs: float  # 1 + nu(d=1) / gamma = 1 + 2 (mu - lam) / gamma
    passed: Optional[bool]


def superconducting_density_check(
    params: model.ModelParams,
    beta: float,
    cfg: Optional[GapSolverConfig] = None,
    tol: float = 1e-6,
) -> DensityCheckResult:
    """In the superconducting phase the density is pinned to 1 + 2(mu-lam)/gamma.

    Reported as not applicable in the normal phase (r* below threshold).
    """
    if params.gamma == 0.0:
        raise ValueError("density identity needs gamma > 0")
    sol = gap_solve(params, beta, cfg)
    rhs = 1.0 + model.precession(params, 1.0) / params.gamma
    if not sol.superconducting:
        return DensityCheckResult(applicable=False, lhs=sol.density_at_solution, rhs=rhs, passed=None)
    lhs = sol.density_at_solution
    return DensityCheckResult(
        applicable=True, lhs=lhs, rhs=rhs, passed=bool(abs(lhs - rhs) < tol)
    )


def equilibrium_mixture(
    params: model.ModelParams,
    beta: float,
    n_phases: int,
    cfg: Optional[GapSolverConfig] = None,
) -> ProductMixture:
    """Uniform phase average of the gap-solution Gibbs branches.

    Approximates the continuous phase average by ``n_phases`` equal-weight
    branches at angles 2 pi k / n_phases.  As n_phases grows the mixture
    pair expectation vanishes while each branch keeps condensate density
    r***2; every branch is stationary under the mean-field flow.
    """
    if n_phases < 1:
        raise ValueError("n_phases must be >= 1")
    sol = gap_solve(params, beta, cfg)
    comps = []
    for k in range(n_phases):
        phase = np.exp(2j * math.pi * k / n_phases)
        comps.append(
            (1.0 / n_phases, approx_gibbs_onsite(params, beta, sol.r_star * phase))
        )
    return ProductMixture.from_components(comps)


@dataclass(frozen=True)
class PressureRow:
    n_sites: int
    pressure: float
    sup_value: float

    @property
    def gap(self) -> float:
        return abs(self.pressure - self.sup_value)


def variational_vs_finite_pressure(
    params: model.ModelParams,
    beta: float,
    n_max: int,
    cfg: Optional[GapSolverConfig] = None,
) -> List[PressureRow]:
    """Finite-volume pressures next to the variational sup, N = 1 .. n_max.

    The per-N gap shrinking toward zero is the desk-scale trace of the
    thermodynamic-limit pressure identity.
    """
    fock.check_site_count(n_max)
    sol = gap_solve(params, beta, cfg)
    spec = dynamics.GibbsSpec(beta=beta)
    rows = []
    for n in range(1, n_max + 1):
        rows.append(
            PressureRow(
                n_sites=n,
                pressure=dynamics.pressure_fv(n, params, spec),
                sup_value=sol.pressure_value,
            )
        )
    return rows
