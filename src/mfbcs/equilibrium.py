"""Variational gap problem, approximating Gibbs states, equilibrium mixtures.

The infinite-volume pressure of the model is the supremum over a complex
order parameter c of

    f(c) = -gamma |c|**2 + p1(c),

where p1 is the one-site pressure of the pair-field-decoupled Hamiltonian.
f depends on c only through r = |c| (gauge invariance), and any maximizer
modulus r* is the square root of the Cooper-pair condensate density.

On the pair sector {|0>, |up dn>} the decoupled operator is
[[0, -gamma cbar], [-gamma c, 2 eps]] with eps = lam - mu, so with
E_r = hypot(eps, gamma r)

    p1(r) = beta^{-1} ln[e^{beta(mu+h)} + e^{beta(mu-h)} + 2 e^{-beta eps} cosh(beta E_r)],
    omega_r(a_dn a_up) - r = r [gamma e^{-beta eps} sinh(beta E_r) / (E_r Z_r) - 1],

Z_r the bracket in p1: the strong-coupling BCS gap equation (Bru and de
Siqueira Pedra, Rev. Math. Phys. 22, 233 (2010)).  Both are evaluated in
log form and broadcast over arrays of r.  A maximizer satisfies the gap
equation (self-consistency); :func:`gap_solve` brackets the global maximum
on a grid, which guards against the competing local maxima of the
first-order transition, and bisects the stationarity residual inside the
bracket to the spacing of doubles.  No scipy is loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Union

import numpy as np

from . import dynamics, fock, model
from .errors import NumericalAbortError
from .states import OnSiteState, ProductMixture


class _PairSector(NamedTuple):
    """Closed-form one-site thermodynamics at order-parameter moduli r.

    The levels are -mu -+ h (singly occupied) and eps -+ E_r (pair sector),
    giving Z_r of the module docstring.  Every exponential is taken of a
    non-positive argument, with ln(2 cosh x) = x + log1p(e^{-2x}), so
    overflowing couplings give inf or nan, never an exception.
    """

    gamma_beta: float
    beta_eps: float
    x: np.ndarray  # beta E_r
    log_single: float  # ln(e^{beta(mu+h)} + e^{beta(mu-h)})
    log_pair: np.ndarray  # ln(2 e^{-beta eps} cosh(beta E_r))
    log_z: np.ndarray  # ln Z_r

    @classmethod
    def at(cls, params: model.ModelParams, beta: float, r: np.ndarray) -> "_PairSector":
        beta_eps = beta * (params.lam - params.mu)
        x = np.hypot(beta_eps, beta * params.gamma * np.asarray(r, dtype=float))
        log_single = np.logaddexp(beta * (params.mu + params.h), beta * (params.mu - params.h))
        log_pair = x - beta_eps + np.log1p(np.exp(-2.0 * x))
        log_z = np.logaddexp(log_single, log_pair)
        return cls(params.gamma * beta, beta_eps, x, log_single, log_pair, log_z)

    @property
    def gap(self) -> np.ndarray:
        """gamma e^{-beta eps} sinh(beta E_r) / (E_r Z_r): omega_r(a_dn a_up) / r.

        sinh(x) / E_r = beta e^x q(x) with q(x) = -expm1(-2x) / (2x), q(0) = 1.
        """
        x = self.x
        q = np.divide(-np.expm1(-2.0 * x), 2.0 * x, out=np.ones_like(x), where=x > 0.0)
        return self.gamma_beta * q * np.exp(x - self.beta_eps - self.log_z)

    @property
    def density(self) -> np.ndarray:
        """omega_r(n_up + n_dn) = P_single + P_pair (1 - (eps / E_r) tanh(beta E_r))."""
        x = self.x
        # eps = 0 wherever E_r = 0
        ratio = np.divide(self.beta_eps, x, out=np.zeros_like(x), where=x > 0.0)
        return np.exp(self.log_single - self.log_z) + np.exp(self.log_pair - self.log_z) * (
            1.0 - ratio * np.tanh(x)
        )


def pressure_onsite(
    params: model.ModelParams, beta: float, c: Union[complex, np.ndarray]
) -> Union[float, np.ndarray]:
    """Limit pressure of the decoupled Hamiltonian: one-site free energy.

    p1(c) = beta^{-1} ln Z_|c| in closed form (:class:`_PairSector`).
    Because the decoupled Hamiltonian is a sum of shifts of one operator,
    this equals the finite-volume pressure at every site count; it depends
    on c only through |c|.  A scalar c gives a float, an array of c an
    array of the same shape.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    p = _PairSector.at(params, beta, np.abs(c)).log_z / beta
    return float(p) if np.ndim(c) == 0 else p


#: Points of the coarse grid on r in [0, 1] that brackets the global maximum.
GRID_POINTS = 4097
#: r* above it is superconducting; within one grid cell of it, indeterminate.
SUPERCONDUCTING_THRESHOLD = 1e-3
#: Bisection steps of the gap-equation refinement: they shrink the bracket of
#: two grid cells (5e-4 wide) by 2**-60, to 4e-22, below the spacing of
#: doubles wherever r* > 2e-6.
BISECTION_STEPS = 60


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


def gap_solve(params: model.ModelParams, beta: float) -> GapSolution:
    """Maximize f(r) = -gamma r**2 + pressure_onsite(r) over r in [0, 1].

    A dense grid scan brackets the global maximum (including both
    endpoints), then the stationarity condition

        omega_r(a_dn a_up) - r = r [gamma e^{-beta eps} sinh(beta E_r) / (E_r Z_r) - 1] = 0

    is solved inside the bracket by BISECTION_STEPS bisection steps.
    Degenerate flat maxima (gamma=0) tie-break to the smallest maximizer,
    keeping phase-boundary scans deterministic.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    # the levels of the decoupled operator, -mu -+ h and eps -+ E_r for r <= 1
    eps = params.lam - params.mu
    top = max(abs(params.mu) + abs(params.h), abs(eps) + math.hypot(eps, params.gamma))
    if not math.isfinite(top):
        raise NumericalAbortError(
            "the one-site levels overflow: |mu| + |h| or |eps| + hypot(eps, gamma) is inf"
        )
    rs = np.linspace(0.0, 1.0, GRID_POINTS)
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

    def residual(r: float) -> float:
        return r * (float(_PairSector.at(params, beta, r).gap) - 1.0)

    if params.gamma > 0.0 and 0 < idx < len(rs) - 1:
        # strict interior maximum: refine on the stationarity residual
        lo, hi = float(rs[idx - 1]), float(rs[idx + 1])
        if residual(lo) > 0.0 > residual(hi):
            for _ in range(BISECTION_STEPS):
                mid = 0.5 * (lo + hi)
                if residual(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            r_star = 0.5 * (lo + hi)
    at_star = _PairSector.at(params, beta, r_star)
    return GapSolution(
        r_star=r_star,
        pressure_value=float(-params.gamma * r_star**2 + at_star.log_z / beta),
        superconducting=bool(r_star > SUPERCONDUCTING_THRESHOLD),
        indeterminate=bool(abs(r_star - SUPERCONDUCTING_THRESHOLD) < rs[1]),  # a grid cell
        density_at_solution=float(at_star.density),
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


def superconducting_density_check(params: model.ModelParams, beta: float) -> DensityCheckResult:
    """In the superconducting phase the density is pinned to 1 + 2(mu-lam)/gamma.

    Reported as not applicable in the normal phase (r* below threshold);
    the caller compares ``lhs`` with ``rhs``.
    """
    if params.gamma == 0.0:
        raise ValueError("density identity needs gamma > 0")
    sol = gap_solve(params, beta)
    rhs = 1.0 + model.precession(params, 1.0) / params.gamma
    return DensityCheckResult(sol.superconducting, sol.density_at_solution, rhs)


def equilibrium_mixture(
    params: model.ModelParams,
    beta: float,
    n_phases: int,
) -> ProductMixture:
    """Uniform phase average of the gap-solution Gibbs branches.

    Approximates the continuous phase average by ``n_phases`` equal-weight
    branches at angles 2 pi k / n_phases.  As n_phases grows the mixture
    pair expectation vanishes while each branch keeps condensate density
    r***2; every branch is stationary under the mean-field flow.
    """
    if n_phases < 1:
        raise ValueError("n_phases must be >= 1")
    sol = gap_solve(params, beta)
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
) -> List[PressureRow]:
    """Finite-volume pressures next to the variational sup, N = 1 .. n_max.

    The per-N gap shrinking toward zero is the desk-scale trace of the
    thermodynamic-limit pressure identity.
    """
    fock.check_site_count(n_max)
    sol = gap_solve(params, beta)
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
