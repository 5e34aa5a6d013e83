"""Self-consistent mean-field flow of on-site states.

The infinite-volume time evolution of a product state is carried entirely
by one 4x4 density matrix D_t solving the nonlinear von Neumann equation

    dD_t/dt = -i [dh(rho_t), D_t],     rho_t(A) = Trace(D_t A),

where dh is the state-dependent one-site generator
(:func:`mfbcs.model.effective_hamiltonian`).  The generator is evaluated on
the solution itself, which is the self-consistency at the heart of the
mean-field limit.

The equation is solved in closed form (:class:`ClosedFormFlow`).  The
Cooper field rotates rigidly at nu = 2(mu - lam) + gamma (1 - d), so in the
frame rotating with N = n_up + n_dn the generator is frozen and the flow is
linear:

    D_t = e^{i nu t N/2} e^{-itK} D_0 e^{itK} e^{-i nu t N/2},
    K = dh(rho_0) + (nu/2) N.

One 4x4 eigendecomposition of K serves every time, backward ones included;
a stack of seeds is diagonalized in one batched call and evaluated at every
(time, seed) pair at once.
:func:`flow_ode`, kept only as the independent oracle of the verification
suite, integrates the nonlinear equation for a stack of K states in one
DOP853 solve at rtol 1e-12.

A :class:`Trajectory` is the flow on a time grid held as arrays: the
validated, read-only (T, 4, 4) stack of density matrices and the observable
columns d, m, w, z, kappa, theta and nu of that stack.  For mixtures of
product states the components evolve independently and expectations
combine linearly (:class:`MixtureTrajectory`); the Cooper field of the
mixture is then a sum of rotating phasors, which produces beats in the
condensate density (see :func:`interference_prediction`).

:func:`dyson_phillips` evaluates the time-ordered (Heisenberg picture)
series for a prescribed drive, applied to the operator by nested quadrature;
it is the independent cross-check pinning the sign convention of the flow.
The drive is evaluated in one call on a uniform fine grid, and the coarse
level of the quadrature error estimate is every other fine node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from . import fock, model
from .errors import NumericalAbortError, TruncationError
from .states import HERMITICITY_TOL, TRACE_TOL, OnSiteState, ProductMixture
from .states import _where, validated_density_matrices

_N_TOTAL = fock.SITE_OBSERVABLES["d"]
_N_DIAG = np.diag(_N_TOTAL).real


@dataclass(frozen=True)
class SiteObservables:
    """The physical densities of one on-site state, or their columns along a stack.

    d     : electron density rho(n_up + n_dn), in [0, 2]
    m     : magnetization density rho(n_up - n_dn), in [-1, 1]
    w     : double-occupancy (Coulomb correlation) density rho(n_up n_dn)
    z     : Cooper-field density rho(a_dn a_up)
    kappa : condensate density |z|**2
    theta : phase of z in [-pi, pi), zero when the field vanishes
    nu    : precession frequency 2(mu - lam) + gamma (1 - d)
    """

    d: Union[float, np.ndarray]
    m: Union[float, np.ndarray]
    w: Union[float, np.ndarray]
    z: Union[complex, np.ndarray]
    kappa: Union[float, np.ndarray]
    theta: Union[float, np.ndarray]
    nu: Union[float, np.ndarray]


def _columns(params: model.ModelParams, d, m, w, z) -> Dict[str, np.ndarray]:
    """The linear densities d, m, w, z with kappa, theta and nu derived from them."""
    theta = np.angle(z)
    theta = np.where(z == 0, 0.0, np.where(theta == np.pi, -np.pi, theta))[()]
    return dict(
        d=d, m=m, w=w, z=z, kappa=np.abs(z) ** 2, theta=theta, nu=model.precession(params, d)
    )


def _stack_columns(params: model.ModelParams, matrices: np.ndarray) -> Dict[str, np.ndarray]:
    """Observable columns of a 4x4 density matrix or a stack (..., 4, 4) of them."""
    d, m, w, z = (
        np.trace(matrices @ op, axis1=-2, axis2=-1) for op in fock.SITE_OBSERVABLES.values()
    )
    return _columns(params, d.real, m.real, w.real, z)


def observables(params: model.ModelParams, rho: OnSiteState) -> SiteObservables:
    """Evaluate the observable record of Prop-style densities at one state."""
    return SiteObservables(**_stack_columns(params, rho.matrix))


@dataclass(frozen=True)
class ClosedFormFlow:
    """Exact solution of the self-consistent flow from a seed or a stack of seeds.

    Construction does one batched ``eigh`` of K = dh(rho_0) + (nu/2) N =
    U diag(E) U^dagger over the seeds, of shape S + (4, 4); calling the
    evaluator at any array of times (negative ones included) is then phases
    and two 4x4 products per (time, seed).  Any Hermitian trace-1 seed is
    accepted, positive or not: the rotation law needs only those two
    properties, so finite-difference displacements out of the state cone
    evolve by the same formula.
    """

    basis: np.ndarray = field(repr=False)  # eigenvectors U of K, S + (4, 4)
    freqs: np.ndarray = field(repr=False)  # nu n_i / 2 - E_k, the phase rates of U
    seed: np.ndarray = field(repr=False)  # U^dagger D_0 U

    @classmethod
    def from_matrix(cls, params: model.ModelParams, d0: np.ndarray) -> "ClosedFormFlow":
        """The flows of a 4x4 seed or a stack S + (4, 4) of them.

        Every seed must be Hermitian and of unit trace, each to 1e-10; the
        message names the index of the first failing seed of a stack.
        """
        d0 = np.asarray(d0, dtype=complex)
        if d0.shape[-2:] != (4, 4):
            raise ValueError(f"flow seeds must be 4x4, got {d0.shape}")
        # "<=" so that a NaN entry fails too
        asymmetry = abs(d0 - d0.swapaxes(-1, -2).conj()).max(axis=(-2, -1))
        trace_gap = abs(d0.trace(axis1=-2, axis2=-1) - 1.0)
        good = (asymmetry <= HERMITICITY_TOL) & (trace_gap <= TRACE_TOL)
        if not good.all():
            raise ValueError(f"{_where(~good)}the closed-form flow needs a Hermitian trace-1 seed")
        density = (d0 @ _N_TOTAL).trace(axis1=-2, axis2=-1).real
        nu = np.asarray(model.precession(params, density))[..., None, None]
        energies, basis = np.linalg.eigh(
            model.effective_hamiltonian(params, d0) + 0.5 * nu * _N_TOTAL
        )
        freqs = 0.5 * nu * _N_DIAG[:, None] - energies[..., None, :]
        return cls(basis, freqs, basis.swapaxes(-1, -2).conj() @ d0 @ basis)

    def __call__(self, t: Union[float, np.ndarray]) -> np.ndarray:
        """D_t = W_t (U^dagger D_0 U) W_t^dagger with W_t = e^{i nu t N/2} U e^{-itE}.

        The result has shape ``np.shape(t) + S + (4, 4)`` for seeds of shape
        ``S + (4, 4)``.
        """
        t = np.asarray(t, dtype=float)[(...,) + (None,) * self.freqs.ndim]
        w = self.basis * np.exp(1j * t * self.freqs)
        return w @ self.seed @ w.swapaxes(-1, -2).conj()


def flow_ode(
    params: Sequence[model.ModelParams], d0: np.ndarray, times: Sequence[float]
) -> np.ndarray:
    """DOP853 oracle for K stacked flows dD_k/dt = -i[dh_k(D_k), D_k].

    Kept only to check :class:`ClosedFormFlow`.  The K systems, one per
    ``params[k]`` and seed ``d0[k]`` of the (K, 4, 4) stack, are integrated
    together in one call at rtol 1e-12, atol 1e-14; the right-hand side is
    one batched commutator.  ``times`` must run monotonically away from
    t = 0 in one direction (0 itself allowed as the first entry); the
    matrices come back as (K, len(times), 4, 4).
    """
    # imported here, not at module level: scipy.integrate takes ~0.25 s to load
    from scipy.integrate import solve_ivp

    seeds = np.asarray(d0, dtype=complex)
    if seeds.shape != (len(params), 4, 4):
        raise ValueError(f"expected {len(params)} stacked 4x4 seeds, got {seeds.shape}")
    h0 = np.array([model.onsite_h(p) for p in params])
    gamma = np.array([p.gamma for p in params])[:, None, None]

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        dmat = y.view(complex).reshape(-1, 4, 4)
        c = np.einsum("kij,ji->k", dmat, fock.PAIR)[:, None, None]
        dh = h0 - gamma * (c * fock.PAIR_DAG + np.conj(c) * fock.PAIR)
        return (-1j * model.hermitian_commutator(dh, dmat)).ravel().view(float)

    times = np.asarray(times, dtype=float)
    y0 = seeds.ravel().view(float).copy()
    sol = solve_ivp(
        rhs, (0.0, times[-1]), y0, method="DOP853", rtol=1e-12, atol=1e-14, t_eval=times
    )
    if not sol.success:
        raise NumericalAbortError(f"flow oracle failed: {sol.message}")
    return np.ascontiguousarray(sol.y.T).view(complex).reshape(len(times), -1, 4, 4).swapaxes(0, 1)


_RANGE_SLACK = 1e-8


@dataclass(frozen=True)
class Trajectory(SiteObservables):
    """The flow on a time grid: its validated (T, 4, 4) stack of density
    matrices, read-only, and the observable columns of that stack."""

    times: np.ndarray = field(repr=False)
    matrices: np.ndarray = field(repr=False)
    evaluator: ClosedFormFlow = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        """The densities must stay within their physical ranges, to 1e-8."""
        checks = [
            ("d", self.d, 0.0, 2.0),
            ("m", self.m, -1.0, 1.0),
            ("w", self.w, 0.0, 1.0),
            ("kappa", self.kappa, 0.0, 1.0),
        ]
        for name, arr, lo, hi in checks:
            if arr.size and (arr.min() < lo - _RANGE_SLACK or arr.max() > hi + _RANGE_SLACK):
                raise NumericalAbortError(
                    f"trajectory leaves the physical range of {name}: "
                    f"[{arr.min():.3e}, {arr.max():.3e}] not within [{lo}, {hi}]"
                )

    def state_matrix(self, t: Union[float, np.ndarray]) -> np.ndarray:
        """Density matrix at an arbitrary time, or their stack
        ``np.shape(t) + (4, 4)`` at an array of times, from the closed form."""
        return self.evaluator(t)

    def __len__(self) -> int:
        return len(self.times)


def flow_onsite(
    params: model.ModelParams,
    rho0: OnSiteState,
    times: Sequence[float],
) -> Trajectory:
    """Evaluate the self-consistent flow from rho0 at ``times``.

    The initial state must be even (the product construction requires it);
    evenness is then preserved along the flow.  Negative times evolve
    backwards.
    """
    rho0.require_even()
    times = np.asarray(times, dtype=float)
    evaluator = ClosedFormFlow.from_matrix(params, rho0.matrix)
    matrices = validated_density_matrices(evaluator(times))
    return Trajectory(
        times=times, matrices=matrices, evaluator=evaluator, **_stack_columns(params, matrices)
    )


def self_consistency_residual(params: model.ModelParams, traj: Trajectory) -> float:
    """Fixed-point residual of a solved trajectory.

    Freezes the drive to the solved path, re-integrates the now linear
    equation dD/dt = -i[dh(path(t)), D] by DOP853 at rtol 1e-9, atol 1e-12,
    and returns the max-norm deviation from the original states.  For a
    true solution this is bounded by twice the integrator tolerance.
    """
    # imported here, not at module level: scipy.integrate takes ~0.25 s to load
    from scipy.integrate import solve_ivp

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        dmat = y.view(complex).reshape(4, 4)
        dh = model.effective_hamiltonian(params, traj.state_matrix(t))
        return (-1j * (dh @ dmat - dmat @ dh)).ravel().view(float)

    d0 = traj.state_matrix(0.0)
    worst = 0.0
    for sign in (1.0, -1.0):
        branch = traj.times[traj.times * sign > 0.0]
        if branch.size == 0:
            continue
        branch = np.sort(branch) if sign > 0 else np.sort(branch)[::-1]
        sol = solve_ivp(
            rhs,
            (0.0, float(branch[-1])),
            d0.ravel().view(float).copy(),
            method="DOP853",
            rtol=1e-9,
            atol=1e-12,
            t_eval=branch,
        )
        if not sol.success:
            raise NumericalAbortError(f"residual integration failed: {sol.message}")
        for t, col in zip(branch, sol.y.T):
            redone = np.ascontiguousarray(col).view(complex).reshape(4, 4)
            idx = int(np.argmin(np.abs(traj.times - t)))
            worst = max(worst, float(np.max(np.abs(redone - traj.matrices[idx]))))
    return worst


@dataclass(frozen=True)
class MixtureTrajectory(SiteObservables):
    """Independent component flows combined with fixed convex weights."""

    times: np.ndarray = field(repr=False)
    weights: Tuple[float, ...]
    components: Tuple[Trajectory, ...] = field(repr=False)

    def expectation_series(self, op: np.ndarray) -> np.ndarray:
        """Mixture expectation of a one-site operator along the flow."""
        out = np.zeros(len(self.times), dtype=complex)
        for u, traj in zip(self.weights, self.components):
            out += u * np.trace(traj.matrices @ op, axis1=-2, axis2=-1)
        return out


def mixture_flow(
    params: model.ModelParams,
    mix: ProductMixture,
    times: Sequence[float],
) -> MixtureTrajectory:
    """Evolve every mixture component independently and combine linearly.

    The linear expectations (d, m, w, z) are weighted sums of the component
    columns; kappa, theta and nu are derived from them as for one flow, so
    kappa is no longer constant in general (interference between
    components).  A single state is the mixture of one component.
    """
    times = np.asarray(times, dtype=float)
    trajs = tuple(flow_onsite(params, s, times) for s in mix.states)
    u = np.asarray(mix.weights)
    d, m, w, z = (
        sum(ui * getattr(t, name) for ui, t in zip(u, trajs)) for name in ("d", "m", "w", "z")
    )
    return MixtureTrajectory(
        times=times, weights=mix.weights, components=trajs, **_columns(params, d, m, w, z)
    )


def interference_prediction(
    params: model.ModelParams,
    mix: ProductMixture,
    t: Union[float, np.ndarray],
) -> Union[complex, np.ndarray]:
    """Closed-form mixture Cooper field sum_j u_j sqrt(kappa_j) e^{i(t nu_j + theta_j)}.

    Each component's field rotates rigidly at its own frequency nu_j, so the
    mixture field is a sum of phasors; mixture_flow must reproduce it to
    rounding.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for u, state in mix.components():
        rec = observables(params, state)
        out += u * math.sqrt(rec.kappa) * np.exp(1j * (t * rec.nu + rec.theta))
    return complex(out[()]) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Dyson series cross-check (Heisenberg picture)
# ---------------------------------------------------------------------------

#: A prescribed drive: maps a time to the on-site state entering the
#: generator.  :func:`dyson_phillips` calls it once with the whole array of
#: grid times and takes a result of shape ``grid.shape + (4, 4)``, or one
#: state broadcast to every time (a constant drive such as ``lambda s: rho``);
#: :func:`heisenberg_propagator_ode` calls it with one float at a time.
DriveFn = Callable[[Union[float, np.ndarray]], Union[OnSiteState, np.ndarray]]


@dataclass(frozen=True)
class DysonResult:
    operator: np.ndarray
    remainder_bound: float
    quadrature_error: float


_EYE4 = np.eye(4)


def _generator_superop(
    params: model.ModelParams, rho: Union[OnSiteState, np.ndarray]
) -> np.ndarray:
    """Superoperator of B -> i [dh(rho), B] in row-major vec convention.

    ``rho`` is one state or a stack (..., 4, 4) of density matrices; the
    result i (dh (x) 1 - 1 (x) dh^T) has shape (..., 16, 16).  The last
    four axes of the product below are (i, k, j, l): row 4i+k, column 4j+l.
    """
    dh = model.effective_hamiltonian(params, rho)
    dh_t = np.swapaxes(dh, -1, -2)
    sup = (
        dh[..., :, None, :, None] * _EYE4[:, None, :]
        - _EYE4[:, None, :, None] * dh_t[..., None, :, None, :]
    )
    return 1j * sup.reshape(dh.shape[:-2] + (16, 16))


def _cumulative_simpson(y: np.ndarray, step: float) -> np.ndarray:
    """Cumulative integral along axis 0 of samples y on a uniform grid, from 0.

    The equal-interval scheme of ``scipy.integrate.cumulative_simpson``: the
    forward three-point rule step/12 (5 f0 + 8 f1 - f2) on even intervals,
    the backward rule step/12 (-f0 + 8 f1 + 5 f2) on odd ones and on the
    last, the trapezoid for two samples.  A negative step integrates
    backward in time.  The weights are real, so complex samples are
    integrated as their real and imaginary parts side by side.
    """
    re = y.view(float)
    if len(y) == 2:
        pieces = (re[:1] + re[1:]) * (step / 2)
    else:
        f0, f1, f2 = re[:-2:2], re[1:-1:2], re[2::2]
        pieces = np.empty_like(re[1:])
        pieces[:-1:2] = 5 * f0 + 8 * f1 - f2
        pieces[1::2] = 8 * f1 + 5 * f2 - f0
        pieces[-1] = 5 * re[-1] + 8 * re[-2] - re[-3]
        pieces *= step / 12
    out = np.empty_like(y)
    acc = out.view(float)
    acc[0] = 0.0
    np.cumsum(pieces, axis=0, out=acc[1:])
    return out


def dyson_phillips(
    params: model.ModelParams,
    drive: DriveFn,
    t: float,
    order: int,
    a_op: np.ndarray,
    tol: Optional[float] = None,
    n_nodes: int = 512,
) -> DysonResult:
    """Truncated time-ordered series for the driven Heisenberg evolution of a_op.

    ``drive`` (:data:`DriveFn`) is called once, on the array of nodes of the
    fine grid of ``2 n_nodes`` uniform intervals from 0 to ``t`` (``t`` may
    be negative).  The series acts on
    the operator by backward nesting, R_0 = a_op and R_j(v) = int_v^t
    i[dh(w), R_{j-1}(w)] dw by cumulative Simpson quadrature, and sums the
    terms R_j(0), on that grid and on the coarse grid of every other fine
    node (``n_nodes`` intervals).  The fine sum is returned; the largest
    entry of its difference from the coarse one is the quadrature error
    estimate.  The certified truncation remainder is
    (M |t|)**(order+1) / (order+1)! with M the largest norm of B -> i[dh, B]
    on the coarse nodes, which is the spread max(e) - min(e) of the
    eigenvalues of dh; if ``tol`` is given and the remainder exceeds it, a
    TruncationError is raised before any quadrature is run.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    a_op = np.asarray(a_op, dtype=complex)
    if a_op.shape != (4, 4):
        raise ValueError("dyson_phillips acts on one-site (4x4) operators")
    if t == 0.0:
        return DysonResult(operator=a_op.copy(), remainder_bound=0.0, quadrature_error=0.0)
    grid = np.linspace(0.0, t, 2 * n_nodes + 1)
    dh = model.effective_hamiltonian(
        params, np.broadcast_to(model.density_matrix(drive(grid)), grid.shape + (4, 4))
    )
    m_norm = float(np.ptp(np.linalg.eigvalsh(dh[::2]), axis=-1).max())
    remainder = (m_norm * abs(t)) ** (order + 1) / math.factorial(order + 1)
    if tol is not None and remainder > tol:
        raise TruncationError(
            f"series remainder bound {remainder:.3e} exceeds tolerance {tol:.1e}; "
            "shorten t or raise the order"
        )

    # the series is linear in a_op = A + iB and runs on the Hermitian parts
    # A and B, stacked on axis 1: i[dh, .] keeps every term Hermitian
    parts = np.array([a_op + a_op.conj().T, 1j * (a_op.conj().T - a_op)]) / 2
    parts = parts[: 1 + bool(parts[1].any())]

    def series(gens: np.ndarray, step: float) -> np.ndarray:
        total = parts
        r = np.broadcast_to(parts, gens.shape[:1] + parts.shape)
        gens = gens[:, None]
        for _ in range(order):
            cum = _cumulative_simpson(1j * model.hermitian_commutator(gens, r), step)
            r = cum[-1] - cum
            total = total + r[0]
        return total[0] if len(total) == 1 else total[0] + 1j * total[1]

    step = t / (2 * n_nodes)
    fine = series(dh, step)
    quad_err = float(np.max(np.abs(fine - series(dh[::2], 2 * step))))
    return DysonResult(operator=fine, remainder_bound=remainder, quadrature_error=quad_err)


def heisenberg_propagator_ode(
    params: model.ModelParams,
    drive: DriveFn,
    t: float,
    rtol: float = 1e-11,
    atol: float = 1e-13,
) -> np.ndarray:
    """Independent ODE route to the same driven Heisenberg superoperator.

    Solves dT/dt = T Delta(t), T(0) = 1, and returns T(t) as a 16x16 matrix;
    used to validate the truncated series.
    """
    # imported here, not at module level: scipy.integrate takes ~0.25 s to load
    from scipy.integrate import solve_ivp

    def rhs(s: float, y: np.ndarray) -> np.ndarray:
        mat = y.view(complex).reshape(16, 16)
        return (mat @ _generator_superop(params, drive(float(s)))).ravel().view(float)

    y0 = np.eye(16, dtype=complex).ravel().view(float).copy()
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise NumericalAbortError(f"propagator integration failed: {sol.message}")
    return sol.y[:, -1].view(complex).reshape(16, 16)
