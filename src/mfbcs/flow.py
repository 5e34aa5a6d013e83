"""Self-consistent mean-field flow of on-site states.

The infinite-volume time evolution of a product state is carried entirely
by one 4x4 density matrix D_t solving the nonlinear von Neumann equation

    dD_t/dt = -i [dh(rho_t), D_t],     rho_t(A) = Trace(D_t A),

where dh is the state-dependent one-site generator
(:func:`mfbcs.model.effective_hamiltonian`).  The generator is evaluated on
the solution itself, which is the self-consistency at the heart of the
mean-field limit.

The equation is solved in closed form (:class:`ClosedFormFlow`).  The
Cooper field rotates rigidly at nu = 2(mu - lam) + gamma (1 - d), and for an
even seed this is an identity of the whole matrix: on (0, up, dn, up-dn)

    D_t = V_t D_0 V_t^dagger,     V_t = diag(1, e^{iht}, e^{-iht}, e^{i nu t}).

The densities are constant, the Cooper field turns at nu and the up-dn
coherence at 2h, at any time, backward ones included.
:func:`flow_ode`, kept only as the independent oracle of the verification
suite, integrates the nonlinear equation for a stack of K states by one
Taylor-series recurrence: the right-hand side is quadratic in D, so its
Taylor coefficients follow from the lower ones (:func:`_taylor_solve`).
The same recurrence carries the Heisenberg propagator along the flow
(:func:`heisenberg_propagator_ode`).  Neither loads scipy.

A :class:`Trajectory` is the flow on a time grid held as columns: d, m and
w of the seed, z = z_0 e^{i nu t}, and kappa, theta and nu derived from
them.  Its density matrices are evaluated only on request
(:meth:`Trajectory.state_matrix`).  For mixtures of
product states the components evolve independently and expectations
combine linearly (:class:`MixtureTrajectory`); the Cooper field of the
mixture is then a sum of rotating phasors, which produces beats in the
condensate density (see :func:`interference_prediction`).

:func:`dyson_phillips` evaluates the time-ordered (Heisenberg picture)
series for a prescribed drive, applied to the operator by nested quadrature;
it is the independent cross-check pinning the sign convention of the flow.
The drive is evaluated in one call on a uniform fine grid, and the coarse
level of the quadrature error estimate is every other fine node.  The
nested terms are held time-last, one 4x4 operator per node along the last
axis, and i[dh, .] acts on them from the structure of the decoupled
operator (:func:`mfbcs.model.decoupled_action`), not by matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import fock, model
from .errors import NumericalAbortError
from .states import EVENNESS_TOL, HERMITICITY_TOL, TRACE_TOL, OnSiteState, ProductMixture
from .states import _where, parity_commutator_norm


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


def observables(params: model.ModelParams, rho: OnSiteState) -> SiteObservables:
    """Evaluate the observable record of Prop-style densities at one state."""
    d, m, w, z = (np.trace(rho.matrix @ op) for op in fock.SITE_OBSERVABLES.values())
    return SiteObservables(**_columns(params, d.real, m.real, w.real, z))


@dataclass(frozen=True)
class ClosedFormFlow:
    """Exact solution of the self-consistent flow from an even seed or a stack of them.

    For an even, Hermitian, trace-1 seed D_0 the pair block of
    K = dh(rho_0) + (nu/2) N is -gamma (D_0 - D_00 1) on that block, which
    commutes with D_0 there, and the odd block of K is diagonal.  The flow
    is therefore the phase map D_t = V_t D_0 V_t^dagger with
    V_t = diag(1, e^{iht}, e^{-iht}, e^{i nu t}): entry (i, j) turns at the
    rate r_i - r_j of r = (0, h, -h, nu), so the diagonal stays bitwise
    constant and a Hermitian seed stays exactly Hermitian.  Positivity is
    not needed, so finite-difference displacements out of the state cone
    evolve by the same map.
    """

    seed: np.ndarray = field(repr=False)  # D_0, S + (4, 4)
    rates: np.ndarray = field(repr=False)  # r_i - r_j, S + (4, 4)

    @classmethod
    def from_matrix(cls, params: model.ModelParams, d0: np.ndarray) -> "ClosedFormFlow":
        """The flows of a 4x4 seed or a stack S + (4, 4) of them.

        Every seed must be Hermitian, of unit trace and even (its parity
        commutator, twice its largest odd entry), each to 1e-10; the
        message names the index of the first failing seed of a stack.
        """
        d0 = np.asarray(d0, dtype=complex)
        if d0.shape[-2:] != (4, 4):
            raise ValueError(f"flow seeds must be 4x4, got {d0.shape}")
        # "<=" so that a NaN entry fails too
        asymmetry = abs(d0 - d0.swapaxes(-1, -2).conj()).max(axis=(-2, -1))
        trace_gap = abs(d0.trace(axis1=-2, axis2=-1) - 1.0)
        oddness = parity_commutator_norm(d0)
        good = (asymmetry <= HERMITICITY_TOL) & (trace_gap <= TRACE_TOL) & (oddness <= EVENNESS_TOL)
        if not good.all():
            raise ValueError(
                f"{_where(~good)}the closed-form flow needs an even Hermitian trace-1 seed"
            )
        density = (d0 @ fock.SITE_OBSERVABLES["d"]).trace(axis1=-2, axis2=-1).real
        r = np.zeros(d0.shape[:-1])
        r[..., 1], r[..., 2], r[..., 3] = params.h, -params.h, model.precession(params, density)
        rates = r[..., :, None] - r[..., None, :]
        bad = ~np.isfinite(rates).all(axis=(-2, -1))
        if bad.any():
            raise NumericalAbortError(f"{_where(bad)}the flow's phase rates overflow")
        return cls(d0, rates)

    def __call__(self, t: Union[float, np.ndarray]) -> np.ndarray:
        """D_t, of shape ``np.shape(t) + S + (4, 4)`` for seeds of shape ``S + (4, 4)``."""
        t = np.asarray(t, dtype=float)[(...,) + (None,) * self.rates.ndim]
        return self.seed * np.exp(1j * t * self.rates)


#: Longest sub-step of the Taylor oracles, the size of the newest scaled
#: term (its largest entry) at which a series is cut, and the order cap.
TAYLOR_STEP = 0.25
TAYLOR_TOL = 1e-17
TAYLOR_MAX_ORDER = 60


class OracleSolution(NamedTuple):
    """What a Taylor oracle returns: the solution, the largest entry of the
    newest term at which any sub-step's series was cut (the estimate of its
    truncation error), and the highest order any sub-step needed."""

    value: np.ndarray
    truncation: float
    order: int


def _taylor_solve(
    params: Sequence[model.ModelParams],
    seeds: np.ndarray,
    times: np.ndarray,
    propagate: bool,
) -> Tuple[np.ndarray, Optional[np.ndarray], float, int]:
    """Taylor-series integration of K stacked flows dD/dt = -i[dh(D), D] from t = 0.

    The right-hand side is quadratic in D, so the Taylor coefficients of
    D(t0 + s) = sum_k a_k s^k follow by recurrence.  With c_k = tr(a_k P),
    the generator's coefficients are H_0 = dh(a_0) and
    H_k = -gamma (c_k P+ + cbar_k P), and
    a_{k+1} = -i/(k+1) (X_k - X_k^dagger), X_k = sum_{j<=k} H_j a_{k-j}.
    Every a_k is Hermitian, so the P part of X_k is -gamma (P+ Y + P Y^dagger)
    with Y = sum_{j>=1} c_j a_{k-j}.  With ``propagate`` the superoperators
    T of dT/dt = T Delta(t), T(0) = 1, ride along, Delta(t) that of
    B -> i[dh(D_t), B] (:func:`_superop`):
    T_{k+1} = 1/(k+1) sum_j T_j Delta_{k-j}.  The coefficients are
    kept scaled by step**k.  Orders are added until the newest two scaled
    terms have no entry above TAYLOR_TOL, and the series is summed from its
    highest order down (Horner at the end of the sub-step).  The times are
    visited in their order, each interval from the previous one in equal
    sub-steps of at most TAYLOR_STEP.  Returns the (T, K, 4, 4) states, the
    (T, K, 16, 16) propagators or None, the truncation estimate and the
    highest order.
    """
    gamma = np.array([p.gamma for p in params])[:, None, None]
    h0 = np.array([model.onsite_h(p) for p in params])
    pair_dag, pair = gamma * fock.PAIR_DAG, gamma * fock.PAIR
    p, q = fock.PAIR_ENTRY  # P = |p><q|
    if propagate:
        sup_dag, sup = gamma * _superop(fock.PAIR_DAG), gamma * _superop(fock.PAIR)
    rho = seeds
    prop = np.broadcast_to(np.eye(16, dtype=complex), (len(seeds), 16, 16)) if propagate else None
    a = np.empty((TAYLOR_MAX_ORDER + 1,) + seeds.shape, dtype=complex)
    c = np.empty((TAYLOR_MAX_ORDER + 1, len(seeds)), dtype=complex)
    tk = np.empty((TAYLOR_MAX_ORDER + 1, len(seeds), 16, 16), dtype=complex) if propagate else None
    states, props = [], []
    truncation, highest = 0.0, 0
    now = 0.0
    for t in times:
        n_steps = math.ceil(abs(t - now) / TAYLOR_STEP)
        step = (t - now) / max(n_steps, 1)
        for _ in range(n_steps):
            a[0] = rho
            c[0] = model.cooper_field(rho)
            h_0 = h0 - (c[0, :, None, None] * pair_dag + np.conj(c[0])[:, None, None] * pair)
            if propagate:
                tk[0] = prop
                delta_0 = _superop(h_0)
            newest = np.inf
            for k in range(TAYLOR_MAX_ORDER):
                x = h_0 @ a[k]
                if k:
                    y = np.einsum("jk,jkab->kab", c[1 : k + 1], a[k - 1 :: -1])
                    # P+ Y is row p of Y moved to row q, P Y^dagger is column q
                    # of Y conjugated into row p
                    x[:, q] -= gamma[:, 0] * y[:, p]
                    x[:, p] -= gamma[:, 0] * y[:, :, q].conj()
                a[k + 1] = (-1j * step / (k + 1)) * (x - x.swapaxes(-1, -2).conj())
                c[k + 1] = model.cooper_field(a[k + 1])
                size = float(np.abs(a[k + 1]).max())
                if propagate:
                    z = tk[k] @ delta_0
                    if k:
                        past = tk[k - 1 :: -1]
                        z -= np.einsum("jk,jkab->kab", c[1 : k + 1], past) @ sup_dag
                        z -= np.einsum("jk,jkab->kab", np.conj(c[1 : k + 1]), past) @ sup
                    tk[k + 1] = (step / (k + 1)) * z
                    size = max(size, float(np.abs(tk[k + 1]).max()))
                if max(size, newest) <= TAYLOR_TOL:
                    break
                newest = size
            else:
                raise NumericalAbortError(
                    f"Taylor oracle needs more than {TAYLOR_MAX_ORDER} orders "
                    f"on a sub-step of {step:.3g}"
                )
            order = k + 1
            truncation, highest = max(truncation, size, newest), max(highest, order)
            rho = a[order::-1].sum(axis=0)
            if propagate:
                prop = tk[order::-1].sum(axis=0)
        now = t
        states.append(rho)
        props.append(prop)
    return np.array(states), np.array(props) if propagate else None, truncation, highest


def flow_ode(
    params: Sequence[model.ModelParams], d0: np.ndarray, times: Sequence[float]
) -> OracleSolution:
    """Taylor-series oracle for K stacked flows dD_k/dt = -i[dh_k(D_k), D_k].

    Kept only to check :class:`ClosedFormFlow`.  The K systems, one per
    ``params[k]`` and Hermitian seed ``d0[k]`` of the (K, 4, 4) stack, are
    integrated together from t = 0 by one recurrence (:func:`_taylor_solve`);
    ``times`` are visited in their order, forward or backward.  The value
    is the (K, len(times), 4, 4) stack of matrices.
    """
    seeds = np.asarray(d0, dtype=complex)
    if seeds.shape != (len(params), 4, 4):
        raise ValueError(f"expected {len(params)} stacked 4x4 seeds, got {seeds.shape}")
    states, _, truncation, order = _taylor_solve(
        params, seeds, np.asarray(times, dtype=float), propagate=False
    )
    return OracleSolution(states.swapaxes(0, 1), truncation, order)


_RANGE_SLACK = 1e-8


@dataclass(frozen=True)
class Trajectory(SiteObservables):
    """The flow on a time grid: its observable columns and, for the density
    matrices on request, the phase map of its seed."""

    times: np.ndarray = field(repr=False)
    phase_map: ClosedFormFlow = field(repr=False, compare=False)

    def state_matrix(self, t: Union[float, np.ndarray]) -> np.ndarray:
        """Density matrix at an arbitrary time, or their stack
        ``np.shape(t) + (4, 4)`` at an array of times, from the closed form."""
        return self.phase_map(t)


def flow_onsite(
    params: model.ModelParams,
    rho0: OnSiteState,
    times: Sequence[float],
) -> Trajectory:
    """Evaluate the self-consistent flow from rho0 at ``times``.

    The initial state must be even (the product construction requires it);
    evenness is then preserved along the flow.  Negative times evolve
    backwards.  The columns come from the seed alone: d, m and w are held
    constant and z = z_0 e^{i nu t}; no density matrix is formed.
    """
    times = np.asarray(times, dtype=float)
    phase_map = ClosedFormFlow.from_matrix(params, rho0.matrix)
    seed = observables(params, rho0)
    for name, lo, hi in (("d", 0.0, 2.0), ("m", -1.0, 1.0), ("w", 0.0, 1.0), ("kappa", 0.0, 1.0)):
        value = getattr(seed, name)
        # "not <=" so that NaN fails too
        if not lo - _RANGE_SLACK <= value <= hi + _RANGE_SLACK:
            raise NumericalAbortError(
                f"flow seed leaves the physical range of {name}: "
                f"{value:.3e} not within [{lo}, {hi}]"
            )
    d, m, w = (np.full(times.shape, getattr(seed, name)) for name in ("d", "m", "w"))
    z = seed.z * np.exp(1j * seed.nu * times)
    return Trajectory(times=times, phase_map=phase_map, **_columns(params, d, m, w, z))


@dataclass(frozen=True)
class MixtureTrajectory(SiteObservables):
    """Independent component flows combined with fixed convex weights."""

    times: np.ndarray = field(repr=False)
    weights: Tuple[float, ...]
    components: Tuple[Trajectory, ...] = field(repr=False)


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
#: state broadcast to every time (a constant drive such as ``lambda s: rho``).
DriveFn = Callable[[Union[float, np.ndarray]], Union[OnSiteState, np.ndarray]]


@dataclass(frozen=True)
class DysonResult:
    operator: np.ndarray
    remainder_bound: float
    quadrature_error: float


_EYE4 = np.eye(4)


def _superop(dh: np.ndarray) -> np.ndarray:
    """Superoperator of B -> i [dh, B] in row-major vec convention.

    ``dh`` is one operator or a stack (..., 4, 4); the result
    i (dh (x) 1 - 1 (x) dh^T) has shape (..., 16, 16).  The last four axes
    of the product below are (i, k, j, l): row 4i+k, column 4j+l.
    """
    dh_t = np.swapaxes(dh, -1, -2)
    sup = (
        dh[..., :, None, :, None] * _EYE4[:, None, :]
        - _EYE4[:, None, :, None] * dh_t[..., None, :, None, :]
    )
    return 1j * sup.reshape(dh.shape[:-2] + (16, 16))


def _cumulative_simpson(y: np.ndarray, step: float) -> np.ndarray:
    """Cumulative integral along the last axis of samples y on a uniform grid, from 0.

    The equal-interval scheme of ``scipy.integrate.cumulative_simpson``: the
    forward three-point rule step/12 (5 f0 + 8 f1 - f2) on even intervals,
    the backward rule step/12 (-f0 + 8 f1 + 5 f2) on odd ones and on the
    last, the trapezoid for two samples.  A negative step integrates
    backward in time.
    """
    if y.shape[-1] == 2:
        pieces = (y[..., :1] + y[..., 1:]) * (step / 2)
    else:
        f0, f1, f2 = y[..., :-2:2], y[..., 1:-1:2], y[..., 2::2]
        pieces = np.empty_like(y[..., 1:])
        pieces[..., :-1:2] = 5 * f0 + 8 * f1 - f2
        pieces[..., 1::2] = 8 * f1 + 5 * f2 - f0
        pieces[..., -1] = 5 * y[..., -1] + 8 * y[..., -2] - y[..., -3]
        pieces *= step / 12
    out = np.empty_like(y)
    out[..., 0] = 0.0
    np.cumsum(pieces, axis=-1, out=out[..., 1:])
    return out


def dyson_phillips(
    params: model.ModelParams,
    drive: DriveFn,
    t: float,
    order: int,
    a_op: np.ndarray,
    n_nodes: int = 512,
) -> DysonResult:
    """Truncated time-ordered series for the driven Heisenberg evolution of a_op.

    ``drive`` (:data:`DriveFn`) is called once, on the array of nodes of the
    fine grid of ``2 n_nodes`` uniform intervals from 0 to ``t`` (``t`` may
    be negative); only the Cooper field of each state enters.  The series
    acts on the operator by backward nesting, R_0 = a_op and R_j(v) = int_v^t
    i[dh(w), R_{j-1}(w)] dw by cumulative Simpson quadrature along the time
    axis, last in the (parts, 4, 4, nodes) layout, and sums the
    terms R_j(0), on that grid and on the coarse grid of every other fine
    node (``n_nodes`` intervals).  The fine sum is returned; the largest
    entry of its difference from the coarse one is the quadrature error
    estimate.  The certified truncation remainder is
    (M |t|)**(order+1) / (order+1)! with M the largest norm of B -> i[dh, B]
    on the coarse nodes, which is the spread max(e) - min(e) of the
    eigenvalues of dh, in closed form: dh is diagonal on the odd levels and
    2x2 on the pair block.
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
    field = np.broadcast_to(model.cooper_field(drive(grid)), grid.shape)
    # the spectrum of dh(c): the odd levels, and (e_p + e_q)/2 +- hypot((e_p - e_q)/2,
    # gamma |c|) on the pair block; the spread grows with |c|, so its largest
    # |c| on the coarse nodes sets M
    e = np.diag(model.onsite_h(params)).real
    p, q = fock.PAIR_ENTRY
    radius = math.hypot(0.5 * (e[p] - e[q]), params.gamma * float(np.abs(field[::2]).max()))
    levels = np.append(np.delete(e, [p, q]), 0.5 * (e[p] + e[q]) + np.array([-radius, radius]))
    m_norm = float(np.ptp(levels))
    remainder = (m_norm * abs(t)) ** (order + 1) / math.factorial(order + 1)

    # the series is linear in a_op = A + iB and runs on the Hermitian parts
    # A and B, stacked on axis 0 with the nodes last: i[dh, .] keeps every
    # term Hermitian
    parts = np.array([a_op + a_op.conj().T, 1j * (a_op.conj().T - a_op)]) / 2
    parts = parts[: 1 + bool(parts[1].any())]

    def series(c: np.ndarray, step: float) -> np.ndarray:
        total = parts
        r = np.broadcast_to(parts[..., None], parts.shape + c.shape)
        for _ in range(order):
            cum = _cumulative_simpson(model.decoupled_action(params, c, r), step)
            r = cum[..., -1:] - cum
            total = total + r[..., 0]
        return total[0] if len(total) == 1 else total[0] + 1j * total[1]

    step = t / (2 * n_nodes)
    fine = series(field, step)
    quad_err = float(np.max(np.abs(fine - series(field[::2], 2 * step))))
    return DysonResult(operator=fine, remainder_bound=remainder, quadrature_error=quad_err)


def heisenberg_propagator_ode(
    params: model.ModelParams, rho0: Union[OnSiteState, np.ndarray], t: float
) -> OracleSolution:
    """Independent route to the Heisenberg superoperator of the flow from rho0.

    Solves dT/dt = T Delta(t), T(0) = 1, with Delta the generator
    superoperator at the flow's own state, by integrating the flow and T
    together from the seed in one Taylor recurrence (:func:`_taylor_solve`).
    The drive is never evaluated from the closed form, so the series of
    :func:`dyson_phillips` driven by :class:`ClosedFormFlow` is checked
    against a path that does not see it.  The value is T(t) as a 16x16
    matrix.
    """
    seed = model.density_matrix(rho0)
    if seed.shape != (4, 4):
        raise ValueError(f"expected one 4x4 seed, got {seed.shape}")
    _, props, truncation, order = _taylor_solve(
        [params], seed[None], np.array([float(t)]), propagate=True
    )
    return OracleSolution(props[0, 0], truncation, order)
