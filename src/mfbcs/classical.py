"""Classical mechanics on the space of even on-site states.

Observables are cylindrical functions f(rho) = g(rho(A_1), ..., rho(A_n))
built from self-adjoint one-site operators.  The convex derivative

    Df(rho) = sum_j (A_j - rho(A_j) 1) d_j g(rho(A_1), ..., rho(A_n))

is an operator-valued gradient centered so that rho(Df(rho)) = 0, and

    {f, g}(rho) = rho( i [Df(rho), Dg(rho)] )

is a Poisson bracket on polynomial observables.  The mean-field flow is
Hamiltonian for this bracket with the quadratic energy function
h(rho) = rho(h0) - gamma |rho(a_dn a_up)|**2; ``liouville_residuals``
measures how well d/dt f(flow) matches {h, f(flow)} numerically.

Projecting a state to (Re z, Im z, shifted density) turns the flow into the
rigid precession of a symmetric rotor; ``rotor_map`` and ``rotor_flow``
realize the two legs of that commuting diagram.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from . import fock, model
from .flow import ClosedFormFlow, flow_onsite
from .model import StateLike
from .states import OnSiteState

#: Self-adjoint quadratures of the pair field: expectations 2 Re z and 2 Im z.
PAIR_X: np.ndarray = fock.PAIR + fock.PAIR_DAG
PAIR_Y: np.ndarray = 1j * (fock.PAIR_DAG - fock.PAIR)

HERMITIAN_TOL = 1e-12


def _check_operators(operators: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    ops = []
    for k, op in enumerate(operators):
        a = np.asarray(op, dtype=complex)
        if a.shape != (4, 4):
            raise ValueError(f"operator {k} must be 4x4")
        if np.max(np.abs(a - a.conj().T)) > HERMITIAN_TOL:
            raise ValueError(f"operator {k} must be self-adjoint")
        a = a.copy()
        a.setflags(write=False)
        ops.append(a)
    if not ops:
        raise ValueError("need at least one operator")
    return tuple(ops)


@dataclass(frozen=True)
class CylindricalFunction:
    """g composed with the expectations of finitely many self-adjoint operators.

    ``gradient`` may be omitted, in which case central differences with one
    Richardson step are used; exact gradients are preferred where available
    (see :class:`PolynomialFunction`).
    """

    operators: Tuple[np.ndarray, ...]
    g: Callable[[np.ndarray], complex]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fd_step: float = 1e-6

    def __post_init__(self) -> None:
        object.__setattr__(self, "operators", _check_operators(self.operators))

    @property
    def n_args(self) -> int:
        return len(self.operators)

    def arguments(self, rho: StateLike) -> np.ndarray:
        d = model.density_matrix(rho)
        return np.array([np.trace(d @ a).real for a in self.operators])

    def __call__(self, rho: StateLike) -> complex:
        return complex(self.g(self.arguments(rho)))

    def gradient_args(self, x: np.ndarray) -> np.ndarray:
        if self.gradient is not None:
            return np.asarray(self.gradient(x), dtype=complex)
        out = np.empty(self.n_args, dtype=complex)
        h = self.fd_step
        for j in range(self.n_args):
            e = np.zeros(self.n_args)
            e[j] = 1.0
            d1 = (self.g(x + h * e) - self.g(x - h * e)) / (2.0 * h)
            d2 = (self.g(x + 0.5 * h * e) - self.g(x - 0.5 * h * e)) / h
            out[j] = (4.0 * d2 - d1) / 3.0
        return out

    def check_gradient(self, rng: np.random.Generator, n_points: int = 5, tol: float = 1e-6) -> float:
        """Max deviation between the declared gradient and central differences."""
        worst = 0.0
        for _ in range(n_points):
            rho = OnSiteState.random_even(rng)
            x = self.arguments(rho)
            declared = self.gradient_args(x)
            h = 1e-6
            for j in range(self.n_args):
                e = np.zeros(self.n_args)
                e[j] = 1.0
                fd = (self.g(x + h * e) - self.g(x - h * e)) / (2.0 * h)
                worst = max(worst, abs(declared[j] - fd))
        if worst > tol:
            raise ValueError(f"gradient check failed: deviation {worst:.2e} > {tol:g}")
        return worst


Monomial = Tuple[complex, Tuple[int, ...]]


@dataclass(frozen=True)
class PolynomialFunction:
    """Polynomial observable with exact (symbolic) monomial differentiation.

    ``monomials`` is a list of (coefficient, index multiset); the multiset
    lists which operator expectation each factor refers to, repeats allowed.
    The empty tuple is the constant monomial.
    """

    operators: Tuple[np.ndarray, ...]
    monomials: Tuple[Monomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "operators", _check_operators(self.operators))
        canon = []
        for coeff, idx in self.monomials:
            idx = tuple(sorted(int(i) for i in idx))
            if idx and (min(idx) < 0 or max(idx) >= len(self.operators)):
                raise ValueError(f"monomial index out of range: {idx}")
            canon.append((complex(coeff), idx))
        object.__setattr__(self, "monomials", tuple(canon))

    @property
    def n_args(self) -> int:
        return len(self.operators)

    def arguments(self, rho: StateLike) -> np.ndarray:
        d = model.density_matrix(rho)
        return np.array([np.trace(d @ a).real for a in self.operators])

    def g(self, x: np.ndarray) -> complex:
        total = 0.0 + 0.0j
        for coeff, idx in self.monomials:
            term = coeff
            for i in idx:
                term *= x[i]
            total += term
        return total

    def gradient_args(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_args, dtype=complex)
        for coeff, idx in self.monomials:
            for pos in range(len(idx)):
                term = coeff
                for q, i in enumerate(idx):
                    if q != pos:
                        term *= x[i]
                out[idx[pos]] += term
        return out

    def __call__(self, rho: StateLike) -> complex:
        return complex(self.g(self.arguments(rho)))

    def _require_same_ops(self, other: "PolynomialFunction") -> None:
        if len(self.operators) != len(other.operators) or any(
            not np.array_equal(a, b) for a, b in zip(self.operators, other.operators)
        ):
            raise ValueError("polynomial algebra requires a shared operator tuple")

    def __add__(self, other: "PolynomialFunction") -> "PolynomialFunction":
        self._require_same_ops(other)
        return PolynomialFunction(self.operators, self.monomials + other.monomials)

    def __mul__(self, other: Union["PolynomialFunction", complex]) -> "PolynomialFunction":
        if isinstance(other, PolynomialFunction):
            self._require_same_ops(other)
            mono = tuple(
                (c1 * c2, i1 + i2)
                for (c1, i1), (c2, i2) in itertools.product(self.monomials, other.monomials)
            )
            return PolynomialFunction(self.operators, mono)
        scale = complex(other)
        return PolynomialFunction(
            self.operators, tuple((scale * c, i) for c, i in self.monomials)
        )

    __rmul__ = __mul__


PhaseFunction = Union[CylindricalFunction, PolynomialFunction]


def convex_derivative(f: PhaseFunction, rho: StateLike) -> np.ndarray:
    """Centered operator-valued gradient; rho(convex_derivative(f, rho)) = 0."""
    d = model.density_matrix(rho)
    x = f.arguments(d)
    grad = f.gradient_args(x)
    out = np.zeros((4, 4), dtype=complex)
    eye = np.eye(4, dtype=complex)
    for a, xj, gj in zip(f.operators, x, grad):
        out += gj * (a - xj * eye)
    return out


def poisson_bracket(f: PhaseFunction, g: PhaseFunction, rho: StateLike) -> complex:
    """{f, g}(rho) = rho(i [Df(rho), Dg(rho)]); antisymmetric and Leibniz."""
    d = model.density_matrix(rho)
    df = convex_derivative(f, d)
    dg = convex_derivative(g, d)
    return complex(np.trace(d @ (1j * (df @ dg - dg @ df))))


def classical_hamiltonian(params: model.ModelParams) -> PolynomialFunction:
    """Energy function h(rho) = rho(h0) - gamma |rho(a_dn a_up)|**2.

    Written over the self-adjoint operators (h0, PAIR_X, PAIR_Y), using
    |z|**2 = (rho(PAIR_X)**2 + rho(PAIR_Y)**2) / 4.
    """
    ops = (model.onsite_h(params), PAIR_X, PAIR_Y)
    quarter = -params.gamma / 4.0
    return PolynomialFunction(
        ops,
        (
            (1.0 + 0.0j, (0,)),
            (quarter + 0.0j, (1, 1)),
            (quarter + 0.0j, (2, 2)),
        ),
    )


def affine_polynomial(op: np.ndarray) -> PolynomialFunction:
    """The affine observable rho -> rho(op) for a self-adjoint op."""
    return PolynomialFunction((op,), ((1.0 + 0.0j, (0,)),))


def condensate_polynomial() -> PolynomialFunction:
    """|rho(a_dn a_up)|**2 as a quadratic polynomial over the pair quadratures."""
    return PolynomialFunction(
        (PAIR_X, PAIR_Y),
        ((0.25 + 0.0j, (0, 0)), (0.25 + 0.0j, (1, 1))),
    )


def polynomial_suite() -> Dict[str, PolynomialFunction]:
    """The standard test observables, keyed by name."""
    return {
        "density": affine_polynomial(fock.N_UP + fock.N_DN),
        "magnetization": affine_polynomial(fock.N_UP - fock.N_DN),
        "double_occupancy": affine_polynomial((fock.N_UP @ fock.N_DN).astype(complex)),
        "condensate": condensate_polynomial(),
        "pair_re": 0.5 * affine_polynomial(PAIR_X),
        "pair_im": 0.5 * affine_polynomial(PAIR_Y),
    }


def even_traceless_basis() -> Tuple[np.ndarray, ...]:
    """Orthonormal (Hilbert-Schmidt) basis of traceless even Hermitian 4x4 matrices.

    Seven directions: three traceless diagonals and the Hermitian pairs of
    the two even off-diagonal entries (vacuum-pair and up-down).
    """
    mats = []
    d1 = np.diag([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)
    d2 = np.diag([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    d3 = np.diag([1.0, -1.0, -1.0, 1.0]) / 2.0
    mats.extend([d1, d2, d3])
    for (i, j) in ((0, 3), (1, 2)):
        re = np.zeros((4, 4), dtype=complex)
        re[i, j] = re[j, i] = 1.0 / math.sqrt(2.0)
        im = np.zeros((4, 4), dtype=complex)
        im[i, j] = -1j / math.sqrt(2.0)
        im[j, i] = 1j / math.sqrt(2.0)
        mats.extend([re, im])
    return tuple(m.astype(complex) for m in mats)


_EVEN_BASIS = even_traceless_basis()


#: Smallest accepted finite-difference step of the Liouville residuals.
FD_STEP_FLOOR = 1e-11


@dataclass(frozen=True)
class LiouvilleResult:
    lhs: float  # time derivative of f along the flow (real part)
    rhs: float  # Poisson bracket {h, V_t f} at the initial state
    residual: float
    fd_error_estimate: float


def liouville_residuals(
    params: model.ModelParams,
    fs: Dict[str, PhaseFunction],
    rho0: OnSiteState,
    t: float,
    fd_step: float = 1e-4,
) -> Dict[str, LiouvilleResult]:
    """Liouville residuals for several observables at one (state, time).

    For each f this measures |d/dt f(flow(t)) - {h, V_t f}(rho0)| with both
    sides numerical.  The time derivative uses a Richardson-refined central
    difference of the solved flow.  The bracket side needs the convex
    derivative of the evolved observable V_t f as a function on the state
    space; it is assembled from directional finite differences along the
    seven-direction even traceless basis, each direction evaluated by the
    closed-form flow of the displaced initial matrix (which may leave the
    state cone; the closed form does not mind).  Those flows do not depend
    on f, so they are shared by the whole batch.

    ``fd_step`` must stay at least ``FD_STEP_FLOOR``, otherwise the
    difference quotient is dominated by rounding; the returned estimate
    accumulates the observed Richardson corrections.
    """
    if fd_step < FD_STEP_FLOOR:
        raise ValueError(
            f"fd_step must be >= {FD_STEP_FLOOR:g}; below it the difference "
            "quotient would be dominated by rounding"
        )

    h_t = fd_step
    traj = flow_onsite(params, rho0, [t - h_t, t - 0.5 * h_t, t + 0.5 * h_t, t + h_t])

    # perturbed evolutions, shared across all observables
    d0 = rho0.matrix.astype(complex)
    scales = (fd_step, 0.5 * fd_step)
    evolved: Dict[Tuple[int, int, float], np.ndarray] = {}
    for k, b in enumerate(_EVEN_BASIS):
        for s in scales:
            for sign in (1, -1):
                evolved[(k, sign, s)] = ClosedFormFlow.from_matrix(
                    params, d0 + sign * s * b
                )(t)

    dh_class = convex_derivative(classical_hamiltonian(params), d0)
    eye = np.eye(4, dtype=complex)
    out: Dict[str, LiouvilleResult] = {}
    for name, f in fs.items():
        vals = [complex(f(s)) for s in traj.matrices]
        d1 = (vals[3] - vals[0]) / (2.0 * h_t)
        d2 = (vals[2] - vals[1]) / h_t
        lhs = (4.0 * d2 - d1) / 3.0
        fd_err = abs(d2 - d1) / 3.0

        dvf = np.zeros((4, 4), dtype=complex)
        for k, b in enumerate(_EVEN_BASIS):
            deriv = []
            for s in scales:
                plus = f(evolved[(k, 1, s)])
                minus = f(evolved[(k, -1, s)])
                deriv.append((plus - minus) / (2.0 * s))
            coeff = (4.0 * deriv[1] - deriv[0]) / 3.0
            fd_err += abs(deriv[1] - deriv[0]) / 3.0
            dvf += coeff * b
        dvf -= np.trace(d0 @ dvf) * eye  # centering: rho0(D V_t f) = 0

        rhs = complex(np.trace(d0 @ (1j * (dh_class @ dvf - dvf @ dh_class))))
        out[name] = LiouvilleResult(
            lhs=float(np.real(lhs)),
            rhs=float(np.real(rhs)),
            residual=float(abs(complex(lhs) - rhs)),
            fd_error_estimate=float(fd_err),
        )
    return out


# ---------------------------------------------------------------------------
# Symmetric rotor reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotorState:
    """Rotor coordinates (Re z, Im z, shifted density)."""

    omega1: float
    omega2: float
    omega3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.omega1, self.omega2, self.omega3])

    @property
    def planar_norm2(self) -> float:
        return self.omega1**2 + self.omega2**2


_ROTOR_SLACK = 1e-8


def rotor_map(params: model.ModelParams, rho: StateLike) -> RotorState:
    """Project a state to rotor coordinates.

    omega1 + i omega2 is the Cooper field rho(a_dn a_up) and omega3 is the
    precession frequency 2(mu - lam) + gamma (1 - d); the image lives in the
    solid cylinder |omega_12| <= 1 with omega3 within gamma of 2(mu - lam).
    """
    d = model.density_matrix(rho)
    z = complex(np.trace(d @ fock.PAIR))
    dens = float(np.trace(d @ (fock.N_UP + fock.N_DN)).real)
    omega3 = model.precession(params, dens)
    state = RotorState(omega1=z.real, omega2=z.imag, omega3=omega3)
    if state.planar_norm2 > 1.0 + _ROTOR_SLACK:
        raise ValueError(f"rotor coordinates leave the unit disc: {state}")
    center = model.precession(params, 1.0)
    if abs(omega3 - center) > params.gamma + _ROTOR_SLACK:
        raise ValueError(f"omega3 = {omega3} outside the admissible band")
    return state


def rotor_flow(omega0: RotorState, times: Sequence[float]) -> Tuple[RotorState, ...]:
    """Rigid precession of the rotor at frequency omega3, in closed form.

    The rotor equations d omega1/dt = -omega3 omega2, d omega2/dt =
    omega3 omega1, d omega3/dt = 0 give
    omega1 + i omega2 = (omega1_0 + i omega2_0) e^{i omega3 t}.
    """
    planar = complex(omega0.omega1, omega0.omega2) * np.exp(
        1j * omega0.omega3 * np.asarray(times, dtype=float)
    )
    return tuple(RotorState(p.real, p.imag, omega0.omega3) for p in planar)
