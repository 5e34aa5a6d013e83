"""Classical mechanics on the space of even on-site states.

Observables are polynomials f(rho) = g(rho(A_1), ..., rho(A_n)) in the
expectations of self-adjoint one-site operators.  The convex derivative

    Df(rho) = sum_j (A_j - rho(A_j) 1) d_j g(rho(A_1), ..., rho(A_n))

is an operator-valued gradient centered so that rho(Df(rho)) = 0, and

    {f, g}(rho) = rho( i [Df(rho), Dg(rho)] )

is a Poisson bracket on them.  The mean-field flow is
Hamiltonian for this bracket with the quadratic energy function
h(rho) = rho(h0) - gamma |rho(a_dn a_up)|**2; ``liouville_residuals``
measures how well d/dt f(flow) matches {h, f(flow)} over a whole time grid,
both sides exact: the flow is the closed-form phase map, whose tangent in
the seed is known in closed form.

Everything here works on stacks, of states and of polynomials: the
operators of an observable are one read-only (n, 4, 4) array,
``arguments`` maps a state or a stack (..., 4, 4) to the expectations
(..., n) by one einsum, and a stack of polynomials over those operators
(``PolynomialFunction.stack``) is one pair of index tables with leading
batch axes.  Values, gradients, sums, products and bracket polynomials
broadcast the polynomial batch against the leading axes of the states, and
the convex derivative and the bracket are contractions over the same axes,
so one bracket call evaluates a stack of polynomials on a stack of states.

Projecting a state to (Re z, Im z, shifted density) turns the flow into the
rigid precession of a symmetric rotor; ``rotor_map`` and ``rotor_flow``
realize the two legs of that commuting diagram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from . import dynamics, fock, model
from .flow import ClosedFormFlow
from .model import StateLike
from .states import OnSiteState, _where

#: Self-adjoint quadratures of the pair field: expectations 2 Re z and 2 Im z.
PAIR_X: np.ndarray = fock.PAIR + fock.PAIR_DAG
PAIR_Y: np.ndarray = 1j * (fock.PAIR_DAG - fock.PAIR)

HERMITIAN_TOL = 1e-12

_EYE4 = np.eye(4, dtype=complex)


def _check_operators(operators: Sequence[np.ndarray]) -> np.ndarray:
    """The operators as one read-only (n, 4, 4) stack, each checked self-adjoint."""
    for k, op in enumerate(operators):
        if np.shape(op) != (4, 4):
            raise ValueError(f"operator {k} must be 4x4")
    if not len(operators):
        raise ValueError("need at least one operator")
    stack = np.array(operators, dtype=complex)
    # "<=" so that a NaN entry fails too
    bad = ~(abs(stack - stack.swapaxes(-1, -2).conj()).max(axis=(-2, -1)) <= HERMITIAN_TOL)
    if bad.any():
        raise ValueError(f"operator {np.flatnonzero(bad)[0]} must be self-adjoint")
    stack.setflags(write=False)
    return stack


def _scalar_or_array(value: np.ndarray) -> Union[complex, np.ndarray]:
    """A Python complex for one state, the array for a stack."""
    return complex(value) if np.ndim(value) == 0 else value


Monomial = Tuple[complex, Tuple[int, ...]]


def _monomial_tables(
    polynomials: Sequence[Sequence[Monomial]], n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(B, M, D) factor and (B, M) coefficient tables of B monomial lists over n
    operators: each list padded to M monomials with coefficient 0, and each
    monomial's indices sorted and padded to degree D with the index n of the
    constant 1."""
    canon = [
        [(complex(c), tuple(sorted(map(int, idx)))) for c, idx in monos] for monos in polynomials
    ]
    for monos in canon:
        for _, idx in monos:
            if idx and (idx[0] < 0 or idx[-1] >= n):
                raise ValueError(f"monomial index out of range: {idx}")
    n_mono = max(map(len, canon), default=0)
    degree = max((len(idx) for monos in canon for _, idx in monos), default=0)
    padded = [monos + [(0j, ())] * (n_mono - len(monos)) for monos in canon]
    factors = np.array(
        [[idx + (n,) * (degree - len(idx)) for _, idx in monos] for monos in padded], dtype=int
    )
    coeffs = np.array([[c for c, _ in monos] for monos in padded], dtype=complex)
    return factors.reshape(len(canon), n_mono, degree), coeffs.reshape(len(canon), n_mono)


def _read_monomials(factors: np.ndarray, coeffs: np.ndarray, n: int) -> tuple:
    """The (coefficient, indices) rows of tables sorted along each monomial
    (padding last), nested over their batch axes."""
    if coeffs.ndim > 1:
        return tuple(_read_monomials(f, c, n) for f, c in zip(factors, coeffs))
    return tuple(
        (c, tuple(i for i in row if i < n)) for c, row in zip(coeffs.tolist(), factors.tolist())
    )


def _leave_one_out(degree: int) -> np.ndarray:
    """(D, D - 1) table whose row p lists the positions other than p."""
    return (np.arange(degree)[:, None] + np.arange(1, degree)) % max(degree, 1)


@dataclass(frozen=True, init=False, eq=False)
class PolynomialFunction:
    """Polynomial observable, or a stack of them, with exact (symbolic)
    monomial differentiation.

    ``monomials`` is a list of (coefficient, index multiset); the multiset
    lists which operator expectation each factor refers to, repeats allowed.
    The empty tuple is the constant monomial.

    The monomials are held as index tables: ``_factors`` (..., M, D) gives
    the operator index of each factor, padded to the largest degree with the
    index n of the constant 1, and ``_coeffs`` (..., M) the coefficients.
    The leading axes are a batch of polynomials over one operator stack
    (:meth:`stack`); one polynomial has none.  A polynomial of a stack with
    fewer monomials than M is padded with coefficient 0.  The value and the
    gradient are a gather, a product and a contraction or a scatter over
    any stack (..., n) of argument vectors, whose leading axes broadcast
    against the batch.  The constructors sort each monomial's indices;
    tables derived from them by sums, products and brackets are sorted only
    when ``monomials`` reads them.  The gradient and the bracket also need
    the positions of the other factors of a monomial, a (D, D - 1) table
    built on the first call that needs it and kept with the others.
    """

    operators: np.ndarray
    _factors: np.ndarray = field(repr=False, compare=False)
    _coeffs: np.ndarray = field(repr=False, compare=False)
    _others: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __init__(self, operators: Sequence[np.ndarray], monomials: Sequence[Monomial]) -> None:
        ops = _check_operators(operators)
        factors, coeffs = _monomial_tables([monomials], len(ops))
        self._set_tables(ops, factors[0], coeffs[0])

    @classmethod
    def stack(
        cls, operators: Sequence[np.ndarray], polynomials: Sequence[Sequence[Monomial]]
    ) -> "PolynomialFunction":
        """B polynomials, one monomial list each, over one operator stack
        checked once; batch shape (B,)."""
        ops = _check_operators(operators)
        return cls._from_tables(ops, *_monomial_tables(polynomials, len(ops)))

    @classmethod
    def _from_tables(
        cls, operators: np.ndarray, factors: np.ndarray, coeffs: np.ndarray
    ) -> "PolynomialFunction":
        """The polynomials over an already checked operator stack with the
        given (..., M, D) factor table, padded with n, and coefficients (..., M)."""
        poly = object.__new__(cls)
        poly._set_tables(operators, factors, coeffs)
        return poly

    def _set_tables(self, ops: np.ndarray, factors: np.ndarray, coeffs: np.ndarray) -> None:
        for name, value in (
            ("operators", ops), ("_factors", factors), ("_coeffs", coeffs), ("_others", None)
        ):
            object.__setattr__(self, name, value)

    def _leave_one_out_index(self) -> np.ndarray:
        """:func:`_leave_one_out` at the degree of the tables, built once."""
        if self._others is None:
            object.__setattr__(self, "_others", _leave_one_out(self._factors.shape[-1]))
        return self._others

    @property
    def n_args(self) -> int:
        return len(self.operators)

    @property
    def batch_shape(self) -> Tuple[int, ...]:
        """The leading axes of the tables: () for one polynomial."""
        return self._coeffs.shape[:-1]

    @property
    def monomials(self) -> tuple:
        """(coefficient, sorted indices) of each monomial, padding included;
        for a stack, nested tuples over its batch axes."""
        return _read_monomials(np.sort(self._factors), self._coeffs, self.n_args)

    def arguments(self, rho: StateLike) -> np.ndarray:
        """rho(A_j) for every operator, shape (..., n) for a state or a stack (..., 4, 4)."""
        return np.einsum("...ij,nji->...n", model.density_matrix(rho), self.operators).real

    def _factor_values(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each factor's value at argument vectors (..., n), shape (..., M, D)
        with the leading axes of x and of the batch broadcast, and its flat
        position in those vectors with the constant 1 appended at index n."""
        x = np.asarray(x)
        batch = self.batch_shape
        # np.broadcast_shapes costs a few microseconds, most of a one-state call
        lead = np.broadcast_shapes(x.shape[:-1], batch) if batch else x.shape[:-1]
        padded = np.ones(lead + (self.n_args + 1,), dtype=np.result_type(x, float))
        padded[..., :-1] = x
        rows = np.arange(math.prod(lead)).reshape(lead + (1, 1)) * (self.n_args + 1)
        index = rows + self._factors
        return padded.reshape(-1)[index], index

    def g(self, x: np.ndarray) -> Union[complex, np.ndarray]:
        """Value at argument vectors of shape (..., n); the leading axes
        broadcast with the batch."""
        terms = np.prod(self._factor_values(x)[0], axis=-1)
        return np.einsum("...m,...m->...", terms, self._coeffs)[()]

    def gradient_args(self, x: np.ndarray) -> np.ndarray:
        """Exact gradient at argument vectors of shape (..., n); shape (..., n),
        the leading axes broadcast with the batch.

        Each factor contributes its monomial's coefficient times the product
        of the other factors to the entry of its own argument: a scatter-add
        to the factors' flat positions, whose padding lands in a dropped
        entry n.
        """
        values, index = self._factor_values(x)
        rest = np.prod(values[..., self._leave_one_out_index()], axis=-1)
        grad = np.zeros(values.shape[:-2] + (self.n_args + 1,), dtype=complex)
        np.add.at(grad.reshape(-1), index.ravel(), (rest * self._coeffs[..., None]).ravel())
        return grad[..., :-1]

    def __call__(self, rho: StateLike) -> Union[complex, np.ndarray]:
        return _scalar_or_array(self.g(self.arguments(rho)))

    def _require_same_ops(self, other: "PolynomialFunction") -> None:
        if self.operators is not other.operators and not np.array_equal(
            self.operators, other.operators
        ):
            raise ValueError("polynomial algebra requires a shared operator tuple")

    def __add__(self, other: "PolynomialFunction") -> "PolynomialFunction":
        self._require_same_ops(other)
        batch = np.broadcast_shapes(self.batch_shape, other.batch_shape)
        (m_self, d_self), (m_other, d_other) = self._factors.shape[-2:], other._factors.shape[-2:]
        factors = np.full(batch + (m_self + m_other, max(d_self, d_other)), self.n_args)
        factors[..., :m_self, :d_self] = self._factors
        factors[..., m_self:, :d_other] = other._factors
        coeffs = np.concatenate(
            [
                np.broadcast_to(self._coeffs, batch + (m_self,)),
                np.broadcast_to(other._coeffs, batch + (m_other,)),
            ],
            axis=-1,
        )
        return PolynomialFunction._from_tables(self.operators, factors, coeffs)

    def __mul__(self, other: Union["PolynomialFunction", complex]) -> "PolynomialFunction":
        if not isinstance(other, PolynomialFunction):
            return PolynomialFunction._from_tables(
                self.operators, self._factors, complex(other) * self._coeffs
            )
        self._require_same_ops(other)
        # every pair of monomials, self's index running slowest
        left, right = self._factors[..., :, None, :], other._factors[..., None, :, :]
        pairs = np.broadcast_shapes(left.shape[:-1], right.shape[:-1])
        factors = np.concatenate(
            [
                np.broadcast_to(left, pairs + left.shape[-1:]),
                np.broadcast_to(right, pairs + right.shape[-1:]),
            ],
            axis=-1,
        )
        coeffs = self._coeffs[..., :, None] * other._coeffs[..., None, :]
        rows = pairs[:-2] + (pairs[-2] * pairs[-1],)
        return PolynomialFunction._from_tables(
            self.operators, factors.reshape(rows + factors.shape[-1:]), coeffs.reshape(rows)
        )

    __rmul__ = __mul__


def convex_derivative(f: PolynomialFunction, rho: StateLike) -> np.ndarray:
    """Centered operator-valued gradient; rho(convex_derivative(f, rho)) = 0.

    ``rho`` may be a stack (..., 4, 4), whose leading axes broadcast with
    the batch of f; the derivatives come back stacked.
    """
    d = model.density_matrix(rho)
    x = f.arguments(d)
    centered = f.operators - x[..., None, None] * _EYE4
    return np.einsum("...j,...jab->...ab", f.gradient_args(x), centered)


def poisson_bracket(
    f: PolynomialFunction, g: PolynomialFunction, rho: StateLike
) -> Union[complex, np.ndarray]:
    """{f, g}(rho) = rho(i [Df(rho), Dg(rho)]); antisymmetric and Leibniz.

    One complex for one state and polynomial, an array for a stack (..., 4,
    4) of states or a stack of polynomials, the leading axes broadcast.
    """
    d = model.density_matrix(rho)
    df = convex_derivative(f, d)
    dg = convex_derivative(g, d)
    return _scalar_or_array(np.einsum("...ij,...ji->...", d, 1j * (df @ dg - dg @ df)))


def bracket_polynomial(f: PolynomialFunction, g: PolynomialFunction) -> PolynomialFunction:
    """{f, g} as a polynomial over the operators of f, of g and their brackets.

    For polynomials the bracket is again a polynomial: expanding
    rho(i[Df, Dg]) by the product rule gives, for each factor A_j of a
    monomial of f and each factor B_k of a monomial of g, the product of
    the remaining factors and the expectation of i[A_j, B_k] (the centered
    identity parts drop out of the commutator).  The new operator list is
    f's, then g's, then i[A_j, B_k] at index n_f + n_g + j n_g + k; the
    tables are built from those of f and g, whose operators are already
    checked.  Stacks of polynomials broadcast: the factor positions that
    hold an operator in some polynomial of the batch are paired in all of
    them; each polynomial's own pairs come first, the rest are padding with
    coefficient 0, and the tables keep as many rows as the longest list of
    pairs.  A single polynomial keeps every pair, in product-rule order.
    """
    n_f, n_g = f.n_args, g.n_args
    comms = 1j * model.hermitian_commutator(f.operators[:, None], g.operators[None, :])
    ops = np.concatenate([f.operators, g.operators, comms.reshape(-1, 4, 4)])
    ops.setflags(write=False)
    n = len(ops)
    batch = np.broadcast_shapes(f.batch_shape, g.batch_shape)
    # the factor positions (monomial, position) of f and of g, then every pair of them
    mono_f, pos_f = np.nonzero((f._factors < n_f).any(axis=tuple(range(f._factors.ndim - 2))))
    mono_g, pos_g = np.nonzero((g._factors < n_g).any(axis=tuple(range(g._factors.ndim - 2))))
    if not (len(mono_f) and len(mono_g)):  # constants on one side: the zero polynomial
        zero = np.zeros(batch + (1, 0), dtype=int), np.zeros(batch + (1,), dtype=complex)
        return PolynomialFunction._from_tables(ops, *zero)
    i = np.repeat(np.arange(len(mono_f)), len(mono_g))
    j = np.tile(np.arange(len(mono_g)), len(mono_f))
    a, b = f._factors[..., mono_f, pos_f][..., i], g._factors[..., mono_g, pos_g][..., j]
    rest_f = f._factors[..., mono_f[:, None], f._leave_one_out_index()[pos_f]]
    rest_g = g._factors[..., mono_g[:, None], g._leave_one_out_index()[pos_g]]
    parts = (
        np.where(rest_f == n_f, n, rest_f)[..., i, :],
        np.where(rest_g == n_g, n, rest_g + n_f)[..., j, :],
        (n_f + n_g + a * n_g + b)[..., None],
    )
    factors = np.concatenate([np.broadcast_to(p, batch + p.shape[-2:]) for p in parts], axis=-1)
    used = np.broadcast_to((a < n_f) & (b < n_g), batch + i.shape)
    coeffs = np.broadcast_to(
        f._coeffs[..., mono_f][..., i] * g._coeffs[..., mono_g][..., j], used.shape
    )
    # each polynomial's own pairs first, the tables cut to the longest list of them
    first = np.argsort(~used, axis=-1, kind="stable")[..., : max(int(used.sum(-1).max()), 1)]
    used, coeffs = (np.take_along_axis(t, first, axis=-1) for t in (used, coeffs))
    factors = np.take_along_axis(factors, first[..., None], axis=-2)
    return PolynomialFunction._from_tables(
        ops, np.where(used[..., None], factors, n), np.where(used, coeffs, 0)
    )


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


_EVEN_BASIS = np.array(even_traceless_basis())
#: tr(b N) of each basis direction b: how far it moves the density.
_BASIS_DENSITY = np.einsum("kij,ji->k", _EVEN_BASIS, fock.SITE_OBSERVABLES["d"]).real
#: Projector on |up-dn>, the one level whose phase rate nu moves with the seed.
_PAIR_LEVEL = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)


def _flow_tangent(
    params: model.ModelParams, flow: ClosedFormFlow, t: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The phase map Phi_t(rho0) at times t, (T, 4, 4), and its derivative in
    the seed along every direction b of the even traceless basis, (T, 7, 4, 4).

    Phi_t(rho) = V_t rho V_t^dagger with V_t = diag(1, e^{iht}, e^{-iht},
    e^{i nu t}), and nu = 2(mu - lam) + gamma (1 - tr(rho N)) moves with the
    seed by dnu = -gamma tr(b N), so

        DPhi_t(rho0)[b] = V_t b V_t^dagger + i t dnu [E, Phi_t(rho0)],

    with E the projector on |up-dn>.
    """
    states = flow(t)
    dnu = -params.gamma * _BASIS_DENSITY
    rotated = _EVEN_BASIS * np.exp(1j * t[:, None, None, None] * flow.rates)
    drift = 1j * t[:, None, None, None] * dnu[:, None, None] * (
        _PAIR_LEVEL @ states - states @ _PAIR_LEVEL
    )[:, None]
    return states, rotated + drift


@dataclass(frozen=True)
class LiouvilleResult:
    """One observable's residuals, each a float or an array shaped like the times."""

    lhs: Union[float, np.ndarray]  # time derivative of f along the flow (real part)
    rhs: Union[float, np.ndarray]  # Poisson bracket {h, V_t f} at the initial state
    residual: Union[float, np.ndarray]


def liouville_residuals(
    params: model.ModelParams,
    fs: Dict[str, PolynomialFunction],
    rho0: OnSiteState,
    times: Union[float, np.ndarray],
) -> Dict[str, LiouvilleResult]:
    """Liouville residuals for several observables at one state and many times.

    For each f and each t of ``times`` (a float or an array) this measures
    |d/dt f(Phi_t) - {h, V_t f}(rho0)|, with Phi_t the closed-form flow and
    V_t f = f o Phi_t, both sides exact.  The time derivative is
    tr(dPhi_t/dt Df(Phi_t)) with dPhi_t/dt = -i [dh(Phi_t), Phi_t] from the
    model's generator.  The bracket side needs the convex derivative of V_t f
    at rho0; its coefficients on the seven-direction even traceless basis
    are tr(DPhi_t(rho0)[b] Df(Phi_t)), from the exact tangent of the phase
    map (:func:`_flow_tangent`), and it is centred and bracketed with
    Dh(rho0).

    The times are taken TIME_BLOCK at a time (``dynamics.TIME_BLOCK``), so
    memory does not grow with the grid; each observable is evaluated once
    per block on the whole stack.  The fields of each result have the shape
    of ``times``.
    """
    rho0.require_even()
    times = np.asarray(times, dtype=float)
    flat = times.ravel()
    d0 = rho0.matrix
    flow = ClosedFormFlow.from_matrix(params, d0)
    dh_class = convex_derivative(classical_hamiltonian(params), d0)
    sides = {name: np.empty((2, flat.size), dtype=complex) for name in fs}
    for start in range(0, flat.size, dynamics.TIME_BLOCK):
        block = slice(start, start + dynamics.TIME_BLOCK)
        states, tangent = _flow_tangent(params, flow, flat[block])
        velocity = -1j * model.hermitian_commutator(
            model.effective_hamiltonian(params, states), states
        )
        for name, f in fs.items():
            df = convex_derivative(f, states)
            lhs = np.einsum("tij,tji->t", velocity, df)
            coeff = np.einsum("tkij,tji->tk", tangent, df)
            dvf = np.einsum("tk,kij->tij", coeff, _EVEN_BASIS)
            # centering: rho0(D V_t f) = 0
            dvf -= np.einsum("ij,tji->t", d0, dvf)[:, None, None] * _EYE4
            rhs = np.einsum("ij,tji->t", d0, 1j * (dh_class @ dvf - dvf @ dh_class))
            sides[name][:, block] = (lhs, rhs)
    out: Dict[str, LiouvilleResult] = {}
    for name, (lhs, rhs) in sides.items():
        out[name] = LiouvilleResult(
            lhs=lhs.real.reshape(times.shape)[()],
            rhs=rhs.real.reshape(times.shape)[()],
            residual=np.abs(lhs - rhs).reshape(times.shape)[()],
        )
    return out


# ---------------------------------------------------------------------------
# Symmetric rotor reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotorState:
    """Rotor coordinates (Re z, Im z, shifted density).

    Floats for one state; arrays of one shape for a stack of states or a
    time grid.
    """

    omega1: Union[float, np.ndarray]
    omega2: Union[float, np.ndarray]
    omega3: Union[float, np.ndarray]

    def as_array(self) -> np.ndarray:
        """The coordinates on a last axis of length 3."""
        return np.stack(np.broadcast_arrays(self.omega1, self.omega2, self.omega3), axis=-1)

    @property
    def planar_norm2(self) -> Union[float, np.ndarray]:
        return self.omega1**2 + self.omega2**2


_ROTOR_SLACK = 1e-8


def rotor_map(params: model.ModelParams, rho: StateLike) -> RotorState:
    """Project a state, or a stack (..., 4, 4) of them, to rotor coordinates.

    omega1 + i omega2 is the Cooper field rho(a_dn a_up) and omega3 is the
    precession frequency 2(mu - lam) + gamma (1 - d); the image lives in the
    solid cylinder |omega_12| <= 1 with omega3 within gamma of 2(mu - lam).
    Both ranges are checked on the whole stack; the message names the index
    of the first state outside them.
    """
    d = model.density_matrix(rho)
    z = np.trace(d @ fock.PAIR, axis1=-2, axis2=-1)
    dens = np.trace(d @ (fock.N_UP + fock.N_DN), axis1=-2, axis2=-1).real
    state = RotorState(z.real[()], z.imag[()], model.precession(params, dens)[()])
    norm2 = np.asarray(state.planar_norm2)
    # "<=" so that a NaN state fails too
    bad = ~(norm2 <= 1.0 + _ROTOR_SLACK)
    if bad.any():
        raise ValueError(
            f"{_where(bad)}rotor coordinates leave the unit disc: |omega_12|**2 = "
            f"{norm2[bad].flat[0]}"
        )
    omega3 = np.asarray(state.omega3)
    bad = ~(abs(omega3 - model.precession(params, 1.0)) <= params.gamma + _ROTOR_SLACK)
    if bad.any():
        raise ValueError(f"{_where(bad)}omega3 = {omega3[bad].flat[0]} outside the admissible band")
    return state


def rotor_flow(omega0: RotorState, times: Union[float, np.ndarray]) -> RotorState:
    """Rigid precession of the rotor at frequency omega3, in closed form.

    The rotor equations d omega1/dt = -omega3 omega2, d omega2/dt =
    omega3 omega1, d omega3/dt = 0 give
    omega1 + i omega2 = (omega1_0 + i omega2_0) e^{i omega3 t}.  The
    coordinates come back as arrays of shape ``np.shape(times)``.
    """
    planar = complex(omega0.omega1, omega0.omega2) * np.exp(
        1j * omega0.omega3 * np.asarray(times, dtype=float)
    )
    return RotorState(planar.real, planar.imag, np.full(planar.shape, float(omega0.omega3)))
