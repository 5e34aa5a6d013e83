import math
from dataclasses import replace

import numpy as np
import pytest

from mfbcs import classical, dynamics, fock, model, verification
from mfbcs.classical import (
    PolynomialFunction,
    RotorState,
    affine_polynomial,
    bracket_polynomial,
    classical_hamiltonian,
    condensate_polynomial,
    convex_derivative,
    even_traceless_basis,
    liouville_residuals,
    poisson_bracket,
    polynomial_suite,
    rotor_flow,
    rotor_map,
)
from mfbcs.flow import ClosedFormFlow, flow_onsite, observables
from mfbcs.states import OnSiteState



def test_even_basis_orthonormal():
    basis = even_traceless_basis()
    assert len(basis) == 7
    parity = fock.PARITY_1
    for i, a in enumerate(basis):
        assert abs(np.trace(a)) < 1e-15
        assert np.max(np.abs(a - a.conj().T)) < 1e-15
        assert np.max(np.abs(a @ parity - parity @ a)) < 1e-15
        for j, b in enumerate(basis):
            ip = np.trace(a.conj().T @ b).real
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-14


def test_convex_derivative_affine(rng):
    a = classical.PAIR_X
    f = affine_polynomial(a)
    rho = OnSiteState.random_even(rng)
    expected = a - rho.expect(a).real * np.eye(4)
    assert np.allclose(convex_derivative(f, rho), expected, atol=1e-14)


def test_convex_derivative_condensate(rng):
    # derivative of |z|^2: z P+ + zbar P - 2|z|^2
    rho = OnSiteState.random_even(rng)
    z = rho.pair_expectation()
    expected = z * fock.PAIR_DAG + np.conj(z) * fock.PAIR - 2.0 * abs(z) ** 2 * np.eye(4)
    got = convex_derivative(condensate_polynomial(), rho)
    assert np.allclose(got, expected, atol=1e-13)


def test_convex_derivative_constant_and_centering(rng):
    const = PolynomialFunction((classical.PAIR_X,), ((2.5 + 0j, ()),))
    rho = OnSiteState.random_even(rng)
    assert np.abs(convex_derivative(const, rho)).max() == 0.0
    for f in polynomial_suite().values():
        d = convex_derivative(f, rho)
        assert abs(np.trace(rho.matrix @ d)) < 1e-12


def test_bracket_antisymmetry_and_trivial_cases(rng):
    rho = OnSiteState.random_even(rng)
    f = condensate_polynomial()
    assert poisson_bracket(f, f, rho) == 0.0
    n_up = affine_polynomial(fock.N_UP)
    n_dn = affine_polynomial(fock.N_DN)
    assert abs(poisson_bracket(n_up, n_dn, rho)) == 0.0


def test_bracket_against_direct_trace(rng):
    # affine functions: {A^, B^}(rho) = rho(i[A, B])
    a, b = classical.PAIR_X, classical.PAIR_Y
    fa = affine_polynomial(a)
    fb = affine_polynomial(b)
    for _ in range(5):
        rho = OnSiteState.random_even(rng)
        direct = np.trace(rho.matrix @ (1j * (a @ b - b @ a)))
        assert abs(poisson_bracket(fa, fb, rho) - direct) < 1e-12


def test_classical_hamiltonian_derivative(rng):
    params = model.ModelParams.random(rng)
    h_fn = classical_hamiltonian(params)
    rho = OnSiteState.random_even(rng)
    z = rho.pair_expectation()
    h0 = model.onsite_h(params)
    expected = (
        h0
        - params.gamma * (z * fock.PAIR_DAG + np.conj(z) * fock.PAIR)
        + (2.0 * params.gamma * abs(z) ** 2 - rho.expect(h0).real) * np.eye(4)
    )
    got = convex_derivative(h_fn, rho)
    assert np.allclose(got, expected, atol=1e-12)
    # differs from the flow generator by a multiple of the identity
    diff = got - model.effective_hamiltonian(params, rho)
    off = diff - diff[0, 0] * np.eye(4)
    assert np.max(np.abs(off)) < 1e-12
    assert poisson_bracket(h_fn, h_fn, rho) == 0.0


def test_classical_hamiltonian_gamma_zero(rng):
    params = model.ModelParams(mu=0.4, h=0.2, lam=0.6, gamma=0.0)
    h_fn = classical_hamiltonian(params)
    rho = OnSiteState.random_even(rng)
    h0 = model.onsite_h(params)
    expected = h0 - rho.expect(h0).real * np.eye(4)
    assert np.allclose(convex_derivative(h_fn, rho), expected, atol=1e-13)


def test_conservation_via_bracket(rng):
    suite = polynomial_suite()
    conserved = ("density", "magnetization", "double_occupancy", "condensate")
    for _ in range(10):
        params = model.ModelParams.random(rng)
        h_fn = classical_hamiltonian(params)
        rho = OnSiteState.random_even(rng)
        for name in conserved:
            assert abs(poisson_bracket(h_fn, suite[name], rho)) < 1e-10


def test_liouville_conserved_observables(rng):
    params = model.ModelParams.random(rng)
    rho0 = OnSiteState.random_even(rng)
    suite = polynomial_suite()
    res = liouville_residuals(
        params,
        {"density": suite["density"], "condensate": suite["condensate"]},
        rho0,
        0.5,
    )
    for r in res.values():
        assert abs(r.lhs) < 1e-6 and abs(r.rhs) < 1e-6
        assert r.residual < 1e-6


def test_liouville_pair_quadrature_at_zero(rng):
    # d/dt Re z at t = 0 equals -nu Im z0
    params = model.ModelParams.random(rng)
    rho0 = OnSiteState.random_even(rng)
    rec = observables(params, rho0)
    res = liouville_residuals(params, {"f": polynomial_suite()["pair_re"]}, rho0, 0.0)["f"]
    assert abs(res.lhs - (-rec.nu * rec.z.imag)) < 1e-6
    assert res.residual < 1e-6


def test_rotor_map_examples():
    p = model.ModelParams(mu=0.0, lam=0.0, gamma=1.3)
    r = rotor_map(p, OnSiteState.vacuum())
    assert (r.omega1, r.omega2) == (0.0, 0.0) and abs(r.omega3 - 1.3) < 1e-15
    p2 = model.ModelParams(mu=0.7, lam=0.7, gamma=2.0)
    r2 = rotor_map(p2, OnSiteState.maximally_mixed())
    assert abs(r2.omega3) < 1e-14 and r2.planar_norm2 < 1e-28
    # at density 1 + 2(mu-lam)/gamma the frequency vanishes
    p3 = model.ModelParams(mu=0.5, lam=0.0, gamma=2.0)
    target_d = 1.0 + 2.0 * (p3.mu - p3.lam) / p3.gamma  # 1.5
    alpha = math.asin(math.sqrt(target_d / 2.0))
    rho = OnSiteState.pair_superposition(alpha)
    assert abs(observables(p3, rho).d - target_d) < 1e-12
    assert abs(rotor_map(p3, rho).omega3) < 1e-12


def test_rotor_flow_basics():
    static = rotor_flow(RotorState(0.3, -0.2, 0.0), [0.0, 1.0, 5.0])
    assert static.as_array().shape == (3, 3)
    assert np.allclose(static.as_array(), [0.3, -0.2, 0.0], atol=1e-12)
    spun = rotor_flow(RotorState(1.0, 0.0, math.pi), [1.0])
    assert np.allclose(spun.as_array()[0], [-1.0, 0.0, math.pi], atol=1e-8)


def test_rotor_norm_conserved():
    times = np.linspace(0.0, 10.0, 21)
    norms = rotor_flow(RotorState(0.4, 0.3, 2.7), times).planar_norm2
    assert norms.shape == times.shape
    assert np.max(np.abs(norms - norms[0])) < 1e-9


def test_rotor_commuting_diagram(rng):
    times = np.linspace(0.0, 5.0, 11)
    for _ in range(3):
        params = model.ModelParams.random(rng)
        rho0 = OnSiteState.random_even(rng)
        traj = flow_onsite(params, rho0, times)
        rotor = rotor_flow(rotor_map(params, rho0), times)
        via_flow = rotor_map(params, traj.state_matrix(times))
        assert np.max(np.abs(via_flow.as_array() - rotor.as_array())) < 1e-6


def test_rotor_map_stack_matches_single_states(rng):
    params = model.ModelParams.random(rng)
    stack = np.array([OnSiteState.random_even(rng).matrix for _ in range(6)]).reshape(2, 3, 4, 4)
    batch = rotor_map(params, stack)
    assert batch.as_array().shape == (2, 3, 3)
    for idx in np.ndindex(2, 3):
        single = rotor_map(params, stack[idx])
        assert isinstance(single.omega1, float)
        assert np.array_equal(batch.as_array()[idx], single.as_array())


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.diag([0.0, 0.0, 0.0, 1.0]) + 2.0 * np.eye(4)[[3]].T @ np.eye(4)[[0]], "index 4: rotor "
         "coordinates leave the unit disc"),
        (np.diag([0.0, 0.0, 0.0, 1.0]) / 0.4, "index 4: omega3 = "),
    ],
    ids=["disc", "band"],
)
def test_rotor_map_range_checks_name_the_state(rng, bad, message):
    # the range checks run on the whole stack; the message names the first bad state
    params = model.ModelParams(gamma=1.0)
    good = [OnSiteState.random_even(rng).matrix for _ in range(4)]
    stack = np.array(good + [bad, bad])
    with pytest.raises(ValueError, match=message):
        rotor_map(params, stack)
    with pytest.raises(ValueError) as single:
        rotor_map(params, bad)
    assert "index" not in str(single.value)


def test_rotor_map_rejects_nan_states(rng):
    stack = np.array([OnSiteState.random_even(rng).matrix for _ in range(3)])
    stack[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="index 1: rotor coordinates leave the unit disc"):
        rotor_map(model.ModelParams(gamma=1.0), stack)


def test_polynomial_algebra_guard():
    f = affine_polynomial(classical.PAIR_X)
    g = affine_polynomial(classical.PAIR_Y)
    with pytest.raises(ValueError):
        _ = f * g  # different operator tuples
    h = f * 2.0
    assert h.monomials[0][0] == 2.0


def _random_polynomial(rng, ops, max_degree=3):
    monos = tuple(
        (complex(rng.normal(), rng.normal()),
         tuple(int(i) for i in rng.integers(0, len(ops), size=int(rng.integers(0, max_degree + 1)))))
        for _ in range(int(rng.integers(1, 4)))
    )
    return PolynomialFunction(ops, monos)


def _canonical(monomials):
    return tuple((complex(c), tuple(sorted(idx))) for c, idx in monomials)


def _same_monomials(got, expected):
    """Equal index lists in order; coefficients equal to rounding (numpy's
    complex product may differ from Python's in the last bit)."""
    assert [idx for _, idx in got] == [idx for _, idx in expected]
    for (c_got, _), (c_exp, _) in zip(got, expected):
        assert abs(c_got - c_exp) <= 4e-16 * abs(c_exp)


_BRACKET_OPS = (
    classical.PAIR_X,
    classical.PAIR_Y,
    (fock.N_UP + fock.N_DN).astype(complex),
    (fock.N_UP @ fock.N_DN).astype(complex),
)


def test_sums_and_products_from_tables_match_the_monomial_lists(rng):
    # the tables of f + g and f * g, built from those of f and g, against
    # polynomials constructed from the concatenated and the paired monomials
    for _ in range(20):
        f = _random_polynomial(rng, _BRACKET_OPS)
        g = _random_polynomial(rng, _BRACKET_OPS, max_degree=5)
        sum_ = PolynomialFunction(_BRACKET_OPS, f.monomials + g.monomials)
        product = PolynomialFunction(
            _BRACKET_OPS,
            tuple((c1 * c2, i1 + i2) for c1, i1 in f.monomials for c2, i2 in g.monomials),
        )
        scaled = PolynomialFunction(_BRACKET_OPS, tuple((2.5j * c, i) for c, i in f.monomials))
        for built, expected in ((f + g, sum_), (f * g, product), (2.5j * f, scaled)):
            _same_monomials(built.monomials, _canonical(expected.monomials))
            assert built.operators is f.operators  # not copied, not checked again
            rho = OnSiteState.random_even(rng)
            assert abs(built(rho) - expected(rho)) <= 1e-14 * (1 + abs(expected(rho)))
            x = built.arguments(rho)
            assert np.allclose(built.gradient_args(x), expected.gradient_args(x), rtol=1e-14)


def _bracket_by_loops(f, g):
    """The bracket polynomial monomial by monomial, by the product rule."""
    n_f, n_g = f.n_args, g.n_args
    monos = []
    for cf, idx_f in f.monomials:
        for pos_f, a in enumerate(idx_f):
            for cg, idx_g in g.monomials:
                for pos_g, b in enumerate(idx_g):
                    rest_g = tuple(n_f + k for k in idx_g[:pos_g] + idx_g[pos_g + 1:])
                    rest = idx_f[:pos_f] + idx_f[pos_f + 1:] + rest_g
                    monos.append((cf * cg, rest + (n_f + n_g + a * n_g + b,)))
    return _canonical(monos) if monos else ((0j, ()),)


def test_bracket_polynomial_matches_the_product_rule_and_the_bracket(rng):
    for _ in range(30):
        f, g = (_random_polynomial(rng, _BRACKET_OPS) for _ in range(2))
        inner = bracket_polynomial(f, g)
        _same_monomials(inner.monomials, _bracket_by_loops(f, g))
        assert inner.n_args == 4 + 4 + 16
        rho = OnSiteState.random_even(rng)
        assert abs(inner(rho) - poisson_bracket(f, g, rho)) <= 1e-13 * (1 + abs(inner(rho)))
    # operator lists of different lengths: i[A_j, B_k] sits at n_f + n_g + j n_g + k
    f = _random_polynomial(rng, _BRACKET_OPS[:2])
    g = _random_polynomial(rng, _BRACKET_OPS[1:])
    while not (f._factors.size and g._factors.size):
        f, g = _random_polynomial(rng, _BRACKET_OPS[:2]), _random_polynomial(rng, _BRACKET_OPS[1:])
    inner = bracket_polynomial(f, g)
    _same_monomials(inner.monomials, _bracket_by_loops(f, g))
    assert abs(inner(rho) - poisson_bracket(f, g, rho)) <= 1e-13 * (1 + abs(inner(rho)))
    constant = PolynomialFunction(_BRACKET_OPS, ((3.0, ()),))
    zero = bracket_polynomial(constant, f)
    assert zero.monomials == ((0j, ()),) and zero(rho) == 0


def _state_stack(rng, shape):
    stack = np.empty(shape + (4, 4), dtype=complex)
    for k in np.ndindex(shape):
        stack[k] = OnSiteState.random_even(rng).matrix
    return stack


def test_operators_are_one_read_only_stack():
    f = PolynomialFunction((classical.PAIR_X, classical.PAIR_Y), ((1.0, (0, 1)),))
    assert f.operators.shape == (2, 4, 4) and not f.operators.flags.writeable
    with pytest.raises(ValueError, match="operator 1 must be 4x4"):
        PolynomialFunction((classical.PAIR_X, np.eye(3)), ((1.0, (0,)),))
    with pytest.raises(ValueError, match="operator 2 must be self-adjoint"):
        PolynomialFunction((classical.PAIR_X, classical.PAIR_Y, fock.PAIR), ((1.0, (0,)),))
    with pytest.raises(ValueError, match="at least one operator"):
        PolynomialFunction((), ((1.0, ()),))


@pytest.mark.parametrize("shape", [(7,), (2, 3)])
def test_observables_on_a_stack_equal_the_per_state_loop(rng, shape):
    stack = _state_stack(rng, shape)
    ops = (classical.PAIR_X, classical.PAIR_Y, (fock.N_UP + fock.N_DN).astype(complex))
    poly = PolynomialFunction(
        ops, ((0.5 - 1j, ()), (2.0, (0,)), (-1.5j, (1, 2)), (0.25, (0, 0, 2)))
    )
    h_fn = classical_hamiltonian(model.ModelParams.random(rng))
    for f in (poly, h_fn):
        args, values = f.arguments(stack), f(stack)
        derivs = convex_derivative(f, stack)
        brackets = poisson_bracket(h_fn, f, stack)
        assert args.shape == shape + (f.n_args,)
        assert values.shape == brackets.shape == shape
        assert derivs.shape == shape + (4, 4)
        for k in np.ndindex(shape):
            assert np.array_equal(args[k], f.arguments(stack[k]))
            one = f(stack[k])
            assert isinstance(one, complex) and values[k] == one
            assert np.max(np.abs(derivs[k] - convex_derivative(f, stack[k]))) <= 1e-15
            assert abs(brackets[k] - poisson_bracket(h_fn, f, stack[k])) <= 1e-14
    x = poly.arguments(stack)
    grads = poly.gradient_args(x)
    for k in np.ndindex(shape):
        assert np.max(np.abs(grads[k] - poly.gradient_args(x[k]))) <= 1e-15


def _with_batch_shape(poly, shape):
    """A stack of polynomials with its batch axes reshaped to ``shape``."""
    n_mono, degree = poly._factors.shape[-2:]
    return PolynomialFunction._from_tables(
        poly.operators,
        poly._factors.reshape(shape + (n_mono, degree)),
        poly._coeffs.reshape(shape + (n_mono,)),
    )


@pytest.mark.parametrize("shape", [(7,), (2, 3)])
def test_polynomial_stacks_equal_the_per_polynomial_loop(rng, shape):
    # stacks of polynomials of different lengths and degrees (padded in the
    # tables) on a stack of states of the same shape, against one polynomial
    # and one state at a time; a single polynomial broadcasts over the stack
    size = math.prod(shape)
    states = _state_stack(rng, shape)
    lists = [[_random_polynomial(rng, _BRACKET_OPS).monomials for _ in range(size)] for _ in "fgh"]
    f, g, h = (_with_batch_shape(PolynomialFunction.stack(_BRACKET_OPS, m), shape) for m in lists)
    assert f.batch_shape == shape and len(f.monomials) == shape[0]
    h_fn = classical_hamiltonian(model.ModelParams.random(rng))

    def algebra(f, g, h):
        return {
            "f * g": f * g, "f + g": f + g, "2.5j h": 2.5j * h, "{g, h}": bracket_polynomial(g, h)
        }

    def brackets(f, g, h, rho):
        return {
            "{f, g}": poisson_bracket(f, g, rho),
            "{f, g h}": poisson_bracket(f, g * h, rho),
            "{f, {g, h}}": poisson_bracket(f, bracket_polynomial(g, h), rho),
            "{h_fn, f}": poisson_bracket(h_fn, f, rho),
        }

    stacked = algebra(f, g, h)
    stacked_values = {name: poly(states) for name, poly in stacked.items()}
    stacked_grads = {
        name: poly.gradient_args(poly.arguments(states)) for name, poly in stacked.items()
    }
    stacked_brackets = brackets(f, g, h, states)
    for k, idx in enumerate(np.ndindex(shape)):
        one = [PolynomialFunction(_BRACKET_OPS, m[k]) for m in lists]
        rho = states[idx]
        for name, poly in algebra(*one).items():
            assert stacked[name].batch_shape == shape
            value = poly(rho)
            assert abs(stacked_values[name][idx] - value) <= 1e-15 * (1 + abs(value)), name
            grad = poly.gradient_args(poly.arguments(rho))
            scale = 1 + np.abs(grad).max()
            assert np.max(np.abs(stacked_grads[name][idx] - grad)) <= 1e-15 * scale, name
        for name, value in brackets(*one, rho).items():
            assert stacked_brackets[name].shape == shape
            assert abs(stacked_brackets[name][idx] - value) <= 1e-14 * (1 + abs(value)), name


def test_polynomial_gradient_against_monomial_rule(rng):
    # d/dx_j of sum_m c_m prod x_i, term by term
    poly = PolynomialFunction(
        (classical.PAIR_X, classical.PAIR_Y), ((3.0, ()), (2.0j, (0, 0, 1)), (-1.0, (1,)))
    )
    x = rng.normal(size=2)
    expected = np.array([4.0j * x[0] * x[1], 2.0j * x[0] ** 2 - 1.0])
    first = poly.gradient_args(x)
    assert np.max(np.abs(first - expected)) <= 1e-14
    # the leave-one-out table is built on the first gradient and kept
    table = poly._others
    assert table is not None and table.shape == (3, 2)
    assert np.array_equal(poly.gradient_args(x), first) and poly._others is table
    assert abs(poly.g(x) - (3.0 + 2.0j * x[0] ** 2 * x[1] - x[1])) <= 1e-14
    const = PolynomialFunction((classical.PAIR_X,), ((2.5, ()),))
    assert const.g(x[:1]) == 2.5 and np.array_equal(const.gradient_args(x[:1]), [0.0])


def test_liouville_grid_matches_scalar_times(rng):
    params = model.ModelParams.random(rng)
    rho0 = OnSiteState.random_even(rng)
    suite = polynomial_suite()
    # one point more than a time block, some of them negative
    times = np.linspace(-2.0, 3.0, dynamics.TIME_BLOCK + 1)
    grid = liouville_residuals(params, suite, rho0, times)
    for k in range(len(times)):
        scalar = liouville_residuals(params, suite, rho0, float(times[k]))
        for name, r in scalar.items():
            assert isinstance(r.lhs, float) and isinstance(r.residual, float)
            g = grid[name]
            assert g.lhs.shape == g.rhs.shape == g.residual.shape == times.shape
            for field in ("lhs", "rhs", "residual"):
                assert abs(getattr(g, field)[k] - getattr(r, field)) <= 1e-12
    assert max(float(r.residual.max()) for r in grid.values()) <= 1e-12
    # the exact sides against the finite-difference oracle on the same grid
    oracle = _fd_liouville(params, suite, rho0, times)
    for name, (lhs, rhs) in oracle.items():
        assert np.max(np.abs(grid[name].lhs - lhs)) <= 1e-9, name
        assert np.max(np.abs(grid[name].rhs - rhs)) <= 1e-9, name
    # a 2-d grid keeps its shape
    two_d = liouville_residuals(params, suite, rho0, times[:6].reshape(2, 3))
    assert two_d["density"].lhs.shape == (2, 3)
    assert np.max(np.abs(two_d["density"].lhs - grid["density"].lhs[:6].reshape(2, 3))) <= 1e-12


def _fd_liouville(params, fs, rho0, times, step=1e-4):
    """Both Liouville sides by finite differences of the closed-form flow.

    The oracle of the exact tangent: the time derivative is a central
    difference of the flow at t -+ h and t -+ h/2 with one Richardson step,
    and the convex derivative of V_t f at rho0 is assembled from Richardson
    central differences along the even traceless basis, each direction the
    closed-form flow of the displaced seed (which may leave the state cone).
    Returns {name: (lhs, rhs)}, real arrays over the flattened times.
    """
    basis = np.array(even_traceless_basis())
    eye = np.eye(4)
    t = np.asarray(times, dtype=float).ravel()
    d0 = rho0.matrix
    # seeds: rho0, then d0 + sign * s * b ordered by (basis b, scale s, sign)
    scales = np.array([step, 0.5 * step])
    shifts = scales[:, None] * np.array([1.0, -1.0])
    displaced = d0 + shifts[None, :, :, None, None] * basis[:, None, None]
    seeds = np.concatenate([d0[None], displaced.reshape(-1, 4, 4)])
    flows = ClosedFormFlow.from_matrix(params, seeds)
    # rho0 at t - h, t - h/2, t + h/2, t + h, then the displaced seeds at t
    around = [flows(t + dt)[:, :1] for dt in (-step, -0.5 * step, 0.5 * step, step)]
    states = np.concatenate(around + [flows(t)[:, 1:]], axis=1)
    dh_class = convex_derivative(classical_hamiltonian(params), d0)
    out = {}
    for name, f in fs.items():
        vals = f(states)
        d1 = (vals[:, 3] - vals[:, 0]) / (2.0 * step)
        d2 = (vals[:, 2] - vals[:, 1]) / step
        pm = vals[:, 4:].reshape(-1, len(basis), 2, 2)
        deriv = (pm[..., 0] - pm[..., 1]) / (2.0 * scales)
        coeff = (4.0 * deriv[..., 1] - deriv[..., 0]) / 3.0
        dvf = np.einsum("tk,kij->tij", coeff, basis)
        dvf -= np.einsum("ij,tji->t", d0, dvf)[:, None, None] * eye
        rhs = np.einsum("ij,tji->t", d0, 1j * (dh_class @ dvf - dvf @ dh_class))
        out[name] = (((4.0 * d2 - d1) / 3.0).real, rhs.real)
    return out


def test_liouville_exact_sides_match_finite_differences():
    # the draws of the liouville-residuals verify row at seed 0
    rng = np.random.default_rng(8)
    suite = polynomial_suite()
    times = np.array([0.0, 0.5, 1.0])
    for _ in range(20):
        params = model.ModelParams.random(rng)
        rho0 = OnSiteState.random_even(rng)
        exact = liouville_residuals(params, suite, rho0, times)
        for name, (lhs, rhs) in _fd_liouville(params, suite, rho0, times).items():
            assert np.max(np.abs(exact[name].lhs - lhs)) <= 1e-9, name
            assert np.max(np.abs(exact[name].rhs - rhs)) <= 1e-9, name
            assert np.max(exact[name].residual) <= 1e-12, name


def test_flow_tangent_matches_central_differences():
    # D Phi_t(rho0)[b] against (Phi_t(rho0 + s b) - Phi_t(rho0 - s b)) / 2s, which
    # converges to it as s**2; the dnu term carries the seed's pull on nu
    rng = np.random.default_rng(28)
    basis = np.array(even_traceless_basis())
    signs = np.array([1.0, -1.0])[:, None, None, None]
    times = np.linspace(-3.0, 3.0, 13)
    errors = {1e-4: 0.0, 1e-5: 0.0}
    for _ in range(20):
        params = model.ModelParams.random(rng)
        d0 = OnSiteState.random_even(rng).matrix
        flow = ClosedFormFlow.from_matrix(params, d0)
        states, tangent = classical._flow_tangent(params, flow, times)
        assert np.array_equal(states, flow(times))
        assert tangent.shape == (len(times), len(basis), 4, 4)
        for s in errors:
            ends = ClosedFormFlow.from_matrix(params, d0 + s * signs * basis)(times)
            central = (ends[:, 0] - ends[:, 1]) / (2.0 * s)
            errors[s] = max(errors[s], float(np.max(np.abs(central - tangent))))
    # 1.5e-7 and 1.5e-9 here: a tenfold smaller step, a hundredfold smaller error
    assert errors[1e-4] <= 1e-6
    assert errors[1e-5] <= 0.02 * errors[1e-4]


def test_liouville_row_fails_above_the_exact_limit(monkeypatch):
    # a residual inside the 1e-5 threshold but above 1e-12 no longer passes
    exact = classical.liouville_residuals

    def inflated(*args):
        return {n: replace(r, residual=r.residual + 1e-9) for n, r in exact(*args).items()}

    monkeypatch.setattr(classical, "liouville_residuals", inflated)
    row = verification.check_liouville(0)
    assert not row.passed and row.threshold == 1e-5
    assert 1e-9 <= row.max_violation < 1e-5


def test_poisson_algebra_row_fails_on_a_flipped_commutator(monkeypatch):
    # i[B, A] in place of i[A, B] in bracket_polynomial: the Jacobi sum only
    # changes sign, and the row fails on the bracket polynomial's value
    commutator = model.hermitian_commutator
    monkeypatch.setattr(model, "hermitian_commutator", lambda h, d: -commutator(h, d))
    row = verification.check_poisson_algebra(0)
    assert not row.passed and row.threshold == 1e-9
    assert row.max_violation > 1.0
    assert "antisym 0.0e+00" in row.detail
