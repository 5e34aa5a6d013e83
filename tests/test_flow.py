import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, solve_ivp

from mfbcs import classical, flow, fock, model, verification
from mfbcs.errors import NumericalAbortError
from mfbcs.flow import (
    ClosedFormFlow,
    dyson_phillips,
    flow_ode,
    flow_onsite,
    heisenberg_propagator_ode,
    interference_prediction,
    mixture_flow,
    observables,
)
from mfbcs.states import OnSiteState, ProductMixture, parity_commutator_norm


# --- DOP853 oracles of the oracles ------------------------------------------


def _flow_dop853(params, d0, times):
    """DOP853 solve of K stacked flows dD_k/dt = -i[dh_k(D_k), D_k].

    The K systems, one per ``params[k]`` and seed ``d0[k]``, are integrated
    together at rtol 1e-12, atol 1e-14; ``times`` run monotonically away
    from t = 0 in one direction (0 allowed first).  Returns (K, T, 4, 4).
    """
    seeds = np.asarray(d0, dtype=complex)
    h0 = np.array([model.onsite_h(p) for p in params])
    gamma = np.array([p.gamma for p in params])[:, None, None]

    def rhs(_t, y):
        dmat = y.view(complex).reshape(-1, 4, 4)
        c = np.einsum("kij,ji->k", dmat, fock.PAIR)[:, None, None]
        dh = h0 - gamma * (c * fock.PAIR_DAG + np.conj(c) * fock.PAIR)
        return (-1j * model.hermitian_commutator(dh, dmat)).ravel().view(float)

    times = np.asarray(times, dtype=float)
    sol = solve_ivp(
        rhs, (0.0, times[-1]), seeds.ravel().view(float).copy(), method="DOP853",
        rtol=1e-12, atol=1e-14, t_eval=times,
    )
    assert sol.success, sol.message
    return np.ascontiguousarray(sol.y.T).view(complex).reshape(len(times), -1, 4, 4).swapaxes(0, 1)


def _eigh_flow(params, d0):
    """The flow of a Hermitian trace-1 seed, or a stack S + (4, 4) of them, by
    one batched eigh of K = dh(rho_0) + (nu/2) N:

        D_t = e^{i nu t N/2} e^{-itK} D_0 e^{itK} e^{-i nu t N/2}.

    Returns t -> D_t of shape np.shape(t) + S + (4, 4).  It needs no evenness
    and is kept as the oracle of the phase map.
    """
    d0 = np.asarray(d0, dtype=complex)
    n_total = fock.SITE_OBSERVABLES["d"]
    density = (d0 @ n_total).trace(axis1=-2, axis2=-1).real
    nu = np.asarray(model.precession(params, density))[..., None, None]
    energies, basis = np.linalg.eigh(model.effective_hamiltonian(params, d0) + 0.5 * nu * n_total)
    freqs = 0.5 * nu * np.diag(n_total).real[:, None] - energies[..., None, :]
    seed = basis.swapaxes(-1, -2).conj() @ d0 @ basis

    def at(t):
        t = np.asarray(t, dtype=float)[(...,) + (None,) * freqs.ndim]
        w = basis * np.exp(1j * t * freqs)
        return w @ seed @ w.swapaxes(-1, -2).conj()

    return at


def _expectation_series(mt, op):
    """Mixture expectation of a one-site operator along the flow, from the
    component density matrices."""
    return sum(
        u * np.trace(traj.state_matrix(mt.times) @ op, axis1=-2, axis2=-1)
        for u, traj in zip(mt.weights, mt.components)
    )


def _generator_superop(params, rho):
    """Superoperator Delta of B -> i [dh(rho), B] for one state or a stack."""
    return flow._superop(model.effective_hamiltonian(params, rho))


def _propagator_dop853(params, drive, t, rtol=1e-11, atol=1e-13):
    """DOP853 solve of dT/dt = T Delta(t), T(0) = 1, for a prescribed drive
    called with one float at a time; returns T(t) as a 16x16 matrix."""

    def rhs(s, y):
        mat = y.view(complex).reshape(16, 16)
        return (mat @ _generator_superop(params, drive(float(s)))).ravel().view(float)

    y0 = np.eye(16, dtype=complex).ravel().view(float).copy()
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y[:, -1].view(complex).reshape(16, 16)


def _self_consistency_residual(params, traj):
    """Fixed-point residual of a solved trajectory.

    Freezes the drive to the solved path, re-integrates the now linear
    equation dD/dt = -i[dh(path(t)), D] by DOP853 at rtol 1e-9, atol 1e-12,
    and returns the max-norm deviation from the original states.  For a
    true solution this is bounded by twice the integrator tolerance.
    """

    def rhs(t, y):
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
            rhs, (0.0, float(branch[-1])), d0.ravel().view(float).copy(), method="DOP853",
            rtol=1e-9, atol=1e-12, t_eval=branch,
        )
        assert sol.success, sol.message
        for t, col in zip(branch, sol.y.T):
            redone = np.ascontiguousarray(col).view(complex).reshape(4, 4)
            idx = int(np.argmin(np.abs(traj.times - t)))
            worst = max(worst, float(np.max(np.abs(redone - traj.state_matrix(traj.times[idx])))))
    return worst


def test_observables_vacuum():
    rec = observables(model.ModelParams(mu=1.0, lam=0.5, gamma=2.0), OnSiteState.vacuum())
    assert (rec.d, rec.m, rec.w, rec.z) == (0.0, 0.0, 0.0, 0.0)
    assert rec.theta == 0.0 and rec.kappa == 0.0


def test_phase_convention_half_open_interval():
    # a negative real Cooper field has phase -pi, not +pi
    rho = OnSiteState.pair_superposition(0.4, math.pi)
    rec = observables(model.ModelParams(), rho)
    assert rec.z.real < 0 and abs(rec.z.imag) < 1e-15
    assert rec.theta == -math.pi


def test_observables_nu_examples(rng):
    # nu = 2 (mu - lam) + gamma (1 - d)
    v = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)  # d = 1
    rho = OnSiteState.pure(v)
    rec = observables(model.ModelParams(mu=1.0, lam=0.5, gamma=2.0), rho)
    assert abs(rec.d - 1.0) < 1e-14
    assert abs(rec.nu - 1.0) < 1e-13
    rec2 = observables(model.ModelParams(mu=0.7, lam=0.7, gamma=0.0), rho)
    assert rec2.nu == 0.0


def test_flow_gamma_zero_closed_form(rng):
    params = model.ModelParams(mu=0.8, h=0.3, lam=0.2, gamma=0.0)
    rho0 = OnSiteState.random_even(rng)
    times = np.linspace(0.0, 3.0, 7)
    traj = flow_onsite(params, rho0, times)
    z0 = rho0.pair_expectation()
    expected = z0 * np.exp(2j * (params.mu - params.lam) * times)
    assert np.max(np.abs(traj.z - expected)) < 1e-10
    for matrix in traj.state_matrix(times):
        assert np.max(np.abs(np.diag(matrix) - np.diag(rho0.matrix))) < 1e-10


@pytest.mark.parametrize(
    "rho0",
    [
        OnSiteState.vacuum(),  # z = 0: theta is 0
        OnSiteState.pair_superposition(0.4, math.pi),  # negative real z at t = 0: theta is -pi
        OnSiteState.random_even(np.random.default_rng(5)),
    ],
    ids=["vacuum", "negative-real-z", "random"],
)
def test_flow_columns_are_observables_of_the_stack(rho0):
    params = model.ModelParams(mu=0.1, h=0.05, lam=0.2, gamma=2.0)
    traj = flow_onsite(params, rho0, np.linspace(-2.0, 3.0, 11))
    matrices = traj.state_matrix(traj.times)
    assert matrices.shape == (11, 4, 4)
    seed = observables(params, rho0)
    names = ("d", "m", "w", "z", "kappa", "theta", "nu")
    # the columns come from the seed, the matrices from the phase map
    d, m, w, z = (
        np.trace(matrices @ op, axis1=-2, axis2=-1) for op in fock.SITE_OBSERVABLES.values()
    )
    stacked = flow._columns(params, d.real, m.real, w.real, z)
    for name in names:
        assert np.array_equal(getattr(traj, name), stacked[name]), name
    for k, mat in enumerate(matrices):
        rec = observables(params, OnSiteState.from_matrix(mat))
        for name in names:
            assert getattr(traj, name)[k] == getattr(rec, name), name
        # the phase map keeps the diagonal bitwise, so d, m, w, nu stay the seed's
        for name in ("d", "m", "w", "nu"):
            assert getattr(rec, name) == getattr(seed, name), name


def test_flow_fixed_point_maximally_mixed():
    params = model.ModelParams(mu=0.5, h=0.1, lam=0.3, gamma=1.8)
    traj = flow_onsite(params, OnSiteState.maximally_mixed(), [0.0, 1.0, 5.0])
    for matrix in traj.state_matrix(traj.times):
        assert np.max(np.abs(matrix - np.eye(4) / 4.0)) < 1e-12


def test_flow_cooper_field_rotation(rng):
    params = model.ModelParams.random(rng)
    rho0 = OnSiteState.random_even(rng)
    traj = flow_onsite(params, rho0, [1.0])
    rec0 = observables(params, rho0)
    predicted = math.sqrt(rec0.kappa) * np.exp(1j * (rec0.nu + rec0.theta))
    assert abs(traj.z[0] - predicted) < 1e-9


def test_flow_backward_times(rng):
    params = model.ModelParams.random(rng)
    rho0 = OnSiteState.random_even(rng)
    traj = flow_onsite(params, rho0, [-1.0, 0.0, 1.0])
    rec0 = observables(params, rho0)
    for t, z in zip(traj.times, traj.z):
        predicted = math.sqrt(rec0.kappa) * np.exp(1j * (t * rec0.nu + rec0.theta))
        assert abs(z - predicted) < 1e-9


def test_flow_requires_even():
    odd = OnSiteState.pure([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        flow_onsite(model.ModelParams(gamma=1.0), odd, [0.0, 1.0])


def test_flow_preserves_evenness(rng):
    params = model.ModelParams.random(rng)
    rho0 = OnSiteState.random_even(rng)
    traj = flow_onsite(params, rho0, np.linspace(0.0, 5.0, 6))
    for matrix in traj.state_matrix(traj.times):
        assert parity_commutator_norm(matrix) < 1e-8


def test_closed_form_matches_flow_ode(rng):
    params = [model.ModelParams.random(rng) for _ in range(3)]
    seeds = [OnSiteState.random_even(rng).matrix for _ in range(2)]
    # a displaced seed outside the state cone follows the same closed form
    seeds.append(seeds[0] + 1.5 * classical.even_traceless_basis()[0])
    assert np.linalg.eigvalsh(seeds[2]).min() < 0
    forward = np.linspace(0.0, 5.0, 11)
    # the Taylor oracle visits the times in their order, in either direction
    for times in (forward, -forward, np.array([1.3, -0.4, 2.0, 2.0, 0.0])):
        ode = flow_ode(params, np.array(seeds), times)
        assert ode.value.shape == (3, len(times), 4, 4)
        assert 0.0 < ode.truncation <= flow.TAYLOR_TOL and ode.order <= flow.TAYLOR_MAX_ORDER
        for p, seed, got in zip(params, seeds, ode.value):
            assert np.max(np.abs(ClosedFormFlow.from_matrix(p, seed)(times) - got)) < 1e-13
    # one state is the stack of one
    single = flow_ode(params[:1], np.array(seeds[:1]), forward).value[0]
    assert np.max(np.abs(ClosedFormFlow.from_matrix(params[0], seeds[0])(forward) - single)) < 1e-13
    assert np.array_equal(flow_ode(params, np.array(seeds), [0.0]).value[:, 0], np.array(seeds))
    with pytest.raises(ValueError, match="3 stacked 4x4 seeds"):
        flow_ode(params, np.array(seeds[:2]), forward)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "backward"])
def test_taylor_flow_matches_dop853(sign):
    rng = np.random.default_rng(26 + int(sign > 0))
    params = [model.ModelParams.random(rng) for _ in range(50)]
    seeds = np.array([OnSiteState.random_even(rng).matrix for _ in range(50)])
    times = sign * np.linspace(0.0, 5.0, 21)
    taylor = flow_ode(params, seeds, times).value
    assert np.max(np.abs(taylor - _flow_dop853(params, seeds, times))) <= 1e-11


def test_taylor_flow_order_cap():
    # a generator of norm ~1e3 needs far more than the order cap on a 0.25 step
    params = model.ModelParams(mu=500.0, gamma=1.0)
    seed = OnSiteState.pair_superposition(0.4).matrix
    with pytest.raises(NumericalAbortError, match="more than 60 orders"):
        flow_ode([params], seed[None], [0.25])


def test_closed_form_seed_validation_and_shapes(rng):
    params = model.ModelParams.random(rng)
    rho0 = OnSiteState.random_even(rng)
    with pytest.raises(ValueError, match="trace-1"):
        ClosedFormFlow.from_matrix(params, 2.0 * rho0.matrix)
    with pytest.raises(ValueError, match="Hermitian"):
        ClosedFormFlow.from_matrix(params, rho0.matrix + 0.1j * np.triu(np.ones((4, 4)), 1))
    with pytest.raises(ValueError, match="even"):
        ClosedFormFlow.from_matrix(params, rho0.matrix + _odd_direction())
    traj = flow_onsite(params, rho0, [0.0, 0.7])
    assert traj.state_matrix(0.7).shape == (4, 4)
    assert np.max(np.abs(traj.state_matrix(0.7) - traj.state_matrix(traj.times)[1])) < 1e-14
    assert np.max(np.abs(traj.state_matrix(0.0) - rho0.matrix)) < 1e-14


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_stacked_closed_form_matches_per_seed_flows(rng, shape):
    params = model.ModelParams.random(rng)
    basis = classical.even_traceless_basis()
    seeds = np.empty(shape + (4, 4), dtype=complex)
    for k in np.ndindex(shape):
        # states and displaced seeds outside the state cone alike
        seeds[k] = OnSiteState.random_even(rng).matrix + 0.3 * rng.normal() * basis[k[-1]]
    stacked = ClosedFormFlow.from_matrix(params, seeds)
    times = np.array([[-1.5, 0.0], [0.4, 3.0]])
    got = stacked(times)
    assert got.shape == times.shape + shape + (4, 4)
    assert stacked(0.4).shape == shape + (4, 4)
    for k in np.ndindex(shape):
        single = ClosedFormFlow.from_matrix(params, seeds[k])
        ref = single(times)
        assert ref.shape == times.shape + (4, 4)
        assert np.max(np.abs(got[(...,) + k + (slice(None), slice(None))] - ref)) <= 1e-14


def test_stacked_closed_form_names_the_bad_seed(rng):
    params = model.ModelParams.random(rng)
    seeds = np.array([OnSiteState.random_even(rng).matrix for _ in range(6)])
    for k, bad in (
        (4, 2.0 * seeds[4]),
        (1, seeds[1] + 0.1j * np.triu(np.ones((4, 4)), 1)),
        (3, seeds[3] + _odd_direction()),
    ):
        broken = seeds.copy()
        broken[k] = bad
        with pytest.raises(ValueError, match=f"at index {k}: .*even Hermitian trace-1"):
            ClosedFormFlow.from_matrix(params, broken)
        # a stack of shape (2, 3) names the flat index, as the state checks do
        with pytest.raises(ValueError, match=f"at index {k}: "):
            ClosedFormFlow.from_matrix(params, broken.reshape(2, 3, 4, 4))
    with pytest.raises(ValueError, match="Hermitian trace-1"):
        ClosedFormFlow.from_matrix(params, np.full((4, 4), np.nan))
    with pytest.raises(ValueError, match="4x4"):
        ClosedFormFlow.from_matrix(params, np.eye(3))


def _odd_direction():
    """A Hermitian traceless matrix coupling the vacuum to the up state: odd."""
    odd = np.zeros((4, 4), dtype=complex)
    odd[0, 1] = odd[1, 0] = 0.1
    return odd


def test_phase_map_matches_eigh_flow():
    rng = np.random.default_rng(27)
    basis = classical.even_traceless_basis()
    worst = worst_rel = 0.0
    for _ in range(400):
        params = model.ModelParams.random(rng)
        seed = OnSiteState.random_even(rng).matrix
        times = rng.uniform(-20.0, 20.0, 50)
        got = ClosedFormFlow.from_matrix(params, seed)(times)
        worst = max(worst, float(np.max(np.abs(got - _eigh_flow(params, seed)(times)))))
        # an even seed outside the state cone, as the Liouville displacements
        # make: the (up-dn, up-dn) entry goes below 0
        shifted = seed + 1.5 * basis[0] + rng.normal() * basis[rng.integers(3, 7)]
        assert np.linalg.eigvalsh(shifted).min() < 0
        ref = _eigh_flow(params, shifted)(times)
        got = ClosedFormFlow.from_matrix(params, shifted)(times)
        worst_rel = max(worst_rel, float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))))
    assert worst <= 1e-13
    assert worst_rel <= 1e-12


def test_columns_are_built_without_a_stack(monkeypatch, rng):
    def no_stack(*_args):
        raise AssertionError("a column was read from a stack of density matrices")

    monkeypatch.setattr(ClosedFormFlow, "__call__", no_stack)
    params = model.ModelParams.random(rng)
    mix = ProductMixture.from_components(
        [(0.4, OnSiteState.random_even(rng)), (0.6, OnSiteState.random_even(rng))]
    )
    times = np.linspace(-1.0, 4.0, 9)
    for result in (flow_onsite(params, mix.states[0], times), mixture_flow(params, mix, times)):
        for name in ("d", "m", "w", "z", "kappa", "theta", "nu"):
            assert np.shape(getattr(result, name)) == times.shape, name


# --- Symmetries of the flow -------------------------------------------------
# On the phase map each identity holds by the form of V_t; on the Taylor
# oracle, which integrates dD/dt = -i[dh(D), D] from the seed, it tests the
# recurrence and the generator.

_PARTICLE_HOLE = np.array(
    [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex
)
_SPIN_FLIP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex)
_SYMMETRY_TIMES = np.linspace(-5.0, 5.0, 20)


def _flows(path, params, seeds):
    """(K, T, 4, 4) flows of K seeds on the symmetry grid, by one of the two paths."""
    if path == "taylor":
        return flow_ode(params, seeds, _SYMMETRY_TIMES).value
    return np.array(
        [ClosedFormFlow.from_matrix(p, s)(_SYMMETRY_TIMES) for p, s in zip(params, seeds)]
    )


def _symmetry_draws(seed):
    rng = np.random.default_rng(seed)
    params = [model.ModelParams.random(rng) for _ in range(100)]
    seeds = np.array([OnSiteState.random_even(rng).matrix for _ in range(100)])
    return rng, params, seeds


def _conjugated(u, d):
    """u^dagger d u on the last two axes."""
    return u.conj().swapaxes(-1, -2) @ d @ u


@pytest.mark.parametrize("path", ["phase-map", "taylor"])
def test_flow_particle_hole_symmetry(path):
    # U maps the flow at (mu, h, lam, gamma) to the flow at (2 lam - mu, -h,
    # lam, gamma), and nu to -nu
    _, params, seeds = _symmetry_draws(30)
    images = [
        model.ModelParams(mu=2 * p.lam - p.mu, h=-p.h, lam=p.lam, gamma=p.gamma) for p in params
    ]
    mapped = _flows(path, images, _conjugated(_PARTICLE_HOLE, seeds))
    flows = _flows(path, params, seeds)
    assert np.max(np.abs(mapped - _conjugated(_PARTICLE_HOLE, flows))) <= 1e-13
    for p, q, seed in zip(params, images, seeds):
        image = OnSiteState.from_matrix(_conjugated(_PARTICLE_HOLE, seed))
        nu = observables(p, OnSiteState.from_matrix(seed)).nu
        assert abs(observables(q, image).nu + nu) <= 1e-14


@pytest.mark.parametrize("path", ["phase-map", "taylor"])
def test_flow_spin_flip_symmetry(path):
    # S swaps up and down (the pair picks up a sign) and maps h to -h
    _, params, seeds = _symmetry_draws(31)
    images = [model.ModelParams(mu=p.mu, h=-p.h, lam=p.lam, gamma=p.gamma) for p in params]
    mapped = _flows(path, images, _conjugated(_SPIN_FLIP, seeds))
    assert np.max(np.abs(mapped - _conjugated(_SPIN_FLIP, _flows(path, params, seeds)))) <= 1e-13


@pytest.mark.parametrize("path", ["phase-map", "taylor"])
def test_flow_gauge_symmetry(path):
    # G = e^{i phi N} commutes with the flow at the same parameters
    rng, params, seeds = _symmetry_draws(32)
    gauges = np.exp(1j * rng.uniform(-np.pi, np.pi, 100)[:, None] * np.array([0, 1, 1, 2]))
    gauges = gauges[:, :, None] * np.eye(4)
    mapped = _flows(path, params, _conjugated(gauges, seeds))
    flows = _flows(path, params, seeds)
    assert np.max(np.abs(mapped - _conjugated(gauges[:, None], flows))) <= 1e-13


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_property_densities_conserved(seed):
    rng = np.random.default_rng(seed)
    params = model.ModelParams.random(rng)
    rho0 = OnSiteState.random_even(rng)
    traj = flow_onsite(params, rho0, [0.0, 2.0])
    assert abs(traj.d[1] - traj.d[0]) < 1e-9
    assert abs(traj.m[1] - traj.m[0]) < 1e-9
    assert abs(traj.w[1] - traj.w[0]) < 1e-9
    assert abs(traj.kappa[1] - traj.kappa[0]) < 1e-9
    # the columns are the seed's by construction; the model's generator on the
    # evolved state must leave d, m and w still too
    state = traj.state_matrix(2.0)
    flux = model.hermitian_commutator(model.effective_hamiltonian(params, state), state)
    for name in ("d", "m", "w"):
        assert abs(np.trace(flux @ fock.SITE_OBSERVABLES[name])) < 1e-12, name


def test_self_consistency_residual(rng):
    params = model.ModelParams.random(rng)
    rho0 = OnSiteState.random_even(rng)
    traj = flow_onsite(params, rho0, np.linspace(0.0, 4.0, 9))
    res = _self_consistency_residual(params, traj)
    assert res < 2e-9  # 2x the residual integrator's tolerance scale


def test_mixture_single_component_identical(rng):
    params = model.ModelParams.random(rng)
    rho0 = OnSiteState.random_even(rng)
    times = [0.0, 0.8]
    mix = ProductMixture.single(rho0)
    mt = mixture_flow(params, mix, times)
    traj = flow_onsite(params, rho0, times)
    # same code path, weight 1.0: bitwise equality
    assert np.array_equal(mt.d, 1.0 * traj.d)
    assert np.array_equal(mt.z, 1.0 * traj.z)


def test_mixture_expectation_series_linearity(rng):
    # mixture expectations are the weighted component sums, bitwise (same
    # arithmetic path), and expectation_series agrees with the records
    params = model.ModelParams.random(rng)
    comps = [(0.25, OnSiteState.random_even(rng)), (0.75, OnSiteState.random_even(rng))]
    mix = ProductMixture.from_components(comps)
    times = [0.0, 0.6, 1.2]
    mt = mixture_flow(params, mix, times)
    manual_d = 0.25 * mt.components[0].d + 0.75 * mt.components[1].d
    assert np.array_equal(mt.d, manual_d)
    series = _expectation_series(mt, (fock.N_UP + fock.N_DN).astype(complex))
    assert np.array_equal(series.real, mt.d)
    z_series = _expectation_series(mt, fock.PAIR)
    assert np.array_equal(z_series, mt.z)


def test_mixture_opposite_phases_cancel():
    params = model.ModelParams(mu=0.2, gamma=1.5)
    a, b = 0.4, 0.4
    mix = ProductMixture.from_components(
        [
            (0.5, OnSiteState.pair_superposition(a, 0.0)),
            (0.5, OnSiteState.pair_superposition(b, math.pi)),
        ]
    )
    times = np.linspace(0.0, 4.0, 9)
    mt = mixture_flow(params, mix, times)
    assert np.max(np.abs(mt.z)) < 1e-10


def test_mixture_beats():
    params = model.ModelParams(gamma=2.0)
    mix = ProductMixture.from_components(
        [
            (0.5, OnSiteState.pair_superposition(math.pi / 8.0)),
            (0.5, OnSiteState.pair_superposition(3.0 * math.pi / 8.0)),
        ]
    )
    nu1 = observables(params, mix.states[0]).nu
    nu2 = observables(params, mix.states[1]).nu
    period = 2.0 * math.pi / abs(nu1 - nu2)
    times = np.linspace(0.0, period, 101)
    mt = mixture_flow(params, mix, times)
    swing = mt.kappa.max() - mt.kappa.min()
    assert abs(swing - 0.125) < 1e-6  # closed-form peak-to-trough
    # |prediction|^2 is periodic with the beat period
    pred_start = interference_prediction(params, mix, 0.0)
    pred_end = interference_prediction(params, mix, period)
    assert abs(abs(pred_start) ** 2 - abs(pred_end) ** 2) < 1e-12


def test_interference_prediction_basics(rng):
    params = model.ModelParams.random(rng)
    states = [OnSiteState.random_even(rng) for _ in range(3)]
    mix = ProductMixture.from_components([(1.0 / 3.0, s) for s in states])
    at0 = interference_prediction(params, mix, 0.0)
    direct = sum(s.pair_expectation() for s in states) / 3.0
    assert abs(at0 - direct) < 1e-12
    single = ProductMixture.single(states[0])
    rec = observables(params, states[0])
    t = 0.7
    expected = math.sqrt(rec.kappa) * np.exp(1j * (t * rec.nu + rec.theta))
    assert abs(interference_prediction(params, single, t) - expected) < 1e-12


def test_mixture_flow_matches_prediction(rng):
    params = model.ModelParams.random(rng)
    comps = [(0.3, OnSiteState.random_even(rng)), (0.7, OnSiteState.random_even(rng))]
    mix = ProductMixture.from_components(comps)
    times = np.linspace(0.0, 2.0, 11)
    mt = mixture_flow(params, mix, times)
    predicted = interference_prediction(params, mix, times)
    assert np.max(np.abs(mt.z - predicted)) < 1e-8


# --- Dyson series ----------------------------------------------------------


def test_dyson_t_zero(rng):
    params = model.ModelParams.random(rng)
    a = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    res = dyson_phillips(params, lambda s: OnSiteState.vacuum(), 0.0, 4, a)
    assert np.array_equal(res.operator, a)
    assert res.remainder_bound == 0.0


def test_dyson_constant_drive_vs_spectral(rng):
    params = model.ModelParams.random(rng)
    rho = OnSiteState.random_even(rng)
    dh = model.effective_hamiltonian(params, rho)
    w, u = np.linalg.eigh(dh)
    t = 0.15
    conj = (u * np.exp(1j * t * w)) @ u.conj().T
    a = (fock.PAIR + fock.PAIR_DAG).astype(complex)
    expected = conj @ a @ conj.conj().T
    res = dyson_phillips(params, lambda s: rho, t, 10, a)
    # the deviation is controlled by the certified truncation remainder
    assert np.max(np.abs(res.operator - expected)) < res.remainder_bound + 1e-12


def test_dyson_flow_drive_vs_ode(rng):
    params = model.ModelParams.random(rng)
    rho0 = OnSiteState.random_even(rng)
    t = 0.1
    traj = flow_onsite(params, rho0, [0.0, t])
    a = (1j * (fock.PAIR - fock.PAIR_DAG)).astype(complex)
    res = dyson_phillips(params, traj.state_matrix, t, 8, a)
    ref = (heisenberg_propagator_ode(params, rho0, t).value @ a.ravel()).reshape(4, 4)
    assert np.max(np.abs(res.operator - ref)) < 1e-10
    # pairing with the evolved density matrix reproduces the flow expectation
    heis = np.trace(rho0.matrix @ res.operator)
    schro = np.trace(traj.state_matrix(t) @ a)
    assert abs(heis - schro) < 1e-10


@pytest.mark.parametrize("t", [0.1, -0.1])
def test_dyson_grid_drive_equals_scalar_drive(rng, t):
    # the drive is called once on the whole grid; a wrapper that evaluates
    # it one float at a time must give the same operator, bit for bit
    params = model.ModelParams.random(rng)
    traj = flow_onsite(params, OnSiteState.random_even(rng), [0.0, t])
    calls = []

    def scalar_drive(s):
        calls.append(np.shape(s))
        return np.array([traj.state_matrix(float(x)) for x in np.ravel(s)]).reshape(
            np.shape(s) + (4, 4)
        )

    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = a + a.conj().T
    grid = dyson_phillips(params, traj.state_matrix, t, 8, a, n_nodes=64)
    looped = dyson_phillips(params, scalar_drive, t, 8, a, n_nodes=64)
    assert calls == [(129,)]
    assert np.array_equal(grid.operator, looped.operator)
    assert grid.remainder_bound == looped.remainder_bound
    assert grid.quadrature_error == looped.quadrature_error


def test_dyson_non_hermitian_operator_vs_ode(rng):
    # the series runs on the Hermitian parts of a_op and recombines them
    params = model.ModelParams.random(rng)
    rho0 = OnSiteState.random_even(rng)
    traj = flow_onsite(params, rho0, [0.0, 0.1])
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    res = dyson_phillips(params, traj.state_matrix, 0.1, 8, a)
    ref = (heisenberg_propagator_ode(params, rho0, 0.1).value @ a.ravel()).reshape(4, 4)
    assert np.max(np.abs(res.operator - ref)) < 1e-9
    # linear in a_op: the anti-Hermitian part alone is i times a Hermitian series
    b = 0.5j * (a.conj().T - a)
    alone = dyson_phillips(params, traj.state_matrix, 0.1, 8, 1j * b).operator
    assert np.array_equal(alone, 1j * dyson_phillips(params, traj.state_matrix, 0.1, 8, b).operator)


def test_dyson_argument_validation():
    params = model.ModelParams()
    drive = lambda s: OnSiteState.vacuum()  # noqa: E731
    a = np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match="order"):
        dyson_phillips(params, drive, 0.1, 0, a)
    with pytest.raises(ValueError, match="n_nodes"):
        dyson_phillips(params, drive, 0.1, 4, a, n_nodes=0)
    with pytest.raises(ValueError, match="4x4"):
        dyson_phillips(params, drive, 0.1, 4, np.eye(3))


@pytest.mark.parametrize("t, n_nodes", [(-0.1, 512), (0.1, 33)])
def test_dyson_backward_and_odd_grid_vs_ode(rng, t, n_nodes):
    # backward time (a negative quadrature step), and an odd number of
    # coarse intervals (33; the fine level has 66)
    params = model.ModelParams.random(rng)
    rho0 = OnSiteState.random_even(rng)
    traj = flow_onsite(params, rho0, [0.0, t])
    a = (fock.PAIR + fock.PAIR_DAG).astype(complex)
    res = dyson_phillips(params, traj.state_matrix, t, 8, a, n_nodes=n_nodes)
    ref = (heisenberg_propagator_ode(params, rho0, t).value @ a.ravel()).reshape(4, 4)
    assert np.max(np.abs(res.operator - ref)) < 1e-10
    assert 0.0 < res.remainder_bound < 1e-10
    assert 0.0 < res.quadrature_error < 1e-8


@pytest.mark.parametrize("t", [0.1, -0.1, 0.7])
def test_taylor_propagator_matches_dop853(t):
    # the DOP853 solve is driven by the closed form, the Taylor oracle by its
    # own integration of the flow from the seed
    rng = np.random.default_rng(int(100 * t) + 200)
    for _ in range(10):
        params = model.ModelParams.random(rng)
        rho0 = OnSiteState.random_even(rng)
        drive = flow_onsite(params, rho0, [0.0]).state_matrix
        ref = _propagator_dop853(params, drive, t, rtol=1e-13, atol=1e-15)
        got = heisenberg_propagator_ode(params, rho0, t)
        assert got.value.shape == (16, 16)
        assert np.max(np.abs(got.value - ref)) <= 1e-12
        assert 0.0 < got.truncation <= flow.TAYLOR_TOL


def test_taylor_propagator_of_a_stationary_state(rng):
    # the vacuum has no Cooper field and is diagonal, so it does not move and
    # the propagator is exp(t Delta): B -> e^{it h0} B e^{-it h0}
    params = model.ModelParams.random(rng)
    h0 = model.onsite_h(params)
    assert np.count_nonzero(h0 - np.diag(np.diag(h0))) == 0
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for t in (0.0, 0.3, -1.1):
        phases = np.exp(1j * t * np.diag(h0).real)
        expected = phases[:, None] * a * phases.conj()[None, :]
        got = heisenberg_propagator_ode(params, OnSiteState.vacuum(), t).value
        assert np.max(np.abs((got @ a.ravel()).reshape(4, 4) - expected)) <= 1e-14
    with pytest.raises(ValueError, match="one 4x4 seed"):
        heisenberg_propagator_ode(params, np.eye(2), 0.1)


def _dyson_sum_reference(deltas, step, order):
    """The 16x16 superoperator series 1 + S_1(t) + ... + S_order(t),
    S_k(u) = int_0^u S_{k-1}(v) Delta(v) dv, by forward nesting."""
    total = np.eye(16, dtype=complex)
    s_prev = total
    for _ in range(order):
        s_prev = _node_major_simpson(s_prev @ deltas, step)
        total = total + s_prev[-1]
    return total


def _node_major_simpson(y, step):
    """The package's cumulative Simpson rule along axis 0 instead of the last."""
    return np.moveaxis(flow._cumulative_simpson(np.moveaxis(y, 0, -1), step), -1, 0)


def _dyson_node_major(params, drive, t, order, a_op, n_nodes):
    """The series by node-major nesting: R_j on a (nodes, parts, 4, 4) stack,
    i[dh, R] by matrix products at every node.  Returns the fine sum and the
    quadrature error estimate."""
    grid = np.linspace(0.0, t, 2 * n_nodes + 1)
    dh = model.effective_hamiltonian(
        params, np.broadcast_to(model.density_matrix(drive(grid)), grid.shape + (4, 4))
    )
    parts = np.array([a_op + a_op.conj().T, 1j * (a_op.conj().T - a_op)]) / 2

    def series(gens, step):
        total = parts
        r = np.broadcast_to(parts, gens.shape[:1] + parts.shape)
        gens = gens[:, None]
        for _ in range(order):
            cum = _node_major_simpson(1j * model.hermitian_commutator(gens, r), step)
            r = cum[-1] - cum
            total = total + r[0]
        return total[0] + 1j * total[1]

    step = t / (2 * n_nodes)
    fine = series(dh, step)
    return fine, float(np.max(np.abs(fine - series(dh[::2], 2 * step))))


@pytest.mark.parametrize("t, n_nodes", [(0.1, 512), (-0.1, 512), (0.3, 33), (-0.2, 65), (0.1, 1)])
def test_dyson_matches_node_major_nesting(t, n_nodes):
    # the time-last structural series against matrix-product nesting on the
    # same grids: negative t, odd coarse grids and a non-Hermitian a_op
    rng = np.random.default_rng(int(1000 * abs(t)) + n_nodes + 7)
    for _ in range(3):
        params = model.ModelParams.random(rng)
        drive = flow_onsite(params, OnSiteState.random_even(rng), [0.0]).state_matrix
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        res = dyson_phillips(params, drive, t, 8, a, n_nodes=n_nodes)
        ref, quad_err = _dyson_node_major(params, drive, t, 8, a, n_nodes)
        assert np.max(np.abs(res.operator - ref)) <= 1e-15
        assert abs(res.quadrature_error - quad_err) <= 1e-15


@pytest.mark.parametrize(
    "t, n_nodes", [(0.1, 512), (-0.1, 512), (0.3, 512), (-0.1, 65), (0.1, 129)]
)
def test_dyson_operator_series_matches_superoperator_series(t, n_nodes):
    # the series applied to a_op by backward nesting against the forward-nested
    # superoperator series applied to vec(a_op).  The two are different
    # Simpson quadratures of the same nested integrals, so they agree to
    # within the quadrature error (3e-12 at n_nodes = 33, 5e-8 at 3): the
    # grids here are fine enough for 1e-12; 65 and 129 are odd coarse grids
    rng = np.random.default_rng(int(1000 * abs(t)) + n_nodes)
    for _ in range(3):
        params = model.ModelParams.random(rng)
        traj = flow_onsite(params, OnSiteState.random_even(rng), [0.0])
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = a + a.conj().T
        res = dyson_phillips(params, traj.state_matrix, t, 8, a, n_nodes=n_nodes)
        grid = np.linspace(0.0, t, 2 * n_nodes + 1)
        deltas = _generator_superop(params, np.array([traj.state_matrix(s) for s in grid]))
        ref = _dyson_sum_reference(deltas, t / (2 * n_nodes), 8) @ a.ravel()
        assert np.max(np.abs(res.operator - ref.reshape(4, 4))) <= 1e-12


def test_dyson_norm_is_generator_spectral_norm(rng):
    # M in the remainder bound (M |t|)**9 / 9! is the spread of dh's
    # eigenvalues, the exact spectral norm of the normal superoperator
    t = 0.2
    for _ in range(10):
        params = model.ModelParams.random(rng, gamma_max=4.0)
        rho = OnSiteState.random_even(rng)
        res = dyson_phillips(params, lambda s: rho, t, 8, np.eye(4), n_nodes=1)
        m_norm = (res.remainder_bound * math.factorial(9)) ** (1 / 9) / t
        exact = np.linalg.norm(_generator_superop(params, rho), 2)
        assert abs(m_norm - exact) <= 1e-13 * exact


def test_dyson_norm_closed_form_matches_eigvalsh():
    # M from the odd levels and the pair block's two eigenvalues against the
    # largest spread of eigvalsh(dh) over the coarse nodes of a drive whose
    # Cooper field changes modulus from node to node
    rng = np.random.default_rng(41)
    t = 0.3
    for _ in range(200):
        params = model.ModelParams.random(rng, gamma_max=4.0)
        states = np.array([OnSiteState.random_even(rng).matrix for _ in range(5)])
        res = dyson_phillips(params, lambda s: states, t, 1, np.eye(4), n_nodes=2)
        m_norm = math.sqrt(2.0 * res.remainder_bound) / t
        dh = model.effective_hamiltonian(params, states[::2])
        exact = np.ptp(np.linalg.eigvalsh(dh), axis=-1).max()
        assert abs(m_norm - exact) <= 1e-14 * exact


def test_density_conservation_runs_no_oracle(monkeypatch):
    def no_oracle(*_args):
        raise AssertionError("density-conservation ran the Taylor flow oracle")

    monkeypatch.setattr(flow, "flow_ode", no_oracle)
    monkeypatch.setattr(verification, "flow_ode", no_oracle)
    verification._prop1_suite.cache_clear()
    assert verification.check_conserved_densities(0).passed


@pytest.mark.parametrize("n", [2, 3, 4, 5, 513, 1025])
def test_cumulative_simpson_matches_scipy(n):
    rng = np.random.default_rng(n)
    y = rng.standard_normal((16, 16, n)) + 1j * rng.standard_normal((16, 16, n))

    def scipy_complex(**spacing):
        kw = dict(axis=-1, initial=0.0, **spacing)
        return cumulative_simpson(y.real, **kw) + 1j * cumulative_simpson(y.imag, **kw)

    for t in (0.1, -0.1):
        got = flow._cumulative_simpson(y, t / (n - 1))
        if t > 0:
            # scipy's x= path takes the rounded interval widths of the grid
            # and needs increasing x
            ref = scipy_complex(x=np.linspace(0.0, t, n))
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        ref = scipy_complex(dx=t / (n - 1))
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
