import math

import numpy as np
import pytest
from scipy.optimize import brentq

from mfbcs import dynamics, equilibrium, model
from mfbcs.errors import NumericalAbortError
from mfbcs.flow import mixture_flow, observables

from conftest import decoupled_pressure_n

# oracle: root of r = tanh(4 r)/2 (stationarity at beta=1, gamma=8),
# bisected to full precision
RSTAR_GAMMA8 = 0.47875201203863437


def test_pressure_onsite_free():
    assert abs(equilibrium.pressure_onsite(model.ModelParams(), 2.0, 0.0) - math.log(4.0) / 2.0) < 1e-13


def test_pressure_onsite_strong_coupling_formula():
    # mu=h=lam=0: even block eigenvalues -+ gamma r, odd block zeros
    gamma, r = 8.0, 0.3
    p = equilibrium.pressure_onsite(model.ModelParams(gamma=gamma), 1.0, r)
    assert abs(p - math.log(2.0 + 2.0 * math.cosh(gamma * r))) < 1e-12


def test_pressure_onsite_gauge_invariance(rng):
    params = model.ModelParams(mu=0.3, h=0.2, lam=0.1, gamma=1.7)
    base = equilibrium.pressure_onsite(params, 1.3, 0.4)
    for _ in range(8):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rotated = equilibrium.pressure_onsite(params, 1.3, 0.4 * np.exp(1j * theta))
        assert abs(rotated - base) < 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_pressure_onsite_matches_finite_volume(n):
    params = model.ModelParams(mu=0.4, h=0.1, lam=0.3, gamma=1.2)
    c = 0.2 + 0.3j
    p_site = equilibrium.pressure_onsite(params, 1.1, c)
    p_fv = decoupled_pressure_n(n, params, dynamics.GibbsSpec(beta=1.1), c)
    assert abs(p_site - p_fv) < 1e-12


def test_pressure_onsite_array_matches_scalar_calls(rng):
    params = model.ModelParams.random(rng)
    rs = np.linspace(0.0, 1.0, 9)
    batch = equilibrium.pressure_onsite(params, 1.3, rs)
    assert isinstance(batch, np.ndarray) and batch.shape == rs.shape
    for r, p in zip(rs, batch):
        assert p == equilibrium.pressure_onsite(params, 1.3, float(r))
    cs = (rng.normal(size=4) + 1j * rng.normal(size=4)).reshape(2, 2)
    batch = equilibrium.pressure_onsite(params, 0.7, cs)
    assert batch.shape == (2, 2)
    for idx in np.ndindex(cs.shape):
        single = equilibrium.pressure_onsite(params, 0.7, cs[idx])
        assert isinstance(single, float) and batch[idx] == single


def test_gap_solve_normal_phase():
    assert equilibrium.gap_solve(model.ModelParams(gamma=2.0), 1.0).r_star == 0.0
    sol0 = equilibrium.gap_solve(model.ModelParams(gamma=0.0), 1.0)
    assert sol0.r_star == 0.0 and not sol0.superconducting


def test_gap_solve_strong_coupling():
    sol = equilibrium.gap_solve(model.ModelParams(gamma=8.0), 1.0)
    assert abs(sol.r_star - RSTAR_GAMMA8) < 1e-9
    assert sol.superconducting and not sol.indeterminate
    # sup value exceeds the r = 0 value
    assert sol.pressure_value > equilibrium.pressure_onsite(model.ModelParams(gamma=8.0), 1.0, 0.0) - 8.0 * 0.0


def test_gap_near_critical_labeled_indeterminate():
    # just above the continuous onset (gamma = 4 at beta = 1) the small
    # maximizer, r* = 1.15e-3, sits within one grid cell of the threshold
    sol = equilibrium.gap_solve(model.ModelParams(gamma=4.000007), 1.0)
    spacing = 1.0 / (equilibrium.GRID_POINTS - 1)
    assert abs(sol.r_star - 1.15e-3) < 1e-5
    assert abs(sol.r_star - equilibrium.SUPERCONDUCTING_THRESHOLD) < spacing
    assert sol.indeterminate


def test_gap_monotone_in_gamma():
    rs = [
        equilibrium.gap_solve(model.ModelParams(gamma=g), 1.0).r_star
        for g in np.linspace(0.0, 12.0, 7)
    ]
    assert all(b >= a for a, b in zip(rs, rs[1:]))


def test_gap_solve_particle_hole_symmetry():
    # U maps the limit problem at (mu, h, lam, gamma) to that at (2 lam - mu,
    # -h, lam, gamma): the same maximizer, density d -> 2 - d and a sup
    # pressure shifted by 2 (lam - mu)
    rng = np.random.default_rng(28)
    superconducting = 0
    for _ in range(200):
        p = model.ModelParams.random(rng, gamma_max=8.0)
        beta = float(rng.uniform(0.5, 3.0))
        image = model.ModelParams(mu=2.0 * p.lam - p.mu, h=-p.h, lam=p.lam, gamma=p.gamma)
        sol, mapped = equilibrium.gap_solve(p, beta), equilibrium.gap_solve(image, beta)
        if sol.indeterminate or mapped.indeterminate:
            continue
        superconducting += sol.superconducting
        # the same grid maximizer on both sides; the bisected r* may move by ulps
        assert mapped.superconducting == sol.superconducting
        assert abs(mapped.r_star - sol.r_star) <= 4e-15
        assert abs(mapped.density_at_solution - (2.0 - sol.density_at_solution)) <= 4e-15
        shift = mapped.pressure_value - sol.pressure_value
        assert abs(shift - 2.0 * (p.lam - p.mu)) <= 4e-15 * max(1.0, abs(sol.pressure_value))
    assert superconducting >= 50


def test_approx_gibbs_diagonal_at_zero_field():
    params = model.ModelParams(mu=0.6, h=0.2, lam=0.3, gamma=1.5)
    state = equilibrium.approx_gibbs_onsite(params, 1.4, 0.0)
    off = state.matrix - np.diag(np.diag(state.matrix))
    assert np.max(np.abs(off)) < 1e-14


def test_approx_gibbs_gauge_equivariance(rng):
    params = model.ModelParams(mu=0.2, gamma=2.5)
    base = equilibrium.approx_gibbs_onsite(params, 1.0, 0.35)
    rec0 = observables(params, base)
    for _ in range(4):
        theta = float(rng.uniform(0, 2 * math.pi))
        rotated = equilibrium.approx_gibbs_onsite(params, 1.0, 0.35 * np.exp(1j * theta))
        rec = observables(params, rotated)
        assert abs(rec.z - rec0.z * np.exp(1j * theta)) < 1e-12
        assert abs(rec.d - rec0.d) < 1e-12 and abs(rec.w - rec0.w) < 1e-12


def test_approx_gibbs_self_consistent_at_solution():
    params = model.ModelParams(gamma=8.0)
    sol = equilibrium.gap_solve(params, 1.0)
    state = equilibrium.approx_gibbs_onsite(params, 1.0, sol.r_star)
    assert abs(state.pair_expectation() - sol.r_star) < 1e-10


def test_density_check_half_filling():
    # mu = lam pins the density to 1 in the superconducting phase
    res = equilibrium.superconducting_density_check(
        model.ModelParams(mu=0.5, lam=0.5, gamma=8.0), 1.0
    )
    assert res.applicable
    assert abs(res.lhs - 1.0) < 1e-8 and res.rhs == 1.0


def test_density_check_quarter_shift():
    # mu - lam = gamma / 4 gives density 1.5
    res = equilibrium.superconducting_density_check(
        model.ModelParams(mu=2.0, lam=0.0, gamma=8.0), 1.0
    )
    assert res.applicable and abs(res.lhs - res.rhs) < 1e-6 and res.rhs == 1.5


def test_density_check_normal_phase_not_applicable():
    res = equilibrium.superconducting_density_check(model.ModelParams(gamma=2.0), 1.0)
    assert not res.applicable


def test_density_check_rejects_gamma_zero():
    with pytest.raises(ValueError):
        equilibrium.superconducting_density_check(model.ModelParams(), 1.0)


def test_equilibrium_mixture_single_phase():
    params = model.ModelParams(gamma=8.0)
    mix = equilibrium.equilibrium_mixture(params, 1.0, 1)
    assert mix.weights == (1.0,)


def test_equilibrium_mixture_phase_average_cancels():
    params = model.ModelParams(gamma=8.0)
    mix = equilibrium.equilibrium_mixture(params, 1.0, 8)
    total_z = sum(u * s.pair_expectation() for u, s in mix.components())
    assert abs(total_z) < 1e-12
    # each branch keeps the full condensate density
    sol = equilibrium.gap_solve(params, 1.0)
    for _, s in mix.components():
        assert abs(abs(s.pair_expectation()) ** 2 - sol.r_star**2) < 1e-10


def test_equilibrium_mixture_is_stationary():
    params = model.ModelParams(mu=0.4, lam=0.1, gamma=8.0)
    mix = equilibrium.equilibrium_mixture(params, 1.0, 4)
    times = np.linspace(0.0, 2.0, 5)
    mt = mixture_flow(params, mix, times)
    assert np.max(np.abs(mt.d - mt.d[0])) < 1e-10
    assert np.max(np.abs(mt.z - mt.z[0])) < 1e-10
    # the equilibrium state precesses at zero frequency
    for _, s in mix.components():
        assert abs(observables(params, s).nu) < 1e-9


def test_pressure_table_gamma_zero_exact():
    params = model.ModelParams(mu=0.5, h=0.2, lam=0.3, gamma=0.0)
    rows = equilibrium.variational_vs_finite_pressure(params, 1.2, 4)
    for row in rows:
        assert row.gap < 1e-12


def test_pressure_table_strong_coupling_trend():
    rows = equilibrium.variational_vs_finite_pressure(model.ModelParams(gamma=8.0), 1.0, 4)
    gaps = [r.gap for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_pressure_table_normal_phase_small_gaps():
    rows = equilibrium.variational_vs_finite_pressure(model.ModelParams(gamma=2.0), 1.0, 3)
    assert rows[-1].gap < rows[0].gap
    # computed: 0.2536 at N=3 vs 0.9546 at N=1 (and 1.578 at gamma=8, N=3)
    assert rows[-1].gap < 0.26


def test_condensate_density_approaches_gap_value():
    params = model.ModelParams(gamma=8.0)
    sol = equilibrium.gap_solve(params, 1.0)
    spec = dynamics.GibbsSpec(beta=1.0)
    errs = [
        abs(dynamics.condensate_density_fv(n, params, spec) - sol.r_star**2)
        for n in range(1, 5)
    ]
    assert all(b < a for a, b in zip(errs, errs[1:]))


# --- closed form against the eigvalsh and brentq oracles ----------------------


def _eigvalsh_pressure(params, beta, c):
    """Oracle of pressure_onsite: beta^{-1} ln of the 4x4 decoupled spectrum's partition sum."""
    w = np.linalg.eigvalsh(model.decoupled_hamiltonian(params, c))
    return np.logaddexp.reduce(-beta * w, axis=-1) / beta


def _brentq_gap(params, beta):
    """Oracle of gap_solve: the same 4097-point grid and tie rule on the eigvalsh
    pressure, refined by brentq on the pair expectation of the eigh Gibbs state."""
    rs = np.linspace(0.0, 1.0, 4097)
    f = -params.gamma * rs**2 + _eigvalsh_pressure(params, beta, rs)
    fmax = float(f.max())
    idx = int(np.nonzero(f >= fmax - 1e-12 * max(1.0, abs(fmax)))[0].min())
    r_star = float(rs[idx])
    if params.gamma > 0.0 and 0 < idx < len(rs) - 1:
        def residual(r):
            return equilibrium.approx_gibbs_onsite(params, beta, r).pair_expectation().real - r

        lo, hi = rs[idx - 1], rs[idx + 1]
        if residual(lo) > 0.0 > residual(hi):
            r_star = brentq(residual, lo, hi, xtol=1e-16)
    return r_star, float(-params.gamma * r_star**2 + _eigvalsh_pressure(params, beta, r_star))


def _first_order_points(rng, count):
    """Couplings on both sides of first-order transitions, off the knife edge.

    A jump of r* along gamma is located by bisection to ~1e-14; exactly there
    the grid's two maxima lie within the tie tolerance of each other, and any
    two roundings may pick different branches.  The points sit 1e-8 and 1e-6
    (relative) away, on each side, where the branches differ by far more.
    """
    points = []
    while len(points) < 4 * count:
        mu, h, lam = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0)
        beta = float(rng.uniform(2.0, 8.0))

        def params_at(gamma):
            return model.ModelParams(mu=mu, h=h, lam=lam, gamma=float(gamma))

        gammas = np.linspace(0.5, 8.0, 16)
        rs = np.array([equilibrium.gap_solve(params_at(g), beta).r_star for g in gammas])
        k = int(np.argmax(np.diff(rs)))
        if rs[k + 1] - rs[k] < 0.1:  # no jump on this line
            continue
        lo, hi, middle = gammas[k], gammas[k + 1], 0.5 * (rs[k] + rs[k + 1])
        for _ in range(45):
            mid = 0.5 * (lo + hi)
            if equilibrium.gap_solve(params_at(mid), beta).r_star > middle:
                hi = mid
            else:
                lo = mid
        below = equilibrium.gap_solve(params_at(lo * (1 - 1e-8)), beta).r_star
        above = equilibrium.gap_solve(params_at(hi * (1 + 1e-8)), beta).r_star
        if above - below < 0.05:  # a steep but continuous onset
            continue
        for gamma in (lo * (1 - 1e-8), hi * (1 + 1e-8), lo * (1 - 1e-6), hi * (1 + 1e-6)):
            points.append((params_at(gamma), beta))
    return points


def test_closed_form_matches_eigvalsh_and_brentq_oracles():
    rng = np.random.default_rng(2024)
    points = [
        (model.ModelParams.random(rng, gamma_max=10.0), float(rng.uniform(0.2, 5.0)))
        for _ in range(260)
    ]
    points += [
        (model.ModelParams(mu=rng.uniform(-1, 1), h=rng.uniform(-1, 1), lam=rng.uniform(0, 1)),
         float(rng.uniform(0.2, 5.0)))
        for _ in range(10)
    ]
    points += _first_order_points(rng, 8)
    assert len(points) >= 300
    phases = 0
    for params, beta in points:
        sol = equilibrium.gap_solve(params, beta)
        r_star, value = _brentq_gap(params, beta)
        assert abs(sol.r_star - r_star) <= 1e-13, (params, beta)
        assert abs(sol.pressure_value - value) <= 1e-14 * max(1.0, abs(value)), (params, beta)
        phases += sol.superconducting
        c = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        p = _eigvalsh_pressure(params, beta, c)
        assert abs(equilibrium.pressure_onsite(params, beta, c) - p) <= 1e-14 * max(1.0, abs(p))
    # both phases are sampled
    assert 50 < phases < len(points) - 50


def test_density_and_gap_factor_match_the_gibbs_state(rng):
    # omega_r(P) = r gap(r) and omega_r(n_up + n_dn) against the eigh Gibbs state
    for _ in range(40):
        params = model.ModelParams.random(rng, gamma_max=10.0)
        beta = float(rng.uniform(0.2, 5.0))
        rs = np.array([0.0, *rng.uniform(0.0, 1.0, size=3)])
        sector = equilibrium._PairSector.at(params, beta, rs)
        for r, gap, density in zip(rs, sector.gap, sector.density):
            rec = observables(params, equilibrium.approx_gibbs_onsite(params, beta, r))
            assert abs(r * gap - rec.z.real) < 1e-14
            assert abs(density - rec.d) < 1e-14
        sol = equilibrium.gap_solve(params, beta)
        state = equilibrium.approx_gibbs_onsite(params, beta, sol.r_star)
        assert abs(sol.density_at_solution - observables(params, state).d) < 1e-14


def test_gap_solve_zero_order_parameter_limits():
    # E_r = 0 at eps = 0, r = 0: the gap factor takes its limit gamma beta / Z_0
    params = model.ModelParams(mu=0.3, lam=0.3, gamma=2.0)
    sector = equilibrium._PairSector.at(params, 1.5, np.array([0.0]))
    z0 = 2.0 * math.exp(1.5 * 0.3) + 2.0  # singles 2 e^{beta mu}, pair 2 cosh 0
    assert abs(sector.gap[0] - 2.0 * 1.5 / z0) < 1e-15
    assert np.isfinite(sector.density).all()


def test_gap_solve_overflowing_levels_abort():
    # the naive sqrt(eps**2 + (gamma r)**2) raised OverflowError here
    params = model.ModelParams(mu=-1.0e308, gamma=1.0e308)
    with np.errstate(all="ignore"):
        assert np.isfinite(equilibrium.pressure_onsite(params, 1.0, 0.5))
        with pytest.raises(NumericalAbortError, match="levels overflow"):
            equilibrium.gap_solve(params, 1.0)
