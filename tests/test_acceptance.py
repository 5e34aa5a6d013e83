"""Acceptance suite: one test per criterion, each printing its pass/fail line.

These call the same check functions as ``mfbcs verify``; run with ``-s`` to
see the per-criterion lines and timings.
"""

from mfbcs import verification

SEED = 0


def _run(check, budget_s):
    result = check(SEED)
    print()
    print(result.line())
    assert result.runtime_s < budget_s, f"runtime {result.runtime_s:.1f}s over budget {budget_s}s"
    assert result.passed, result.line()
    return result


def test_01_car_exactness():
    # every anticommutator identity holds with exactly integer entries, N <= 5
    result = _run(verification.check_car_exactness, 10.0)
    assert result.max_violation == 0.0


def test_02_density_conservation():
    # electron, magnetization, double-occupancy densities constant to 1e-8
    _run(verification.check_conserved_densities, 5.0)


def test_03_cooper_field_rotation():
    # z_t = sqrt(kappa0) e^{i(t nu0 + theta0)} to 1e-6; kappa drift < 1e-8
    _run(verification.check_cooper_field_law, 30.0)


def test_04_mixture_interference():
    # mixture field matches the phasor sum; designated example beats by > 0.1
    _run(verification.check_interference, 60.0)


def test_05_finite_volume_convergence():
    # deviation from the mean-field flow shrinks by >= 2x from N=2 to N=5, and the
    # closed-form site series agrees with dense evolution at N=2..4 to 1e-12
    _run(verification.check_fv_convergence, 300.0)


def test_06_gap_equation():
    # r* = 0 at gamma=2; r* = 0.47875201203863437 +- 1e-4 at gamma=8;
    # superconducting density identity on the 5x5 grid
    _run(verification.check_gap_equation, 60.0)


def test_07_pressure_identity_trend():
    # |pressure_fv(N) - sup| smaller at N=5 than at N=1 (strong coupling); the
    # sector pressure matches a full eigvalsh of H_N at N <= 4 to 1e-12 relative
    _run(verification.check_pressure_trend, 5.0)


def test_08_liouville_residuals():
    # d/dt V_t(f) = {h, V_t(f)} within 1e-5 across the polynomial suite
    _run(verification.check_liouville, 120.0)


def test_09_poisson_algebra():
    # antisymmetry exact, Leibniz < 1e-10, Jacobi < 1e-9, 100 seeded cases
    _run(verification.check_poisson_algebra, 30.0)


def test_10_rotor_commuting_diagram():
    # rotor_map o flow = rotor_flow o rotor_map within 1e-6 on the suite
    _run(verification.check_rotor_diagram, 60.0)


def test_11_equilibrium_stationarity():
    # 8-phase equilibrium mixture static to 1e-8; doubling phases changes
    # residuals by < 1e-8
    _run(verification.check_equilibrium_stationarity, 60.0)


def test_12_dyson_series():
    # order-8 series at t=0.1 matches the ODE propagator within 1e-8; the
    # detail reports the worst certified remainder and quadrature estimate
    result = _run(verification.check_dyson, 5.0)
    assert "worst remainder bound" in result.detail
    assert "worst quadrature error" in result.detail


def test_13_energy_bound():
    # ||H_N|| <= C N ||m|| for N <= 4 over 10 seeded parameter sets
    _run(verification.check_energy_bound, 5.0)


def test_summary_all_pass():
    # the same aggregation `mfbcs verify` uses for its exit code
    results = verification.run_all(SEED)
    failures = [r.name for r in results if not r.passed]
    assert not failures, f"failing suites: {failures}"
