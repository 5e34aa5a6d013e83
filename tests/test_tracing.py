"""The benchmark's tracer (perfbench/spans.py) wraps package functions by name.

Deleting or renaming one of the names it traces makes ``install`` raise, and
every traced benchmark run with it; this test fails first.
"""

import importlib.util
from pathlib import Path

from mfbcs import dynamics, fock, model, verification
from mfbcs.states import OnSiteState

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_package():
    spans = _load_spans()
    original = dynamics.evolve_expectation
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        assert dynamics.evolve_expectation is not original
        initial = dynamics.product_state(2, OnSiteState.vacuum())
        dynamics.evolve_expectation(
            2, model.ModelParams(gamma=1.0), initial, [fock.PAIR], [0.0, 0.5]
        )
    finally:
        uninstall()
    assert dynamics.evolve_expectation is original
    names = [span[0] for span in recorder.spans]
    assert "dynamics.evolve_expectation.spectral_mixed" in names


def test_tracer_labels_a_pure_state_evolution():
    spans = _load_spans()
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        initial = dynamics.pure_product_state(2, [0.8, 0.0, 0.0, 0.6])
        params = model.ModelParams(gamma=1.0)
        # "auto" is labelled through propagation_backend, an explicit backend directly
        for backend in ("auto", "spectral"):
            dynamics.evolve_expectation(
                2, params, initial, [fock.PAIR], [0.0, 0.5], backend=backend
            )
    finally:
        uninstall()
    names = [span[0] for span in recorder.spans]
    assert names.count("dynamics.pure_product_state") == 1
    assert names.count("dynamics.evolve_expectation.spectral_pure") == 2
    assert names.count("dynamics.Propagator.from_matrix") == 2


def test_tracer_records_the_stacked_poisson_algebra_row():
    # the row's stacked bracket calls still go through the traced names, so
    # the benchmark's classical and verification spans see them: seven calls,
    # each on the whole stack of 100 states
    spans = _load_spans()
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        row = verification.check_poisson_algebra(0)
    finally:
        uninstall()
    assert row.passed
    names = [span[0] for span in recorder.spans]
    assert names.count("verification.check_poisson_algebra") == 1
    assert names.count("classical.poisson_bracket") == 7
