import numpy as np
import pytest
from scipy.special import logsumexp

from mfbcs import fock, model


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def decoupled_hamiltonian_n(n_sites, params, c):
    """Dense H_N(c) = sum_x of the decoupled one-site operator at site x."""
    h_site = model.decoupled_hamiltonian(params, c)
    return sum(fock.embed_local(n_sites, x, h_site) for x in range(n_sites)).toarray()


def decoupled_pressure_n(n_sites, params, spec, c):
    """(beta N)^{-1} ln Trace e^{-beta H_N(c)}, the pressure of the decoupled H_N(c)."""
    w = np.linalg.eigvalsh(decoupled_hamiltonian_n(n_sites, params, c))
    return float(logsumexp(-spec.beta * w) / (spec.beta * n_sites))
