r"""Fermionic Fock spaces and CAR operator matrices.

Single site
-----------

One lattice site carries two spin modes (up, down), so its Fock space is
4-dimensional.  The basis ordering is fixed once and for all across the
whole package:

    index 0 : vacuum
    index 1 : one spin-up fermion
    index 2 : one spin-down fermion
    index 3 : doubly occupied, defined as  a+_up a+_dn |vac>

With this convention the annihilators have integer entries

    a_up = |0><1| + |2><3|          a_dn = |0><2| - |1><3|

and the pair annihilator ``a_dn @ a_up`` has the single entry <0|.|3> = +1.

Many sites
----------

``n_sites`` sites give a 4**n_sites dimensional space, ordered site-major
with site 0 as the leftmost Kronecker factor.  Modes are ordered site-major
with spin-up before spin-down inside a site.  Operators for site x carry a
parity (Jordan-Wigner) string over all earlier sites,

    a_{x,s} = P (x) P (x) ... (x) a_s (x) 1 (x) ... (x) 1,

where P = diag(1,-1,-1,1) is the one-site parity.  Any fixed sign
convention satisfying the canonical anti-commutation relations

    {a_i, a_j} = 0,      {a_i, a+_j} = delta_ij 1

is admissible; this one keeps all matrix entries in {0, +1, -1}, so
``car_report`` returns exactly zero rather than merely something small.

Matrices are built over integers, stored as sparse CSR in complex floating
point.  Dense conversion is left to the caller.  Every N-site builder stops
at n_sites = 5 (dimension 1024): larger product states are handled without
any 4**N object, by the closed-form site series of
:func:`mfbcs.dynamics.product_site_series`.  scipy.sparse is imported by the
builders that call it, so importing this module does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError

if TYPE_CHECKING:
    import scipy.sparse as sp

SPINS = ("up", "dn")

#: Largest site count for which 4**N operators and states are materialized.
DENSE_SITE_LIMIT = 5


def _onsite_matrices() -> Dict[str, np.ndarray]:
    a_up = np.zeros((4, 4))
    a_up[0, 1] = 1.0
    a_up[2, 3] = 1.0
    a_dn = np.zeros((4, 4))
    a_dn[0, 2] = 1.0
    a_dn[1, 3] = -1.0
    parity = np.diag([1.0, -1.0, -1.0, 1.0])
    return {
        "a_up": a_up,
        "a_dn": a_dn,
        "n_up": a_up.T @ a_up,
        "n_dn": a_dn.T @ a_dn,
        "parity": parity,
    }


_ONSITE = _onsite_matrices()

# Public single-site constants (complex copies; callers must not mutate).
A_UP: np.ndarray = _ONSITE["a_up"].astype(complex)
A_DN: np.ndarray = _ONSITE["a_dn"].astype(complex)
N_UP: np.ndarray = _ONSITE["n_up"].astype(complex)
N_DN: np.ndarray = _ONSITE["n_dn"].astype(complex)
PARITY_1: np.ndarray = _ONSITE["parity"].astype(complex)
#: Pair annihilator a_dn a_up (single entry <0|.|3> = +1).
PAIR: np.ndarray = A_DN @ A_UP
#: Pair creator (a_dn a_up)^dagger = a+_up a+_dn.
PAIR_DAG: np.ndarray = PAIR.conj().T
#: Row and column (p, q) of the single entry of PAIR = |p><q|.
PAIR_ENTRY: Tuple[int, int] = tuple(int(i) for i in np.argwhere(PAIR)[0])

#: The one-site observables tabulated by ``simulate`` and ``converge`` and
#: compared with the mean-field flow: density d, magnetization m, double
#: occupancy w and the Cooper-pair field z.  Placed at site 0 they need no
#: parity string.
SITE_OBSERVABLES: Dict[str, np.ndarray] = {
    "d": N_UP + N_DN,
    "m": N_UP - N_DN,
    "w": N_UP @ N_DN,
    "z": PAIR,
}
#: Real columns of the table; the complex pair field splits into quadratures.
SITE_COLUMNS = ("d", "m", "w", "z_re", "z_im")


def site_columns(series: Sequence) -> Dict[str, np.ndarray]:
    """Real columns of (d, m, w, z) values given in SITE_OBSERVABLES order."""
    d, m, w, z = series
    return {
        "d": np.real(d), "m": np.real(m), "w": np.real(w),
        "z_re": np.real(z), "z_im": np.imag(z),
    }


def check_site_count(n_sites: int) -> None:
    """Validate a site count for a 4**N build: 1 <= n_sites <= DENSE_SITE_LIMIT."""
    if n_sites < 1:
        raise ValueError(f"site count must be >= 1, got {n_sites}")
    if n_sites > DENSE_SITE_LIMIT:
        raise CapacityError(
            f"n_sites={n_sites} exceeds the dense limit {DENSE_SITE_LIMIT}; "
            "product states at any site count go through "
            "dynamics.product_site_series"
        )


def _parity_diagonal(n_sites: int) -> np.ndarray:
    """Diagonal of the parity string P (x) ... (x) P over ``n_sites`` sites."""
    diag = np.ones(1)
    for _ in range(n_sites):
        diag = np.kron(diag, np.diag(_ONSITE["parity"]))
    return diag


def _place(n_sites: int, site: int, left: np.ndarray, op: np.ndarray) -> sp.csr_matrix:
    """diag(left) (x) op (x) 1 with ``op`` at ``site``, sparse CSR.

    The Kronecker product is written out by index arithmetic: stored entry
    (a, b) of ``op`` lands at row (l, a, k) and column (l, b, k) with value
    left[l] op[a, b], for every index l of ``left`` and k of the identity.
    """
    # imported here, not at module level: scipy.sparse takes ~0.2 s to load
    import scipy.sparse as sp

    width = 4 ** (n_sites - 1 - site)
    a, b = np.nonzero(op)
    outer, inner = 4 * np.arange(len(left))[:, None], np.arange(width)
    rows = ((outer + a)[..., None] * width + inner).ravel()
    cols = ((outer + b)[..., None] * width + inner).ravel()
    data = np.repeat(np.multiply.outer(left.astype(complex), op[a, b].astype(complex)), width)
    return sp.csr_matrix((data, (rows, cols)), shape=(4**n_sites, 4**n_sites))


def _check_site(n_sites: int, site: int) -> None:
    check_site_count(n_sites)
    if not 0 <= site < n_sites:
        raise ValueError(f"site index {site} out of range for n_sites={n_sites}")


def embed(n_sites: int, site: int, spin: str) -> sp.csr_matrix:
    """Annihilator a_{site,spin} on the n_sites-site space, sparse CSR.

    Site 0 is the leftmost tensor factor; a parity string runs over all
    sites left of ``site``.
    """
    _check_site(n_sites, site)
    if spin not in SPINS:
        raise ValueError(f"spin must be one of {SPINS}, got {spin!r}")
    local = _ONSITE["a_up"] if spin == "up" else _ONSITE["a_dn"]
    return _place(n_sites, site, _parity_diagonal(site), local)


def embed_local(n_sites: int, site: int, op: np.ndarray) -> sp.csr_matrix:
    """Embed an arbitrary 4x4 operator at ``site`` with no parity string.

    Correct as-is for even operators; odd one-site operators should be
    assembled from :func:`embed` instead.
    """
    _check_site(n_sites, site)
    if op.shape != (4, 4):
        raise ValueError(f"expected a 4x4 operator, got shape {op.shape}")
    return _place(n_sites, site, np.ones(4**site), op)


@dataclass(frozen=True)
class FermionOperatorSet:
    """The annihilators and creators for a fixed site count.

    Dictionaries are keyed by (site, spin).  Everything is immutable after
    construction and safe to share between threads.
    """

    n_sites: int
    annihilators: Dict[Tuple[int, str], sp.csr_matrix] = field(repr=False)
    creators: Dict[Tuple[int, str], sp.csr_matrix] = field(repr=False)

    @classmethod
    def build(cls, n_sites: int) -> "FermionOperatorSet":
        check_site_count(n_sites)
        ann: Dict[Tuple[int, str], sp.csr_matrix] = {}
        cre: Dict[Tuple[int, str], sp.csr_matrix] = {}
        for x in range(n_sites):
            for s in SPINS:
                a = embed(n_sites, x, s)
                ann[(x, s)] = a
                cre[(x, s)] = a.conj().T.tocsr()
        return cls(n_sites=n_sites, annihilators=ann, creators=cre)

    @property
    def dim(self) -> int:
        return 4**self.n_sites

    def modes(self) -> List[Tuple[int, str]]:
        return [(x, s) for x in range(self.n_sites) for s in SPINS]


def _block_products(left: List[sp.csr_matrix], right: List[sp.csr_matrix]) -> sp.csr_matrix:
    """The block matrix whose (i, j) block is left[i] @ right[j]: one sparse product."""
    # imported here, not at module level: scipy.sparse takes ~0.2 s to load
    import scipy.sparse as sp

    return sp.vstack(left, format="csr") @ sp.hstack(right, format="csr")


def _anticommutator_violation(
    first: sp.csr_matrix, second: sp.csr_matrix, dim: int, unit_at: Optional[int]
) -> float:
    """Largest entry of block (i, j) of ``first`` plus block (j, i) of ``second``.

    ``first`` holds blocks (i, j) for a run of modes i and every mode j,
    ``second`` the blocks (j, i) of the same pairs.  They are exchanged by
    index arithmetic: entry (r, c) of block (j, i) moves to block (i, j).
    With ``unit_at`` the identity is subtracted from the blocks (i, i), whose
    first mode i is column block ``unit_at``.
    """
    # imported here, not at module level: scipy.sparse takes ~0.2 s to load
    import scipy.sparse as sp

    second = second.tocoo()
    j, r = np.divmod(second.row, dim)
    i, c = np.divmod(second.col, dim)
    total = first + sp.csr_matrix((second.data, (i * dim + r, j * dim + c)), shape=first.shape)
    if unit_at is not None:
        total = total - sp.eye(*first.shape, k=unit_at * dim, dtype=first.dtype, format="csr")
    return float(np.abs(total.data).max(initial=0.0))


#: Rows of the stacked blocks that car_report forms at once, which bounds the
#: memory the check takes: four of the ten modes at N = 5, every mode below.
CAR_BLOCK_ROWS = 4**6


def car_report(ops: FermionOperatorSet) -> float:
    """Maximum absolute violation over every anticommutator identity.

    Checks {a_i, a_j} = 0 and {a_i, a+_j} = delta_ij over all ordered mode
    pairs, for a run of modes i at a time against every mode j, from the
    block matrices of a_i a_j, a_j a_i, a_i a+_j and a+_j a_i (one sparse
    product of stacked operators each).  A correct construction returns
    exactly 0.0 because all entries are integers.
    """
    modes = ops.modes()
    ann = [ops.annihilators[k] for k in modes]
    cre = [ops.creators[k] for k in modes]
    worst = 0.0
    chunk = max(1, CAR_BLOCK_ROWS // ops.dim)
    for lo in range(0, len(modes), chunk):
        run = ann[lo : lo + chunk]
        worst = max(
            worst,
            _anticommutator_violation(
                _block_products(run, ann), _block_products(ann, run), ops.dim, None
            ),
            _anticommutator_violation(
                _block_products(run, cre), _block_products(cre, run), ops.dim, lo
            ),
        )
    return worst


def condensate_op(n_sites: int) -> sp.csr_matrix:
    """Zero-mode pair annihilator  n_sites**(-1/2) * sum_x a_{x,dn} a_{x,up}.

    Annihilates one Cooper pair in the condensate; even, with operator norm
    at most sqrt(n_sites).
    """
    # imported here, not at module level: scipy.sparse takes ~0.2 s to load
    import scipy.sparse as sp

    check_site_count(n_sites)
    out = sp.csr_matrix((4**n_sites, 4**n_sites), dtype=complex)
    pair = PAIR  # even one-site operator, no string needed
    for x in range(n_sites):
        out = out + embed_local(n_sites, x, pair)
    return (out / np.sqrt(n_sites)).tocsr()
