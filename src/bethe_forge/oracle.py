"""Brute-force reference spectra: dense diagonalization per translation block.

The chain is periodic, so the cyclic shift T, the left shift
s -> s[1:] + s[:1] of an occupation string, commutes with every sector
matrix.  Each S^z sector splits into L translation blocks m = 0..L-1, the
T-eigenspaces with eigenvalue e^{2 pi i m / L}.  Block m is spanned by the
momentum states

    |r, m> = sum_{d < p} e^{-2 pi i m d / L} T^d |r> / sqrt(p),

one for each orbit of T with representative r and period p such that
m p = 0 mod L.  The sector matrix is built once; each block matrix
F_m^dagger H F_m (F_m the columns |r, m>) is read from its representative
rows, and each block is diagonalized on its own.

A Bethe state with momenta z satisfies T psi = (prod z) psi, so it lies in
the block m with e^{2 pi i m / L} = prod z (bethe.momentum).  Its energy is
matched only against the eigenvalues of that block.

Chain matrices here are generically non-Hermitian complex matrices, so the
general eigensolver is used and eigenvalues are compared as complex numbers.
Matching against Bethe-ansatz output is multiset-aware (each reference
eigenvalue is consumed once per multiplicity) with an absolute tolerance
after normalizing by the largest matrix entry.

verify_sector runs the whole pipeline of one sector, M = 0 (the
pseudo-vacuum) included, into one SectorReport.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .bethe import check_roots, momentum, solve_bae
from .hamiltonian import (ChainSpec, _apply_bonds, sector_basis,
                          sector_dimension, two_site_matrix)

SECTOR_DIM_CAP = 20000


@dataclass
class SectorSpectrum:
    M: int
    eigenvalues: np.ndarray
    dimension: int
    momenta: np.ndarray                # translation block m of each eigenvalue
    L: int
    matrix: np.ndarray | None = None   # the sector matrix, when built here


@dataclass
class SectorReport:
    M: int
    dimension: int
    matched: int
    unmatched: list = field(default_factory=list)
    coverage: float = 0.0
    uncovered: list = field(default_factory=list)  # per block m: ED values left
    solutions: list = field(default_factory=list)  # root sets (verify_sector)
    checks: list = field(default_factory=list)     # their RootChecks, in order

    def count(self, outcome):
        """How many root sets check_roots gave this outcome."""
        return sum(chk.outcome == outcome for chk in self.checks)

    @property
    def max_eig_residual(self):
        return max([0.0] + [chk.eig_residual for chk in self.checks
                            if chk.eig_residual is not None])

    @property
    def passed(self):
        """No eigenpair check failed and every verified state matched."""
        return not self.unmatched and not self.count("unverified")


def sector_matrix(params, L, M):
    """Restriction of the periodic chain to the S^z = M occupation basis."""
    ChainSpec(L)  # raises unless 2 <= L <= L_max
    basis = sector_basis(L, M)
    index = {s: i for i, s in enumerate(basis)}
    return _apply_bonds(two_site_matrix(params), basis, index, L)


@functools.lru_cache(maxsize=32)
def _orbit_table(L, M):
    """Read-only translation orbits of the (L, M) sector, in sector_basis
    order: for each state its orbit (numbered by representative, the state
    of lowest index), and d with state = T^d (representative); for each
    orbit its representative's index and its period."""
    occ = np.array(sector_basis(L, M), dtype=np.uint8).reshape(-1, L)
    # each row as one L-byte key; keys compare like the occupation tuples,
    # so the lexicographic basis is sorted by key, at any L
    key = f"V{L}"
    keys = occ.view(key).ravel()
    n = len(keys)
    # image[d, i]: index of T^d applied to state i
    image = np.empty((L, n), np.intp)
    for d in range(L):
        image[d] = np.searchsorted(keys, np.roll(occ, -d, axis=1).view(key).ravel())
    rep = image.min(axis=0)
    reps, orbit = np.unique(rep, return_inverse=True)
    back = np.argmax(image == rep, axis=0)     # T^back (state) = rep
    fixed = image[1:] == np.arange(n)
    period = np.where(fixed.any(axis=0), np.argmax(fixed, axis=0) + 1, L)
    shift = (-back) % period
    out = orbit, shift, reps, period[reps]
    for a in out:
        a.setflags(write=False)
    return out


def _block_matrices(H, L, M):
    """Block matrices F_m^dagger H F_m, m = 0..L-1, as (m, orbit indices of
    block m, matrix).

    T H = H T, so H F_m[:, b] is again a T-eigenvector and the block entry
    (a, b) is sqrt(p_a) times its component on the representative r_a:
    sqrt(p_a / p_b) sum_{d < p_b} e^{-2 pi i m d / L} H[r_a, T^d r_b], one
    FFT over d for all m at once."""
    orbit, shift, reps, period = _orbit_table(L, M)
    k = len(reps)
    G = np.zeros((k, k, L), complex)
    G[:, orbit, shift] = H[reps]
    G = np.fft.fft(G, axis=2)
    G *= np.sqrt(period[:, None] / period[None, :])[:, :, None]
    for m in range(L):
        idx = np.flatnonzero(m * period % L == 0)
        yield m, idx, G[:, :, m][np.ix_(idx, idx)]


def sector_spectrum(params, L, M):
    """Eigenvalues of the (L, M) sector, solved block by block, with their
    block labels; returned with the sector matrix.  A sector larger than
    SECTOR_DIM_CAP is refused before its matrix is allocated."""
    dim = sector_dimension(L, M)
    if dim > SECTOR_DIM_CAP:
        raise ValueError(f"sector dimension {dim} exceeds cap")
    H = sector_matrix(params, L, M)
    evs, labels = [np.empty(0, complex)], [np.empty(0, np.intp)]
    for m, idx, block in _block_matrices(H, L, M):
        if not idx.size:
            continue
        try:
            evs.append(np.linalg.eigvals(block))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"eigensolver failed for L={L}, M={M}, block {m}: {exc}")
        labels.append(np.full(idx.size, m))
    return SectorSpectrum(M=M, eigenvalues=np.concatenate(evs),
                          dimension=H.shape[0], momenta=np.concatenate(labels),
                          L=L, matrix=H)


def _take_nearest(pool, v, tol):
    """Remove the entry of pool nearest to v if it lies within tol; return
    whether one was removed."""
    if not pool:
        return False
    dist = [abs(v - r) for r in pool]
    k = int(np.argmin(dist))
    if dist[k] > tol:
        return False
    pool.pop(k)
    return True


def compare(cba_solutions, ed, tol=1e-8, scale=1.0):
    """Match accepted Bethe energies against a sector spectrum, each only
    against the eigenvalues of its own translation block; a root set with
    no block (prod z not an L-th root of unity) is unmatched."""
    pools = [list(ed.eigenvalues[ed.momenta == m]) for m in range(ed.L)]
    unmatched = []
    for sol in cba_solutions:
        m = momentum(sol.z, ed.L)
        if m is None or not _take_nearest(pools[m], sol.energy, tol * scale):
            unmatched.append(sol.energy)
    matched = len(cba_solutions) - len(unmatched)
    return SectorReport(
        M=ed.M, dimension=ed.dimension, matched=matched, unmatched=unmatched,
        coverage=matched / ed.dimension if ed.dimension else 1.0,
        uncovered=[len(p) for p in pools])


def verify_sector(params, L, M, solver_config, tol_eig):
    """Solve, diagonalize, check and match the (L, M) sector: the root sets
    of solve_bae, each checked against the sector matrix (check_roots), and
    the verified ones matched against the block spectra (compare), with
    tol_eig relative to the largest matrix entry."""
    sols = solve_bae(params, L, M, solver_config)
    spec = sector_spectrum(params, L, M)
    scale = float(np.max(np.abs(spec.matrix))) or 1.0
    checks = check_roots(params, sols, spec.matrix, L, tol_eig, scale)
    verified = [sol for sol, chk in zip(sols, checks)
                if chk.outcome == "verified"]
    rep = compare(verified, spec, tol=tol_eig, scale=scale)
    rep.solutions, rep.checks = sols, checks
    return rep
