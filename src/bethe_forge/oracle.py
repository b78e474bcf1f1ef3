"""Brute-force reference spectra: dense diagonalization per translation block.

The chain is periodic, so the cyclic shift T, the left shift
s -> s[1:] + s[:1] of an occupation string, commutes with every sector
matrix.  Each S^z sector splits into L translation blocks m = 0..L-1, the
T-eigenspaces with eigenvalue e^{2 pi i m / L}.  Block m is spanned by the
momentum states

    |r, m> = sum_{d < p} e^{-2 pi i m d / L} T^d |r> / sqrt(p),

one for each orbit of T with representative r and period p such that
m p = 0 mod L.  Each block matrix B_m = F_m^dagger H F_m (F_m the columns
|r, m>) is read from H's rows at the representatives, and only those rows
are built (hamiltonian._representative_rows), a (k, dim) array for the k
orbits; the dim x dim sector matrix is built only by sector_matrix, which
verify_sector does not call.  Each block is diagonalized on its own.
Both refuse a sector outside the caps of hamiltonian's size guard before
they allocate anything (the entry cap covers the block table too), and
verify_sector diagonalizes before it solves, so an oversized sector is
refused before the solver runs.

A Bethe state with momenta z satisfies T psi = (prod z) psi, so it lies in
the block m with e^{2 pi i m / L} = prod z (bethe.momentum).  It is
verified in that block, as the block vector with coordinates
sqrt(p_r) psi(r) against B_m (bethe.check_roots), and its energy is
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

from dataclasses import dataclass, field

import numpy as np

from .bethe import _momenta, check_roots, solve_bae
from .hamiltonian import (_apply_bonds, _orbit_table, _representative_rows,
                          _sector_occupations, check_chain, two_site_matrix)


@dataclass
class SectorSpectrum:
    M: int
    eigenvalues: np.ndarray
    dimension: int
    momenta: np.ndarray                # translation block m of each eigenvalue
    L: int
    blocks: dict = field(default_factory=dict)  # m -> (orbit indices, B_m)
    scale: float = 1.0                 # largest |entry| of the sector matrix


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
    check_chain(L, M, dense=True)
    occ = _sector_occupations(L, M)
    return _apply_bonds(two_site_matrix(params), occ, L, occ)


def _block_matrices(rows, L, M):
    """Block matrices F_m^dagger H F_m, m = 0..L-1, as (m, orbit indices of
    block m, matrix), from rows = H[reps], the sector matrix's rows at the
    orbit representatives (_representative_rows).

    T H = H T, so H F_m[:, b] is again a T-eigenvector and the block entry
    (a, b) is sqrt(p_a) times its component on the representative r_a:
    sqrt(p_a / p_b) sum_{d < p_b} e^{-2 pi i m d / L} H[r_a, T^d r_b], one
    FFT over d for all m at once."""
    orbit, shift, reps, period = _orbit_table(L, M)
    k = len(reps)
    G = np.zeros((k, k, L), complex)
    G[:, orbit, shift] = rows
    G = np.fft.fft(G, axis=2)
    G *= np.sqrt(period[:, None] / period[None, :])[:, :, None]
    for m in range(L):
        idx = np.flatnonzero(m * period % L == 0)
        yield m, idx, G[:, :, m][np.ix_(idx, idx)]


def sector_spectrum(params, L, M):
    """Eigenvalues of the (L, M) sector, solved block by block, with their
    block labels, the block matrices and the largest |entry| of the sector
    matrix.  Only the sector matrix's representative rows are built, never
    the matrix itself; by translation invariance every entry of it is an
    entry of those rows."""
    rows = _representative_rows(params, L, M)
    evs, labels, blocks = [np.empty(0, complex)], [np.empty(0, np.intp)], {}
    for m, idx, block in _block_matrices(rows, L, M):
        blocks[m] = idx, block
        if not idx.size:
            continue
        try:
            evs.append(np.linalg.eigvals(block))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"eigensolver failed for L={L}, M={M}, block {m}: {exc}")
        labels.append(np.full(idx.size, m))
    return SectorSpectrum(M=M, eigenvalues=np.concatenate(evs),
                          dimension=rows.shape[1],
                          momenta=np.concatenate(labels), L=L, blocks=blocks,
                          scale=float(np.max(np.abs(rows), initial=0.0)))


def _take_nearest(pool, taken, v, tol):
    """Take the entry of pool nearest to v among those not yet taken, the
    first of equals, if it lies within tol: mark it taken and return
    whether one was.  Distances are np.hypot's, the scalar complex abs."""
    if not pool.size:
        return False
    d = v - pool
    dist = np.hypot(d.real, d.imag)
    dist[taken] = np.inf
    k = int(np.argmin(dist))
    if dist[k] > tol:
        return False
    taken[k] = True
    return True


def compare(cba_solutions, ed, tol=1e-8, scale=1.0):
    """Match accepted Bethe energies against a sector spectrum, each only
    against the eigenvalues of its own translation block; a root set with
    no block (prod z not an L-th root of unity) is unmatched."""
    pools = [ed.eigenvalues[ed.momenta == m] for m in range(ed.L)]
    taken = [np.zeros(len(p), bool) for p in pools]
    unmatched = []
    Z = np.array([sol.z for sol in cba_solutions], complex)
    for sol, m in zip(cba_solutions,
                      _momenta(Z.reshape(len(cba_solutions), ed.M), ed.L)):
        if m < 0 or not _take_nearest(pools[m], taken[m], sol.energy,
                                      tol * scale):
            unmatched.append(sol.energy)
    matched = len(cba_solutions) - len(unmatched)
    return SectorReport(
        M=ed.M, dimension=ed.dimension, matched=matched, unmatched=unmatched,
        coverage=matched / ed.dimension if ed.dimension else 1.0,
        uncovered=[len(t) - int(np.count_nonzero(t)) for t in taken])


def verify_sector(params, L, M, bae_tol, tol_eig):
    """Diagonalize, solve, check and match the (L, M) sector: the root sets
    of solve_bae within bae_tol, each checked in its translation block
    (check_roots), and the verified ones matched against the block spectra
    (compare), with tol_eig relative to the largest sector matrix entry."""
    spec = sector_spectrum(params, L, M)
    sols = solve_bae(params, L, M, bae_tol)
    scale = spec.scale or 1.0
    checks = check_roots(params, sols, spec.blocks, L, tol_eig, scale)
    verified = [sol for sol, chk in zip(sols, checks)
                if chk.outcome == "verified"]
    rep = compare(verified, spec, tol=tol_eig, scale=scale)
    rep.solutions, rep.checks = sols, checks
    return rep
