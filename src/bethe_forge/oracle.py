"""Brute-force reference spectra: dense diagonalization by translation block.

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
verify_sector does not call.  The L blocks are one (L, k, k) stack on
the orbit axis (BlockStack), laid out here alone (_block_layout,
_sub_blocks).  Every state of an orbit has the same grade, its number of
|2> sites.  When H never lowers, or never raises, the grade
(hamiltonian._grade_one_way), each block is block triangular in it, with
exact zeros, and only its (block, grade) diagonal sub-blocks are
diagonalized; otherwise each block is one sub-block.  The sub-blocks of
one size are diagonalized by one batched eigensolver call.  Both refuse a
sector outside the caps of hamiltonian's size guard before they allocate
anything (the entry cap covers the stack too), and verify_sector
diagonalizes before it solves, so an oversized sector is refused before
the solver runs.

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
pseudo-vacuum) included, into one SectorReport: sector_spectrum, solve_bae,
check_roots and compare for every sector.  check_roots itself reads a
closed-form sector's root-set layout from its cached table (bethe).
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field

import numpy as np

from .bethe import _chunks, _momenta, _slots, check_roots, solve_bae
from .hamiltonian import (_apply_bonds, _grade_one_way, _orbit_table,
                          _representative_rows, _sector_occupations,
                          check_chain, two_site_matrix, with_zero_v00)


@dataclass(frozen=True)
class BlockStack:
    """A sector's L translation blocks on the axis of its k orbits, whole
    whether or not sector_spectrum splits them by grade."""
    inside: np.ndarray  # (L, k): whether orbit b lies in block m
    B: np.ndarray       # (L, k, k): B_m = F_m^dagger H F_m, 0 off its orbits
    size: np.ndarray    # (L,): block m's dimension


@dataclass
class SectorSpectrum:
    M: int
    eigenvalues: np.ndarray
    dimension: int
    momenta: np.ndarray                # translation block m of each eigenvalue
    L: int
    blocks: BlockStack | None = None
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


@functools.lru_cache(maxsize=32)
def _block_layout(L, M):
    """Read-only layout of the (L, M) sector's translation blocks
    m = 0..L-1 (BlockStack): block m holds the orbits of period p with
    m p = 0 mod L (_orbit_table), and block 0 all k of them.  inside
    (L, k): whether orbit b lies in block m; size (L,): their count;
    grade (k,): each orbit's number of |2> sites, the same for all its
    states."""
    _, _, reps, period = _orbit_table(L, M)
    inside = np.arange(L)[:, None] * period % L == 0
    size = np.count_nonzero(inside, axis=1)
    grade = np.count_nonzero(_sector_occupations(L, M)[reps] == 2, axis=1)
    out = inside, size, grade
    for a in out:
        a.setflags(write=False)
    return out


@functools.lru_cache(maxsize=64)
def _sub_blocks(L, M, graded):
    """The diagonal sub-blocks the (L, M) translation blocks are
    diagonalized by, read-only and grouped by size s ascending: tuples
    (s, m, pos, out) over the n sub-blocks of size s, in block order, with
    m (n,) their blocks, pos (n, s) their orbits (ascending), the rows and
    columns of the stack's block m they take, and out (n, s) the places of
    their eigenvalues in the sector's list, block after block.  With
    graded, a block's (block, grade) sub-blocks, grade by grade ascending,
    so its eigenvalues come in grade order; without, each nonempty block is
    one sub-block."""
    inside, _, grade = _block_layout(L, M)
    groups, at = {}, 0
    for m in range(L):
        orbits = np.flatnonzero(inside[m])
        g = grade[orbits] * graded
        # the grades ascending: np.unique would import numpy.ma on first use
        for v in np.flatnonzero(np.bincount(g)):
            pos = orbits[g == v]
            groups.setdefault(len(pos), []).append(
                (m, pos, at + np.arange(len(pos))))
            at += len(pos)
    tables = []
    for s in sorted(groups):
        m, pos, out = (np.array(a, np.intp) for a in zip(*groups[s]))
        for a in (m, pos, out):
            a.setflags(write=False)
        tables.append((s, m, pos, out))
    return tuple(tables)


def _block_stack(rows, L, M):
    """The sector's translation blocks as one BlockStack, from rows = H[reps],
    the sector matrix's rows at the orbit representatives
    (_representative_rows).

    T H = H T, so H F_m[:, b] is again a T-eigenvector and the block entry
    (a, b) is sqrt(p_a) times its component on the representative r_a:
    sqrt(p_a / p_b) sum_{d < p_b} e^{-2 pi i m d / L} H[r_a, T^d r_b], one
    FFT over d for all m at once.  The rows and columns of the orbits
    outside block m (_block_layout) are then set to 0.  Block 0 holds all
    k orbits, so the stack has the k^2 L entries _representative_rows
    checks against ENTRY_CAP."""
    orbit, shift, reps, period = _orbit_table(L, M)
    inside, size, _ = _block_layout(L, M)
    k = len(reps)
    B = np.zeros((L, k, k), complex)
    B[shift, :, orbit] = rows.T                  # B[d, a, b] = H[r_a, T^d r_b]
    B = np.fft.fft(B, axis=0)
    B *= np.sqrt(period[:, None] / period[None, :])
    B[~inside] = 0
    B.transpose(0, 2, 1)[~inside] = 0
    B.setflags(write=False)
    return BlockStack(inside, B, size)


def sector_spectrum(params, L, M):
    """Eigenvalues of the (L, M) sector, in block order, with their block
    labels, the block stack and the largest |entry| of the sector matrix.
    Only the sector matrix's representative rows are built, never the
    matrix itself; by translation invariance every entry of it is an entry
    of those rows.  When H never lowers, or never raises, the grade, each
    block's eigenvalues are those of its (block, grade) diagonal
    sub-blocks, grade by grade ascending; otherwise each block is one
    sub-block (_sub_blocks).  The sub-blocks of one size are
    gathered from the stack into one np.linalg.eigvals call (per chunk),
    which gives each sub-block's eigenvalues bit for bit as a call on it
    alone."""
    rows = _representative_rows(params, L, M)
    blocks = _block_stack(rows, L, M)
    size = blocks.size
    evs = np.empty(int(size.sum()), complex)
    for s, m, pos, out in _sub_blocks(L, M, _grade_one_way(params)):
        for part in _chunks(len(m), s * s):
            ms, p = m[part], pos[part]
            try:
                vals = np.linalg.eigvals(
                    blocks.B[ms[:, None, None], p[:, :, None], p[:, None, :]])
            except np.linalg.LinAlgError as exc:
                raise RuntimeError(f"eigensolver failed for L={L}, M={M}, "
                                   f"blocks {ms.tolist()}: {exc}")
            evs[out[part]] = vals
    return SectorSpectrum(M=M, eigenvalues=evs, dimension=rows.shape[1],
                          momenta=np.repeat(np.arange(L), size), L=L,
                          blocks=blocks,
                          scale=float(np.max(np.abs(rows), initial=0.0)))


def compare(cba_solutions, ed, tol=1e-8, scale=1.0):
    """Match accepted Bethe energies against a sector spectrum, each only
    against the eigenvalues of its own translation block; a root set with
    no block (prod z not an L-th root of unity) is unmatched.

    The rule is greedy in root-set order: each energy takes the untaken
    eigenvalue of its block nearest to it, the first of equals, if it lies
    within tol * scale (np.hypot distances, the scalar complex abs).  A NaN
    distance counts as infinite, and no infinite distance is within tol, so
    a NaN energy takes nothing and is unmatched.  One distance pass finds
    every energy's nearest eigenvalue, and the first row to name one takes
    it.  Only rows whose nearest an earlier row holds apply the rule
    itself, in order; one that takes what a later row named sends that row
    to the rule too."""
    n, L = len(cba_solutions), ed.L
    tol = tol * scale
    Z = np.array([sol.z for sol in cba_solutions], complex)
    E = np.array([sol.energy for sol in cba_solutions], complex)
    mom = _momenta(Z.reshape(n, ed.M), L)
    # pool[m]: positions of block m's eigenvalues, then -1 (the 0 appended)
    pool, size = _slots(ed.momenta, L)
    values = np.append(ed.eigenvalues, 0j)

    def distances(rows):
        """Distances of rows' energies to their pools (+inf at padding and
        for NaN)."""
        at = pool[mom[rows]]
        d = E[rows, None] - values[at]
        dist = np.hypot(d.real, d.imag)
        dist[(at < 0) | np.isnan(dist)] = np.inf
        return dist, at

    def within(dist):
        """Whether each distance is finite and within tol."""
        return (dist <= tol) & (dist < np.inf)

    unmatched = mom < 0
    owner = np.full(len(ed.eigenvalues), n)    # row that took each, n: none
    rows = np.flatnonzero(mom >= 0)
    named = [(rows[:0], rows[:0])]              # (row, its nearest) claims
    for part in _chunks(len(rows), pool.shape[1]):
        i = rows[part]
        dist, at = distances(i)
        j = np.argmin(dist, axis=1)
        pos = at[np.arange(len(i)), j]
        claim = within(dist[np.arange(len(i)), j])
        unmatched[i] = ~claim
        named.append((i[claim], pos[claim]))
    by, pos = (np.concatenate(a) for a in zip(*named))
    np.minimum.at(owner, pos, by)
    late = by[owner[pos] != by].tolist()     # ascending
    while late:
        f = late.pop(0)
        (dist,), (at,) = distances([f])
        dist[owner[at] < f] = np.inf           # taken before row f
        k = int(np.argmin(dist))
        if not within(dist[k]):
            unmatched[f] = True
        elif owner[at[k]] > f:
            if owner[at[k]] < n:
                bisect.insort(late, int(owner[at[k]]))
            owner[at[k]] = f
    covered = np.bincount(ed.momenta[owner < n], minlength=L)
    lost = [cba_solutions[i].energy for i in np.flatnonzero(unmatched)]
    matched = n - len(lost)
    return SectorReport(
        M=ed.M, dimension=ed.dimension, matched=matched, unmatched=lost,
        coverage=matched / ed.dimension if ed.dimension else 1.0,
        uncovered=(size - covered).tolist())


def verify_sector(params, L, M, bae_tol, tol_eig):
    """Diagonalize, solve, check and match the (L, M) sector: the root sets
    of solve_bae within bae_tol, each checked in its translation block
    (check_roots), and the verified ones matched against the block spectra
    (compare), with tol_eig relative to the largest sector matrix entry.
    The Bethe energies are measured from the pseudo-vacuum, so both sides
    are taken of with_zero_v00(params): H and H + c * Identity verify
    alike.  A closed-form sector's (M < 2 or S = -1) root sets are its
    cached table's own, whose layout check_roots reads itself."""
    params = with_zero_v00(params)
    spec = sector_spectrum(params, L, M)
    sols = solve_bae(params, L, M, bae_tol)
    scale = spec.scale or 1.0
    checks = check_roots(params, sols, spec.blocks, L, tol_eig, scale)
    verified = [sol for sol, chk in zip(sols, checks)
                if chk.outcome == "verified"]
    rep = compare(verified, spec, tol=tol_eig, scale=scale)
    rep.solutions, rep.checks = sols, checks
    return rep
