"""Bethe-equation solving and explicit eigenvector assembly.

Momenta live in the z = e^{ik} variable throughout.  The quantization
conditions on a periodic chain of length L with M excitations are

    z_j^L = prod_{n != j} S(z_n, z_j),    j = 1..M.

M < 2 is exact: the pseudo-vacuum (M = 0) is the one empty root set, and
M = 1 the L-th roots of unity.  For M >= 2 the BAE are solved as the
denominator-cleared polynomial system

    F_j = z_j^L prod_{n != j} Lambda(z_j, z_n)
          - (-1)^(M-1) prod_{n != j} Lambda(z_n, z_j).

Families with S identically -1 need no solver: their solutions are exactly
the multisets of the trivial-scattering roots z^L = (-1)^(M-1).  S = -1 is
tested at six fixed pairs of momenta (_TRIVIAL_S_PROBES).

M = 2 needs no seeds either.  The BAE force (z1 z2)^L = 1, so each solution
lies on a line z1 z2 = e^{2 pi i n / L}, one per translation block, and on
that line F_1 is one polynomial in z1 of degree L + 2 whose coefficients
come from Lambda by one FFT (_m2_pairs).  Its companion roots give every
solution; one Newton step, kept where it lowers the BAE residual, polishes
each (_polish).

M = 3 is solved one translation block at a time as well.  S(a, b) S(b, a)
= 1 gives (z1 z2 z3)^L = 1, so a solution lies on a line z1 z2 z3 = w =
e^{2 pi i n / L}; damped Newton runs on the two unknowns (z1, z2) with z3 =
w / (z1 z2), on F_1 = F_2 = 0 (F_3 then vanishes where no Lambda does).
The starts are fixed (_block_starts): every multiset of three distinct
L-th roots of unity, the S = -1 solutions, in the block of its product, and
the same Halton grid of (z1, z2) points in every block; no start is
random.  All starts run as one batch, under one np.errstate.  Each
iteration forms F_1, F_2 and the four entries of the 2 x 2 block Jacobian,
the chain-rule reduction of the 3 x 3 one, straight from the row's Lambda
table and one dLambda table, and solves it in closed form (_block_steps);
no 3 x 3 Jacobian and no F_3 are built.  The Lambda table comes from the
line search that accepted the row's point, and the residual is that of all
three F_j, its row maxima taken as column folds (_row_max).  The line
search tries the full step on every row, then the shorter steps DAMPING^1
.. DAMPING^5 at once on the rows the full step made worse, then DAMPING^6
down to MIN_STEP = 2^-13 on the rows still worse; each row takes the
first step that lowers its residual and is dropped as stuck if none does.
Most starts end stuck, often where F_3, which the block step does not
solve for, is the largest residual, and a stuck row tries every factor,
so the floor bounds most of the line search's work.  The factors below
it, down to 2^-24, end no preset's rows differently at L = 3..12, and
at L = 13..30 they add at most duplicates of kept root sets; in the
17V1b family they move some rows, at zeros of the cleared system that
are no BAE solutions (tests: TestLineSearchFloor).  A floor of 2^-12
would lose a verified gB root set at L = 22.  A row stops
when its relative residual reaches NEWTON_TOL (converged), when it is
stuck, when its Jacobian is singular, at MAX_ITER iterations, or when it has
stalled: its residual is not STALL_FACTOR below its value STALL_WINDOW
iterations earlier (converged rows are taken out first).  Near a root of
multiplicity k a Newton step cuts the residual to at most ((k-1)/k)^k <=
0.30 of itself, so no row that has reached a root's basin stalls; the rows
that do wander until the cap, and an iteration costs about the same for a
few rows as for the whole batch.  A converged row is kept only if one more
Newton step at its point is at most DEDUP_TOL max(1, max |z|): near a
coincident point the system is degenerate (F_1 = F_2 on z1 = z2), Newton
converges there only linearly and reaches NEWTON_TOL about 1e-3 from the
point, and such sets pass the BAE check but fail as eigenvectors.  Rows
never interact (nothing is shared or reduced across them), and no product
rounds by batch size (see constraints on numpy's temporaries), so each row
follows the path it would follow alone, whatever the batch around it.
Completeness of Bethe roots: Hao, Nepomechie and Sommese,
arXiv:1308.4645.

S, N, the plane-wave amplitudes A and the singular rule all come from the
pair table of constraints (_PairTable): the BAE residuals of a whole batch
of root sets, the trivial-S probe and the amplitudes of a batch of root
sets are reads of one table each.  The BAE residuals and the energies are
computed in Python's complex arithmetic, bit for bit, on float64 arrays
(constraints.PyComplexArray), so that no fused product moves a root set
across bae_tol and every row has the bits it has alone.

Eigenvectors are plane-wave superpositions over ordered excitation positions
x_1 <= ... <= x_M (a doubly occupied site appears twice); amplitudes carry
one scattering factor per permutation inversion and one decay factor N per
doubled position.  Each (L, M) sector has one cached, read-only position
table: the sorted positions of every basis state, in sector_basis order,
and the mask of doubled sites.  Assembly evaluates each of the M! plane
waves over that table, or over chosen rows of it, for a whole batch of
root sets at once; assemble_eigenvector is its one-row read over the
whole sector, a SectorEigenvector.  Vectors are returned unnormalized with
their norm.  The left shift s -> s[1:] + s[:1] multiplies a Bethe vector
by prod z; momentum(z, L) names the translation block this puts it in
(see oracle), and _momenta names it for a whole batch in one array pass.

check_roots verifies the root sets of a sector in the momentum basis, from
their amplitudes at the orbit representatives only: one pair table, one
assembly at every representative and one BAE pass for the whole sector,
then per translation block only that block's columns, its residual
product and its Gram matrix; no vector or matrix of the whole sector is
formed (see check_roots for why the residual, null test and equal-state
test are exact for the block vector, and how that vector relates to the
Bethe vector).  It returns one RootCheck per root set;
oracle.verify_sector collects them into the sector's report.

solve_bae's bookkeeping is array passes too: the canonical (Re, Im) order
of every root set by one np.lexsort, the coincident flags by one pairwise
np.hypot mask and the energies in Python complex arithmetic on
PyComplexArray (_canonical_rows, _coincident_rows, _energies); _canonical,
_coincident and energy are their one-row reads.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .constraints import (PyComplexArray, _PairTable, lambda_fn, lambda_grad,
                          ordered_pairs, pair_row, permutation_table)
from .hamiltonian import (_check_entries, _orbit_table, _sector_occupations,
                          invariants)

BAE_TOL = 1e-10          # largest BAE residual of an accepted root set
DAMPING = 0.5            # line-search step factor
MIN_STEP = 2.0 ** -13    # smallest line-search step factor tried
GRID_STARTS = 600        # M = 3 Halton starts per solve, ceil(600 / L) a block
NEWTON_TOL = 1e-12       # Newton stops below this relative residual
MAX_ITER = 200           # Newton iteration cap, M = 3
STALL_WINDOW = 20        # Newton drops a row whose relative residual is not
STALL_FACTOR = 10.0      # STALL_FACTOR below its value STALL_WINDOW steps ago
DEDUP_TOL = 1e-8         # root sets this close are one solution
DEGENERATE_TOL = 1e-6    # roots this close are coincident
MOMENTUM_TOL = 1e-6      # prod z this close to e^{2 pi i m / L} is in block m
ASSEMBLE_CHUNK = 1 << 16  # root sets x positions per _assemble chunk

# the pairs (z1, z2) at which S = -1 is tested: six points of the annulus
# 0.5 <= |z| <= 2, the first draws of constraints.random_momenta at seed 0
_TRIVIAL_S_PROBES = np.array([
    (1.4074767580971808+0.37057001552752244j,
     0.8998064031495278+0.09377881996916455j),
    (-1.3480859043241713-1.0680537616584869j,
     -0.2401291693776874-1.8536443891956824j),
    (0.5288902015281042-1.204429714617546j,
     1.902326995877117+0.03273562780124551j),
    (-0.22769420549010114-1.771533650277791j,
     0.2478443252211732+0.4914158451537818j),
    (-0.5515230696313601+1.7079273562317374j,
     -1.1603915294472242+0.6126490823354334j),
    (-0.2594744305126721-0.47640007884061064j,
     -0.41321348785272605-0.5481183969228107j),
])
_TRIVIAL_S_PROBES.setflags(write=False)


@dataclass(frozen=True)
class BetheSolution:
    z: tuple
    energy: complex
    bae_residual: float
    degenerate_flag: bool = False


@functools.lru_cache(maxsize=32)
def _sector_positions(L, M):
    """Read-only position table of the (L, M) sector, rows in sector_basis
    order: the (dim, M) sorted 1-based excitation positions and the
    (dim, M-1) mask of doubled sites (x_{j+1} == x_j)."""
    occ = _sector_occupations(L, M).astype(np.intp)
    sites = np.tile(np.arange(1, L + 1), len(occ))
    X = np.repeat(sites, occ.ravel()).reshape(len(occ), M)
    doubled = X[:, 1:] == X[:, :-1]
    X.setflags(write=False)
    doubled.setflags(write=False)
    return X, doubled


def _is_null(norm, amp_scale):
    """Whether a Bethe vector's terms cancelled: its norm is at most 1e-10 of
    its largest term.  Vectorizes over arrays."""
    return norm <= 1e-10 * np.maximum(amp_scale, 1e-300)


@dataclass
class SectorEigenvector:
    M: int
    vector: np.ndarray              # amplitudes in sector_basis order
    norm: float
    amp_scale: float                # largest pre-cancellation term magnitude
    degenerate_flag: bool = False

    @property
    def is_null(self):
        return bool(_is_null(self.norm, self.amp_scale))

    def to_vector(self, L):
        if len(self.vector) != len(_sector_positions(L, self.M)[0]):
            raise ValueError(f"vector was not assembled for L={L}")
        return self.vector


def _row(z):
    """The momenta z as a (1, M) complex batch."""
    return np.array([[complex(w) for w in z]], complex)


def _energies(params, Z):
    """E = M V + sum_n (q z_n + p / z_n) of every row of an (n, M) batch of
    nonzero momenta, summed from 0 in row order as Python's sum() adds, in
    Python complex arithmetic (PyComplexArray), so that every row has the
    bits of its one-row sum whatever the batch: a complex array."""
    n, M = Z.shape
    Zp = PyComplexArray.of(Z)
    total = PyComplexArray(np.zeros(n), np.zeros(n))
    with np.errstate(all="ignore"):
        for j in range(M):
            total = total + (params.q * Zp[:, j] + params.p / Zp[:, j])
        return (M * invariants(params).V + total).to_complex()


def energy(params, z):
    """E = M V + sum_n (q z_n + p / z_n): the one-row read of _energies."""
    Z = _row(z)
    if np.any(Z == 0):
        raise ValueError("invalid momentum z = 0")
    return _energies(params, Z)[0]


def _momenta(Z, L):
    """Translation block m of every root set of an (n, M) batch Z: the m in
    0..L-1 with e^{2 pi i m / L} = prod z, the eigenvalue of the left shift
    s -> s[1:] + s[:1] on its Bethe vector, or -1 unless prod z is finite
    and lies within MOMENTUM_TOL of that root of unity."""
    with np.errstate(invalid="ignore", over="ignore"):
        P = np.prod(np.asarray(Z, complex), axis=1)
        finite = np.isfinite(P)
        phase = np.angle(np.where(finite, P, 1.0))
        m = np.rint(L * phase / (2 * np.pi)).astype(np.intp) % L
        near = np.abs(P - np.exp(2j * np.pi * m / L)) <= MOMENTUM_TOL
    return np.where(finite & near, m, -1)


def momentum(z, L):
    """Translation block of the root set z (_momenta), None if it has none."""
    m = int(_momenta(np.array([z], complex), L)[0])
    return None if m < 0 else m


def _bae_residuals(params, Z, L):
    """bae_residual of every row of an (n, M) batch, from one pair table.

    The table computes in Python complex arithmetic (PyComplexArray), not
    complex128: numpy may compute complex128 array products with fused
    multiply-adds, and at ill-conditioned roots that rounding difference is
    amplified (seen: 5e-11 on residuals near 1e-10), enough to move a root
    set across bae_tol.  Python complex products round the same way on
    every machine and in every batch."""
    with np.errstate(all="ignore"):
        table = _PairTable(params, PyComplexArray.of(Z))
        lhs, rhs = _bae_sides(table, L)
        res = abs(lhs - rhs).max(axis=1, initial=0.0)
        res[table.singular() | ~np.isfinite(res)] = np.inf
    return res


def _bae_sides(table, L):
    """Both sides of the BAE at every row of a pair table, in its
    arithmetic: the (n, M) arrays z_j^L and prod_{n != j} S(z_n, z_j)."""
    n, M = table.Z.shape
    lhs = table.Z ** L
    rhs = lhs.copy()                    # overwritten column by column
    for j in range(M):
        prod = np.ones(n, complex)
        for m in range(M):
            if m != j:
                prod = prod * table.S(m, j)
        rhs[:, j] = prod
    return lhs, rhs


def bae_residual(params, z, L):
    """max_j |z_j^L - prod_{n != j} S(z_n, z_j)|; +inf at an S singularity."""
    return float(_bae_residuals(params, np.array([z], complex), L)[0])


def _is_trivial_s(params):
    """Whether S(z1, z2) = -1 at the _TRIVIAL_S_PROBES pairs (and is nowhere
    singular there), read from one pair table."""
    table = _PairTable(params, _TRIVIAL_S_PROBES)
    off = np.abs(table.S(0, 1) + 1) > 1e-10
    return not np.any(table.singular() | off)


def _coincident_rows(Z):
    """Per-row mask of an (n, M) batch: two of the row's momenta lie within
    DEGENERATE_TOL of each other (np.hypot, the scalar complex abs)."""
    I, J = np.triu_indices(Z.shape[1], 1)
    d = Z[:, I] - Z[:, J]
    return np.any(np.hypot(d.real, d.imag) <= DEGENERATE_TOL, axis=1)


def _coincident(z):
    """Whether two of the momenta z lie within DEGENERATE_TOL of each other:
    the one-row read of _coincident_rows."""
    return bool(_coincident_rows(_row(z))[0])


@functools.lru_cache(maxsize=8)
def _bae_pairs(M):
    """Positions in the ordered-pair table (constraints.ordered_pairs) used by
    BAE row j, with m_t the t-th index != j in ascending order:
    others[j, t] = m_t, P[j, t] = (j, m_t), Q[j, t] = (m_t, j), and
    PX[j, t] / QX[j, t] the other M-2 pairs of P[j] / Q[j], in order."""
    _, _, col = ordered_pairs(M)
    js = np.arange(M)[:, None]
    others = np.array([[m for m in range(M) if m != j] for j in range(M)],
                      dtype=np.intp)
    keep = np.array([[s for s in range(M - 1) if s != t]
                     for t in range(M - 1)], dtype=np.intp)
    P, Q = col[js, others], col[others, js]
    out = others, P, Q, P[:, keep], Q[:, keep]
    for a in out:
        a.setflags(write=False)
    return out


def _pair_product(lam, cols):
    """prod_t lam[:, cols[..., t]], multiplied in order from the first
    factor; ones where there is none (M = 2's PX and QX)."""
    if not cols.shape[-1]:
        return np.ones((len(lam),) + cols.shape[:-1], complex)
    out = lam[:, cols[..., 0]]
    for t in range(1, cols.shape[-1]):
        factor = lam[:, cols[..., t]]
        out = out * factor
    return out


def _row_max(A):
    """max over the columns of a 2-d array, row by row, as np.maximum folds:
    exact and NaN-propagating like np.max(A, axis=1), without a reduction's
    overhead on a few columns."""
    out = A[:, 0]
    for j in range(1, A.shape[1]):
        out = np.maximum(out, A[:, j])
    return out


def _bae_values(params, Z, L, sign):
    """F_j for an (n, M) batch of momentum tuples, and the Lambda table over
    the ordered pairs it is built from."""
    I, J, _ = ordered_pairs(Z.shape[1])
    _, P, Q, _, _ = _bae_pairs(Z.shape[1])
    lam = lambda_fn(params, Z[:, I], Z[:, J])
    rhs = _pair_product(lam, Q)
    return Z**L * _pair_product(lam, P) - sign * rhs, lam


def _bae_system(params, Z, L, sign):
    """F_j and its Jacobian for an (n, M) batch of momentum tuples, from one
    Lambda and one dLambda table over the ordered pairs."""
    n, M = Z.shape
    I, J, _ = ordered_pairs(M)
    others, P, Q, PX, QX = _bae_pairs(M)
    F, lam = _bae_values(params, Z, L, sign)
    d1, d2 = lambda_grad(params, Z[:, I], Z[:, J])
    exP, exQ = _pair_product(lam, PX), _pair_product(lam, QX)
    dP = dQ = 0
    for t in range(M - 1):
        dP = dP + d1[:, P[:, t]] * exP[:, :, t]
        dQ = dQ + d2[:, Q[:, t]] * exQ[:, :, t]
    ZL, ZL1 = Z**L, Z**(L - 1)
    lp = _pair_product(lam, P)
    Jac = np.zeros((n, M, M), complex)
    diag = np.arange(M)
    Jac[:, diag, diag] = L * ZL1 * lp + ZL * dP - sign * dQ
    dp, dq = d2[:, P] * exP, d1[:, Q] * exQ
    Jac[:, diag[:, None], others] = ZL[:, :, None] * dp - sign * dq
    return F, Jac


def _residual(params, Z, L, sign):
    """Per-row max_j |F_j| relative to max(1, max_j |z_j|^L), and the
    Lambda table F was built from."""
    F, lam = _bae_values(params, Z, L, sign)
    scale = np.maximum(1.0, _row_max(np.abs(Z))**L)
    return _row_max(np.abs(F)) / scale, lam


def _solve_steps(Jac, F):
    """Newton steps -J^{-1} F of a batch, and the mask of rows solved (a
    row whose Jacobian the solver refuses has none)."""
    ok = np.ones(len(F), bool)
    try:
        return np.linalg.solve(Jac, -F[:, :, None])[:, :, 0], ok
    except np.linalg.LinAlgError:
        step = np.zeros_like(F)
        for i in range(len(F)):
            try:
                step[i] = np.linalg.solve(Jac[i], -F[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return step, ok


def _on_line(Z2, w):
    """The (n, 3) points (z1, z2, w / (z1 z2)) of an (n, 2) batch."""
    Z = np.empty((len(Z2), 3), complex)
    Z[:, :2] = Z2
    np.divide(w, Z2[:, 0] * Z2[:, 1], out=Z[:, 2])
    return Z


def _block_steps(params, Z, L, lam):
    """Newton steps on (z1, z2) of the block system F_1 = F_2 = 0, z3 = w /
    (z1 z2), for an (n, 3) batch on its block lines with its Lambda table
    lam: non-finite where the 2 x 2 Jacobian is singular.

    By the chain rule the block Jacobian is A[i, k] = dF_i/dz_k - dF_i/dz_3
    z3/z_k, i, k = 1, 2.  F_1, F_2 and the six derivatives A is made of are
    taken straight from lam and one lambda_grad table, with the factors of
    _bae_system multiplied in its order, so every entry equals that of the
    reduction of its 3 x 3 Jacobian to the last bit (up to the sign of a
    zero); F_3 and dF_3 are not formed.  Column i of the (n, 2) arrays
    below belongs to F_i, whose pairs are P (i, m_t) and Q (m_t, i), m_t
    its t-th other index: m_1 is the other of z1, z2, and m_2 is z3."""
    I, J, _ = ordered_pairs(3)
    _, P, Q, _, _ = _bae_pairs(3)
    P, Q = P[:2], Q[:2]
    d1, d2 = lambda_grad(params, Z[:, I], Z[:, J])
    lp0, lp1 = lam[:, P[:, 0]], lam[:, P[:, 1]]
    lq0, lq1 = lam[:, Q[:, 0]], lam[:, Q[:, 1]]
    z = Z[:, :2]
    zL, zL1 = z**L, z**(L - 1)
    lp = lp0 * lp1
    F = zL * lp - lq0 * lq1
    # dF_i/dz_i, dF_i/dz_{m_1} and dF_i/dz_3
    dP = d1[:, P[:, 0]] * lp1 + d1[:, P[:, 1]] * lp0
    dQ = d2[:, Q[:, 0]] * lq1 + d2[:, Q[:, 1]] * lq0
    dp0, dp1 = d2[:, P[:, 0]] * lp1, d2[:, P[:, 1]] * lp0
    diag = L * zL1 * lp + zL * dP - dQ
    cross = zL * dp0 - d1[:, Q[:, 0]] * lq1
    last = zL * dp1 - d1[:, Q[:, 1]] * lq0
    r = Z[:, 2:] / z                            # z3/z1, z3/z2
    a = diag - last * r                         # A[0, 0], A[1, 1]
    b = cross - last * r[:, ::-1]               # A[0, 1], A[1, 0]
    det = a[:, 0] * a[:, 1] - b[:, 0] * b[:, 1]
    return (a[:, ::-1] * F - b * F[:, ::-1]) / -det[:, None]


def _newton_batch(params, Z0, w, L):
    """Damped Newton on the cleared M = 3 BAE system, over a batch of starts
    Z0 on their block lines z1 z2 z3 = w.

    Returns the converged rows that one more Newton step moves by at most
    DEDUP_TOL max(1, max |z|), in start order.
    """
    Z = np.array(Z0, complex)
    n = len(Z)
    # step factors of the line search: 1, d, d^2, ... down to MIN_STEP;
    # the shorter ones are tried in two stages, d^1..d^5 first (most rows
    # take one of them), the rest on the rows still worse
    damps = [1.0]
    while damps[-1] * DAMPING >= MIN_STEP:
        damps.append(damps[-1] * DAMPING)
    stages = [np.array(damps[1:6]), np.array(damps[6:])]

    # the Lambda table of each row's current point, carried from the line
    # search that accepted it into the next F and Jacobian
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        res, lam = _residual(params, Z, L, 1.0)
        active = np.flatnonzero(np.isfinite(res))
        converged = np.zeros(n, bool)
        # past[it % STALL_WINDOW] holds every row's residual at iteration it,
        # until iteration it + STALL_WINDOW reads and replaces it
        past = np.empty((STALL_WINDOW, n))

        for it in range(MAX_ITER):
            hit = res[active] <= NEWTON_TOL
            converged[active[hit]] = True
            active = active[~hit]
            if it >= STALL_WINDOW:
                then = past[it % STALL_WINDOW, active]
                active = active[res[active] <= then / STALL_FACTOR]
            past[it % STALL_WINDOW] = res
            if not active.size:
                break
            step = _block_steps(params, Z[active], L, lam[active])
            ok = np.isfinite(step[:, 0]) & np.isfinite(step[:, 1])
            active, step = active[ok], step[ok]
            if not active.size:
                break
            # line search: the full step for every row, then the shorter
            # steps stage by stage for the rows still worse; each row takes
            # its first step factor that lowers its residual, or is dropped
            # as stuck
            Za, wa, r0 = Z[active, :2], w[active], res[active]
            trial = _on_line(Za + damps[0] * step, wa)
            rt, lt = _residual(params, trial, L, 1.0)
            worse = np.flatnonzero(~(rt < r0))
            for factors in stages:
                if not worse.size:
                    break
                tw = Za[worse] + factors[:, None, None] * step[worse]
                tw = _on_line(tw.reshape(-1, 2),
                              np.tile(wa[worse], len(factors)))
                rw, lw = _residual(params, tw, L, 1.0)
                better = rw.reshape(len(factors), -1) < r0[worse]
                first = np.argmax(better, axis=0)
                found = better[first, np.arange(len(worse))]
                pick = first[found] * len(worse) + np.flatnonzero(found)
                rows = worse[found]
                trial[rows] = tw[pick]
                rt[rows], lt[rows] = rw[pick], lw[pick]
                worse = worse[~found]
            kept = rt < r0
            active = active[kept]
            Z[active] = trial[kept]
            res[active], lam[active] = rt[kept], lt[kept]
        converged[active[res[active] <= NEWTON_TOL]] = True
        done = np.flatnonzero(converged)
        step = _block_steps(params, Z[done], L, lam[done])
        scale = np.maximum(1.0, _row_max(np.abs(Z[done])))
        return Z[done[_row_max(np.abs(step)) <= DEDUP_TOL * scale]]


def _halton(n, base):
    """Points 1..n of the van der Corput sequence in base."""
    i, out, f = np.arange(1, n + 1), np.zeros(n), 1.0
    while i.any():
        f /= base
        out += f * (i % base)
        i //= base
    return out


@functools.lru_cache(maxsize=16)
def _block_starts(L):
    """The M = 3 Newton starts and their block roots: read-only (n, 3) points
    Z and (n,) roots w with z1 z2 z3 = w, an L-th root of unity.  First every
    multiset of three distinct L-th roots of unity (S = -1 solutions), in the
    block of its product; then, in every block, the same Halton grid of
    ceil(GRID_STARTS / L) points (z1, z2) with z3 = w / (z1 z2): bases 2 and
    3 give z1's radius, log-uniform in [1/2, 2], and phase, bases 5 and 7
    give z2's.  Multisets with coincident roots are left out: they sit on
    the degenerate set z_i = z_j."""
    roots = np.exp(2j * np.pi * np.arange(L) / L)
    trip = np.array(list(itertools.combinations(range(L), 3)),
                    dtype=np.intp).reshape(-1, 3)
    k = -(-GRID_STARTS // L)
    r1, a1, r2, a2 = (_halton(k, b) for b in (2, 3, 5, 7))
    grid = np.column_stack([2.0 ** (2 * r1 - 1) * np.exp(2j * np.pi * a1),
                            2.0 ** (2 * r2 - 1) * np.exp(2j * np.pi * a2)])
    wg = np.repeat(roots, k)
    Z = np.concatenate([roots[trip], _on_line(np.tile(grid, (L, 1)), wg)])
    w = np.concatenate([roots[trip.sum(axis=1) % L], wg])
    Z.setflags(write=False)
    w.setflags(write=False)
    return Z, w


def _m2_pairs(params, L):
    """Every M = 2 root pair candidate, from one polynomial per momentum
    block, in block order.

    The BAE give (z1 z2)^L = 1, so a solution lies on a line z1 z2 = w =
    e^{2 pi i n / L}.  There z1^2 Lambda(z1, w/z1) = P(z1) and
    z1 Lambda(w/z1, z1) = Q(z1) are cubics, and F_1 = z1^L Lambda(z1, z2)
    + Lambda(z2, z1) = 0 is z1^(L-1) P(z1) + Q(z1) = 0, of degree L + 2.
    P and Q come from lambda_fn at the 8th roots of unity by one FFT, exact
    for these degrees.  Each root z gives the pair (z, w/z), so every
    solution appears in both orders."""
    x = np.exp(2j * np.pi * np.arange(8) / 8)
    w = np.exp(2j * np.pi * np.arange(L) / L)
    P = np.fft.fft(x**2 * lambda_fn(params, x, w[:, None] / x), axis=1) / 8
    Q = np.fft.fft(x * lambda_fn(params, w[:, None] / x, x), axis=1) / 8
    pairs = [np.empty((0, 2), complex)]
    for n in range(L):
        c = np.zeros(L + 3, complex)         # c[k]: coefficient of z^k
        c[L - 1:] += P[n, :4]
        c[:4] += Q[n, :4]
        # FFT rounding leaves a vanishing leading coefficient as noise
        top = np.flatnonzero(np.abs(c) > 1e-14 * np.abs(c).max())
        if top.size:
            z = np.roots(c[top[-1]::-1])
            with np.errstate(all="ignore"):
                pairs.append(np.stack([z, w[n] / z], axis=1))
    return np.concatenate(pairs)


def _polish(params, Z, res, L):
    """One Newton step on the cleared BAE system for every root set of a
    batch with BAE residuals res, kept where it lowers the BAE residual:
    the points and their residuals.  Straight from the polynomial the
    relative residual is at rounding level, but the BAE residual scales
    with |z|^L.  Further steps can lower it a little more where it is
    near bae_tol, but there they only move the point among floating-point
    neighbours of the root whose BAE residuals straddle bae_tol: which one
    was kept, and so whether the root set was accepted, differed between
    rescaled copies of one Hamiltonian."""
    with np.errstate(all="ignore"):
        F, Jac = _bae_system(params, Z, L, (-1.0) ** (Z.shape[1] - 1))
        step, _ = _solve_steps(Jac, F)
        trial = Z + step
        rt = _bae_residuals(params, trial, L)
    better = rt < res
    return np.where(better[:, None], trial, Z), np.where(better, rt, res)


def _canonical_rows(Z):
    """Every row of an (n, M) batch sorted by (Re, Im), ties in row order:
    the stable sort by that key, one np.lexsort over the rows."""
    order = np.lexsort((Z.imag, Z.real), axis=1)
    return np.take_along_axis(Z, order, axis=1)


def _canonical(z):
    """The root set z in canonical order, a tuple: the one-row read of
    _canonical_rows."""
    return tuple(_canonical_rows(_row(z))[0].tolist())


def _same(za, zb):
    """Whether the root sets za and zb are one multiset to DEDUP_TOL: some
    ordering of zb lies within DEDUP_TOL of za root by root.  Sorting alone
    does not line them up: two roots whose real parts differ only by
    rounding (a conjugate-like pair) sort in either order."""
    return any(all(abs(a - b) <= DEDUP_TOL for a, b in zip(za, perm))
               for perm in itertools.permutations(zb))


def _distinct(sets):
    """Indices of the canonical root sets that are not _same as an earlier
    kept one, in order.  The smallest real parts of two _same sets (their
    canonical first roots') lie within DEDUP_TOL, so the kept sets are held
    sorted by that real part and each new set is compared only with the
    window around its own (twice as wide, so that rounding in the window's
    bounds cannot drop a match)."""
    keys, kept, out = [], [], []
    for i, zs in enumerate(sets):
        x = zs[0].real
        lo = bisect.bisect_left(keys, x - 2 * DEDUP_TOL)
        hi = bisect.bisect_right(keys, x + 2 * DEDUP_TOL)
        if any(_same(zs, kept[k]) for k in range(lo, hi)):
            continue
        k = bisect.bisect_right(keys, x)
        keys.insert(k, x)
        kept.insert(k, zs)
        out.append(i)
    return out


def _multiset_seeds(L, M):
    """Every multiset of M roots of z^L = (-1)^(M-1), the solutions at
    S = -1."""
    phase = 0.0 if M % 2 else np.pi / L
    roots = [np.exp(1j * (2 * np.pi * n / L + phase)) for n in range(L)]
    return [tuple(c)
            for c in itertools.combinations_with_replacement(roots, M)]


def _solutions(params, Z, res):
    """BetheSolutions of the root sets of an (n, M) batch Z with BAE
    residuals res: z in canonical order, the energy summed in Z's order;
    orders, energies and coincident flags each one array pass."""
    sets = [tuple(z) for z in _canonical_rows(Z).tolist()]
    E, flags = _energies(params, Z), _coincident_rows(Z)
    return [BetheSolution(z, e, r, f) for z, e, r, f
            in zip(sets, E, res.tolist(), flags.tolist())]


def solve_bae(params, L, M, bae_tol=BAE_TOL):
    """All distinct Bethe-equation solutions found for the (L, M) sector
    with a BAE residual of at most bae_tol."""
    if M < 0 or M > 3:
        raise ValueError("M <= 3 supported")

    if M < 2:
        # no scattering: the M-subsets of the L-th roots of unity, exactly
        roots = [np.exp(2j * np.pi * n / L) for n in range(L)]
        sets = list(itertools.combinations(roots, M))
        Z = np.array(sets, complex).reshape(len(sets), M)
        return _solutions(params, Z, np.zeros(len(Z)))

    if _is_trivial_s(params):
        Z = np.array(_multiset_seeds(L, M), complex)
        return _solutions(params, Z, _bae_residuals(params, Z, L))

    if M == 2:
        Z = _m2_pairs(params, L)
    else:
        Z = _newton_batch(params, *_block_starts(L), L)
    Z = Z[~np.any(np.abs(Z) < 1e-8, axis=1)]
    res = _bae_residuals(params, Z, L)
    if M == 2:
        Z, res = _polish(params, Z, res, L)
    ok = res <= bae_tol
    Z = _canonical_rows(Z[ok])
    keep = _distinct([tuple(z) for z in Z.tolist()])
    return _solutions(params, Z[keep], res[ok][keep])


def amplitude(params, z, sigma, doubled=()):
    """Plane-wave coefficient for permutation sigma with decay factors for the
    doubled position indices (A_id = 1; one S factor per inversion, one N per
    doubled index).  ValueError where Lambda is singular at a pair of z."""
    sigma = tuple(sigma)
    table = pair_row(params, z).require()
    out = complex(table.A(sigma)[0])
    for j in doubled:
        out *= complex(table.N(sigma[j], sigma[j + 1])[0])
    return out


def _assemble(table, L, rows=slice(None)):
    """Bethe vectors of every root set of a pair table over the (L, M)
    sector, read at the given rows of its position table: the (n, len(rows))
    amplitudes, in sector_basis order over the whole sector by default,
    and, entry by entry, the largest pre-cancellation term magnitude (a
    caller reads a vector's largest term as the maximum over its entries).
    One array product per permutation, multiplied in the same order for
    every row, over the powers z**x, x = 0..L, of one numpy power (binary
    powering below x = 100, as Python's complex power); the rows of root
    sets with a singular pair hold meaningless values.  No product is taken
    in place: numpy multiplies a one-entry complex array in place unfused,
    so a batch of one root set at one position would round differently from
    the same root set in a larger batch.  The root sets are taken in chunks
    of at most ASSEMBLE_CHUNK entries (root sets x positions, one root set
    at least), each written into the two outputs, so the temporaries stay
    bounded whatever the sector; rows do not depend on their batch, so the
    chunks do not move a bit."""
    n, M = table.Z.shape
    X, doubled = (a[rows] for a in _sector_positions(L, M))
    vecs = np.zeros((n, len(X)), complex)
    scale = np.zeros((n, len(X)))
    step = max(1, ASSEMBLE_CHUNK // max(len(X), 1))
    with np.errstate(all="ignore"):
        for start in range(0, n, step):
            r = slice(start, start + step)
            zpow = table.Z[r, :, None] ** np.arange(L + 1)
            for s, sigma in enumerate(permutation_table(M)[0]):
                term = np.repeat(table.amps[r, s, None], len(X), axis=1)
                for j in range(M - 1):
                    at = doubled[:, j]
                    term[:, at] = (term[:, at]
                                   * table.N(sigma[j], sigma[j + 1])[r, None])
                for k in range(M):
                    factor = zpow[:, sigma[k], X[:, k]]
                    term = term * factor
                vecs[r] += term
                np.maximum(scale[r], np.abs(term), out=scale[r])
    return vecs, scale


def _singular_amplitude(table, row):
    """The message of a root set whose amplitudes are singular."""
    return f"degenerate amplitude; solution flagged ({table.singular_at(row)})"


def assemble_eigenvector(params, z, L):
    """Amplitudes a(x_1..x_M) of the Bethe vector for momenta z, over the
    whole sector basis at once: the one-row read of _assemble."""
    z = [complex(w) for w in z]
    table = pair_row(params, z)
    if table.singular()[0]:
        raise ValueError(_singular_amplitude(table, 0))
    vecs, scale = _assemble(table, L)
    vec = vecs[0]
    vec.setflags(write=False)
    return SectorEigenvector(M=len(z), vector=vec,
                             norm=float(np.linalg.norm(vecs, axis=1)[0]),
                             amp_scale=float(scale[0].max(initial=0.0)),
                             degenerate_flag=_coincident(z))


def _eig_residuals(H, V, E):
    """||H v - E v|| / ||v|| for every row v of V and its energy in E."""
    return (np.linalg.norm(V @ H.T - E[:, None] * V, axis=1)
            / np.linalg.norm(V, axis=1))


def verify_eigenpair(H, psi, E):
    """Relative eigenpair residual ||H psi - E psi|| / ||psi||."""
    vec = np.asarray(psi, dtype=complex)
    if np.linalg.norm(vec) == 0:
        raise ValueError("null Bethe vector")
    return float(_eig_residuals(H, vec[None], np.array([complex(E)]))[0])


@dataclass(frozen=True)
class RootCheck:
    """What check_roots found for one root set: its translation block and
    its outcome, one of

    * "coincident": two roots coincide; rejected before assembly;
    * "singular": an amplitude is singular; message names the pair;
    * "null": the amplitudes cancel to a null vector;
    * "verified" / "unverified": the eigenpair residual is within
      tol_eig * scale and the translation defect within tol_eig, or not;
      the message names the defect where the residual alone passes; also
      "unverified", with
      no residual and a message naming prod z, a root set with no
      translation block;
    * "equivalent": verified, but the same state as an earlier verified
      root set.

    The last three carry the eigenpair residual of the block vector (see
    check_roots)."""
    momentum: int | None
    outcome: str
    eig_residual: float | None = None
    message: str | None = None


def check_roots(params, sols, blocks, L, tol_eig, scale):
    """Check the root sets sols of one (L, M) sector against its translation
    blocks: one RootCheck per root set, in order.

    blocks maps each block m to (idx, B): the orbits of _orbit_table whose
    momentum states |r, m> span it (the columns of F_m) and its matrix
    B = F_m^dagger H F_m (oracle.sector_spectrum).  A root set in block m is
    read only at the orbit representatives r of idx, as c_r = sqrt(p_r)
    psi(r), psi its Bethe vector, and checked as the block vector phi =
    F_m c: F_m has orthonormal columns and H F_m = F_m B (T H = H T), so
    ||phi|| = ||c||, <phi_a, phi_b> = <c_a, c_b> and the eigenpair residual
    of phi is ||B c - E c|| / ||c||.  Where the BAE hold exactly, psi lies
    in block m (psi(T^d r) = e^{-2 pi i m d / L} psi(r)) and phi = psi.
    The BAE are the condition that psi be periodic: where a plane wave
    wraps round the chain, psi's term is off by the relative translation
    defect 1 - prod_{n != j} S(z_n, z_j) / z_j^L of the wrapping root z_j,
    which at a root with |z| < 1 may be up to b / |z|^L for the absolute
    BAE residual b.  A set is verified when phi's residual is within
    tol_eig * scale, scale the sector matrix's largest entry (as compare
    and the equal-state test below read tol_eig), and its largest defect,
    a relative number, within tol_eig.  How far phi's residual lies from
    psi's is measured, not bounded.  On the preset root sets tested, bound
    states included, the two agree within b + 1e-12 with equal outcomes.
    On preset bound states pushed off their solution, psi's residual is
    0.4 to 0.8 of the defect and phi's far smaller: without the defect
    gate phi's residual would verify sets whose psi fails.  The null test
    compares ||c|| with the representatives' largest term.

    Root sets are checked in one pass over the sector: one pair table, one
    assembly at every orbit representative (every full-period orbit lies in
    every block), one BAE-sides pass for the defects and one singular mask
    over all root sets that reach assembly.  Only what belongs to a block
    is taken per block: its columns idx of those arrays, the null test
    against the largest term at its representatives, B c - E c and the
    Gram matrix of its verified sets.  A root set whose prod z is no L-th
    root of unity (momentum None) has no block; it cannot solve the BAE and
    is unverified.  A verified set is an equivalent state when an earlier
    kept set of its block has an energy within tol_eig * scale and spans
    the same ray (1 - |<u0, u>| <= 1e-6 for the unit vectors); distinct root
    sets can describe one state at symmetric points.  Both tests are one
    array mask over the block's pairs, and the kept sets are settled in
    order only over the rows that have an earlier candidate.  Different
    blocks are orthogonal, so no ray is shared across them.  The amplitude
    table is refused above hamiltonian.ENTRY_CAP entries before it is
    allocated."""
    if not sols:
        return []
    Z = np.array([sol.z for sol in sols], complex)
    n, M = Z.shape
    reps, period = _orbit_table(L, M)[2:]
    mom = _momenta(Z, L)
    # the plane-wave form degenerates when two roots coincide: such sets
    # give a null vector, or pass the BAE check and still fail as
    # eigenvectors
    flagged = np.array([sol.degenerate_flag for sol in sols], bool)
    out = [None] * n
    for i in np.flatnonzero(flagged):
        out[i] = RootCheck(None if mom[i] < 0 else int(mom[i]), "coincident")
    for i in np.flatnonzero(~flagged & (mom < 0)):
        out[i] = RootCheck(None, "unverified", message=(
            f"no translation block: prod z = {complex(np.prod(Z[i]))} "
            "is not an L-th root of unity"))
    live = np.flatnonzero(~flagged & (mom >= 0))
    if not live.size:
        return out
    _check_entries(live.size * len(reps), f"L={L}, M={M}")
    table = _PairTable(params, Z[live])
    vecs, amp = _assemble(table, L, reps)
    C = vecs * np.sqrt(period)
    singular = table.singular()
    lhs, rhs = _bae_sides(table, L)
    with np.errstate(all="ignore"):
        defect = np.abs(1 - rhs / lhs).max(axis=1, initial=0.0)
    E = np.array([sols[i].energy for i in live], complex)
    m_live = mom[live]
    order = np.argsort(m_live, kind="stable")
    starts = np.flatnonzero(np.diff(m_live[order])) + 1
    for rows in np.split(order, starts):
        m = int(m_live[rows[0]])
        idx, B = blocks[m]
        Cb = C[rows[:, None], idx]
        norms = np.linalg.norm(Cb, axis=1)
        sing = singular[rows]
        null = ~sing & _is_null(
            norms, amp[rows[:, None], idx].max(axis=1, initial=0.0))
        good = np.flatnonzero(~sing & ~null)
        res = _eig_residuals(B, Cb[good], E[rows[good]])
        d = defect[rows[good]]
        ok = (res <= tol_eig * scale) & (d <= tol_eig)
        kept = good[ok]
        Eg = E[rows[kept]]
        U = Cb[kept] / norms[kept, None]
        overlap = np.abs(U.conj() @ U.T)    # overlap[a, b] = |<u_a, u_b>|
        # near[a, b], b < a: a is the same state as b, if b is kept; the
        # energy distance is np.hypot's, which is the scalar complex abs
        dE = Eg[:, None] - Eg
        near = np.tril((np.hypot(dE.real, dE.imag) <= tol_eig * scale)
                       & (1 - overlap.T <= 1e-6), -1)
        same = np.zeros(len(kept), bool)
        for a in np.flatnonzero(near.any(axis=1)):
            same[a] = np.any(near[a, :a] & ~same[:a])
        code = ok.astype(np.intp)
        code[np.flatnonzero(ok)[same]] = 2
        outcome = np.array(["unverified", "verified", "equivalent"])[code]

        at = live[rows].tolist()
        for k in np.flatnonzero(sing).tolist():
            out[at[k]] = RootCheck(m, "singular", message=_singular_amplitude(
                table, rows[k]))
        for k in np.flatnonzero(null).tolist():
            out[at[k]] = RootCheck(m, "null")
        for k, r, dk, o in zip(good.tolist(), res.tolist(), d.tolist(),
                               outcome.tolist()):
            msg = (f"translation defect {dk:.1e} above tol_eig"
                   if o == "unverified" and r <= tol_eig * scale else None)
            out[at[k]] = RootCheck(m, o, r, msg)
    return out
