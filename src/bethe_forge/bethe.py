"""Bethe-equation solving and explicit eigenvector assembly.

Momenta live in the z = e^{ik} variable throughout.  The quantization
conditions on a periodic chain of length L with M excitations are

    z_j^L = prod_{n != j} S(z_n, z_j),    j = 1..M.

A root set's BAE residual is relative: max_j |z_j^L - prod_{n != j}
S(z_n, z_j)| over max(1, max_j |z_j^L|), the scale at which Newton judges
its own residual, so that bae_tol reads alike at roots of every size.

M < 2 is exact: the pseudo-vacuum (M = 0) is the one empty root set, and
M = 1 the L-th roots of unity.  For M >= 2 the BAE are solved as the
denominator-cleared polynomial system

    F_j = z_j^L prod_{n != j} Lambda(z_j, z_n)
          - (-1)^(M-1) prod_{n != j} Lambda(z_n, z_j)       (_cleared).

Families with S identically -1 need no solver: their solutions are exactly
the multisets of the trivial-scattering roots z^L = (-1)^(M-1), which for
M < 2 are the exact sets above (_multiset_seeds).  S = -1 is tested at
every ordered pair of the solvability test's three-body samples
(constraints._SAMPLES), once per Hamiltonian (memoized on the instance).
Everything about these closed-form sectors that reads no coupling is one
cached, read-only table per (L, M) (_closed_form): the multisets, their
canonical order and coincident flags, the momentum-only parts of their
BAE pair table, and the layout check_roots starts from (_RootLayout:
translation blocks, live rows, their block slots and pair geometry).  Per
call only Lambda and what reads it is computed: pair tables, residuals,
energies, amplitudes and block checks.  The tables of M = 1..3 hold about
0.5 MB at L = 12 and 6.5 MB at L = 30; nothing that grows like n M L (the
powers z**x of assembly) is kept.

M = 2 needs no seeds either.  The BAE force (z1 z2)^L = 1, so each solution
lies on a line z1 z2 = e^{2 pi i n / L}, one per translation block, and on
that line F_1 is one polynomial in z1 of degree L + 2 whose coefficients
come from Lambda by one FFT (_m2_pairs).  Its companion roots give every
solution; one Newton step along the line, kept where it lowers the BAE
residual, polishes each (_polish).  Every Newton step of the solver is thus
one on a block line (_block_steps), scalar for M = 2 and 2 x 2 for M = 3.

M = 3 is solved one translation block at a time as well.  S(a, b) S(b, a)
= 1 gives (z1 z2 z3)^L = 1, so a solution lies on a line z1 z2 z3 = w =
e^{2 pi i n / L}; damped Newton runs on the two unknowns (z1, z2) with z3 =
w / (z1 z2), on F_1 = F_2 = 0 (F_3 then vanishes where no Lambda does).
The starts are fixed (_block_starts): every multiset of three distinct
L-th roots of unity, the S = -1 solutions, in the block of its product, and
the same Halton grid of (z1, z2) points in every block; no start is
random.  All starts run as one batch, under one np.errstate.  Each
iteration takes the 2 x 2 block step (_block_steps) from the row's Lambda
table, which comes from the line search that accepted the row's point, and
the residual is that of all three F_j, its row maxima taken as column folds
(_row_max); no F_3 enters the step.  The line
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
of root sets, the S = -1 test and the amplitudes of a batch of root
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
then one stack of every block's vectors on the orbit axis, from which the
norms, the residual products and the Gram matrices are each one batched
pass; no vector or matrix of the whole sector is formed (see check_roots
for why the residual, null test and equal-state test are exact for the
block vector, and how that vector relates to the Bethe vector).  It
returns one RootCheck per root set; oracle.verify_sector collects them
into the sector's report.  Batched passes whose temporaries grow with the
sector go in chunks of at most ASSEMBLE_CHUNK entries (_chunks).

solve_bae's bookkeeping is array passes too: the canonical (Re, Im) order
of every root set by one np.lexsort, the coincident flags by one pairwise
np.hypot mask and the energies in Python complex arithmetic on
PyComplexArray (_canonical_rows, _coincident_rows, _energies); _coincident
and energy are one-row reads of the last two.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import constraints
from .constraints import (PyComplexArray, _Geometry, _PairTable,
                          _require_lambda, _require_rows, lambda_fn,
                          lambda_grad, ordered_pairs, permutation_table)
from .hamiltonian import (_check_entries, _orbit_table, _sector_occupations,
                          invariants)

BAE_TOL = 1e-10          # largest BAE residual of an accepted root set
M_MAX = 3                # largest number of excitations solve_bae solves
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
ASSEMBLE_CHUNK = 1 << 16  # entries per chunk of a batched pass (_chunks)

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


def _bae_residuals(params, Z, L, zL=None):
    """bae_residual of every row of an (n, M) batch, from one pair table.
    Z may also be the _Geometry of a PyComplexArray batch, with zL its
    powers z^L, as the closed-form table (_closed_form) holds them.

    The residual is relative, at the scale of Newton's _residual: a root
    set whose polynomial roots are right to rounding has a residual at
    rounding level whatever its |z|^L, so that bae_tol judges large and
    small roots alike.

    The table computes in Python complex arithmetic (PyComplexArray), not
    complex128: numpy may compute complex128 array products with fused
    multiply-adds, and at ill-conditioned roots that rounding difference is
    amplified (seen: 5e-11 on residuals near 1e-10), enough to move a root
    set across bae_tol.  Python complex products round the same way on
    every machine and in every batch."""
    with np.errstate(all="ignore"):
        table = _PairTable(params, Z if isinstance(Z, _Geometry)
                           else PyComplexArray.of(Z))
        lhs, rhs = _bae_sides(table, L, zL)
        scale = np.maximum(1.0, abs(lhs).max(axis=1, initial=0.0))
        res = abs(lhs - rhs).max(axis=1, initial=0.0) / scale
        res[table.singular() | ~np.isfinite(res)] = np.inf
    return res


def _bae_sides(table, L, zL=None):
    """Both sides of the BAE at every row of a pair table, in its
    arithmetic: the (n, M) arrays z_j^L (zL, if given) and prod_{n != j}
    S(z_n, z_j)."""
    n, M = table.Z.shape
    lhs = table.Z ** L if zL is None else zL
    rhs = lhs.copy()                    # overwritten column by column
    for j in range(M):
        prod = np.ones(n, complex)
        for m in range(M):
            if m != j:
                prod = prod * table.S(m, j)
        rhs[:, j] = prod
    return lhs, rhs


def bae_residual(params, z, L):
    """max_j |z_j^L - prod_{n != j} S(z_n, z_j)| / max(1, max_j |z_j^L|);
    +inf at an S singularity."""
    return float(_bae_residuals(params, np.array([z], complex), L)[0])


def _is_trivial_s(params):
    """Whether S = -1 at every ordered pair of the solvability test's
    three-body samples (constraints._SAMPLES), and no row is singular,
    read from one pair table and memoized on the instance.  A non-finite
    S (an overflowed Lambda) is not -1.  GateViolation where Lambda is
    exactly 0 at every sample, or S singular at every sample (Lambda
    underflows), as is_cba_solvable raises: S is undefined there."""
    trivial = params.__dict__.get("_trivial_s")
    if trivial is None:
        with np.errstate(all="ignore"):     # overflow is no S = -1
            table = _PairTable(params, constraints._SAMPLES[0])
            _require_lambda(table)
            singular = table.singular()
            _require_rows(np.count_nonzero(~singular), 1)
            off = ~(np.abs(table.S(table.I, table.J) + 1) <= 1e-10)
            trivial = not np.any(singular | np.any(off, axis=1))
        object.__setattr__(params, "_trivial_s", trivial)
    return trivial


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
    BAE row j, with m_t the t-th index != j in ascending order: P[j, t] =
    (j, m_t) and Q[j, t] = (m_t, j)."""
    _, _, col = ordered_pairs(M)
    js = np.arange(M)[:, None]
    others = np.array([[m for m in range(M) if m != j] for j in range(M)],
                      dtype=np.intp)
    P, Q = col[js, others], col[others, js]
    P.setflags(write=False)
    Q.setflags(write=False)
    return P, Q


def _pair_product(lam, cols):
    """prod_t lam[:, cols[..., t]], multiplied in order from the first
    factor."""
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


def _cleared(ZL, lp, lq, M):
    """F_j = z_j^L prod_{n != j} Lambda(z_j, z_n) - (-1)^(M-1) prod_{n != j}
    Lambda(z_n, z_j) for M-root sets, from the powers ZL = z_j^L and the
    two products lp and lq over the pairs of _bae_pairs, all (n, k); the
    sign picks np.subtract or np.add, which costs no pass of its own."""
    return (np.subtract if M % 2 else np.add)(ZL * lp, lq)


def _bae_values(params, Z, L):
    """F_j for an (n, M) batch of momentum tuples, and the Lambda table over
    the ordered pairs it is built from."""
    M = Z.shape[1]
    I, J, _ = ordered_pairs(M)
    P, Q = _bae_pairs(M)
    lam = lambda_fn(params, Z[:, I], Z[:, J])
    F = _cleared(Z**L, _pair_product(lam, P), _pair_product(lam, Q), M)
    return F, lam


def _residual(params, Z, L):
    """Per-row max_j |F_j| relative to max(1, max_j |z_j|^L), and the
    Lambda table F was built from."""
    F, lam = _bae_values(params, Z, L)
    scale = np.maximum(1.0, _row_max(np.abs(Z))**L)
    return _row_max(np.abs(F)) / scale, lam


def _on_line(free, w):
    """The (n, M) points (z_1, .., z_{M-1}, w / (z_1 .. z_{M-1})) of an
    (n, M-1) batch of free roots: the points on the block lines of w."""
    Z = np.empty((len(free), free.shape[1] + 1), complex)
    Z[:, :-1] = free
    np.divide(w, functools.reduce(np.multiply, free.T), out=Z[:, -1])
    return Z


def _product_rule(lam, cols, d, e):
    """The product of the one or two (M = 2, 3) factors lam[:, cols[:, t]]
    that share a root, and its derivatives by that root and by the other
    root of each factor t: d and e are lam's derivative tables in the
    argument of the shared root and of the other."""
    if cols.shape[1] == 1:
        c = cols[:, 0]
        return lam[:, c], d[:, c], [e[:, c]]
    c0, c1 = cols.T
    f0, f1 = lam[:, c0], lam[:, c1]
    return (f0 * f1, d[:, c0] * f1 + d[:, c1] * f0,
            [e[:, c0] * f1, e[:, c1] * f0])


def _block_steps(params, Z, L, lam):
    """Newton steps on the free roots z_1 .. z_{M-1} of the block system F_1
    = .. = F_{M-1} = 0, z_M = w / (z_1 .. z_{M-1}) (_on_line), M = 2 or 3,
    for an (n, M) batch with its Lambda table lam: (n, M-1) steps,
    non-finite where the block Jacobian is singular.

    By the chain rule the block Jacobian is A[i, k] = dF_i/dz_k - dF_i/dz_M
    z_M/z_k, i, k < M.  F (_cleared, on the powers z**L the Jacobian uses)
    and the derivatives A is made of come from lam and one lambda_grad
    table, multiplied in the order of the generic M x M Jacobian, so every
    entry equals that of its reduction to the last bit (up to the sign of a
    zero; M = 3: TestBlockSteps); F_M and dF_M are not formed.  Column i of
    the arrays below belongs to F_i, whose pairs are P (i, m_t) and Q (m_t,
    i), m_t its t-th other index, the last one z_M."""
    M = Z.shape[1]
    minus = np.subtract if M % 2 else np.add    # x - (-1)^(M-1) y
    I, J, _ = ordered_pairs(M)
    P, Q = (a[:-1] for a in _bae_pairs(M))
    d1, d2 = lambda_grad(params, Z[:, I], Z[:, J])
    z = Z[:, :-1]
    zL, zL1 = z**L, z**(L - 1)
    # the two products of F_i and their derivatives by z_i and by z_{m_t}
    lp, dP, eP = _product_rule(lam, P, d1, d2)
    lq, dQ, eQ = _product_rule(lam, Q, d2, d1)
    F = _cleared(zL, lp, lq, M)
    diag = minus(L * zL1 * lp + zL * dP, dQ)        # dF_i/dz_i
    off = [minus(zL * p, q) for p, q in zip(eP, eQ)]  # dF_i/dz_{m_t}
    r = Z[:, -1:] / z                           # z_M / z_i
    a = diag - off[-1] * r                      # A[i, i]
    if M == 2:
        return F / -a
    b = off[0] - off[-1] * r[:, ::-1]           # A[0, 1], A[1, 0]
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
        res, lam = _residual(params, Z, L)
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
            rt, lt = _residual(params, trial, L)
            worse = np.flatnonzero(~(rt < r0))
            for factors in stages:
                if not worse.size:
                    break
                tw = Za[worse] + factors[:, None, None] * step[worse]
                tw = _on_line(tw.reshape(-1, 2),
                              np.tile(wa[worse], len(factors)))
                rw, lw = _residual(params, tw, L)
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
                pairs.append(_on_line(z[:, None], w[n]))
    return np.concatenate(pairs)


def _polish(params, Z, res, L):
    """One block-line Newton step (_block_steps on z1, _on_line for z2) for
    every M = 2 root pair of a batch with BAE residuals res, kept where it
    lowers the BAE residual: the pairs and their residuals.  It moves a
    companion root, which carries the rounding of the polynomial's
    coefficients, to where the BAE themselves vanish to rounding."""
    I, J, _ = ordered_pairs(2)
    with np.errstate(all="ignore"):
        step = _block_steps(params, Z, L, lambda_fn(params, Z[:, I], Z[:, J]))
        trial = _on_line(Z[:, :1] + step, Z[:, 0] * Z[:, 1])
        rt = _bae_residuals(params, trial, L)
    better = rt < res
    return np.where(better[:, None], trial, Z), np.where(better, rt, res)


def _canonical_rows(Z):
    """Every row of an (n, M) batch sorted by (Re, Im), ties in row order:
    the stable sort by that key, one np.lexsort over the rows."""
    order = np.lexsort((Z.imag, Z.real), axis=1)
    return np.take_along_axis(Z, order, axis=1)


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
    S = -1 and, for M < 2, where no S enters: the empty set, the L-th roots
    of unity."""
    phase = 0.0 if M % 2 else np.pi / L
    roots = [np.exp(1j * (2 * np.pi * n / L + phase)) for n in range(L)]
    return [tuple(c)
            for c in itertools.combinations_with_replacement(roots, M)]


def _solutions(sets, E, res, flags):
    """BetheSolutions of canonical root sets with their energies, BAE
    residuals and coincident flags."""
    return [BetheSolution(z, e, r, f)
            for z, e, r, f in zip(sets, E, res.tolist(), flags)]


def _read_only(*arrays):
    """Set every array, and both parts of every PyComplexArray, read-only."""
    for a in arrays:
        for part in (a.re, a.im) if isinstance(a, PyComplexArray) else (a,):
            part.setflags(write=False)


class _RootLayout:
    """What check_roots reads of a sector's root sets before it reads the
    couplings: the (n, M) root sets Z in canonical order, their coincident
    flags, their translation blocks (_momenta), the live rows, which reach
    assembly (not flagged, in a block), their slot table by block (_slots)
    and the RootChecks of the other rows, None at the live ones; then, on
    first use (after check_roots' size check), the pair geometry of the
    live rows and their powers z^L."""

    def __init__(self, Z, flagged, L):
        self.Z, self.flagged, self.L = Z, flagged, L
        self.momenta = mom = _momenta(Z, L)
        self.live = np.flatnonzero(~flagged & (mom >= 0))
        self.slot = _slots(mom[self.live], L)[0]
        # the plane-wave form degenerates when two roots coincide: such sets
        # give a null vector, or pass the BAE check and still fail as
        # eigenvectors
        out = [None] * len(Z)
        for i in np.flatnonzero(flagged):
            out[i] = RootCheck(None if mom[i] < 0 else int(mom[i]),
                               "coincident")
        for i in np.flatnonzero(~flagged & (mom < 0)):
            out[i] = RootCheck(None, "unverified", message=(
                f"no translation block: prod z = {complex(np.prod(Z[i]))} "
                "is not an L-th root of unity"))
        self.settled = tuple(out)

    @functools.cached_property
    def geom(self):
        return _Geometry(self.Z[self.live])

    @functools.cached_property
    def zL(self):
        return self.geom.Z ** self.L


@dataclass(frozen=True)
class _ClosedForm:
    """The root sets of a closed-form sector (_closed_form), read-only."""
    seeds: np.ndarray           # (n, M): the multisets, _multiset_seeds order
    sets: tuple                 # their canonical tuples, solve_bae's z
    flags: tuple                # their coincident flags
    bae: _Geometry | None       # M >= 2: the seeds' pair geometry and z^L in
    zL: PyComplexArray | None   # Python complex arithmetic (_bae_residuals)
    layout: _RootLayout         # the canonical rows, for check_roots

    def solved(self, sols):
        """Whether sols are this table's root sets as solve_bae returns
        them: its own canonical tuples, in order."""
        return (len(sols) == len(self.sets)
                and all(map(operator.is_, (s.z for s in sols), self.sets)))


@functools.lru_cache(maxsize=4)
def _closed_form(L, M):
    """The read-only table of everything about the (L, M) sector's
    closed-form root sets, the multisets of z^L = (-1)^(M-1)
    (_multiset_seeds), that reads no coupling: the multisets in seed order
    (in which solve_bae sums their energies), their canonical tuples and
    coincident flags, for M >= 2 the momentum-only parts of their BAE pair
    table in Python complex arithmetic with their z^L, and the layout
    check_roots starts from, with its live rows' pair geometry and their
    z^L built.  The tables of M = 1..3 hold about 0.5 MB at L = 12 and
    6.5 MB at L = 30; four are kept, one verify run's M = 0..3."""
    multisets = _multiset_seeds(L, M)
    seeds = np.array(multisets, complex).reshape(len(multisets), M)
    layout = _RootLayout(_canonical_rows(seeds), _coincident_rows(seeds), L)
    bae = zL = None
    with np.errstate(all="ignore"):
        if M >= 2:
            bae = _Geometry(PyComplexArray.of(seeds))
            zL = bae.Z ** L
        geom = layout.geom
        _read_only(seeds, layout.Z, layout.flagged, layout.momenta,
                   layout.live, layout.slot, layout.zL, geom.Z, geom.Zi,
                   geom.Zj, geom.zz, geom.zs, geom.zd, *(
                       (zL, bae.Z, bae.Zi, bae.Zj, bae.zz, bae.zs) if bae
                       else ()))
    sets = tuple(tuple(z) for z in layout.Z.tolist())
    return _ClosedForm(seeds, sets, tuple(layout.flagged.tolist()), bae, zL,
                       layout)


def _closed_form_of(params, L, M):
    """The (L, M) closed-form table (_closed_form) where params' sector is
    closed form, M < 2 or S = -1 (_is_trivial_s), else None."""
    return _closed_form(L, M) if M < 2 or _is_trivial_s(params) else None


def solve_bae(params, L, M, bae_tol=BAE_TOL):
    """All distinct Bethe-equation solutions found for the (L, M) sector
    with a BAE residual of at most bae_tol."""
    if M < 0 or M > M_MAX:
        raise ValueError(f"M <= {M_MAX} supported")

    table = _closed_form_of(params, L, M)
    if table is not None:
        # no scattering: exactly the multisets of z^L = (-1)^(M-1)
        res = (_bae_residuals(params, table.bae, L, table.zL) if M >= 2
               else np.zeros(len(table.sets)))
        return _solutions(table.sets, _energies(params, table.seeds), res,
                          table.flags)

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
    sets = [tuple(z) for z in Z.tolist()]
    keep = _distinct(sets)
    Z = Z[keep]
    return _solutions([sets[k] for k in keep], _energies(params, Z),
                      res[ok][keep], _coincident_rows(Z).tolist())


def amplitude(params, z, sigma, doubled=()):
    """Plane-wave coefficient for permutation sigma with decay factors for the
    doubled position indices (A_id = 1; one S factor per inversion, one N per
    doubled index).  ValueError where Lambda is singular at a pair of z."""
    sigma = tuple(sigma)
    table = _PairTable(params, _row(z)).require()
    out = complex(table.A(sigma)[0])
    for j in doubled:
        out *= complex(table.N(sigma[j], sigma[j + 1])[0])
    return out


def _slots(labels, n):
    """The positions of each label 0..n-1 in the integer array labels, in
    order, as the rows of one table padded with -1 (one column at least),
    and the count of each label."""
    count = np.bincount(labels, minlength=n)
    order = np.argsort(labels, kind="stable")
    table = np.full((n, max(1, int(count.max(initial=0)))), -1)
    table[labels[order],
          np.arange(len(order)) - np.repeat(np.cumsum(count) - count, count)] \
        = order
    return table, count


def _chunks(n, width):
    """Consecutive slices covering range(n), each of at most ASSEMBLE_CHUNK
    // width items and one at least: the chunks of a pass whose temporaries
    hold width entries per item."""
    step = max(1, ASSEMBLE_CHUNK // max(width, 1))
    return [slice(a, a + step) for a in range(0, n, step)]


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
    with np.errstate(all="ignore"):
        for r in _chunks(n, len(X)):
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
    table = _PairTable(params, _row(z))
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
    """||H v - E v|| / ||v|| for every row v of V and its energy in E; a
    stack of matrices H (..., k, k) takes a stack V (..., n, k), E (..., n)."""
    return (np.linalg.norm(V @ np.swapaxes(H, -1, -2) - E[..., None] * V,
                           axis=-1)
            / np.linalg.norm(V, axis=-1))


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

    blocks is the sector's oracle.BlockStack over the k orbits of
    _orbit_table: block m's orbits inside[m], whose momentum states |r, m>
    span it (the columns of F_m), and its matrix B[m] = F_m^dagger H F_m,
    0 off them.  A root set in block m is read only at the representatives
    r of inside[m], as c_r = sqrt(p_r) psi(r), psi its Bethe vector, 0 at
    the other orbits, and checked as the block vector phi = F_m c: F_m has
    orthonormal columns and H F_m = F_m B (T H = H T), so
    ||phi|| = ||c||, <phi_a, phi_b> = <c_a, c_b> and the eigenpair residual
    of phi is ||B c - E c|| / ||c||.  Where the BAE hold exactly, psi lies
    in block m (psi(T^d r) = e^{-2 pi i m d / L} psi(r)) and phi = psi.
    The BAE are the condition that psi be periodic: where a plane wave
    wraps round the chain, psi's term is off by the relative translation
    defect 1 - prod_{n != j} S(z_n, z_j) / z_j^L of the wrapping root z_j,
    which at a root with |z| < 1 may be up to b / |z|^L for the absolute
    BAE residual b (bae_residual's numerator).  A set is verified when
    phi's residual is within tol_eig * scale, scale the sector matrix's
    largest entry (as compare and the equal-state test below read
    tol_eig), and its largest defect, a relative number, within tol_eig.
    How far phi's residual lies from psi's is measured, not bounded.  On
    the preset root sets tested, bound states included, the two agree
    within b + 1e-12 with equal outcomes.
    On preset bound states pushed off their solution, psi's residual is
    0.4 to 0.8 of the defect and phi's far smaller: without the defect
    gate phi's residual would verify sets whose psi fails.  The null test
    compares ||c|| with the representatives' largest term.

    Root sets are checked in one pass over the sector: one pair table, one
    assembly at every orbit representative (every full-period orbit lies in
    every block), one BAE-sides pass for the defects and one singular mask
    over all root sets that reach assembly.  The root sets are then grouped
    by block into one (L, rows, k) stack of their block vectors c, 0 past
    a block's root sets (rows the most a block has) and off its orbits, and
    the norms, the null test, B c - E c and the Gram matrix of the verified
    sets are each one batched pass over it (per chunk of blocks, _chunks,
    so the temporaries stay bounded).  The zeros add nothing to a norm, a
    product or an overlap; the sums may round differently from those of
    the block alone, within 1e-15 of the scale (tests: _per_block_checks).
    A root set whose prod z is no L-th root of unity (momentum None) has no
    block; it cannot solve the BAE and is unverified.  A verified set is an
    equivalent state when an earlier kept set of its block has an energy
    within tol_eig * scale and spans the same ray (1 - |<u0, u>| <= 1e-6
    for the unit vectors); distinct root sets can describe one state at
    symmetric points.  Both tests are one array mask over each block's
    pairs, and the kept sets are settled in order only over the rows that
    have an earlier candidate.  Different blocks are orthogonal, so no ray
    is shared across them.  The amplitude table (root sets x orbits) and a
    block's Gram matrix (rows x rows), the largest arrays of the pass, are
    refused above hamiltonian.ENTRY_CAP entries before anything is
    allocated.  What reads no coupling, the blocks, the rows that reach
    assembly and their pair geometry, is the root sets' _RootLayout: the
    closed-form table's (_closed_form_of) for its own root sets, as
    solve_bae returns them (_ClosedForm.solved), else one built here."""
    if not sols:
        return []
    M = len(sols[0].z)
    closed = _closed_form_of(params, L, M)
    if closed is not None and closed.solved(sols):
        layout = closed.layout
    else:
        layout = _RootLayout(
            np.array([sol.z for sol in sols], complex),
            np.array([sol.degenerate_flag for sol in sols], bool), L)
    reps, period = _orbit_table(L, M)[2:]
    mom, live = layout.momenta, layout.live
    out = list(layout.settled)
    if not live.size:
        return out
    # slot[m, r]: the r-th live root set (in order) of block m, -1 beyond
    slot = layout.slot
    R = slot.shape[1]
    _check_entries(max(live.size * len(reps), R * R), f"L={L}, M={M}")
    table = _PairTable(params, layout.geom)
    C, amp = _assemble(table, L, reps)
    C *= np.sqrt(period)
    singular = table.singular()
    lhs, rhs = _bae_sides(table, L, layout.zL)
    with np.errstate(all="ignore"):
        defect = np.abs(1 - rhs / lhs).max(axis=1, initial=0.0)
    E = np.array([sols[i].energy for i in live], complex)
    # per live root set: its outcome, as an index into names, and its
    # block residual
    names = np.array(["singular", "null", "unverified", "verified",
                      "equivalent"])
    code = np.zeros(live.size, np.intp)
    res = np.zeros(live.size)
    # a chunk holds about four arrays of its (rows, k) size at once
    for part in _chunks(L, 4 * R * max(len(reps), R)):
        rows = slot[part]
        real = rows >= 0
        r0 = np.maximum(rows, 0)
        Cb, Ab = C[r0], amp[r0]
        for A in (Cb, Ab):
            A[~real] = 0
            A.transpose(0, 2, 1)[~blocks.inside[part]] = 0
        sing, Eb = singular[r0], E[r0]
        with np.errstate(all="ignore"):
            norms = np.linalg.norm(Cb, axis=2)
            null = ~sing & _is_null(norms, Ab.max(axis=2))
            del Ab
            rb = _eig_residuals(blocks.B[part], Cb, Eb)
            Cb /= norms[:, :, None]                 # the unit vectors u
        ok = (real & ~sing & ~null & (rb <= tol_eig * scale)
              & (defect[r0] <= tol_eig))
        Cb[~ok] = 0
        overlap = np.abs(Cb.conj() @ Cb.transpose(0, 2, 1))  # |<u_a, u_b>|
        # near[., a, b], b < a: a is the same state as b, if b is kept; the
        # energy distance is np.hypot's, which is the scalar complex abs
        dE = Eb[:, :, None] - Eb[:, None, :]
        near = np.tril((np.hypot(dE.real, dE.imag) <= tol_eig * scale)
                       & (1 - overlap.transpose(0, 2, 1) <= 1e-6), -1)
        near &= ok[:, :, None] & ok[:, None, :]
        same = np.zeros_like(ok)
        for b, a in np.argwhere(near.any(axis=2)).tolist():
            same[b, a] = np.any(near[b, a, :a] & ~same[b, :a])
        blk_code = np.select([sing, null, same, ok], [0, 1, 4, 3], 2)
        code[rows[real]] = blk_code[real]
        res[rows[real]] = rb[real]

    for k, (i, o, r, dk) in enumerate(zip(live.tolist(),
                                          names[code].tolist(),
                                          res.tolist(), defect.tolist())):
        m = int(mom[i])
        if o == "singular":
            out[i] = RootCheck(m, o, message=_singular_amplitude(table, k))
        elif o == "null":
            out[i] = RootCheck(m, o)
        else:
            msg = (f"translation defect {dk:.1e} above tol_eig"
                   if o == "unverified" and r <= tol_eig * scale else None)
            out[i] = RootCheck(m, o, r, msg)
    return out
