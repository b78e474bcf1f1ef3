"""Bethe-equation solving and explicit eigenvector assembly.

Momenta live in the z = e^{ik} variable throughout.  The quantization
conditions on a periodic chain of length L with M excitations are

    z_j^L = prod_{n != j} S(z_n, z_j),    j = 1..M.

M < 2 is exact: the pseudo-vacuum (M = 0) is the one empty root set, and
M = 1 the L-th roots of unity.  For M >= 2 a damped Newton iteration
runs on the denominator-cleared polynomial system

    F_j = z_j^L prod_{n != j} Lambda(z_j, z_n)
          - (-1)^(M-1) prod_{n != j} Lambda(z_n, z_j),

seeded from all multisets of the trivial-scattering roots z^L = (-1)^(M-1)
plus random points.  Families with S identically -1 bypass Newton: their
solutions are exactly those multisets.

Newton runs over all seeds as one batch.  Each evaluation takes Lambda (and
dLambda, when the Jacobian is needed) in one call over the M(M-1) ordered
pairs of every row (constraints.ordered_pairs) and builds F and J from that
table; only rows still iterating are evaluated.  The line search tries the
full step on every row, then all shorter steps DAMPING^1 .. DAMPING^24 at
once on the rows the full step made worse; each row takes the first step
that lowers its residual and is dropped as stuck if none does.  Rows never
interact (nothing is shared or reduced across them), so each row follows
the path it would follow alone, whatever the batch around it.

S, N, the plane-wave amplitudes A and the singular rule all come from the
pair table of constraints (_PairTable): the BAE residuals of a whole batch
of root sets, the trivial-S probe and the amplitudes of a batch of root
sets are reads of one table each.

Eigenvectors are plane-wave superpositions over ordered excitation positions
x_1 <= ... <= x_M (a doubly occupied site appears twice); amplitudes carry
one scattering factor per permutation inversion and one decay factor N per
doubled position.  Each (L, M) sector has one cached, read-only position
table: the sorted positions of every basis state, in sector_basis order,
and the mask of doubled sites.  Assembly evaluates each of the M! plane
waves over that whole table for a whole batch of root sets at once, one
(n, dim) array in sector_basis order; assemble_eigenvector is its one-row
read, a SectorEigenvector.  Vectors are returned unnormalized with their
norm.  The left shift s -> s[1:] + s[:1] multiplies a Bethe vector by
prod z; momentum(z, L) names the translation block this puts it in (see
oracle).

check_roots verifies the root sets of a sector one translation block at a
time: one pair table, one assembly, one residual product and one Gram
matrix of unit vectors per block, which finds the root sets that give a
state already seen.  It returns one RootCheck per root set;
oracle.verify_sector collects them into the sector's report.
"""

from __future__ import annotations

import bisect
import cmath
import copy
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .constraints import (_PairTable, lambda_fn, lambda_grad, ordered_pairs,
                          pair_row, random_momenta)
from .hamiltonian import invariants, sector_basis

DAMPING = 0.5            # line-search step factor
NEWTON_TOL = 1e-12       # Newton stops below this relative residual
DEDUP_TOL = 1e-8         # root sets this close are one solution
DEGENERATE_TOL = 1e-6    # roots this close are coincident
MOMENTUM_TOL = 1e-6      # prod z this close to e^{2 pi i m / L} is in block m
TRIVIAL_S_PROBES = 6     # random pairs at which S = -1 is tested


@dataclass(frozen=True)
class BetheSolution:
    z: tuple
    energy: complex
    bae_residual: float
    degenerate_flag: bool = False


@dataclass
class SolverConfig:
    seed: int = 0
    random_seeds: int = 100
    max_iter: int = 200
    bae_tol: float = 1e-10


@functools.lru_cache(maxsize=32)
def _sector_positions(L, M):
    """Read-only position table of the (L, M) sector, rows in sector_basis
    order: the (dim, M) sorted 1-based excitation positions and the
    (dim, M-1) mask of doubled sites (x_{j+1} == x_j)."""
    occ = np.array(sector_basis(L, M), dtype=np.intp).reshape(-1, L)
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


def energy(params, z):
    """E = M V + sum_n (q z_n + p / z_n)."""
    z = [complex(w) for w in z]
    if any(w == 0 for w in z):
        raise ValueError("invalid momentum z = 0")
    V = invariants(params).V
    return len(z) * V + sum(params.q * w + params.p / w for w in z)


def momentum(z, L):
    """Translation block m of the root set z: the m in 0..L-1 with
    e^{2 pi i m / L} = prod z, the eigenvalue of the left shift
    s -> s[1:] + s[:1] on its Bethe vector; None unless prod z lies within
    MOMENTUM_TOL of that root of unity."""
    P = 1
    for w in z:
        P *= complex(w)
    if not cmath.isfinite(P):
        return None
    m = round(L * cmath.phase(P) / (2 * cmath.pi)) % L
    return m if abs(P - cmath.exp(2j * cmath.pi * m / L)) <= MOMENTUM_TOL else None


def _bae_residuals(params, Z, L):
    """bae_residual of every row of an (n, M) batch, from one pair table.

    The table holds Python complex numbers (object dtype), not complex128:
    numpy may compute complex128 array products with fused multiply-adds,
    and at ill-conditioned roots that rounding difference is amplified
    (seen: 5e-11 on residuals near 1e-10), enough to move a root set across
    bae_tol.  Python complex products round the same way on every machine
    and in every batch."""
    Z = Z.astype(object)
    table = _PairTable(params, Z)
    n, M = Z.shape
    res = np.zeros(n)
    for j in range(M):
        prod = np.ones(n, complex)
        for m in range(M):
            if m != j:
                prod = prod * table.S(m, j)
        res = np.maximum(res, np.abs(Z[:, j]**L - prod).astype(float))
    res[table.singular() | ~np.isfinite(res)] = np.inf
    return res


def bae_residual(params, z, L):
    """max_j |z_j^L - prod_{n != j} S(z_n, z_j)|; +inf at an S singularity."""
    return float(_bae_residuals(params, np.array([z], complex), L)[0])


def _is_trivial_s(params, rng):
    """Whether S(z1, z2) = -1 at TRIVIAL_S_PROBES random pairs (and is
    nowhere singular there), read from one pair table.  The probes are drawn
    from a copy of rng; rng itself moves past the first probe only, where a
    nontrivial S already fails."""
    probes = copy.deepcopy(rng)
    Z = np.array([random_momenta(probes, 2) for _ in range(TRIVIAL_S_PROBES)])
    random_momenta(rng, 2)
    table = _PairTable(params, Z)
    off = np.abs(table.S(0, 1) + 1) > 1e-10
    return not np.any(table.singular() | off)


def _coincident(z):
    """Whether two of the momenta z lie within DEGENERATE_TOL of each other."""
    return any(abs(a - b) <= DEGENERATE_TOL
               for a, b in itertools.combinations(z, 2))


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
    """prod_t lam[:, cols[..., t]], multiplied in order onto ones."""
    out = np.ones((len(lam),) + cols.shape[:-1], complex)
    for t in range(cols.shape[-1]):
        out = out * lam[:, cols[..., t]]
    return out


def _bae_system(params, Z, L, sign, jacobian=False):
    """F_j, and its Jacobian if asked, for an (n, M) batch of momentum
    tuples, from one Lambda (and dLambda) table over the ordered pairs."""
    n, M = Z.shape
    I, J, _ = ordered_pairs(M)
    others, P, Q, PX, QX = _bae_pairs(M)
    Zi, Zj = Z[:, I], Z[:, J]
    lam = lambda_fn(params, Zi, Zj)
    ZL = Z**L
    pj = _pair_product(lam, P)
    F = ZL * pj - sign * _pair_product(lam, Q)
    if not jacobian:
        return F, None
    d1, d2 = lambda_grad(params, Zi, Zj)
    exP, exQ = _pair_product(lam, PX), _pair_product(lam, QX)
    dP = dQ = 0
    for t in range(M - 1):
        dP = dP + d1[:, P[:, t]] * exP[:, :, t]
        dQ = dQ + d2[:, Q[:, t]] * exQ[:, :, t]
    Jac = np.zeros((n, M, M), complex)
    diag = np.arange(M)
    Jac[:, diag, diag] = L * Z**(L - 1) * pj + ZL * dP - sign * dQ
    Jac[:, diag[:, None], others] = (ZL[:, :, None] * (d2[:, P] * exP)
                                     - sign * (d1[:, Q] * exQ))
    return F, Jac


def _residual(params, Z, L, sign):
    """Per-row max_j |F_j| relative to max(1, max_j |z_j|^L)."""
    F, _ = _bae_system(params, Z, L, sign)
    scale = np.maximum(1.0, np.max(np.abs(Z), axis=1)**L)
    return np.max(np.abs(F), axis=1) / scale


def _newton_batch(params, Z0, L, cfg):
    """Damped Newton on the cleared BAE system, over a batch of seeds.

    Returns the converged rows, in seed order.
    """
    Z = np.array(Z0, complex)
    n, M = Z.shape
    sign = (-1.0) ** (M - 1)
    # step factors of the line search: 1, d, d^2, ... while above 1e-8, at
    # most 25 of them
    damps = [1.0]
    while len(damps) < 25 and damps[-1] > 1e-8:
        damps.append(damps[-1] * DAMPING)
    damps = np.array(damps)

    res = _residual(params, Z, L, sign)
    active = np.flatnonzero(np.isfinite(res))
    converged = np.zeros(n, bool)

    for _ in range(cfg.max_iter):
        hit = res[active] <= NEWTON_TOL
        converged[active[hit]] = True
        active = active[~hit]
        if not active.size:
            break
        F, Jac = _bae_system(params, Z[active], L, sign, jacobian=True)
        det = np.linalg.det(Jac)
        ok = np.isfinite(det) & (np.abs(det) != 0)
        active, F, Jac = active[ok], F[ok], Jac[ok]
        if not active.size:
            break
        try:
            step = np.linalg.solve(Jac, -F[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.zeros_like(F)
            ok = np.ones(len(active), bool)
            for i in range(len(active)):
                try:
                    step[i] = np.linalg.solve(Jac[i], -F[i])
                except np.linalg.LinAlgError:
                    ok[i] = False
            active, step = active[ok], step[ok]
            if not active.size:
                break
        # line search: the full step for every row, then all shorter steps
        # at once for the rows it made worse; each row takes its first step
        # factor that lowers its residual, or is dropped as stuck
        Za, r0 = Z[active], res[active]
        trial = Za + damps[0] * step
        rt = _residual(params, trial, L, sign)
        worse = np.flatnonzero(~(rt < r0))
        if worse.size:
            tw = Za[worse] + damps[1:, None, None] * step[worse]
            tw = tw.reshape(-1, M)
            rw = _residual(params, tw, L, sign)
            better = rw.reshape(len(damps) - 1, -1) < r0[worse]
            first = np.argmax(better, axis=0)
            found = better[first, np.arange(len(worse))]
            pick = first[found] * len(worse) + np.flatnonzero(found)
            trial[worse[found]] = tw[pick]
            rt[worse[found]] = rw[pick]
        kept = rt < r0
        active = active[kept]
        Z[active] = trial[kept]
        res[active] = rt[kept]
    converged[active[res[active] <= NEWTON_TOL]] = True
    return Z[converged]


def _canonical(z):
    zs = sorted((complex(w) for w in z), key=lambda w: (w.real, w.imag))
    return tuple(zs)


def _same(za, zb):
    return all(abs(a - b) <= DEDUP_TOL for a, b in zip(za, zb))


def _distinct(sets):
    """Indices of the canonical root sets that are not _same as an earlier
    kept one, in order.  Sets within DEDUP_TOL root by root have first roots
    whose real parts lie within DEDUP_TOL, so the kept sets are held sorted
    by that real part and each new set is compared only with the window
    around its own (twice as wide, so that rounding in the window's bounds
    cannot drop a match)."""
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


def _multiset_seeds(L, M, sign_roots):
    return [tuple(c) for c in
            itertools.combinations_with_replacement(sign_roots, M)]


def solve_bae(params, L, M, config=None):
    """All distinct Bethe-equation solutions found for the (L, M) sector."""
    cfg = config or SolverConfig()
    if M < 0 or M > 3:
        raise ValueError("M <= 3 supported")
    rng = np.random.default_rng(cfg.seed)

    if M < 2:
        # no scattering: the M-subsets of the L-th roots of unity, exactly
        roots = [np.exp(2j * np.pi * n / L) for n in range(L)]
        return [BetheSolution(z, energy(params, z), 0.0, False)
                for z in itertools.combinations(roots, M)]

    sign = (-1.0) ** (M - 1)
    phase = 0.0 if sign == 1 else np.pi / L
    free_roots = [np.exp(1j * (2 * np.pi * n / L + phase)) for n in range(L)]

    if _is_trivial_s(params, rng):
        Z = np.array(_multiset_seeds(L, M, free_roots), complex)
        return [BetheSolution(_canonical(zs), energy(params, zs), float(res),
                              _coincident(zs))
                for zs, res in zip(Z, _bae_residuals(params, Z, L))]

    seeds = list(_multiset_seeds(L, M, free_roots))
    # coincident entries can sit on a singular Jacobian; perturbed copies
    # give Newton a way off the symmetric point
    for s in list(seeds):
        if len(set(s)) < M:
            wiggle = 1e-2 * random_momenta(rng, M)
            seeds.append(tuple(np.array(s) * (1 + wiggle)))
    seeds += [tuple(random_momenta(rng, M)) for _ in range(cfg.random_seeds)]

    Z = _newton_batch(params, np.array(seeds, complex), L, cfg)
    Z = Z[~np.any(np.abs(Z) < 1e-8, axis=1)]
    res = _bae_residuals(params, Z, L)
    ok = res <= cfg.bae_tol
    sets, res = [_canonical(z) for z in Z[ok]], res[ok]
    return [BetheSolution(sets[i], energy(params, sets[i]), float(res[i]),
                          _coincident(sets[i]))
            for i in _distinct(sets)]


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


def _assemble(table, L):
    """Bethe vectors of every root set of a pair table over the (L, M)
    sector: the (n, dim) amplitudes in sector_basis order and each row's
    largest pre-cancellation term magnitude.  One array product per
    permutation, multiplied in the same order for every row, over powers
    z**x taken in Python; the rows of root sets with a singular pair hold
    meaningless values."""
    n, M = table.Z.shape
    X, doubled = _sector_positions(L, M)
    zpow = np.array([[[w ** x for x in range(L + 1)] for w in row]
                     for row in table.Z.tolist()], complex)
    vecs = np.zeros((n, len(X)), complex)
    scale = np.zeros(n)
    with np.errstate(all="ignore"):
        for sigma in itertools.permutations(range(M)):
            term = np.repeat(table.A(sigma)[:, None], len(X), axis=1)
            for j in range(M - 1):
                term[:, doubled[:, j]] *= table.N(sigma[j], sigma[j + 1])[:, None]
            for k in range(M):
                term *= zpow[:, sigma[k], X[:, k]]
            vecs += term
            scale = np.maximum(scale, np.abs(term).max(axis=1, initial=0.0))
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
                             amp_scale=float(scale[0]),
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
    * "verified" / "unverified": the eigenpair residual is within tol_eig
      or not;
    * "equivalent": verified, but the same state as an earlier verified
      root set.

    The last three carry the eigenpair residual."""
    momentum: int | None
    outcome: str
    eig_residual: float | None = None
    message: str | None = None


def check_roots(params, sols, H, L, tol_eig, scale):
    """Check the root sets sols of one (L, M) sector against its matrix H:
    one RootCheck per root set, in order.

    Root sets are checked one translation block at a time (those with no
    block form one more group): one pair table, one (n, dim) assembly, one
    residual product V H^T and one Gram matrix per block.  A verified set is
    an equivalent state when an earlier kept set of its block has an energy
    within tol_eig * scale and spans the same ray (1 - |<u0, u>| <= 1e-6 for
    the unit vectors); distinct root sets can describe one state at
    symmetric points.  Different blocks are orthogonal, so no ray is shared
    across them."""
    out = [None] * len(sols)
    blocks = {}
    for i, sol in enumerate(sols):
        m = momentum(sol.z, L)
        if sol.degenerate_flag:
            # the plane-wave form degenerates when two roots coincide: such
            # sets give a null vector, or pass the BAE check and still fail
            # as eigenvectors
            out[i] = RootCheck(m, "coincident")
        else:
            blocks.setdefault(m, []).append(i)
    for m, rows in blocks.items():
        table = _PairTable(params, np.array([sols[i].z for i in rows], complex))
        vecs, amp = _assemble(table, L)
        norms = np.linalg.norm(vecs, axis=1)
        singular = table.singular()
        null = ~singular & _is_null(norms, amp)
        for k in np.flatnonzero(singular):
            out[rows[k]] = RootCheck(m, "singular",
                                     message=_singular_amplitude(table, k))
        for k in np.flatnonzero(null):
            out[rows[k]] = RootCheck(m, "null")
        good = np.flatnonzero(~singular & ~null)
        E = np.array([sols[rows[k]].energy for k in good], complex)
        res = _eig_residuals(H, vecs[good], E)
        ok = res <= tol_eig
        for k, r in zip(good[~ok], res[~ok]):
            out[rows[k]] = RootCheck(m, "unverified", float(r))
        good, res, E = good[ok], res[ok], E[ok]
        U = vecs[good] / norms[good, None]
        overlap = np.abs(U.conj() @ U.T)    # overlap[a, b] = |<u_a, u_b>|
        kept = []
        for a, k in enumerate(good):
            same = any(abs(E[a] - E[b]) <= tol_eig * scale
                       and 1 - overlap[b, a] <= 1e-6 for b in kept)
            if not same:
                kept.append(a)
            out[rows[k]] = RootCheck(m, "equivalent" if same else "verified",
                                     float(res[a]))
    return out
