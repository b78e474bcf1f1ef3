"""Two-site and full-chain Hamiltonians for three-state U(1)-invariant spin chains.

Conventions used throughout the package:

* Local basis |0>, |1>, |2> with s^z|j> = j|j>.  A two-site state |i1 i2>
  maps to the tensor index 3*i1 + i2, i.e. site 1 is the most significant
  trit.  This ordering is frozen: eigenvector comparisons depend on it.
* The two-site matrix carries ten off-diagonal amplitudes
  (p, q, t1, t2, s1, s2, t3, s3, tp, sp) plus a 3x3 array of diagonal
  entries v[i, j]; U(1) invariance (row and column trit sums equal) holds
  by construction.
* Chains are periodic: site L+1 is identified with site 1.
* One size guard, check_chain, precedes every chain or sector matrix:
  L >= 2, dim <= SECTOR_DIM_CAP and dim * L^2 <= WORK_CAP, the cost of the
  translation-orbit table (L shifts of the dim x L basis), which dim alone
  does not bound (an M = 1 sector has dim = L).  The whole 3^L space
  passes up to L = 9.  No array a build makes may hold more than
  ENTRY_CAP entries either: dim^2 for a dense matrix (check_chain with
  dense), and for the oracle's sector spectrum k^2 * L, its block stack
  over the k translation orbits, which is at least k * dim, its
  representative rows (_representative_rows), and for
  bethe.check_roots its amplitude table, root sets times k, and the Gram
  matrix of the block with the most root sets.  Each is checked before
  the array is allocated.
* The grade of a state is its number of |2> sites.  t1 and t2 raise it by
  one, s1 and s2 lower it (OFFDIAG_SLOTS), and every other coupling keeps
  it.  When the couplings of one direction are all exactly 0
  (_grade_one_way), H is block triangular in the grade and the oracle
  diagonalizes each translation block by its grade sub-blocks
  (oracle._sub_blocks).

All arithmetic is complex double precision.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

OFFDIAG_KEYS = ("p", "q", "t1", "t2", "s1", "s2", "t3", "s3", "tp", "sp")

# (row pair, column pair) slots of the off-diagonal amplitudes
OFFDIAG_SLOTS = {
    "p": ((0, 1), (1, 0)),
    "q": ((1, 0), (0, 1)),
    "t1": ((2, 0), (1, 1)),
    "s1": ((1, 1), (2, 0)),
    "t2": ((0, 2), (1, 1)),
    "s2": ((1, 1), (0, 2)),
    "t3": ((1, 2), (2, 1)),
    "s3": ((2, 1), (1, 2)),
    "tp": ((0, 2), (2, 0)),
    "sp": ((2, 0), (0, 2)),
}

SECTOR_DIM_CAP = 20000       # largest basis a chain matrix is built on
WORK_CAP = 5_000_000         # largest dim * L^2 of a chain or sector
ENTRY_CAP = 10_000_000       # largest array a chain or sector build makes


class GateViolation(ValueError):
    """Input lies outside the classification hypotheses (rank-2 symmetry or
    no pseudo-excitation channel)."""


@dataclass(frozen=True)
class HamiltonianParams:
    """Parameters of the two-site Hamiltonian: ten hopping/pair amplitudes
    and the 3x3 diagonal array v[i, j]."""

    p: complex = 0j
    q: complex = 0j
    t1: complex = 0j
    t2: complex = 0j
    s1: complex = 0j
    s2: complex = 0j
    t3: complex = 0j
    s3: complex = 0j
    tp: complex = 0j
    sp: complex = 0j
    v: np.ndarray = field(default_factory=lambda: np.zeros((3, 3), complex))

    def __post_init__(self):
        for k in OFFDIAG_KEYS:
            object.__setattr__(self, k, complex(getattr(self, k)))
        v = np.array(self.v, dtype=complex)
        if v.shape != (3, 3):
            raise ValueError("v must be a 3x3 array")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    def replace(self, **kw):
        return replace(self, **kw)

    def has_rank1_symmetry(self):
        return any(abs(getattr(self, k)) > 0 for k in ("t1", "t2", "s1", "s2"))

    def has_pseudo_excitation(self):
        return any(abs(getattr(self, k)) > 0 for k in ("p", "q", "t3", "s3"))

    def check_gates(self):
        """Raise GateViolation unless both classification hypotheses hold."""
        if not self.has_rank1_symmetry():
            raise GateViolation(
                "rank-2 symmetry: (t1, t2, s1, s2) = (0, 0, 0, 0) is outside "
                "the classification hypotheses")
        if not self.has_pseudo_excitation():
            raise GateViolation(
                "no pseudo-excitation channel: (p, q, t3, s3) = (0, 0, 0, 0) "
                "is outside the classification hypotheses")


@dataclass(frozen=True)
class DiagonalInvariants:
    """Combinations of the diagonal entries invariant under telescoping."""

    V: complex = 0j
    X11: complex = 0j
    Y: complex = 0j
    X12: complex = 0j
    X21: complex = 0j
    X22: complex = 0j

    def as_dict(self):
        return {k: getattr(self, k) for k in ("V", "X11", "Y", "X12", "X21", "X22")}


def two_site_matrix(params):
    """The 9x9 two-site matrix in the |00>,|01>,...,|22> basis."""
    m = np.zeros((9, 9), complex)
    for key, ((r1, r2), (c1, c2)) in OFFDIAG_SLOTS.items():
        m[3 * r1 + r2, 3 * c1 + c2] = getattr(params, key)
    for i in range(3):
        for j in range(3):
            m[3 * i + j, 3 * i + j] += params.v[i, j]
    return m


def invariants(params):
    """Telescoping-invariant combinations of the diagonal entries, memoized
    on the instance (params is frozen and its v read-only)."""
    inv = params.__dict__.get("_invariants")
    if inv is None:
        v = params.v
        V = v[0, 1] + v[1, 0] - 2 * v[0, 0]
        inv = DiagonalInvariants(
            V=V,
            X11=v[1, 1] - v[0, 0] - V,
            Y=v[0, 2] + v[2, 0] - 2 * v[0, 0] - 2 * V,
            X12=v[1, 2] + v[2, 0] - v[1, 0] - v[0, 0] - 2 * V,
            X21=v[2, 1] + v[0, 2] - v[0, 1] - v[0, 0] - 2 * V,
            X22=v[2, 2] - v[0, 0] - 2 * V,
        )
        object.__setattr__(params, "_invariants", inv)
    return inv


def symmetric_diagonal(inv):
    """Diagonal array realizing the given invariants, symmetric in i <-> j.

    This is the canonical telescoping representative used by the family
    constructors and the reduction maps (v00 = 0, v01 = v10, v02 = v20).
    """
    V, Y = inv.V, inv.Y
    v = np.zeros((3, 3), complex)
    v[0, 1] = v[1, 0] = V / 2
    v[0, 2] = v[2, 0] = Y / 2 + V
    v[1, 1] = inv.X11 + V
    v[1, 2] = inv.X12 - Y / 2 + 1.5 * V
    v[2, 1] = inv.X21 - Y / 2 + 1.5 * V
    v[2, 2] = inv.X22 + 2 * V
    return v


def with_zero_v00(params):
    """Subtract v00 * Identity so the pseudo-vacuum has eigenvalue zero.

    On the coupling table this lowers every v[i, j] by the same constant.
    """
    return params.replace(v=params.v - params.v[0, 0] * np.ones((3, 3)))


# ---------------------------------------------------------------------------
# discrete transformations
# ---------------------------------------------------------------------------

def apply_parity(params):
    """Site-order reversal: p<->q, t1<->t2, s1<->s2, t3<->s3, tp<->sp, v -> v^T."""
    return HamiltonianParams(
        p=params.q, q=params.p, t1=params.t2, t2=params.t1,
        s1=params.s2, s2=params.s1, t3=params.s3, s3=params.t3,
        tp=params.sp, sp=params.tp, v=params.v.T,
    )


def apply_time_reversal(params):
    """Matrix transpose: p<->q, t1<->s1, t2<->s2, t3<->s3, tp<->sp; v fixed."""
    return HamiltonianParams(
        p=params.q, q=params.p, t1=params.s1, t2=params.s2,
        s1=params.t1, s2=params.t2, t3=params.s3, s3=params.t3,
        tp=params.sp, sp=params.tp, v=params.v,
    )


def apply_charge_conjugation(params):
    """Relabel the local states 0 <-> 2 on the matrix indices.

    On parameters: p<->s3, q<->t3, t1<->t2, s1<->s2, tp<->sp and
    v[i, j] -> v[2-i, 2-j].
    """
    return HamiltonianParams(
        p=params.s3, q=params.t3, t1=params.t2, t2=params.t1,
        s1=params.s2, s2=params.s1, t3=params.q, s3=params.p,
        tp=params.sp, sp=params.tp, v=params.v[::-1, ::-1],
    )


FRAME_ACTIONS = {
    "P": apply_parity,
    "C": apply_charge_conjugation,
    "T": apply_time_reversal,
}

FRAME_WORDS = ("", "P", "C", "T", "PC", "PT", "CT", "PCT")


def apply_frame(params, word):
    """Apply a word over {P, C, T} (the letters commute and are involutions)."""
    out = params
    for ch in word:
        out = FRAME_ACTIONS[ch](out)
    return out


def apply_gauge(params, g):
    """Conjugate by G (x) G with G = diag(g0, g1, g2).

    Only the combination g0*g2/g1^2 acts: it rescales (t1, t2) and inversely
    (s1, s2); all other parameters are unchanged.
    """
    g0, g1, g2 = (complex(x) for x in g)
    if g0 == 0 or g1 == 0 or g2 == 0:
        raise ValueError("singular gauge")
    gamma = g0 * g2 / g1**2
    return params.replace(
        t1=params.t1 * gamma, t2=params.t2 * gamma,
        s1=params.s1 / gamma, s2=params.s2 / gamma,
    )


def apply_telescopic(params, a):
    """Add A_j - A_{j+1} with diagonal A = diag(a0, a1, a2): v[i,j] += a_i - a_j."""
    a = np.asarray(a, dtype=complex)
    shift = a[:, None] - a[None, :]
    return params.replace(v=params.v + shift)


# ---------------------------------------------------------------------------
# chains and sectors
# ---------------------------------------------------------------------------

def check_chain(L, M=None, dense=False):
    """Raise ValueError unless a chain of L sites may be built on its S^z = M
    sector, or with M None on its whole 3^L space: L >= 2, dim <=
    SECTOR_DIM_CAP and dim * L^2 <= WORK_CAP, dim counted, not listed; with
    dense, the dim x dim matrix also within ENTRY_CAP."""
    if L < 2:
        raise ValueError("chain length must be at least 2")
    if M is None:
        dim, where = 3 ** L, f"L={L}"
    else:
        dim, where = sector_dimension(L, M), f"L={L}, M={M}"
    if dim > SECTOR_DIM_CAP:
        raise ValueError(f"chain too large: dimension {dim} at {where} "
                         f"exceeds cap {SECTOR_DIM_CAP}")
    if dim * L * L > WORK_CAP:
        raise ValueError(f"chain too large: dimension {dim} times L^2 at "
                         f"{where} exceeds cap {WORK_CAP}")
    if dense:
        _check_entries(dim * dim, where)


def _check_entries(entries, where):
    """Raise ValueError if an array of this many entries exceeds ENTRY_CAP."""
    if entries > ENTRY_CAP:
        raise ValueError(f"chain too large: {entries} array entries at "
                         f"{where} exceed cap {ENTRY_CAP}")


def _state_keys(occ):
    """Each row of the uint8 occupation array occ as one L-byte key.  Keys
    compare like the occupation tuples, so a lexicographically sorted
    basis has sorted keys and np.searchsorted finds a state's index, at
    any L."""
    occ = np.ascontiguousarray(occ, dtype=np.uint8)
    return occ.view(f"V{occ.shape[1]}").ravel()


def _apply_bonds(m2, states, L, basis):
    """The rows at states of the periodic chain H of two-site matrix m2 over
    basis: the (len(states), len(basis)) array out[i, j] = <states_i| H
    |basis_j>.  states are occupation tuples or rows; basis is a (dim, L)
    uint8 occupation table sorted lexicographically (as sector_basis and
    np.ndindex list them) that holds every state a bond reaches from them.
    Bond b links state i to the copy of it with the bond's two digits set
    to a pair r with m2[c, r] != 0, c its pair there; the copy's column is
    found by searchsorted over the sorted _state_keys.  Entries accumulate
    by np.add.at in (state, bond, entry) order, so each out[i, j] sums its
    terms m2[c, r] in ascending bond order whatever the other states are:
    the rows at a subset of the basis equal those of the square matrix bit
    for bit."""
    occ = np.array(states, dtype=np.uint8).reshape(len(states), L)
    # entries of each pair c = 3 i1 + i2: the nonzero columns of m2[c] in
    # order, padded to the longest row (ok marks the real ones)
    outs = [np.nonzero(m2[c])[0] for c in range(9)]
    K = max(len(r) for r in outs)
    out_col = np.zeros((9, K), np.intp)
    ok = np.zeros((9, K), bool)
    for c, r in enumerate(outs):
        out_col[c, :len(r)] = r
        ok[c, :len(r)] = True
    out_val = m2[np.arange(9)[:, None], out_col]
    nxt = (np.arange(L) + 1) % L
    pair = 3 * occ.astype(np.intp) + occ[:, nxt]   # (n, L)
    # every (state, bond, entry) term, in that order
    row, bond, k = np.nonzero(ok[pair])
    c = pair[row, bond]
    r = out_col[c, k]
    image = occ[row]
    term = np.arange(len(row))
    image[term, bond] = r // 3
    image[term, nxt[bond]] = r % 3
    col = np.searchsorted(_state_keys(basis), _state_keys(image))
    H = np.zeros((len(occ), len(basis)), complex)
    np.add.at(H, (row, col), out_val[c, k])
    return H


def chain_matrix(params, L):
    """Full 3^L x 3^L periodic chain matrix, sum of L embedded two-site terms."""
    check_chain(L, dense=True)
    full = np.array(list(np.ndindex(*(3,) * L)), np.uint8).reshape(-1, L)
    return _apply_bonds(two_site_matrix(params), full, L, full)


@functools.lru_cache(maxsize=32)
def _sector_occupations(L, M):
    """Read-only (dim, L) uint8 table of the occupation strings over
    {0, 1, 2} with digit sum M, rows in lexicographic order: the one copy of
    the (L, M) sector basis that sector_basis, the sector matrix, the
    translation orbits and the Bethe position table read.  Built site by
    site from the right: the strings of the last l sites with digit sum s
    are, in order, digit d followed by those of the last l - 1 sites with
    sum s - d, for d = 0, 1, 2, which keeps them sorted."""
    if M < 0:
        out = np.zeros((0, L), np.uint8)
    else:
        # tails[s]: the strings of the last l sites with digit sum s
        tails = [np.zeros((int(s == 0), 0), np.uint8) for s in range(M + 1)]
        for _ in range(L):
            tails = [np.concatenate([
                np.column_stack([np.full(len(tails[s - d]), d, np.uint8),
                                 tails[s - d]])
                for d in range(min(s, 2) + 1)]) for s in range(M + 1)]
        out = tails[M]
    out.setflags(write=False)
    return out


def sector_basis(L, M):
    """Occupation strings over {0,1,2} of length L with digit sum M,
    in lexicographic order (site 1 first)."""
    return [tuple(s) for s in _sector_occupations(L, M).tolist()]


@functools.lru_cache(maxsize=32)
def _orbit_table(L, M):
    """Read-only translation orbits of the (L, M) sector, in sector_basis
    order: for each state its orbit (numbered by representative, the state
    of lowest index), and d with state = T^d (representative); for each
    orbit its representative's index and its period.  T is the left shift
    s -> s[1:] + s[:1]."""
    occ = _sector_occupations(L, M)
    keys = _state_keys(occ)
    n = len(keys)
    # image[d, i]: index of T^d applied to state i
    image = np.empty((L, n), np.intp)
    for d in range(L):
        image[d] = np.searchsorted(keys, _state_keys(np.roll(occ, -d, axis=1)))
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


# the couplings whose row pair holds more 2s than their column pair, and
# those whose row pair holds fewer: the ones that raise and lower the grade
_GRADE_STEPS = tuple(
    tuple(k for k, (r, c) in OFFDIAG_SLOTS.items()
          if sign * (r.count(2) - c.count(2)) > 0)
    for sign in (1, -1))


def _grade_one_way(params):
    """Whether H never raises or never lowers the grade of a state, its
    number of |2> sites: the couplings that change the grade in one
    direction (_GRADE_STEPS) are all exactly 0, as s1 = s2 = 0 or
    t1 = t2 = 0.  Every entry of the sector matrix, and of each translation
    block, that would move the grade that way is then exactly 0, so the
    matrix is block triangular in the grade and its eigenvalues are
    exactly those of its grade-diagonal blocks together."""
    return any(all(getattr(params, k) == 0 for k in keys)
               for keys in _GRADE_STEPS)


def _representative_rows(params, L, M):
    """The rows H[reps] of the (L, M) sector matrix H at its translation
    orbits' representatives (_orbit_table), a (k, dim) array, without
    building H.  Each entry equals H's bit for bit (_apply_bonds).  Refused
    before they are built when the (L, k, k) block stack built from them
    (oracle.BlockStack), k^2 L >= k dim entries, exceeds ENTRY_CAP."""
    check_chain(L, M)
    reps = _orbit_table(L, M)[2]
    # the block stack is the larger: each orbit has at most L states
    _check_entries(len(reps) ** 2 * L, f"L={L}, M={M}")
    occ = _sector_occupations(L, M)
    return _apply_bonds(two_site_matrix(params), occ[reps], L, occ)


def sector_dimension(L, M):
    """len(sector_basis(L, M)), counted without listing the basis: the
    strings with k twos and M - 2k ones."""
    if M < 0:
        return 0
    return sum(math.comb(L, k) * math.comb(L - k, M - 2 * k)
               for k in range(min(M // 2, L) + 1))


def sz_matrix(L):
    """Diagonal total-S^z in the full product basis."""
    check_chain(L, dense=True)
    states = list(np.ndindex(*(3,) * L))
    return np.diag([float(sum(s)) for s in states]).astype(complex)


# ---------------------------------------------------------------------------
# JSON wire format: complex numbers as [re, im]
# ---------------------------------------------------------------------------

def _c_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _pair_to_c(x):
    """Parse a number or an [re, im] pair; NaN, inf and booleans (JSON true
    and false) are rejected."""
    pair = x if isinstance(x, (list, tuple)) and len(x) == 2 else (x, 0.0)
    if not all(isinstance(c, (int, float)) and not isinstance(c, bool)
               for c in pair):
        raise ValueError(f"cannot parse complex value from {x!r}")
    z = complex(float(pair[0]), float(pair[1]))
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite complex value {x!r}")
    return z


def params_to_dict(params):
    d = {k: _c_to_pair(getattr(params, k)) for k in OFFDIAG_KEYS}
    d["v"] = [[_c_to_pair(params.v[i, j]) for j in range(3)] for i in range(3)]
    return d


def params_from_dict(d):
    kw = {k: _pair_to_c(d[k]) for k in OFFDIAG_KEYS if k in d}
    v = np.zeros((3, 3), complex)
    if "v" in d:
        rows = d["v"]
        if not (isinstance(rows, (list, tuple)) and len(rows) == 3
                and all(isinstance(r, (list, tuple)) and len(r) == 3
                        for r in rows)):
            raise ValueError("v must be a 3x3 array")
        for i in range(3):
            for j in range(3):
                v[i, j] = _pair_to_c(rows[i][j])
    return HamiltonianParams(v=v, **kw)
