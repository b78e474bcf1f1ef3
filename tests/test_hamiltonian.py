"""Two-site matrix layout, invariants, discrete transformations, chains."""

from pathlib import Path

import numpy as np
import pytest

import bethe_forge as bf
from bethe_forge import hamiltonian as ham
from bethe_forge.cli import load_input
from bethe_forge.hamiltonian import symmetric_diagonal

from conftest import cdraw, dyadic_params, family_instance, random_params

PRESETS = sorted((Path(bf.__file__).parent / "presets").glob("*.json"))


def kron_embed(m2, L, bond):
    """Embed a two-site term on (bond, bond+1 mod L) in the full chain."""
    dim = 3**L
    H = np.zeros((dim, dim), complex)
    states = list(np.ndindex(*(3,) * L))
    index = {s: i for i, s in enumerate(states)}
    for s in states:
        col = index[s]
        a, b = s[bond], s[(bond + 1) % L]
        for r in range(9):
            val = m2[r, 3 * a + b]
            if val != 0:
                new = list(s)
                new[bond], new[(bond + 1) % L] = r // 3, r % 3
                H[index[tuple(new)], col] += val
    return H


class TestTwoSite:
    def test_zero_params_zero_matrix(self):
        assert np.all(bf.two_site_matrix(bf.HamiltonianParams()) == 0)

    def test_p_slot(self):
        m = bf.two_site_matrix(bf.HamiltonianParams(p=1))
        expect = np.zeros((9, 9))
        expect[1, 3] = 1  # row |01>, column |10>
        assert np.array_equal(m, expect)

    def test_all_slots_distinct(self, rng):
        h = random_params(rng)
        m = bf.two_site_matrix(h)
        assert m[1, 3] == h.p and m[3, 1] == h.q
        assert m[6, 4] == h.t1 and m[4, 6] == h.s1
        assert m[2, 4] == h.t2 and m[4, 2] == h.s2
        assert m[5, 7] == h.t3 and m[7, 5] == h.s3
        assert m[2, 6] == h.tp and m[6, 2] == h.sp
        # U(1): entries vanish unless trit sums of row and column agree
        sums = [i // 3 + i % 3 for i in range(9)]
        for i in range(9):
            for j in range(9):
                if sums[i] != sums[j]:
                    assert m[i, j] == 0

    def test_gzf_unit_point_has_all_offdiagonals(self):
        h = bf.construct("gZF", dict(p=1, tp=1, t2=1, s1=1))
        m = bf.two_site_matrix(h)
        offdiag = m - np.diag(np.diag(m))
        assert np.count_nonzero(offdiag) == 10


class TestInvariants:
    def test_zero(self):
        inv = bf.invariants(bf.HamiltonianParams())
        assert all(x == 0 for x in inv.as_dict().values())

    def test_v01_v10_example(self):
        v = np.zeros((3, 3), complex)
        v[0, 1] = v[1, 0] = 1
        inv = bf.invariants(bf.HamiltonianParams(v=v))
        assert inv.V == 2 and inv.X11 == -2 and inv.Y == -4
        assert inv.X12 == -5 and inv.X21 == -5 and inv.X22 == -4

    def test_memoized_per_instance(self, rng):
        h = random_params(rng)
        assert bf.invariants(h) is bf.invariants(h)
        # a replaced instance gets its own invariants (doubling is exact)
        assert bf.invariants(h.replace(v=2 * h.v)).V == 2 * bf.invariants(h).V

    def test_telescoping_invariance(self, rng):
        for _ in range(10):
            h = random_params(rng)
            ha = bf.apply_telescopic(h, cdraw(rng, 3))
            a, b = bf.invariants(h).as_dict(), bf.invariants(ha).as_dict()
            for k in a:
                assert abs(a[k] - b[k]) < 1e-12

    def test_zero_v00_preserves_invariants(self, rng):
        h = random_params(rng)
        hz = bf.with_zero_v00(h)
        assert hz.v[0, 0] == 0
        a, b = bf.invariants(h).as_dict(), bf.invariants(hz).as_dict()
        for k in a:
            assert abs(a[k] - b[k]) < 1e-12
        # identity shift on the two-site matrix
        delta = bf.two_site_matrix(h) - bf.two_site_matrix(hz)
        assert np.allclose(delta, h.v[0, 0] * np.eye(9))

    def test_symmetric_diagonal_roundtrip(self, rng):
        h = random_params(rng)
        inv = bf.invariants(h)
        rebuilt = bf.HamiltonianParams(v=symmetric_diagonal(inv))
        inv2 = bf.invariants(rebuilt)
        for k, x in inv.as_dict().items():
            assert abs(x - getattr(inv2, k)) < 1e-12


class TestDiscreteTransformations:
    def test_parity_involution(self, rng):
        h = random_params(rng)
        hh = bf.apply_parity(bf.apply_parity(h))
        assert all(getattr(h, k) == getattr(hh, k) for k in
                   ("p", "q", "t1", "t2", "s1", "s2", "t3", "s3", "tp", "sp"))
        assert np.array_equal(h.v, hh.v)

    def test_parity_on_invariants(self, rng):
        h = random_params(rng)
        a, b = bf.invariants(h), bf.invariants(bf.apply_parity(h))
        assert abs(a.X12 - b.X21) < 1e-12 and abs(a.X21 - b.X12) < 1e-12
        for k in ("V", "X11", "Y", "X22"):
            assert abs(getattr(a, k) - getattr(b, k)) < 1e-12

    def test_parity_is_site_swap(self, rng):
        h = random_params(rng)
        swap = np.zeros((9, 9))
        for i in range(3):
            for j in range(3):
                swap[3 * j + i, 3 * i + j] = 1
        m = bf.two_site_matrix(h)
        assert np.allclose(bf.two_site_matrix(bf.apply_parity(h)),
                           swap @ m @ swap)

    def test_time_reversal_is_transpose(self, rng):
        h = random_params(rng)
        assert np.allclose(bf.two_site_matrix(bf.apply_time_reversal(h)),
                           bf.two_site_matrix(h).T)
        hh = bf.apply_time_reversal(bf.apply_time_reversal(h))
        assert np.allclose(bf.two_site_matrix(hh), bf.two_site_matrix(h))

    def test_charge_conjugation_is_relabeling(self, rng):
        h = random_params(rng)
        X = np.fliplr(np.eye(3))
        XX = np.kron(X, X)
        assert np.allclose(bf.two_site_matrix(bf.apply_charge_conjugation(h)),
                           XX @ bf.two_site_matrix(h) @ XX)
        hh = bf.apply_charge_conjugation(bf.apply_charge_conjugation(h))
        assert np.allclose(bf.two_site_matrix(hh), bf.two_site_matrix(h))

    def test_charge_conjugation_invariant_map(self, rng):
        # the induced action on the diagonal invariants
        for _ in range(10):
            h = random_params(rng)
            a = bf.invariants(h)
            b = bf.invariants(bf.apply_charge_conjugation(h))
            assert abs(b.V - (-a.V - a.Y - 2 * a.X22 + a.X12 + a.X21)) < 1e-12
            assert abs(b.X11 - (a.X11 + a.Y + a.X22 - a.X12 - a.X21)) < 1e-12
            assert abs((b.Y + b.X22)
                       - (5 * (a.Y + a.X22) - 4 * (a.X12 + a.X21))) < 1e-11
            assert abs((b.Y - b.X22) - (a.Y - a.X22)) < 1e-12
            assert abs((b.X12 + b.X21)
                       - (6 * (a.Y + a.X22) - 5 * (a.X12 + a.X21))) < 1e-11
            assert abs((b.X12 - b.X21) - (a.X21 - a.X12)) < 1e-12

    def test_c_commutes_with_t(self, rng):
        h = random_params(rng)
        ct = bf.apply_charge_conjugation(bf.apply_time_reversal(h))
        tc = bf.apply_time_reversal(bf.apply_charge_conjugation(h))
        assert np.allclose(bf.two_site_matrix(ct), bf.two_site_matrix(tc))


class TestGaugeTelescopic:
    def test_gauge_identity(self, rng):
        h = random_params(rng)
        hh = bf.apply_gauge(h, (1, 1, 1))
        assert np.allclose(bf.two_site_matrix(hh), bf.two_site_matrix(h))

    def test_gauge_is_conjugation(self, rng):
        h = random_params(rng)
        g = cdraw(rng, 3)
        G = np.diag(g)
        GG = np.kron(G, G)
        assert np.allclose(bf.two_site_matrix(bf.apply_gauge(h, g)),
                           GG @ bf.two_site_matrix(h) @ np.linalg.inv(GG))

    def test_gauge_group_law(self, rng):
        h = random_params(rng)
        g1, g2 = cdraw(rng, 3), cdraw(rng, 3)
        a = bf.apply_gauge(bf.apply_gauge(h, g1), g2)
        b = bf.apply_gauge(h, g1 * g2)
        assert np.allclose(bf.two_site_matrix(a), bf.two_site_matrix(b))

    def test_singular_gauge(self, rng):
        with pytest.raises(ValueError, match="singular gauge"):
            bf.apply_gauge(random_params(rng), (1, 0, 1))

    def test_telescopic_identity(self, rng):
        h = random_params(rng)
        assert np.array_equal(
            bf.two_site_matrix(bf.apply_telescopic(h, (0, 0, 0))),
            bf.two_site_matrix(h))

    def test_telescopic_chain_bit_identical(self, rng):
        # dyadic draws keep every sum exactly representable, so the
        # periodic cancellation of the boundary terms is literally exact
        from conftest import dyadic, dyadic_params
        for L in (2, 3):
            h = dyadic_params(rng)
            ha = bf.apply_telescopic(h, dyadic(rng, 3))
            assert np.array_equal(bf.chain_matrix(h, L),
                                  bf.chain_matrix(ha, L))

    def test_telescopic_chain_continuous_draws(self, rng):
        h = random_params(rng)
        ha = bf.apply_telescopic(h, cdraw(rng, 3))
        for L in (2, 3):
            a, b = bf.chain_matrix(h, L), bf.chain_matrix(ha, L)
            assert np.max(np.abs(a - b)) < 1e-13 * max(1, np.max(np.abs(a)))

    def test_gauge_spectrum_invariance(self, rng):
        h = random_params(rng)
        hg = bf.apply_gauge(h, cdraw(rng, 3))
        a = np.sort_complex(np.linalg.eigvals(bf.chain_matrix(h, 3)))
        b = np.sort_complex(np.linalg.eigvals(bf.chain_matrix(hg, 3)))
        assert np.max(np.abs(a - b)) < 1e-10 * max(1, np.max(np.abs(a)))


class TestChain:
    def test_l2_is_both_orderings(self, rng):
        h = random_params(rng)
        m2 = bf.two_site_matrix(h)
        expect = kron_embed(m2, 2, 0) + kron_embed(m2, 2, 1)
        assert np.allclose(bf.chain_matrix(h, 2), expect)

    def test_matches_embedding(self, rng):
        h = random_params(rng)
        m2 = bf.two_site_matrix(h)
        L = 4
        expect = sum(kron_embed(m2, L, b) for b in range(L))
        assert np.allclose(bf.chain_matrix(h, L), expect)

    def test_sz_commutation_exact(self, rng):
        from bethe_forge.hamiltonian import sz_matrix
        for L in (2, 3, 4):
            for _ in range(5):
                h = random_params(rng)
                H = bf.chain_matrix(h, L)
                Sz = sz_matrix(L)
                assert np.all(H @ Sz - Sz @ H == 0)

    def test_pseudo_vacuum_eigenvalue(self, rng):
        h = random_params(rng)
        h = bf.with_zero_v00(h)
        L = 3
        H = bf.chain_matrix(h, L)
        e0 = np.zeros(27, complex)
        e0[0] = 1  # |000>
        assert np.max(np.abs(H @ e0)) == 0

    def test_vacuum_eigenvalue_general_v00(self, rng):
        h = random_params(rng)
        L = 3
        H = bf.chain_matrix(h, L)
        e0 = np.zeros(27, complex)
        e0[0] = 1
        assert abs((H @ e0)[0] - L * h.v[0, 0]) < 1e-12
        assert np.max(np.abs((H @ e0)[1:])) == 0

    def test_chain_too_large(self, rng, monkeypatch):
        """One size guard: L >= 2, dim <= SECTOR_DIM_CAP and dim L^2 <=
        WORK_CAP.  The whole chain fits up to L = 9 (3^10 > 20,000); the
        work cap admits M = 3 up to L = 30, M = 2 up to 55 and M = 1 up to
        170.  chain_matrix and sz_matrix, dense over all 3^L states,
        refuse L = 10 before they list the basis."""
        def no_basis(*args):
            raise AssertionError("basis listed past the guard")

        with pytest.raises(ValueError, match="at least 2"):
            bf.check_chain(1, 1)
        for L, M in ((9, None), (30, 3), (55, 2), (170, 1), (41, 2)):
            bf.check_chain(L, M)
        for L, M in ((10, None), (31, 3), (56, 2), (171, 1)):
            with pytest.raises(ValueError, match="chain too large"):
                bf.check_chain(L, M)
        monkeypatch.setattr(np, "ndindex", no_basis)
        h = random_params(rng)
        for build in (lambda: bf.chain_matrix(h, 10),
                      lambda: ham.sz_matrix(10)):
            with pytest.raises(ValueError, match="dimension 59049 at L=10 "):
                build()

    def test_dense_chain_entry_cap(self, rng, monkeypatch):
        """The dense 3^L x 3^L chain and S^z matrices stay within
        ENTRY_CAP up to L = 7; at L = 8 and 9, which pass the dimension
        cap, they are refused before the basis is listed."""
        def no_basis(*args):
            raise AssertionError("basis listed past the guard")

        bf.check_chain(7, dense=True)
        monkeypatch.setattr(np, "ndindex", no_basis)
        h = random_params(rng)
        for L in (8, 9):
            bf.check_chain(L)
            for build in (lambda: bf.chain_matrix(h, L),
                          lambda: ham.sz_matrix(L)):
                with pytest.raises(ValueError, match=f"{9 ** L} array "
                                   f"entries at L={L} exceed cap"):
                    build()

    def test_pct_spectrum_equivalences(self, rng):
        h = random_params(rng)
        L = 3
        ref = np.sort_complex(np.linalg.eigvals(bf.chain_matrix(h, L)))
        scale = max(1.0, float(np.max(np.abs(ref))))
        for op in (bf.apply_parity, bf.apply_charge_conjugation,
                   bf.apply_time_reversal):
            ev = np.sort_complex(np.linalg.eigvals(bf.chain_matrix(op(h), L)))
            assert np.max(np.abs(ev - ref)) < 1e-10 * scale


def _reference_apply_bonds(m2, states, L):
    """The tuple-keyed loop: for each state, bond and output pair of m2's
    input-pair column, add the amplitude at the image state's index."""
    index = {s: i for i, s in enumerate(states)}
    H = np.zeros((len(states), len(states)), complex)
    for s in states:
        j = index[s]
        for bond in range(L):
            nxt = (bond + 1) % L
            c = 3 * s[bond] + s[nxt]
            for r in np.nonzero(m2[:, c])[0]:
                new = list(s)
                new[bond], new[nxt] = r // 3, r % 3
                H[index[tuple(new)], j] += m2[r, c]
    return H


class TestApplyBonds:
    """hamiltonian._apply_bonds builds the same bytes as the dict loop."""

    @pytest.mark.parametrize("path", PRESETS, ids=lambda p: p.stem)
    def test_preset_sectors_and_chains(self, path):
        h = load_input(path)
        m2 = bf.two_site_matrix(h)
        for L in range(2, 10):
            for M in range(4):
                expect = _reference_apply_bonds(m2, bf.sector_basis(L, M), L)
                assert bf.sector_matrix(h, L, M).tobytes() == expect.tobytes()
        for L in range(2, 6):
            expect = _reference_apply_bonds(
                m2, list(np.ndindex(*(3,) * L)), L)
            assert bf.chain_matrix(h, L).tobytes() == expect.tobytes()

    def test_random_and_dyadic_chains(self, rng):
        for h in (random_params(rng), dyadic_params(rng)):
            m2 = bf.two_site_matrix(h)
            for L in (2, 3, 4):
                expect = _reference_apply_bonds(
                    m2, list(np.ndindex(*(3,) * L)), L)
                assert bf.chain_matrix(h, L).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("M", [1, 2])
    def test_long_chain_sectors(self, M):
        # 3^40 does not fit in int64: the state keys must sort at any L
        h = load_input(PRESETS[0])
        basis = bf.sector_basis(41, M)
        expect = _reference_apply_bonds(bf.two_site_matrix(h), basis, 41)
        assert bf.sector_matrix(h, 41, M).tobytes() == expect.tobytes()


def _reference_sector_basis(L, M):
    """The digit-by-digit recursion over occupation prefixes."""
    if not 0 <= M <= 2 * L:
        return []
    out = []

    def rec(prefix, rem, sites_left):
        if sites_left == 0:
            if rem == 0:
                out.append(tuple(prefix))
            return
        for d in range(3):
            if d <= rem and rem - d <= 2 * (sites_left - 1):
                rec(prefix + [d], rem - d, sites_left - 1)

    rec([], M, L)
    return out


class TestSectorBasis:
    def test_matches_recursion(self):
        for L in range(1, 10):
            for M in range(-1, 2 * L + 2):
                assert bf.sector_basis(L, M) == _reference_sector_basis(L, M)
        for M in range(4):
            assert bf.sector_basis(41, M) == _reference_sector_basis(41, M)

    def test_one_table_per_sector(self, rng):
        """verify_sector, sector_matrix and sector_basis of one (L, M) read
        one read-only occupation table, built once."""
        for cache in (ham._sector_occupations, ham._orbit_table,
                      bf.oracle._block_layout, bf.oracle._sub_blocks,
                      bf.bethe._sector_positions):
            cache.cache_clear()
        h, _ = family_instance("gIK", rng)
        L, M = 6, 2
        bf.verify_sector(h, L, M, bf.bethe.BAE_TOL, 1e-8)
        bf.sector_matrix(h, L, M)
        bf.sector_basis(L, M)
        bf.sector_spectrum(h, L, M)
        for cache in (ham._sector_occupations, bf.oracle._block_layout,
                      bf.oracle._sub_blocks):
            info = cache.cache_info()
            assert (info.misses, info.currsize) == (1, 1), cache
        assert not ham._sector_occupations(L, M).flags.writeable
        assert not any(a.flags.writeable
                       for a in bf.oracle._block_layout(L, M))
        assert not any(a.flags.writeable
                       for t in bf.oracle._sub_blocks(L, M, False)
                       for a in t[1:])

    def test_vacuum_sector(self):
        assert bf.sector_basis(4, 0) == [(0, 0, 0, 0)]

    def test_l2_m2(self):
        assert bf.sector_basis(2, 2) == [(0, 2), (1, 1), (2, 0)]

    def test_completeness(self):
        for L in (2, 3, 4):
            assert sum(len(bf.sector_basis(L, M)) for M in range(2 * L + 1)) == 3**L

    def test_lexicographic(self):
        basis = bf.sector_basis(3, 2)
        assert basis == sorted(basis)


class TestWireFormat:
    def test_roundtrip(self, rng):
        h = random_params(rng)
        d = bf.params_to_dict(h)
        h2 = bf.params_from_dict(d)
        assert all(getattr(h, k) == getattr(h2, k) for k in
                   ("p", "q", "t1", "t2", "s1", "s2", "t3", "s3", "tp", "sp"))
        assert np.array_equal(h.v, h2.v)

    def test_real_shorthand(self):
        h = bf.params_from_dict({"p": 2})
        assert h.p == 2
