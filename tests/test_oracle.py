"""Dense reference spectra and spectrum matching."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bethe_forge as bf
from bethe_forge.bethe import BetheSolution

from conftest import (annulus, cdraw, family_instance, match_multiset,
                      random_params)


class TestSectorMatrix:
    def test_chain_length_guard(self, rng):
        h = random_params(rng)
        for L in (1, bf.max_chain_length() + 1):
            with pytest.raises(ValueError, match="chain"):
                bf.sector_matrix(h, L, 1)

    def test_vacuum_sector(self, rng):
        h = bf.with_zero_v00(random_params(rng))
        m = bf.sector_matrix(h, 4, 0)
        assert m.shape == (1, 1) and m[0, 0] == 0

    def test_m1_structure(self, rng):
        """The one-excitation block: diagonal v-sums plus p/q hopping."""
        h = random_params(rng)
        L = 4
        m = bf.sector_matrix(h, L, 1)
        basis = bf.sector_basis(L, 1)
        assert m.shape == (L, L)
        pos = [s.index(1) for s in basis]
        for i, si in enumerate(basis):
            diag = sum(h.v[si[b], si[(b + 1) % L]] for b in range(L))
            assert abs(m[i, i] - diag) < 1e-12
            for j, sj in enumerate(basis):
                if i == j:
                    continue
                d = (pos[i] - pos[j]) % L
                if d == 1:
                    assert m[i, j] == h.p      # excitation hops right
                elif d == L - 1:
                    assert m[i, j] == h.q      # excitation hops left
                else:
                    assert m[i, j] == 0

    def test_block_sum_dimensions(self, rng):
        h = random_params(rng)
        L = 3
        assert sum(bf.sector_matrix(h, L, M).shape[0]
                   for M in range(2 * L + 1)) == 3**L

    def test_restriction_of_full_chain(self, rng):
        h = random_params(rng)
        L = 3
        H = bf.chain_matrix(h, L)
        states = list(np.ndindex(3, 3, 3))
        for M in (1, 2, 3):
            idx = [i for i, s in enumerate(states) if sum(s) == M]
            assert np.array_equal(bf.sector_matrix(h, L, M),
                                  H[np.ix_(idx, idx)])


class TestSectorSpectrum:
    def test_vacuum(self, rng):
        h = bf.with_zero_v00(random_params(rng))
        spec = bf.sector_spectrum(h, 4, 0)
        assert spec.dimension == 1 and abs(spec.eigenvalues[0]) == 0

    def test_gzf_m1_matches_bethe_energies(self, rng):
        h, _ = family_instance("gZF", rng)
        L = 3
        spec = bf.sector_spectrum(h, L, 1)
        expect = [bf.energy(h, [np.exp(2j * np.pi * n / L)]) for n in range(L)]
        got = np.sort_complex(spec.eigenvalues)
        want = np.sort_complex(np.array(expect))
        assert np.max(np.abs(got - want)) < 1e-10 * max(1, np.max(np.abs(want)))

    def test_block_structure(self, rng):
        for _ in range(3):
            h = random_params(rng)
            L = 3
            full = np.linalg.eigvals(bf.chain_matrix(h, L))
            blocks = np.concatenate([
                bf.sector_spectrum(h, L, M).eigenvalues
                for M in range(2 * L + 1)])
            a = np.sort_complex(full)
            b = np.sort_complex(blocks)
            assert np.max(np.abs(a - b)) < 1e-9 * max(1, np.max(np.abs(a)))

    def test_similarity_sanity(self, rng):
        h = random_params(rng)
        L, M = 4, 2
        ref = np.sort_complex(bf.sector_spectrum(h, L, M).eigenvalues)
        scale = max(1.0, float(np.max(np.abs(ref))))
        for hx in (bf.apply_gauge(h, cdraw(rng, 3)),
                   bf.apply_telescopic(h, cdraw(rng, 3))):
            ev = np.sort_complex(bf.sector_spectrum(hx, L, M).eigenvalues)
            assert np.max(np.abs(ev - ref)) < 1e-9 * scale


    def test_dimension_cap_checked_before_the_matrix(self, rng, monkeypatch):
        def build(*args):
            raise AssertionError("sector matrix built past the cap")
        monkeypatch.setattr(bf.oracle, "SECTOR_DIM_CAP", 10)
        monkeypatch.setattr(bf.oracle, "sector_matrix", build)
        with pytest.raises(ValueError, match="dimension 16 exceeds cap"):
            bf.sector_spectrum(random_params(rng), 4, 3)


class TestCompare:
    def _sols(self, energies):
        return [BetheSolution((1.0,), e, 0.0) for e in energies]

    def test_identical_lists(self):
        ed = bf.SectorSpectrum(M=1, eigenvalues=np.array([1.0, 2.0, 3.0 + 1j]),
                               dimension=3, momenta=np.zeros(3, int), L=3)
        rep = bf.compare(self._sols([1.0, 2.0, 3.0 + 1j]), ed, tol=1e-10)
        assert rep.matched == 3 and not rep.unmatched
        assert rep.coverage == 1.0

    def test_corrupted_energy_reported(self):
        ed = bf.SectorSpectrum(M=1, eigenvalues=np.array([1.0, 2.0]), dimension=2,
                               momenta=np.zeros(2, int), L=2)
        rep = bf.compare(self._sols([1.0, 5.0]), ed, tol=1e-8)
        assert rep.matched == 1
        assert rep.unmatched == [5.0]

    def test_multiplicity_consumed_once(self):
        ed = bf.SectorSpectrum(M=1, eigenvalues=np.array([1.0, 1.0]), dimension=2,
                               momenta=np.zeros(2, int), L=2)
        rep = bf.compare(self._sols([1.0, 1.0, 1.0]), ed, tol=1e-8)
        assert rep.matched == 2
        assert len(rep.unmatched) == 1

    def test_energy_in_other_block_unmatched(self):
        """An energy present only in another block does not match; the
        block's own eigenvalue stays uncovered."""
        ed = bf.SectorSpectrum(M=1, eigenvalues=np.array([1.0, 2.0]), dimension=2,
                               momenta=np.array([0, 1]), L=2)
        rep = bf.compare(self._sols([2.0]), ed, tol=1e-8)
        assert rep.matched == 0
        assert rep.unmatched == [2.0]
        assert rep.uncovered == [1, 1]

    def test_m1_full_coverage(self, rng):
        h, _ = family_instance("SpR", rng)
        L = 4
        sols = bf.solve_bae(h, L, 1)
        spec = bf.sector_spectrum(h, L, 1)
        scale = float(np.max(np.abs(bf.sector_matrix(h, L, 1))))
        rep = bf.compare(sols, spec, tol=1e-10, scale=scale)
        assert rep.matched == L and rep.coverage == 1.0

    def test_cba_subset_of_ed(self, rng):
        for tag in ("gIK", "17V2"):
            h, _ = family_instance(tag, rng)
            L = 4
            spec = bf.sector_spectrum(h, L, 2)
            Hs = bf.sector_matrix(h, L, 2)
            scale = max(1.0, float(np.max(np.abs(Hs))))
            accepted = []
            for s in bf.solve_bae(h, L, 2):
                psi = bf.assemble_eigenvector(h, s.z, L)
                if psi.is_null:
                    continue
                if bf.verify_eigenpair(Hs, psi.to_vector(L), s.energy) <= 1e-8:
                    accepted.append(s)
            rep = bf.compare(accepted, spec, tol=1e-8, scale=scale)
            assert rep.matched == len(accepted)
            assert not rep.unmatched


class TestVerifySector:
    def test_vacuum(self, rng):
        """M = 0 runs the same path: one empty root set, verified and
        matched to the one zero eigenvalue."""
        h = bf.with_zero_v00(random_params(rng))
        rep = bf.verify_sector(h, 5, 0, bf.SolverConfig(), 1e-8)
        assert [s.z for s in rep.solutions] == [()]
        assert [(c.momentum, c.outcome, c.eig_residual) for c in rep.checks] \
            == [(0, "verified", 0.0)]
        assert (rep.dimension, rep.matched, rep.coverage) == (1, 1, 1.0)
        assert rep.uncovered == [0] * 5
        assert rep.passed and rep.max_eig_residual == 0.0

    @pytest.mark.parametrize("tag", ["gIK", "17V2", "14V2"])
    def test_counts_follow_the_checks(self, tag, rng):
        """The report's counts are those of its RootChecks, and the verified
        root sets are exactly what compare matched."""
        h, _ = family_instance(tag, rng)
        L, M, tol = 5, 2, 1e-8
        cfg = bf.SolverConfig(random_seeds=20)
        rep = bf.verify_sector(h, L, M, cfg, tol)
        assert len(rep.checks) == len(rep.solutions) > 0
        outcomes = [c.outcome for c in rep.checks]
        assert rep.count("verified") == outcomes.count("verified")
        verified = [s for s, o in zip(rep.solutions, outcomes)
                    if o == "verified"]
        spec = bf.sector_spectrum(h, L, M)
        ref = bf.compare(verified, spec, tol=tol,
                         scale=float(np.max(np.abs(spec.matrix))))
        assert (rep.matched, rep.unmatched, rep.uncovered) \
            == (ref.matched, ref.unmatched, ref.uncovered)
        assert rep.max_eig_residual == max(
            [0.0] + [c.eig_residual for c in rep.checks
                     if c.eig_residual is not None])
        assert rep.passed == ("unverified" not in outcomes
                              and not rep.unmatched)


def _momentum_basis(L, M, m):
    """Columns sum_{d < p} e^{-2 pi i m d / L} T^d |r> / sqrt(p), T the left
    shift s -> s[1:] + s[:1], over the orbits whose period p has
    m p = 0 mod L; r is an orbit's first state in sector_basis order.  Built
    state by state from the definition."""
    basis = bf.sector_basis(L, M)
    index = {s: i for i, s in enumerate(basis)}
    seen, cols = set(), []
    for s in basis:
        if s in seen:
            continue
        orbit, t = [s], s[1:] + s[:1]
        while t != s:
            orbit.append(t)
            t = t[1:] + t[:1]
        seen.update(orbit)
        p = len(orbit)
        if m * p % L:
            continue
        col = np.zeros(len(basis), complex)
        for d, t in enumerate(orbit):
            col[index[t]] = np.exp(-2j * np.pi * m * d / L) / np.sqrt(p)
        cols.append(col)
    return np.array(cols, complex).reshape(-1, len(basis)).T


def _same_multiset(a, b, tol):
    matched, _ = match_multiset(list(a), b, tol)
    return len(a) == len(b) == matched


def _block_spectra(h, L, M):
    spec = bf.sector_spectrum(h, L, M)
    return [spec.eigenvalues[spec.momenta == m] for m in range(L)]


class TestTranslationBlocks:
    def test_block_matrices_from_definition(self, rng):
        """Each block matrix is F_m^dagger H F_m, F_m built from the
        definition, including orbits shorter than L."""
        h = random_params(rng)
        for L in (3, 4, 5, 6):
            for M in (1, 2, 3):
                H = bf.sector_matrix(h, L, M)
                blocks = list(bf.oracle._block_matrices(H, L, M))
                assert [m for m, _, _ in blocks] == list(range(L))
                for m, idx, block in blocks:
                    F = _momentum_basis(L, M, m)
                    assert len(idx) == F.shape[1]
                    assert np.allclose(block, F.conj().T @ H @ F,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_bethe_vectors_in_their_block(self, tag, rng):
        """Every verified Bethe vector lies in the block of its momentum and
        its energy matches an eigenvalue of that block."""
        h, _ = family_instance(tag, rng)
        cfg = bf.SolverConfig(random_seeds=20)
        count = {}
        for L in (5, 6):
            for M in (1, 2, 3):
                spec = bf.sector_spectrum(h, L, M)
                H = spec.matrix
                scale = max(1.0, float(np.max(np.abs(H))))
                verified = []
                for s in bf.solve_bae(h, L, M, cfg):
                    if s.degenerate_flag:
                        continue
                    psi = bf.assemble_eigenvector(h, s.z, L)
                    if psi.is_null:
                        continue
                    vec = psi.to_vector(L)
                    if bf.verify_eigenpair(H, vec, s.energy) > 1e-8:
                        continue
                    F = _momentum_basis(L, M, bf.momentum(s.z, L))
                    off = vec - F @ (F.conj().T @ vec)
                    assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(vec)
                    verified.append(s)
                count[M] = count.get(M, 0) + len(verified)
                rep = bf.compare(verified, spec, tol=1e-8, scale=scale)
                assert not rep.unmatched, (tag, L, M)
        assert all(count.values())

    def test_union_is_sector_spectrum(self, rng, monkeypatch):
        """The block spectra together are the whole-sector spectrum."""
        cases = [(family_instance(tag, rng)[0], L, M)
                 for tag in bf.FAMILY_ORDER
                 for L in range(3, 10) for M in (1, 2, 3)]
        monkeypatch.setenv("BETHE_FORGE_LMAX", "12")
        cases.append((family_instance("17V1a", rng)[0], 12, 3))
        for h, L, M in cases:
            spec = bf.sector_spectrum(h, L, M)
            whole = np.linalg.eigvals(spec.matrix)
            scale = max(1.0, float(np.max(np.abs(spec.matrix))))
            assert _same_multiset(spec.eigenvalues, whole, 1e-9 * scale), (L, M)


@st.composite
def _params(draw):
    kw = {k: draw(annulus()) for k in bf.hamiltonian.OFFDIAG_KEYS}
    v = np.array([draw(annulus()) for _ in range(9)]).reshape(3, 3)
    return bf.HamiltonianParams(v=v, **kw)


_SECTORS = st.tuples(st.integers(3, 7), st.integers(1, 3))
_BLOCK_TOL = 1e-7


class TestBlockInvariances:
    @settings(max_examples=25, deadline=None)
    @given(_params(), _SECTORS, st.lists(annulus(), min_size=3, max_size=3),
           st.lists(annulus(), min_size=3, max_size=3))
    def test_gauge_and_telescoping_keep_each_block(self, h, sector, g, a):
        L, M = sector
        ref = _block_spectra(h, L, M)
        scale = max(1.0, max(float(np.max(np.abs(e))) for e in ref if e.size))
        for hx in (bf.apply_gauge(h, g), bf.apply_telescopic(h, a)):
            for m, ev in enumerate(_block_spectra(hx, L, M)):
                assert _same_multiset(ev, ref[m], _BLOCK_TOL * scale), m

    @settings(max_examples=25, deadline=None)
    @given(_params(), _SECTORS)
    def test_parity_reverses_momentum(self, h, sector):
        """Site reversal conjugates the shift, so block m of the mirrored
        chain is block -m of the original."""
        L, M = sector
        ref = _block_spectra(h, L, M)
        scale = max(1.0, max(float(np.max(np.abs(e))) for e in ref if e.size))
        for m, ev in enumerate(_block_spectra(bf.apply_parity(h), L, M)):
            assert _same_multiset(ev, ref[-m % L], _BLOCK_TOL * scale), m

    @settings(max_examples=25, deadline=None)
    @given(_params(), st.tuples(st.integers(3, 5), st.integers(0, 3)))
    def test_charge_conjugation_maps_m_to_2l_minus_m(self, h, sector):
        """Relabelling 0 <-> 2 on every site commutes with the shift and maps
        S^z = M onto S^z = 2L - M, so each block keeps its spectrum."""
        L, M = sector
        ref = _block_spectra(h, L, 2 * L - M)
        scale = max(1.0, max(float(np.max(np.abs(e))) for e in ref if e.size))
        conj = _block_spectra(bf.apply_charge_conjugation(h), L, M)
        for m, ev in enumerate(conj):
            assert _same_multiset(ev, ref[m], _BLOCK_TOL * scale), m
