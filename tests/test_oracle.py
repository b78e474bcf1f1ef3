"""Dense reference spectra and spectrum matching."""

import numpy as np
import pytest

import bethe_forge as bf
from bethe_forge.bethe import BetheSolution

from conftest import cdraw, family_instance, random_params


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


class TestCompare:
    def _sols(self, energies):
        return [BetheSolution((1.0,), e, 0.0) for e in energies]

    def test_identical_lists(self):
        ed = bf.SectorSpectrum(M=1, eigenvalues=np.array([1.0, 2.0, 3.0 + 1j]),
                               dimension=3)
        rep = bf.compare(self._sols([1.0, 2.0, 3.0 + 1j]), ed, tol=1e-10)
        assert rep.matched == 3 and not rep.unmatched
        assert rep.coverage == 1.0

    def test_corrupted_energy_reported(self):
        ed = bf.SectorSpectrum(M=1, eigenvalues=np.array([1.0, 2.0]), dimension=2)
        rep = bf.compare(self._sols([1.0, 5.0]), ed, tol=1e-8)
        assert rep.matched == 1
        assert rep.unmatched == [5.0]

    def test_multiplicity_consumed_once(self):
        ed = bf.SectorSpectrum(M=1, eigenvalues=np.array([1.0, 1.0]), dimension=2)
        rep = bf.compare(self._sols([1.0, 1.0, 1.0]), ed, tol=1e-8)
        assert rep.matched == 2
        assert len(rep.unmatched) == 1

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
