"""Reduced Hamiltonians: the explicit 9x9 golden matrices and the
normalization maps connecting them to the named models (spin-1 XXZ chain,
Izergin-Korepin form, genus-5 branches)."""

import numpy as np
import pytest

import bethe_forge as bf
from bethe_forge.families import J_PLUS
from bethe_forge.reductions import SZ_TWO_SITE, I3

from conftest import cdraw, draw_free

E22P = np.diag([0.0, 1.0, 0.0]).astype(complex)
E33P = np.diag([0.0, 0.0, 1.0]).astype(complex)
D22 = np.kron(I3, E22P) - np.kron(E22P, I3)
D33 = np.kron(I3, E33P) - np.kron(E33P, I3)


def reduce_family(tag, free, branch=None):
    h = bf.construct(tag, free, branch)
    m = bf.classify(h)
    assert m is not None and m.tag == tag and m.frame == ""
    return bf.reduce_hamiltonian(h, m)


def spr_expected(taup, th, tau3):
    delta = tau3**2 - tau3 + 1 + taup**2 * th
    e = np.zeros((9, 9), complex)
    e[1, 3] = taup
    e[2, 2] = delta / 2; e[2, 4] = taup; e[2, 6] = taup**2
    e[3, 1] = taup * th
    e[4, 2] = taup * tau3 * th; e[4, 6] = taup * tau3
    e[5, 5] = delta / 2; e[5, 7] = taup * tau3
    e[6, 2] = th * (tau3**2 - tau3 + 1); e[6, 4] = taup * th; e[6, 6] = delta / 2
    e[7, 5] = taup * tau3 * th; e[7, 7] = delta / 2
    e[8, 8] = delta
    return e


def v17_1a_expected(taup, th, eps):
    c = (1 + th * taup**2) / 2
    e = np.zeros((9, 9), complex)
    e[1, 3] = taup
    e[2, 2] = c; e[2, 4] = taup; e[2, 6] = taup**2
    e[3, 1] = th * taup
    e[5, 5] = c + eps; e[5, 7] = eps * taup
    e[6, 2] = th; e[6, 4] = th * taup; e[6, 6] = c
    e[7, 5] = eps * th * taup; e[7, 7] = c + eps * th * taup**2
    e[8, 8] = (1 + eps) * (1 + th * taup**2)
    return e


def v17_1b_expected(taup, I):
    e = np.zeros((9, 9), complex)
    e[1, 3] = taup
    e[2, 2] = (1 + I) / 2; e[2, 4] = taup; e[2, 6] = taup**2
    e[3, 1] = I / taup
    e[5, 5] = (1 + 3 * I) / 2; e[5, 7] = I * taup
    e[6, 2] = I / taup**2; e[6, 4] = I / taup; e[6, 6] = (1 + I) / 2
    e[7, 5] = 1 / taup; e[7, 7] = (3 + I) / 2
    e[8, 8] = 1 + I
    return e


def v17_2_expected(taup, th):
    c = (1 + th * taup**2) / 2
    e = np.zeros((9, 9), complex)
    e[1, 3] = taup
    e[2, 2] = c; e[2, 4] = taup; e[2, 6] = taup**2
    e[3, 1] = taup * th
    e[4, 4] = 1 + th * taup**2
    e[5, 5] = (3 + th * taup**2) / 2; e[5, 7] = taup
    e[6, 2] = th; e[6, 4] = -1 / taup; e[6, 6] = c
    e[7, 5] = taup * th; e[7, 7] = (1 + 3 * th * taup**2) / 2
    e[8, 8] = 2 * (1 + th * taup**2)
    return e


def v14_1_expected(taup, xi, eps):
    e = np.zeros((9, 9), complex)
    e[1, 3] = taup
    e[2, 2] = 0.5; e[2, 4] = taup; e[2, 6] = taup**2
    e[4, 4] = 1
    e[5, 5] = 1.5; e[5, 7] = eps * taup
    e[6, 4] = -1 / taup; e[6, 6] = 0.5
    e[7, 7] = taup * xi - 1.5
    e[8, 8] = taup * xi
    return e


def v14_2_expected(taup):
    e = np.zeros((9, 9), complex)
    e[1, 3] = taup
    e[2, 2] = 0.5; e[2, 4] = taup; e[2, 6] = taup**2
    e[5, 5] = 0.5; e[5, 7] = -taup
    e[6, 4] = 1 / taup; e[6, 6] = 0.5
    e[7, 7] = -0.5
    return e


def sb5_wtilde_expected(th, ups, J):
    r = np.sqrt(-th)
    c = ups / (4 * J * r)
    e = np.zeros((9, 9), complex)
    e[0, 0] = e[2, 2] = e[6, 6] = e[8, 8] = c
    e[4, 4] = -c
    e[1, 3] = e[2, 4] = 1 / (J * r)
    e[3, 1] = e[6, 4] = -r / J
    e[4, 2] = e[7, 5] = r
    e[4, 6] = e[5, 7] = -J / r
    return e


class TestSectionFiveMatrices:
    """Entrywise golden checks at random reduced-parameter points."""

    def test_spr(self, rng):
        for _ in range(5):
            free = draw_free("SpR", rng)
            hred, red = reduce_family("SpR", free)
            expect = spr_expected(red.tau_p, red.theta, red.tau_3)
            assert np.max(np.abs(hred - expect)) < 1e-10

    @pytest.mark.parametrize("eps", [1, -1])
    def test_17v1a(self, eps, rng):
        for _ in range(5):
            free = draw_free("17V1a", rng)
            hred, red = reduce_family("17V1a", free, {"eps": eps})
            expect = v17_1a_expected(red.tau_p, red.theta, eps)
            assert np.max(np.abs(hred - expect)) < 1e-10

    @pytest.mark.parametrize("I", [1j, -1j])
    def test_17v1b(self, I, rng):
        for _ in range(5):
            free = draw_free("17V1b", rng)
            hred, red = reduce_family("17V1b", free, {"I": I})
            expect = v17_1b_expected(red.tau_p, I)
            assert np.max(np.abs(hred - expect)) < 1e-10

    def test_17v2(self, rng):
        for _ in range(5):
            free = draw_free("17V2", rng)
            hred, red = reduce_family("17V2", free)
            expect = v17_2_expected(red.tau_p, red.theta)
            assert np.max(np.abs(hred - expect)) < 1e-10

    @pytest.mark.parametrize("eps", [1, -1])
    def test_14v1(self, eps, rng):
        for _ in range(5):
            free = draw_free("14V1", rng)
            hred, red = reduce_family("14V1", free, {"eps": eps})
            expect = v14_1_expected(red.tau_p, red.extra["xi"], eps)
            assert np.max(np.abs(hred - expect)) < 1e-10

    def test_14v2(self, rng):
        for _ in range(5):
            free = draw_free("14V2", rng)
            hred, red = reduce_family("14V2", free)
            assert np.max(np.abs(hred - v14_2_expected(red.tau_p))) < 1e-10

    def test_sb5_wtilde(self, rng):
        for _ in range(5):
            free = draw_free("SB5", rng)
            hred, red = reduce_family("SB5", free, {"J": J_PLUS})
            th, ups = red.theta, red.upsilon
            W = (ups / (4 * J_PLUS * np.sqrt(-th))) * (
                4 * hred - SZ_TWO_SITE + np.eye(9))
            expect = sb5_wtilde_expected(th, ups, J_PLUS)
            assert np.max(np.abs(W - expect)) < 1e-10


class TestZamolodchikovFateev:
    def test_htilde19(self, rng):
        """gZF reduction at tau_p = -1 plus the rescaling/shift map lands on
        the spin-1 XXZ matrix parametrized by k."""
        for k in (1.7, 2.0, 3.2):
            p = cdraw(rng)
            tp = -p          # tau_p = -1
            sigma = ((k**2 + 1) / k)**2
            t2 = cdraw(rng)
            s1 = sigma * p**2 / t2
            hred, red = reduce_family("gZF", dict(p=p, tp=tp, t2=t2, s1=s1))
            taup = -1.0
            W = ((-2 * k**2 / (k**4 - 1)) * hred
                 - (k**4 + 1) / (k**4 - 1) * SZ_TWO_SITE)
            ht = np.zeros((9, 9), complex)
            c1 = (k**4 + 1) / (1 - k**4)
            ht[1, 1] = ht[3, 3] = ht[5, 5] = ht[7, 7] = c1
            ht[1, 3] = ht[5, 7] = 2 * taup * k**2 / (1 - k**4)
            ht[2, 2] = ht[6, 6] = (2 * k**4 + 2 * k**2 + 2) / (1 - k**4)
            ht[2, 4] = ht[4, 2] = 2 * k / (1 - k**2)
            ht[2, 6] = 2 * taup**2 * k**2 / (1 - k**4)
            ht[3, 1] = ht[7, 5] = 2 * k**2 / ((1 - k**4) * taup)
            ht[4, 4] = (2 * k**4 + 2) / (1 - k**4)
            ht[4, 6] = 2 * k * taup**2 / (1 - k**2)
            ht[6, 2] = 2 * k**2 / ((1 - k**4) * taup**2)
            ht[6, 4] = 2 * k / (taup**2 * (1 - k**2))
            assert np.max(np.abs(W - ht)) < 1e-10


class TestIzerginKorepinMap:
    def test_wtilde(self):
        """gIK reduction plus the sz/projector shifts reproduces the printed
        k-parametrized matrix (the Izergin-Korepin-related form)."""
        for k in (1.6, 2.4):
            K2 = k**2 - k + 1
            v = k / K2
            u_minus = -K2**2
            u_plus = -K2**2 / k**4
            lo = min(u_minus, u_plus)
            branch = {"u": 0} if abs(lo - u_plus) < 1e-12 else {"u": 1}
            p, tp, t2 = 1.3, 0.8, 0.9
            hred, red = reduce_family("gIK", dict(p=p, tp=tp, t2=t2, v=v), branch)
            assert abs(red.extra["u_t1"] - u_plus) < 1e-9
            tpp = (tp / p) / v
            pref = 1.0 / ((k**2 - 1) * K2)
            W = pref * (-(K2**2) * hred
                        + 0.5 * (k**2 + 1) * K2 * SZ_TWO_SITE
                        + 0.5 * (k**2 - 1) * K2 * D22
                        + 0.5 * (k - 1)**3 * (k + 1) * D33)
            sk = np.sqrt(k)
            e = np.zeros((9, 9), complex)
            e[1, 1] = e[5, 5] = k**2 / (k**2 - 1)
            e[1, 3] = e[5, 7] = -k * tpp / (k**2 - 1)
            e[2, 2] = (k**3 - k**2 + 1) * k / ((k**3 + 1) * (k - 1))
            e[2, 4] = -tpp * sk / (k**3 + 1)
            e[2, 6] = -k**2 * tpp**2 / ((k**3 + 1) * (k - 1))
            e[3, 1] = e[7, 5] = -k / ((k**2 - 1) * tpp)
            e[3, 3] = e[7, 7] = 1 / (k**2 - 1)
            e[4, 2] = -sk / (tpp * (k**3 + 1))
            e[4, 4] = (k**3 - k**2 + k - 1) / (k**3 + 1)
            e[4, 6] = k**2.5 * tpp / (k**3 + 1)
            e[6, 2] = -k**2 / (tpp**2 * (k**3 + 1) * (k - 1))
            e[6, 4] = k**2.5 / (tpp * (k**3 + 1))
            e[6, 6] = (k**3 - k + 1) / ((k**3 + 1) * (k - 1))
            assert np.max(np.abs(W - e)) < 1e-10

    @pytest.mark.parametrize("branch", [0, 1])
    def test_u_read_off_the_member_at_a_double_root(self, branch):
        """At v = -1/3 both roots of the u-quadratic are u = -9.  A member
        built from exactly those u reduces with them to 1e-12; recomputed
        from the v read back they were about 1e-7 off."""
        free = dict(p=0.9 + 0.2j, tp=1.1 - 0.3j, t2=0.8 + 0.1j, v=-1 / 3)
        h = bf.FAMILIES["gIK"].build(free, {"u": branch}, (-9.0, -9.0))
        m = bf.classify(h)
        assert m is not None and m.tag == "gIK" and m.frame == ""
        _, red = bf.reduce_hamiltonian(h, m)
        assert abs(red.extra["u_t1"] + 9) <= 1e-12 * 9
        assert abs(red.extra["u_s2"] + 9) <= 1e-12 * 9


class TestMainBranchGenus5Map:
    def test_wtilde(self, rng):
        """gB reduction plus the delta-shift map lands on the main-branch
        genus-5 matrix."""
        J = J_PLUS
        for _ in range(3):
            free = draw_free("gB", rng)
            hred, red = reduce_family("gB", free, {"J": J})
            taup, th, mu = red.tau_p, red.theta, red.mu
            smu = np.sqrt(mu)
            delta = (mu**2 + J * th * mu + J**2 * th**2) / (4 * J**2 * taup**2 * mu**3)
            W = (-(J / (taup * smu)) * hred + delta * (SZ_TWO_SITE - np.eye(9))
                 + 0.5 * (J - 1 / J) * D33)
            e = np.zeros((9, 9), complex)
            e[0, 0] = e[8, 8] = -delta
            e[1, 3] = e[2, 4] = -J / (taup * mu)
            e[2, 2] = -delta - J**2
            e[2, 6] = -J / mu
            e[3, 1] = -J * th / (taup * mu)
            e[4, 2] = (th - J * taup**2 * mu**2) / (taup * mu)
            e[4, 4] = delta - 1
            e[4, 6] = (th - J * taup**2 * mu**2) / (J * taup * mu**2)
            e[5, 7] = J**2 * th / (taup * mu**2)
            e[6, 2] = -J**2 * mu
            e[6, 4] = -J / taup
            e[6, 6] = -delta - J
            e[7, 5] = 1 / taup
            assert np.max(np.abs(W - e)) < 1e-10


class TestPhysicalDataInvariance:
    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_equal_reduced_equal_hred(self, tag, rng):
        """Two draws sharing all reduced parameters give the same reduced
        matrix entrywise (the leftover free direction is the overall scale)."""
        fam = bf.FAMILIES[tag]
        branch = fam.branches[0]
        free1 = draw_free(tag, rng)
        lam = cdraw(rng)
        free2 = {}
        for name, val in free1.items():
            # v is a dimensionless reduced quantity; everything else scales
            free2[name] = val if name == "v" else lam * val
        h1, _ = reduce_family(tag, free1, dict(branch))
        h2, red2 = reduce_family(tag, free2, dict(branch))
        scale = max(1.0, float(np.max(np.abs(h1))))
        assert np.max(np.abs(h1 - h2)) < 1e-10 * scale
        red1 = fam.reduced(free1, branch)
        for k, val in red1.as_dict().items():
            assert abs(val - getattr(red2, k)) < 1e-10 * max(1, abs(val))

    def test_reduction_canonicalizes_telescoping(self, rng):
        h = bf.construct("17V2", draw_free("17V2", rng))
        hx = bf.apply_telescopic(h, cdraw(rng, 3))
        m1 = bf.classify(h)
        m2 = bf.classify(hx)
        r1, _ = bf.reduce_hamiltonian(h, m1)
        r2, _ = bf.reduce_hamiltonian(hx, m2)
        assert np.max(np.abs(r1 - r2)) < 1e-10 * max(1, np.max(np.abs(r1)))

    def test_reduction_in_nonidentity_frame(self, rng):
        # a charge-conjugated input classifies with frame C and reduces to
        # the same matrix as the original
        h = bf.construct("17V1b", draw_free("17V1b", rng), {"I": 1j})
        m = bf.classify(h)
        r1, _ = bf.reduce_hamiltonian(h, m)
        hc = bf.apply_charge_conjugation(h)
        mc = bf.classify(hc)
        assert "C" in mc.frame
        r2, _ = bf.reduce_hamiltonian(hc, mc)
        assert np.max(np.abs(r1 - r2)) < 1e-10 * max(1, np.max(np.abs(r1)))

    def test_reduction_absorbs_gauge(self, rng):
        h = bf.construct("gZF", draw_free("gZF", rng))
        hx = bf.apply_gauge(h, cdraw(rng, 3))
        m1 = bf.classify(h)
        m2 = bf.classify(hx)
        r1, _ = bf.reduce_hamiltonian(h, m1)
        r2, _ = bf.reduce_hamiltonian(hx, m2)
        assert np.max(np.abs(r1 - r2)) < 1e-10 * max(1, np.max(np.abs(r1)))
