"""Family constructors, closed-form scattering data, and the classifier."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bethe_forge as bf
from bethe_forge.families import J_PLUS, J_MINUS, DegenerateFamilyPoint
from bethe_forge.hamiltonian import FRAME_WORDS

from conftest import annulus, cdraw, draw_free, random_params

# slots each family's build needs nonzero, where not (p, tp)
_NONZERO_SLOTS = {"gB": ("t1", "t2", "tp"), "SpR": ("p", "tp", "t2"),
                  "SB5": ("p", "t2")}


class TestConstructors:
    def test_bariev_point(self):
        """The Bariev specialization of the gB family."""
        tp = 2.0
        root = np.sqrt(tp**2 - 1)
        h = bf.construct("gB", dict(p=1, q=1, t1=-J_PLUS**2 * root,
                                    t2=J_PLUS * root, tp=tp), {"J": J_PLUS})
        inv = bf.invariants(h)
        assert abs(h.t3 - 1) < 1e-12 and abs(h.s3 - 1) < 1e-12
        assert abs(h.sp - tp) < 1e-12
        assert abs(inv.X11 + tp) < 1e-12
        assert abs(inv.Y - (tp + 1 / tp)) < 1e-12
        assert abs(inv.X12 - (-J_PLUS * tp + 1 / tp)) < 1e-12
        assert abs(inv.X21 - (-J_PLUS**2 * tp + 1 / tp)) < 1e-12
        assert abs(inv.X22 - 1 / tp) < 1e-12

    def test_14v2_second_vacuum_conditions(self, rng):
        free = draw_free("14V2", rng)
        h = bf.construct("14V2", free)
        inv = bf.invariants(h)
        assert abs(h.t3 + free["p"]) < 1e-12
        assert abs(inv.X21) < 1e-12 and abs(inv.X22) < 1e-12

    def test_all_families_solvable(self, rng):
        for tag in bf.FAMILY_ORDER:
            for branch in bf.FAMILIES[tag].branches:
                h = bf.construct(tag, draw_free(tag, rng), branch)
                assert bf.is_cba_solvable(h, n_samples=8, seed=3).solvable, tag

    def test_degenerate_point_raises(self):
        with pytest.raises(DegenerateFamilyPoint):
            bf.construct("gZF", dict(p=1, tp=0, t2=1, s1=1))

    def test_optional_v(self, rng):
        free = draw_free("SpR", rng)
        h0 = bf.construct("SpR", free)
        h1 = bf.construct("SpR", {**free, "V": 2.5})
        assert abs(bf.invariants(h0).V) < 1e-12
        assert abs(bf.invariants(h1).V - 2.5) < 1e-12
        # V does not affect solvability or classification
        assert bf.is_cba_solvable(h1, n_samples=8).solvable
        assert bf.classify(h1, check_solvable=False).tag == "SpR"

    def test_half_constrained_solvable_but_unclassified(self, rng):
        cases = {
            "17V1a": dict(p=cdraw(rng), q=cdraw(rng), tp=cdraw(rng),
                          t2=cdraw(rng), t3=cdraw(rng), s3=cdraw(rng),
                          X22=cdraw(rng)),
            "17V2": dict(p=cdraw(rng), q=cdraw(rng), tp=cdraw(rng),
                         t2=cdraw(rng), t3=cdraw(rng), s3=cdraw(rng)),
            "14V1": dict(p=cdraw(rng), tp=cdraw(rng), t2=cdraw(rng),
                         t3=cdraw(rng), X21=cdraw(rng), X22=cdraw(rng)),
            "14V2": dict(p=cdraw(rng), tp=cdraw(rng), t1=cdraw(rng),
                         t2=cdraw(rng)),
        }
        for tag, free in cases.items():
            h = bf.construct(tag, free, half_constrained=True)
            assert bf.is_cba_solvable(h, seed=2).solvable, tag
            assert bf.classify(h, check_solvable=False) is None, tag


class TestReducedParameters:
    def test_unit_p(self, rng):
        h = random_params(rng).replace(p=1)
        red = bf.reduced_parameters(h)
        assert red.tau_p == h.tp and red.tau_2 == h.t2 and red.theta == h.q

    def test_p_zero_raises(self, rng):
        h = random_params(rng).replace(p=0)
        with pytest.raises(ValueError, match="P/C/T"):
            bf.reduced_parameters(h)

    def test_mu_unset_when_t2_zero(self, rng):
        h = random_params(rng).replace(t2=0)
        assert bf.reduced_parameters(h).mu is None

    def test_gzf_sigma_drives_s_matrix(self, rng):
        free = draw_free("gZF", rng)
        h = bf.construct("gZF", free)
        red_generic = bf.reduced_parameters(h)
        red_family = bf.family_reduced("gZF", free)
        assert abs(red_generic.sigma - red_family.sigma) < 1e-12
        z1, z2 = cdraw(rng), cdraw(rng)
        assert abs(bf.family_s_matrix("gZF", red_family, z1, z2)
                   - bf.s_matrix(h, z1, z2)) < 1e-10

    def test_gzf_s1_zero_flags_reduction(self, rng):
        free = {**draw_free("gZF", rng), "s1": 0}
        h = bf.construct("gZF", free)  # raw Hamiltonian is fine
        assert bf.reduced_parameters(h).sigma == 0
        m = bf.classify(h, check_solvable=False)
        assert m is not None and m.tag == "gZF"
        with pytest.raises(DegenerateFamilyPoint, match="s1 = 0"):
            bf.reduce_hamiltonian(h, m)


class TestClosedForms:
    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_agreement_with_generic(self, tag, rng):
        fam = bf.FAMILIES[tag]
        for branch in fam.branches:
            free = draw_free(tag, rng)
            h = bf.construct(tag, free, branch)
            red = bf.family_reduced(tag, free, branch)
            for _ in range(20):
                z1, z2 = cdraw(rng), cdraw(rng)
                s, n = bf.s_matrix(h, z1, z2), bf.n_factor(h, z1, z2)
                sc = bf.family_s_matrix(tag, red, z1, z2)
                nc = bf.family_n_factor(tag, red, z1, z2)
                assert abs(s - sc) <= 1e-10 * abs(sc)
                assert abs(n - nc) <= 1e-10 * max(1e-12, abs(nc))

    def test_equal_momenta(self, rng):
        for tag in bf.FAMILY_ORDER:
            free = draw_free(tag, rng)
            red = bf.family_reduced(tag, free)
            z = cdraw(rng)
            assert abs(bf.family_s_matrix(tag, red, z, z) + 1) < 1e-12
            assert abs(bf.family_n_factor(tag, red, z, z)) < 1e-12

    def test_gb_simplified_branch(self, rng):
        """At theta = J mu^2 tau_p^2 the gB scattering data collapses to a
        single-pole form."""
        p, t1, t2, tp = (cdraw(rng) for _ in range(4))
        J = J_PLUS
        q = J * t1**2 * tp**2 / (p * t2**2)
        free = dict(p=p, q=q, t1=t1, t2=t2, tp=tp)
        h = bf.construct("gB", free, {"J": J})
        taup, mu, tau2 = tp / p, t1 / t2, t2 / p
        for _ in range(10):
            z1, z2 = cdraw(rng), cdraw(rng)
            s_simple = -((J * mu**2 * taup**2 * z1 * z2 - J**2 * mu * taup * z2 + 1)
                         / (J * mu**2 * taup**2 * z1 * z2 - J**2 * mu * taup * z1 + 1))
            n_simple = (tau2 * taup * (z1 - z2) * (1 + mu * z1 * z2)
                        / (2 * (z1 - taup) * (z2 - taup)
                           * (J * mu**2 * taup**2 * z1 * z2
                              - J**2 * mu * taup * z1 + 1)))
            assert abs(bf.s_matrix(h, z1, z2) - s_simple) < 1e-10 * abs(s_simple)
            assert abs(bf.n_factor(h, z1, z2) - n_simple) < 1e-10 * abs(n_simple)

    def test_17v1_decay_coefficient(self, rng):
        free = draw_free("17V1a", rng)
        h = bf.construct("17V1a", free, {"eps": -1})
        taup, tau2 = free["tp"] / free["p"], free["t2"] / free["p"]
        z1, z2 = cdraw(rng), cdraw(rng)
        expect = tau2 * taup * (z1 - z2) / (2 * (z1 - taup) * (z2 - taup))
        assert abs(bf.n_factor(h, z1, z2) - expect) < 1e-10 * abs(expect)


class TestClassifier:
    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_round_trip(self, tag, rng):
        fam = bf.FAMILIES[tag]
        for branch in fam.branches:
            for _ in range(5):
                h = bf.construct(tag, draw_free(tag, rng), branch)
                m = bf.classify(h, check_solvable=False)
                assert m is not None and m.tag == tag
                assert m.frame == ""
                assert m.fit_residual <= 1e-9
                for k, val in branch.items():
                    assert abs(complex(m.branch[k]) - complex(val)) < 1e-12

    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_read_free_anchors(self, tag, rng):
        """read_free returns the free values in free_names order, read off
        their slots or the invariants; where a slot the family needs nonzero
        is 0, build refuses what read_free returns (gIK's read_free refuses
        it itself, as it divides by p)."""
        fam = bf.FAMILIES[tag]
        branch = fam.branches[0]
        free = draw_free(tag, rng)
        h = bf.construct(tag, free, branch)
        got = fam.read_free(h, bf.invariants(h), branch)
        assert list(got) == list(fam.free_names)
        for name in fam.free_names:
            assert abs(got[name] - free[name]) <= 1e-12 * max(1, abs(free[name]))
        for a in _NONZERO_SLOTS.get(tag, ("p", "tp")):
            h0 = h.replace(**{a: 0})
            got0 = fam.read_free(h0, bf.invariants(h0), branch)
            if tag == "gIK":
                assert got0 is None
                continue
            with pytest.raises(DegenerateFamilyPoint):
                fam.build(got0, branch)

    def test_refuses_unsolvable(self, rng):
        with pytest.raises(ValueError, match="not CBA-solvable"):
            bf.classify(random_params(rng), seed=4)

    def test_gate_violation(self):
        with pytest.raises(bf.GateViolation):
            bf.classify(bf.HamiltonianParams(p=1))

    def test_charge_conjugated_17v1b(self, rng):
        h = bf.construct("17V1b", draw_free("17V1b", rng), {"I": 1j})
        m = bf.classify(bf.apply_charge_conjugation(h), check_solvable=False)
        assert m is not None and m.tag == "17V1b"
        assert "C" in m.frame

    def test_parity_gb_swaps_branch(self, rng):
        h = bf.construct("gB", draw_free("gB", rng), {"J": J_PLUS})
        m = bf.classify(bf.apply_parity(h), check_solvable=False)
        assert m is not None and m.tag == "gB"
        assert m.frame == ""
        assert abs(m.branch["J"] - J_MINUS) < 1e-12

    def test_gauged_and_telescoped_input(self, rng):
        h = bf.construct("SpR", draw_free("SpR", rng))
        hx = bf.apply_gauge(bf.apply_telescopic(h, cdraw(rng, 3)), cdraw(rng, 3))
        m = bf.classify(hx, check_solvable=False)
        assert m is not None and m.tag == "SpR" and m.frame == ""
        assert m.fit_residual <= 1e-9

    def test_spr_alternative_presentation(self, rng):
        """The alternative SpR parametrization (free p, q, sp, t1, s3) is the
        parity image of the standard one and must classify identically."""
        p, q, sp, t1, s3 = (cdraw(rng) for _ in range(5))
        h = bf.HamiltonianParams(
            p=p, q=q, sp=sp, t1=t1, s3=s3,
            t2=p * t1 / q, s1=p * s3 / t1, s2=q * s3 / t1, t3=p * s3 / q,
            tp=p * (s3**2 - s3 * q + q**2) / (q * sp),
        )
        W = (s3**2 - s3 * q + q**2) / sp + p * sp / q
        from bethe_forge.hamiltonian import symmetric_diagonal
        h = h.replace(v=symmetric_diagonal(bf.DiagonalInvariants(
            V=0, X11=0, Y=W, X12=W, X21=W, X22=W)))
        assert bf.is_cba_solvable(h, seed=6).solvable
        m = bf.classify(h, check_solvable=False)
        assert m is not None and m.tag == "SpR" and m.frame == ""
        assert m.fit_residual <= 1e-9

    def test_degenerate_overlap_point(self, rng):
        """gZF at sigma = 1 coincides with an SpR member (t3 = p, theta =
        1/tau_p^2): both families must be reported, gZF first by precedence."""
        p, tp, t2 = cdraw(rng), cdraw(rng), cdraw(rng)
        h = bf.construct("gZF", dict(p=p, tp=tp, t2=t2, s1=p**2 / t2))
        m = bf.classify(h, check_solvable=False)
        assert m.tag == "gZF"
        assert m.degenerate
        tags = {t for t, _, w, _ in m.all_matches if w == ""}
        assert {"gZF", "SpR"} <= tags

    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_member_found_in_any_frame_gauge_and_telescoping(self, tag, data):
        """A family member seen through any P/C/T word, gauge and
        telescoping term is still listed under its family.  The free values
        are a generic draw, as in classify-mix: exact values such as v = 1
        put gIK on a double root of its u-quadratic, where reading v back
        moves u by about sqrt(rounding) and the match is lost."""
        fam = bf.FAMILIES[tag]
        seed = data.draw(st.integers(0, 2**32 - 1), "free-value seed")
        free = draw_free(tag, np.random.default_rng(seed))
        branch = data.draw(st.sampled_from(fam.branches), "branch")
        word = data.draw(st.sampled_from(FRAME_WORDS), "word")
        g = data.draw(st.lists(annulus(), min_size=3, max_size=3), "gauge")
        a = data.draw(st.lists(annulus(), min_size=3, max_size=3), "telescoping")
        h = bf.apply_frame(bf.construct(tag, free, branch), word)
        h = bf.apply_telescopic(bf.apply_gauge(h, g), a)
        m = bf.classify(h, check_solvable=False)
        assert m is not None and tag in {t for t, _, _, _ in m.all_matches}

    def test_match_reconstruction_invariant(self, rng):
        from bethe_forge.families import _param_distance
        h = bf.construct("gIK", draw_free("gIK", rng), {"u": 1})
        m = bf.classify(h, check_solvable=False)
        rebuilt = bf.construct(m.tag, m.free_params, m.branch)
        assert _param_distance(h, rebuilt) <= max(m.fit_residual, 1e-12)


# Action table: how parity, charge conjugation and time reversal act on
# each family.  "same" = lands back in the family in the identity frame;
# "swap" = same, with the discrete branch flipped; "frame" = only matches
# after undoing some transformation.  The last column lists the generating
# invariance words (image = same family, same branch, identity frame).
PCT_TABLE = {
    "gZF":   {"P": "same", "C": "same", "T": "same", "inv": ("P", "C", "T")},
    "gIK":   {"P": "swap", "C": "swap", "T": "same", "inv": ("PC", "T")},
    "gB":    {"P": "swap", "C": "swap", "T": "same", "inv": ("PC", "T")},
    "SpR":   {"P": "same", "C": "same", "T": "same", "inv": ("P", "C", "T")},
    "SB5":   {"P": "swap", "C": "frame", "T": "frame", "inv": ("PCT",)},
    "17V1a": {"P": "same", "C": "same", "T": "frame", "inv": ("P", "C")},
    "17V1b": {"P": "swap", "C": "frame", "T": "frame", "inv": ()},
    "17V2":  {"P": "same", "C": "same", "T": "frame", "inv": ("P", "C")},
    "14V1":  {"P": "frame", "C": "frame", "T": "frame", "inv": ("PC",)},
    "14V2":  {"P": "frame", "C": "frame", "T": "frame", "inv": ("PC",)},
}


def branches_equal(a, b):
    return all(abs(complex(a[k]) - complex(b[k])) < 1e-9 for k in a)


class TestPCTTable:
    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_single_transformations(self, tag, rng):
        fam = bf.FAMILIES[tag]
        branch = dict(fam.branches[0])
        h = bf.construct(tag, draw_free(tag, rng), branch)
        other = dict(fam.branches[1]) if len(fam.branches) > 1 else branch
        for letter in ("P", "C", "T"):
            image = bf.apply_frame(h, letter)
            m = bf.classify(image, check_solvable=False)
            assert m is not None, (tag, letter)
            assert m.tag == tag, (tag, letter, m.tag)
            expect = PCT_TABLE[tag][letter]
            if expect == "same":
                assert m.frame == "" and branches_equal(m.branch, branch), \
                    (tag, letter, m.frame, m.branch)
            elif expect == "swap":
                assert m.frame == "" and branches_equal(m.branch, other), \
                    (tag, letter, m.frame, m.branch)
            else:
                # no identity-frame match: every match uses a nontrivial frame
                assert all(w != "" for _, _, w, _ in m.all_matches), \
                    (tag, letter, m.all_matches)

    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_invariance_words(self, tag, rng):
        fam = bf.FAMILIES[tag]
        branch = dict(fam.branches[0])
        h = bf.construct(tag, draw_free(tag, rng), branch)
        for word in PCT_TABLE[tag]["inv"]:
            image = bf.apply_frame(h, word)
            m = bf.classify(image, check_solvable=False)
            assert m is not None and m.tag == tag
            assert m.frame == "", (tag, word, m.frame)
            assert branches_equal(m.branch, branch), (tag, word, m.branch)

    def test_sb5_c_action_is_branch_swapped_t_image(self, rng):
        # C(SB5_J) coincides with T(SB5_{J^2}); check via the T frame
        h = bf.construct("SB5", draw_free("SB5", rng), {"J": J_PLUS})
        image = bf.apply_charge_conjugation(h)
        m = bf.classify(image, check_solvable=False)
        frames = {w: (b, r) for _, b, w, r in m.all_matches
                  if _ == "SB5" for b, r in [(b, r)]}
        assert "T" in frames
        assert abs(frames["T"][0]["J"] - J_MINUS) < 1e-12

    def test_14v1_c_action_equals_p_action(self, rng):
        # C(14V1) = P(14V1): the C image matches in the P frame (and vice versa)
        h = bf.construct("14V1", draw_free("14V1", rng), {"eps": -1})
        m = bf.classify(bf.apply_charge_conjugation(h), check_solvable=False)
        words = {w for t, _, w, _ in m.all_matches if t == "14V1"}
        assert "P" in words and "C" in words and "" not in words
