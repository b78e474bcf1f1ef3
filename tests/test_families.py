"""Family constructors, closed-form scattering data, and the classifier."""

import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bethe_forge as bf
from bethe_forge import families
from bethe_forge.cli import load_input
from bethe_forge.families import J_PLUS, J_MINUS, DegenerateFamilyPoint
from bethe_forge.hamiltonian import FRAME_WORDS, OFFDIAG_KEYS

from conftest import annulus, cdraw, draw_free, random_params

PRESETS = Path(bf.__file__).parent / "presets"
SRC = str(Path(bf.__file__).resolve().parent.parent)

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
                assert bf.is_cba_solvable(h).solvable, tag

    def test_u_roots_exact_for_the_float_v(self):
        """_u_roots solves v^4 u^2 + (1 + 2v - v^2) u + 1 = 0 for the float
        v it is given, to 1e-12 relative of the exact roots (fractions, then
        decimal square roots to 60 digits), also at and near the double
        roots v = 1 and v = -1/3.  fl(-1/3) is not -1/3: its exact roots are
        -9 -+ 2.3229e-7, which np.roots gets to about 1e-15."""
        def exact(v):
            v = Fraction(v)
            a, b = v**4, 1 + 2 * v - v**2
            disc = b * b - 4 * a
            with localcontext() as ctx:
                ctx.prec = 60
                d = lambda f: Decimal(f.numerator) / Decimal(f.denominator)
                s, re = d(abs(disc)).sqrt() / d(2 * a), -d(b) / d(2 * a)
                if disc >= 0:
                    return [complex(re - s), complex(re + s)]
                return [complex(re, -s), complex(re, s)]

        for v in (1.0, -1 / 3, 1 + 1e-9, 0.4):
            for got, want in zip(families._u_roots(v), exact(v)):
                assert abs(got - want) <= 1e-12 * abs(want), v
        lo, hi = exact(-1 / 3)
        assert abs(lo + 9 + 2.3229e-7) < 1e-11
        assert abs(hi + 9 - 2.3229e-7) < 1e-11
        for got, want in zip(families._u_roots(-1 / 3), (lo, hi)):
            assert abs(got - want) <= 2e-15 * abs(want)

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
        assert bf.is_cba_solvable(h1).solvable
        assert bf.classify(h1).tag == "SpR"

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
            assert bf.is_cba_solvable(h).solvable, tag
            assert bf.classify(h) is None, tag


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
        fam = bf.FAMILIES["gZF"]
        red_generic = bf.reduced_parameters(h)
        red_family = fam.reduced(free, fam.branches[0])
        assert abs(red_generic.sigma - red_family.sigma) < 1e-12
        z1, z2 = cdraw(rng), cdraw(rng)
        assert abs(fam.s_closed(red_family, z1, z2)
                   - bf.s_matrix(h, z1, z2)) < 1e-10

    def test_gzf_s1_zero_flags_reduction(self, rng):
        free = {**draw_free("gZF", rng), "s1": 0}
        h = bf.construct("gZF", free)  # raw Hamiltonian is fine
        assert bf.reduced_parameters(h).sigma == 0
        m = bf.classify(h)
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
            red = fam.reduced(free, branch)
            for _ in range(20):
                z1, z2 = cdraw(rng), cdraw(rng)
                s, n = bf.s_matrix(h, z1, z2), bf.n_factor(h, z1, z2)
                sc = fam.s_closed(red, z1, z2)
                nc = fam.n_closed(red, z1, z2)
                assert abs(s - sc) <= 1e-10 * abs(sc)
                assert abs(n - nc) <= 1e-10 * max(1e-12, abs(nc))

    def test_equal_momenta(self, rng):
        for tag in bf.FAMILY_ORDER:
            fam = bf.FAMILIES[tag]
            free = draw_free(tag, rng)
            red = fam.reduced(free, fam.branches[0])
            z = cdraw(rng)
            assert abs(fam.s_closed(red, z, z) + 1) < 1e-12
            assert abs(fam.n_closed(red, z, z)) < 1e-12

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


class TestFormulaNotation:
    """The notation of s_formula and n_formula, which s_closed and n_closed
    evaluate."""

    @pytest.mark.parametrize("text, tree", [
        ("a / 2(b)", ("/", "a", ("*", 2, "b"))),
        ("x y/u", ("/", ("*", "x", "y"), "u")),
        ("-A / B", ("neg", ("/", "A", "B"))),
        ("v^2 z1", ("*", ("^", "v", 2), "z1")),
        ("a - b + c d", ("+", ("-", "a", "b"), ("*", "c", "d"))),
        ("tau_p(1+v)z2", ("*", ("*", "tau_p", ("+", 1, "v")), "z2")),
        ("2(a)^2(b)", ("*", ("*", 2, ("^", "a", 2)), "b")),
    ])
    def test_precedence(self, text, tree):
        assert families._parse(text, {}) == tree

    def test_with_clause_defines_a_call_for_both_texts(self):
        defs = {}
        s = families._parse("-L(z1,z2)/L(z2,z1) with L = z1 - 2 z2", defs)
        n = families._parse("3 L(z2,z1)", defs)
        body = ("-", "z1", ("*", 2, "z2"))
        assert s == ("neg", ("/", ("call", body, "z1", "z2"),
                             ("call", body, "z2", "z1")))
        assert n == ("*", 3, ("call", body, "z2", "z1"))
        names = {"z1": 5, "z2": 7}
        assert families._evaluate(s, names) == -(5 - 14) / (7 - 10)
        assert families._evaluate(n, names) == 3 * (7 - 10)

    @pytest.mark.parametrize("text", ["a +", "(a b", "a b)", "a $ b", "",
                                      "L(a) with L = z1"])
    def test_text_outside_the_notation_raises(self, text):
        with pytest.raises(ValueError):
            families._parse(text, {})

    def test_import_parses_nothing(self):
        """The texts are parsed on first use, never at import."""
        code = ("import bethe_forge.cli as cli, bethe_forge.families as f; "
                "print(any('_trees' in vars(x) for x in f.FAMILIES.values()))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=SRC)).stdout
        assert out == "False\n"


class TestClassifier:
    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_round_trip(self, tag, rng):
        fam = bf.FAMILIES[tag]
        for branch in fam.branches:
            for _ in range(5):
                h = bf.construct(tag, draw_free(tag, rng), branch)
                m = bf.classify(h)
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
        """classify does not test solvability; an unsolvable Hamiltonian
        fits no family, and classify returns None."""
        h = random_params(rng)
        assert not bf.is_cba_solvable(h).solvable
        assert bf.classify(h) is None

    def test_gate_violation(self):
        with pytest.raises(bf.GateViolation):
            bf.classify(bf.HamiltonianParams(p=1))

    def test_charge_conjugated_17v1b(self, rng):
        h = bf.construct("17V1b", draw_free("17V1b", rng), {"I": 1j})
        m = bf.classify(bf.apply_charge_conjugation(h))
        assert m is not None and m.tag == "17V1b"
        assert "C" in m.frame

    def test_parity_gb_swaps_branch(self, rng):
        h = bf.construct("gB", draw_free("gB", rng), {"J": J_PLUS})
        m = bf.classify(bf.apply_parity(h))
        assert m is not None and m.tag == "gB"
        assert m.frame == ""
        assert abs(m.branch["J"] - J_MINUS) < 1e-12

    def test_gauged_and_telescoped_input(self, rng):
        h = bf.construct("SpR", draw_free("SpR", rng))
        hx = bf.apply_gauge(bf.apply_telescopic(h, cdraw(rng, 3)), cdraw(rng, 3))
        m = bf.classify(hx)
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
        assert bf.is_cba_solvable(h).solvable
        m = bf.classify(h)
        assert m is not None and m.tag == "SpR" and m.frame == ""
        assert m.fit_residual <= 1e-9

    def test_degenerate_overlap_point(self, rng):
        """gZF at sigma = 1 coincides with an SpR member (t3 = p, theta =
        1/tau_p^2): both families must be reported, gZF first by precedence."""
        p, tp, t2 = cdraw(rng), cdraw(rng), cdraw(rng)
        h = bf.construct("gZF", dict(p=p, tp=tp, t2=t2, s1=p**2 / t2))
        m = bf.classify(h)
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
        m = bf.classify(h)
        assert m is not None and tag in {t for t, _, _, _ in m.all_matches}

    @pytest.mark.parametrize("v", [1.0, -1 / 3])
    @pytest.mark.parametrize("branch", [0, 1])
    def test_gik_at_a_double_root_of_the_u_quadratic(self, v, branch):
        """At v = 1 and v = -1/3 the two roots u coincide, and u recomputed
        from the v read back moves by about sqrt(rounding); read off the
        t1 slot it keeps the match."""
        free = dict(p=0.9 + 0.2j, tp=1.1 - 0.3j, t2=0.8 + 0.1j, v=v)
        h = bf.construct("gIK", free, {"u": branch})
        assert bf.is_cba_solvable(h).solvable
        m = bf.classify(h)
        assert m is not None and m.tag == "gIK" and m.frame == ""
        assert m.fit_residual <= 1e-12

    def test_gik_u_off_its_quadratic_is_no_member(self, rng):
        """u read off the t1 slot must still solve the u-quadratic: a
        Hamiltonian built from a gIK member with u_t1 moved by 1e-6 (and
        u_s2 = 1 / (v^4 u_t1) moved with it) is not matched to gIK."""
        fam = bf.FAMILIES["gIK"]
        free = draw_free("gIK", rng)
        u_t1 = fam._us(free["v"], {"u": 0})[0] * (1 + 1e-6)
        h = fam.build(free, {"u": 0}, (u_t1, 1 / (free["v"]**4 * u_t1)))
        m = bf.classify(h)
        assert m is None or "gIK" not in {t for t, _, _, _ in m.all_matches}

    def test_match_reconstruction_invariant(self, rng):
        from bethe_forge.families import _distances, _fingerprint
        h = bf.construct("gIK", draw_free("gIK", rng), {"u": 1})
        m = bf.classify(h)
        rebuilt = bf.construct(m.tag, m.free_params, m.branch)
        fa, fb = (np.array([_fingerprint(x)], complex) for x in (h, rebuilt))
        assert _distances(fa, fb)[0] <= max(m.fit_residual, 1e-12)


def _reference_distance(a, b):
    """Relative distance over the off-diagonals and the diagonal invariants
    of two Hamiltonians, in Python arithmetic."""
    ia, ib = bf.invariants(a), bf.invariants(b)
    keys = ("X11", "Y", "X12", "X21", "X22")
    vals_a = [getattr(a, k) for k in OFFDIAG_KEYS] + [getattr(ia, k) for k in keys]
    vals_b = [getattr(b, k) for k in OFFDIAG_KEYS] + [getattr(ib, k) for k in keys]
    scale = max(max(abs(x) for x in vals_a), max(abs(x) for x in vals_b))
    if scale == 0:
        return 0.0
    return max(abs(x - y) for x, y in zip(vals_a, vals_b)) / scale


def _reference_fit(fam, params, inv, branch):
    """(free values, residual) of params against the member Hamiltonian
    that build makes of the free values read off params; gIK reads u off
    the t1 slot and adds its quadratic's residual."""
    free = fam.read_free(params, inv, branch)
    if free is None:
        return None
    if fam.name != "gIK":
        return free, _reference_distance(params, fam.build(free, branch))
    if params.t1 == 0:
        return None
    v = free["v"]
    u_t1, u_s2 = fam._read_us(params, free)
    lower = (u_t1.real, u_t1.imag) <= (u_s2.real, u_s2.imag)
    if lower != (branch["u"] == 0):
        return None
    terms = (v**4 * u_t1**2, (1 + 2 * v - v**2) * u_t1, 1)
    quad = abs(sum(terms)) / sum(abs(t) for t in terms)
    member = fam.build(free, branch, (u_t1, u_s2))
    return free, max(_reference_distance(params, member), quad)


def _reference_classify(params, tol=1e-9):
    """Every (tag, branch, free values, frame, residual) match, in
    (frame, family, branch) order, one HamiltonianParams member each."""
    matches = []
    for word in FRAME_WORDS:
        framed = bf.apply_frame(params, word)
        inv = bf.invariants(framed)
        for tag in bf.FAMILY_ORDER:
            fam = bf.FAMILIES[tag]
            for branch in fam.branches:
                try:
                    fit = _reference_fit(fam, framed, inv, branch)
                except (DegenerateFamilyPoint, ZeroDivisionError):
                    continue
                if fit is not None and fit[1] <= tol:
                    matches.append((tag, dict(branch), fit[0], word, fit[1]))
    return matches


def _classify_mix_input(rng):
    """A family member seen through a random P/C/T frame, gauge and
    telescoping term, or (one in four) a generic input; the draw of the
    classify-mix benchmark workload."""
    def annulus(n=None):
        z = rng.uniform(0.6, 1.4, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        return complex(z) if n is None else z
    if rng.random() < 0.25:
        return bf.HamiltonianParams(v=annulus(9).reshape(3, 3),
                                    **{k: annulus() for k in OFFDIAG_KEYS})
    tag = bf.FAMILY_ORDER[rng.integers(len(bf.FAMILY_ORDER))]
    fam = bf.FAMILIES[tag]
    branch = fam.branches[rng.integers(len(fam.branches))]
    h = bf.construct(tag, {n: annulus() for n in fam.free_names}, branch)
    h = bf.apply_frame(h, FRAME_WORDS[rng.integers(len(FRAME_WORDS))])
    return bf.apply_telescopic(bf.apply_gauge(h, annulus(3)), annulus(3))


def _one_slot_moved(rng):
    """For every family, branch and fingerprint slot, a member with that
    slot moved by 1e-6 relative: off its family where the slot is fixed by
    the others."""
    for tag in bf.FAMILY_ORDER:
        fam = bf.FAMILIES[tag]
        for branch in fam.branches:
            fp = fam.couplings(draw_free(tag, rng), branch)
            for k in range(len(fp)):
                moved = list(fp)
                moved[k] += 1e-6 * max(1, abs(fp[k]))
                yield families._member(tuple(moved), 0)


class TestClassifierMatchesReference:
    def test_same_matches_as_member_hamiltonians(self):
        """classify's one fingerprint pass gives the match list of the fit
        that builds every member Hamiltonian: the same (tag, branch, frame)
        in the same order, the same free values, residuals within 1e-15.
        Inputs: 600 classify-mix draws, every family with each fingerprint
        slot moved in turn, and gIK at the double roots of its
        u-quadratic."""
        rng = np.random.default_rng(20)
        inputs = [_classify_mix_input(rng) for _ in range(600)]
        inputs += list(_one_slot_moved(rng))
        inputs += [bf.construct("gIK", dict(p=0.9 + 0.2j, tp=1.1 - 0.3j,
                                            t2=0.8 + 0.1j, v=v), {"u": u})
                   for v in (1.0, -1 / 3) for u in (0, 1)]
        matched = 0
        for h in inputs:
            ref = _reference_classify(h)
            m = bf.classify(h)
            if not ref:
                assert m is None
                continue
            matched += 1
            assert [(t, b, w) for t, b, w, _ in m.all_matches] == \
                [(t, b, w) for t, b, _, w, _ in ref]
            assert m.free_params == ref[0][2]
            for (_, _, _, r), (_, _, _, _, r_ref) in zip(m.all_matches, ref):
                assert abs(r - r_ref) <= 1e-15
        assert matched >= 400


def _unskipped_matches(params, tol):
    """classify's match list as a loop over every candidate, with no
    zero-slot skip and no unit scale: (tag, branch, free values, frame,
    residual) in (frame, family, branch) order, one _distances pass."""
    found, targets, members = [], [], []
    for word in FRAME_WORDS:
        framed = bf.apply_frame(params, word)
        inv = bf.invariants(framed)
        target = families._fingerprint(framed)
        for tag in bf.FAMILY_ORDER:
            fam = bf.FAMILIES[tag]
            for branch in fam.branches:
                try:
                    cand = fam.candidate(framed, inv, branch)
                except (DegenerateFamilyPoint, ZeroDivisionError):
                    continue
                if cand is not None:
                    found.append((tag, dict(branch), cand[0], word, cand[2]))
                    targets.append(target)
                    members.append(cand[1])
    if not found:
        return []
    dists = families._distances(np.array(targets, complex),
                                np.array(members, complex))
    fits = [(tag, b, free, w, max(float(d), floor))
            for (tag, b, free, w, floor), d in zip(found, dists)]
    return [fit for fit in fits if fit[4] <= tol]


def _bits(free):
    """Free values as the bit patterns of their real and imaginary parts."""
    return {k: (complex(z).real.hex(), complex(z).imag.hex())
            for k, z in free.items()}


# at 0.2 the skip bound 2 tol lies well above tol, so a looser bound would
# lose matches there; at 0.3 nothing is skipped
_SKIP_TOLS = (1e-9, 1e-6, 0.2, 0.3)


def _near_bound(rng, tol, n):
    """n members, each with one slot its family leaves zero set to c = 0.5
    to 2.5 times tol of the largest slot (both sides of the skip bound),
    seen through a random frame.  In every other one, each slot that holds
    no free value first shrinks by the factor 1 / (1 + c): where the largest
    of them leads the free values by that factor, the distance is c / (1 +
    c), the least the bound allows."""
    out = []
    while len(out) < n:
        tag = bf.FAMILY_ORDER[rng.integers(len(bf.FAMILY_ORDER))]
        fam = bf.FAMILIES[tag]
        b = rng.integers(len(fam.branches))
        zeros = [k for k in range(15) if families._ZERO_MASKS[tag][b] >> k & 1]
        if not zeros:
            continue
        fp = list(fam.couplings(draw_free(tag, rng), fam.branches[b]))
        k = zeros[rng.integers(len(zeros))]
        c = rng.uniform(0.5, 2.5) * tol
        if len(out) % 2:
            fp = [z if s in fam.free_names else z / (1 + c)
                  for s, z in zip(families._SLOT_NAMES, fp)]
        fp[k] = c * max(map(abs, fp)) * np.exp(2j * np.pi * rng.random())
        out.append(bf.apply_frame(families._member(tuple(fp), 0),
                                  FRAME_WORDS[rng.integers(len(FRAME_WORDS))]))
    return out


def _count_candidates(monkeypatch):
    """A list whose length counts Family.candidate calls from now on."""
    calls = []
    for fam in bf.FAMILIES.values():
        def counted(*args, _candidate=fam.candidate):
            calls.append(None)
            return _candidate(*args)
        monkeypatch.setattr(fam, "candidate", counted)
    return calls


class TestCandidateSkip:
    def test_same_match_bits_as_unskipped_loop(self):
        """classify, with its zero-slot skip and unit scale, gives the match
        list of the loop over all 128 candidates bit for bit, and reports
        the best-fitting family's first fit in it: tag, branch, frame,
        residual, degeneracy and the free values.  Inputs per tol:
        classify-mix draws (members and generic inputs) and members moved
        off a zero slot to either side of the skip bound."""
        rng = np.random.default_rng(21)
        matched = 0
        for tol in _SKIP_TOLS:
            inputs = [_classify_mix_input(rng) for _ in range(80)]
            inputs += _near_bound(rng, tol, 80)
            for h in inputs:
                ref = _unskipped_matches(h, tol)
                m = bf.classify(h, tol=tol)
                if not ref:
                    assert m is None
                    continue
                matched += 1
                assert m.all_matches == [(t, b, w, r) for t, b, _, w, r in ref]
                # the best-fitting family's first fit by precedence
                best = min(ref, key=lambda fit: fit[4])[0]
                first = next(fit for fit in ref if fit[0] == best)
                assert (m.tag, m.branch, m.frame, m.fit_residual) == \
                    (first[0], first[1], first[3], first[4])
                assert _bits(m.free_params) == _bits(first[2])
                assert m.degenerate == (len({t for t, *_ in ref}) > 1)
        assert matched >= 300

    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_masks_are_the_zeros_of_couplings(self, tag, rng):
        fam = bf.FAMILIES[tag]
        for b, branch in enumerate(fam.branches):
            for _ in range(5):
                fp = fam.couplings(draw_free(tag, rng), branch)
                zeros = sum(1 << k for k, c in enumerate(fp) if c == 0)
                assert families._ZERO_MASKS[tag][b] == zeros, (tag, b)

    def test_skip_is_active(self, rng, monkeypatch):
        h = bf.construct("14V2", draw_free("14V2", rng))
        calls = _count_candidates(monkeypatch)
        assert bf.classify(h).tag == "14V2"
        assert len(calls) < 128

    @pytest.mark.parametrize("tol", [0.25, 0.3, 1.0])
    def test_no_skip_from_a_quarter(self, tol, rng, monkeypatch):
        h = bf.construct("14V2", draw_free("14V2", rng))
        calls = _count_candidates(monkeypatch)
        bf.classify(h, tol=tol)
        assert len(calls) == 128


def _times(h, f):
    return bf.HamiltonianParams(
        v=h.v * f, **{k: getattr(h, k) * f for k in OFFDIAG_KEYS})


class TestScale:
    @pytest.mark.parametrize("path", sorted(PRESETS.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_presets_at_extreme_scales(self, path):
        """Every family is a cone: a preset in any frame, scaled by 2^+-250
        or 1e+-75, is CBA-solvable and keeps its tag, branch and frame, with
        no overflow or warning; under 2^k the residual keeps its bits and
        the free values scale by 2^k exactly (the ratios not at all)."""
        h0 = bf.with_zero_v00(load_input(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for word in FRAME_WORDS:
                h = bf.apply_frame(h0, word)
                assert bf.is_cba_solvable(h).solvable, word
                m0 = bf.classify(h)
                ratios = ("v",) if m0.tag == "gIK" else ()
                for f in (2.0**250, 2.0**-250, 1e75, 1e-75):
                    assert bf.is_cba_solvable(_times(h, f)).solvable, \
                        (word, f)
                    m = bf.classify(_times(h, f))
                    assert (m.tag, m.branch, m.frame) == \
                        (m0.tag, m0.branch, m0.frame), (word, f)
                    if f in (1e75, 1e-75):
                        continue
                    assert m.fit_residual == m0.fit_residual
                    assert _bits(m.free_params) == _bits(
                        {k: z if k in ratios else z * f
                         for k, z in m0.free_params.items()})


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
            m = bf.classify(image)
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
            m = bf.classify(image)
            assert m is not None and m.tag == tag
            assert m.frame == "", (tag, word, m.frame)
            assert branches_equal(m.branch, branch), (tag, word, m.branch)

    def test_sb5_c_action_is_branch_swapped_t_image(self, rng):
        # C(SB5_J) coincides with T(SB5_{J^2}); check via the T frame
        h = bf.construct("SB5", draw_free("SB5", rng), {"J": J_PLUS})
        image = bf.apply_charge_conjugation(h)
        m = bf.classify(image)
        frames = {w: (b, r) for _, b, w, r in m.all_matches
                  if _ == "SB5" for b, r in [(b, r)]}
        assert "T" in frames
        assert abs(frames["T"][0]["J"] - J_MINUS) < 1e-12

    def test_14v1_c_action_equals_p_action(self, rng):
        # C(14V1) = P(14V1): the C image matches in the P frame (and vice versa)
        h = bf.construct("14V1", draw_free("14V1", rng), {"eps": -1})
        m = bf.classify(bf.apply_charge_conjugation(h))
        words = {w for t, _, w, _ in m.all_matches if t == "14V1"}
        assert "P" in words and "C" in words and "" not in words
