"""The ten solution families and the classifier matching a Hamiltonian to one.

Each family is a parameter variety: a handful of free amplitudes, the rest
fixed by closed-form relations, diagonals fixed through their telescoping
invariants (V stays free; it only shifts sector energies and never enters the
solvability constraints).  Discrete branch data where needed: the two roots
u of  v^4 u^2 + (1+2v-v^2) u + 1 = 0  for gIK, a primitive cube root of unity
J for gB and SB5, a sign eps for 17V1a and 14V1, a square root of -1 for
17V1b.

Each family's closed-form relations give a member's fingerprint
(couplings): its ten off-diagonals and the diagonal invariants X11, Y,
X12, X21, X22.  build wraps a fingerprint into HamiltonianParams, so the
relations have one implementation.

Each family's S and N in its reduced parameters are one text each,
s_formula and n_formula: catalog and classify print them, and s_closed and
n_closed evaluate them (_parse, _evaluate).  Their notation: names,
integers, + - / ^, parentheses, a leading minus over its term, and
juxtaposition as a product binding tighter than / and looser than ^
(a / 2(b) is a / (2 b), x y/u is (x y) / u, -A / B is -(A / B)).  A
clause " with L = body" defines L(a, b) as body at z1 = a, z2 = b.

Classification works modulo parity / charge conjugation / time reversal and
gauge: the gauge orbit only rescales (t1, t2) against (s1, s2) and every
family keeps t2 free, so reading the free parameters off their slots absorbs
the gauge exactly.  The classifier tries all eight P/C/T frames and every
family and branch: it reads the free parameters off the framed input, takes
the member fingerprint they give, and compares it with the framed input's
fingerprint, all candidates in one array pass.

Most candidates are ruled out before they are built, by the vanishing
vertices that tell 19-, 17- and 14-vertex families apart.  Each family and
branch caches the slots its couplings leave exactly zero, read once at a
generic point.  A candidate whose zero slot holds c > 2 tol of the framed
input's largest slot cannot match: the member's fingerprint distance is at
least c / (1 + c) > tol for tol < 1/4.  Every family is a cone, so the input
is matched at unit scale, divided by the power of two of its largest slot
(exactly), and the free values are scaled back.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import (DiagonalInvariants, HamiltonianParams, OFFDIAG_KEYS,
                          apply_frame, FRAME_WORDS, invariants,
                          symmetric_diagonal)

J_PLUS = np.exp(2j * np.pi / 3)
J_MINUS = np.exp(-2j * np.pi / 3)

FAMILY_ORDER = ("gZF", "gIK", "gB", "SpR", "SB5",
                "17V1a", "17V1b", "17V2", "14V1", "14V2")


class DegenerateFamilyPoint(ValueError):
    """Free-parameter point where a defining denominator vanishes; an
    alternative presentation (P/C/T image) is needed there."""


@dataclass
class ReducedParams:
    """Dimensionless ratios carrying all physical data (S, N, energy, BAE).

    Fields are None when the defining denominator vanishes or the family does
    not use them.  extra holds per-family data (v, u roots, J, I, eps, xi).
    """

    tau_p: complex | None = None
    tau_2: complex | None = None
    tau_3: complex | None = None
    theta: complex | None = None
    upsilon: complex | None = None
    sigma: complex | None = None
    mu: complex | None = None
    extra: dict = field(default_factory=dict)

    def as_dict(self):
        d = {k: getattr(self, k) for k in
             ("tau_p", "tau_2", "tau_3", "theta", "upsilon", "sigma", "mu")}
        return {k: v for k, v in d.items() if v is not None}


def reduced_parameters(params):
    """Generic reduced ratios from raw parameters (requires p != 0)."""
    h = params
    if h.p == 0:
        raise ValueError("p = 0: reparametrize via a P/C/T frame first")
    inv = invariants(params)
    return ReducedParams(
        tau_p=h.tp / h.p, tau_2=h.t2 / h.p, tau_3=h.t3 / h.p,
        theta=h.q / h.p, upsilon=inv.Y / h.p,
        sigma=h.s1 * h.t2 / h.p**2,
        mu=(h.t1 / h.t2) if h.t2 != 0 else None,
    )


def _require(free, *names):
    return [complex(free[n]) for n in names]


def _nonzero(**kw):
    for name, z in kw.items():
        if z == 0:
            raise DegenerateFamilyPoint(
                f"degenerate free-parameter point ({name} = 0); "
                "choose an alternative presentation")


_ZEROS = (0j,) * len(OFFDIAG_KEYS)


def _couplings(X11, Y, X12, X21, X22, **offdiag):
    """A fingerprint from closed-form relations: the ten off-diagonals in
    OFFDIAG_KEYS order (0 where not given), then X11, Y, X12, X21, X22."""
    return (*map(offdiag.get, OFFDIAG_KEYS, _ZEROS), X11, Y, X12, X21, X22)


def _member(fingerprint, V):
    """The Hamiltonian of a fingerprint and V, with the symmetric_diagonal
    representative of its invariants."""
    X11, Y, X12, X21, X22 = fingerprint[10:]
    inv = DiagonalInvariants(V=V, X11=X11, Y=Y, X12=X12, X21=X21, X22=X22)
    return HamiltonianParams(v=symmetric_diagonal(inv),
                             **dict(zip(OFFDIAG_KEYS, fingerprint[:10])))


def _u_roots(v):
    """Roots of v^4 Z^2 + (1+2v-v^2) Z + 1 = 0, sorted by (Re, Im)."""
    if v == 0:
        raise DegenerateFamilyPoint("degenerate free-parameter point (v = 0)")
    r = np.roots([v**4, 1 + 2 * v - v**2, 1])
    r = sorted((complex(x) for x in r), key=lambda z: (z.real, z.imag))
    return r[0], r[1]


# ---------------------------------------------------------------------------
# the formula notation
# ---------------------------------------------------------------------------

_TOKENS = re.compile(r"\d+|\w+|\S")
_OPS = {"+": operator.add, "-": operator.sub, "/": operator.truediv,
        "*": operator.mul, "^": operator.pow, "neg": operator.neg}
_LEVELS = (("+", "-"), ("/",), (), ("^",))  # loosest first; () juxtaposes


def _parse(text, defs):
    """The tree of a formula text (module docstring): a name, an int,
    (op, *operands) for op in _OPS, or ("call", body, a, b) for NAME(a, b)
    where the dict defs maps NAME to the tree body.  The text's own
    " with NAME = body" clauses are added to defs first.  Raises ValueError
    where text is not in the notation."""
    text, *clauses = text.split(" with ")
    for clause in clauses:
        name, body = clause.split(" = ", 1)
        defs[name] = _parse(body, defs)
    tokens = _TOKENS.findall(text)[::-1]        # the next token last

    def take(want=None):
        if not tokens or want not in (None, tokens[-1]):
            raise ValueError(f"{text!r}: {want or 'a term'} expected "
                             f"before {' '.join(tokens[::-1])!r}")
        return tokens.pop()

    def level(k):
        if k == len(_LEVELS):
            return atom()
        if k == 0 and tokens[-1:] == ["-"]:
            take()
            node = ("neg", level(1))
        else:
            node = level(k + 1)
        while tokens:
            tok = tokens[-1]
            if tok in _LEVELS[k]:
                op = take()
            elif k == 2 and (tok == "(" or tok.isdigit()
                             or tok.isidentifier()):
                op = "*"
            else:
                break
            node = (op, node, level(k + 1))
        return node

    def atom():
        tok = take()
        if tok.isdigit():
            return int(tok)
        if tok.isidentifier() and tok not in defs:
            return tok
        if tok in defs:
            take("(")
            a = level(0)
            take(",")
            node = ("call", defs[tok], a, level(0))
        elif tok == "(":
            node = level(0)
        else:
            raise ValueError(f"{text!r}: {tok!r} starts no term")
        take(")")
        return node

    node = level(0)
    if tokens:
        raise ValueError(f"{text!r}: {' '.join(tokens[::-1])!r} left over")
    return node


def _evaluate(node, names):
    """The value of the tree node (_parse) at the dict names: Python's
    operators in the tree's order, so the arithmetic of the same expression
    in Python.  NAME(a, b) is its body at z1 = a, z2 = b."""
    if not isinstance(node, tuple):
        return names[node] if isinstance(node, str) else node
    op, *args = node
    if op == "call":
        body, a, b = args
        return _evaluate(body, {**names, "z1": _evaluate(a, names),
                                "z2": _evaluate(b, names)})
    return _OPS[op](*(_evaluate(a, names) for a in args))


# ---------------------------------------------------------------------------
# family definitions
# ---------------------------------------------------------------------------

class Family:
    """One solution family: constructor, classifier reading, reduction
    gauge, and S and N as the texts s_formula and n_formula (s_closed)."""

    name = ""
    free_names = ()
    branches = ({},)
    half_free_names = None  # first-vacuum-only variant, where one exists
    reduced_names = ()
    s_formula = ""
    n_formula = ""

    def couplings(self, free, branch):
        """The fingerprint of the member of free and branch (_couplings),
        from the family's closed-form relations.  Raises
        DegenerateFamilyPoint where a relation divides by zero."""
        raise NotImplementedError

    def generic_free(self):
        """The family's fixed generic free-parameter point: the k-th free
        name is 0.9 + 0.13 k + (0.4 - 0.21 k) i."""
        return {n: complex(0.9 + 0.13 * k, 0.4 - 0.21 * k)
                for k, n in enumerate(self.free_names)}

    def build(self, free, branch):
        """The member of free and branch, with free.get("V", 0) for V."""
        return _member(self.couplings(free, branch), free.get("V", 0))

    def build_half(self, free, branch):
        raise ValueError(f"{self.name} has no half-constrained form")

    def read_free(self, params, inv, branch):
        """The free parameters, each read off its slot, or off the invariants
        for Y and X22.  A zero where the family needs a nonzero value is
        refused by build (DegenerateFamilyPoint)."""
        return {n: getattr(inv if n in ("Y", "X22") else params, n)
                for n in self.free_names}

    def candidate(self, params, inv, branch):
        """(free values, fingerprint, residual floor) of the member of this
        family and branch that params would be: the free values read_free
        reads and the member's fingerprint (couplings); params's fit
        residual is the larger of the floor and the fingerprint distance
        (_distances).  Raises as couplings does where no member can be
        built."""
        free = self.read_free(params, inv, branch)
        return free, self.couplings(free, branch), 0.0

    def reduced(self, free, branch):
        raise NotImplementedError

    def member_reduced(self, member, free, branch):
        """The reduced parameters of member, a classified Hamiltonian in the
        family's frame with free values free: those of free, unless the
        family reads more of them off member."""
        return self.reduced(free, branch)

    @functools.cached_property
    def _trees(self):
        """s_formula and n_formula parsed (_parse), on first use; a with
        clause of s_formula serves n_formula too."""
        defs = {}
        return _parse(self.s_formula, defs), _parse(self.n_formula, defs)

    def _closed(self, k, red, z1, z2):
        """Formula k (0: s_formula, 1: n_formula) at the reduced parameters
        red (as_dict and extra, with u = u_t1 for gIK) and z1, z2."""
        names = {**red.as_dict(), **red.extra, "z1": z1, "z2": z2}
        names["u"] = red.extra.get("u_t1")
        return _evaluate(self._trees[k], names)

    def s_closed(self, red, z1, z2):
        """S(z1, z2) by s_formula; n_closed gives N by n_formula."""
        return self._closed(0, red, z1, z2)

    def n_closed(self, red, z1, z2):
        return self._closed(1, red, z1, z2)

    def reduction_gauge(self, free, branch, red):
        """(N0, gamma) of the normalization + gauge map; gamma = g0 g2 / g1^2."""
        p, tp, t2 = _require(free, "p", "tp", "t2")
        return tp / p**2, p / t2


class GZF(Family):
    name = "gZF"
    free_names = ("p", "tp", "t2", "s1")
    reduced_names = ("tau_p", "sigma", "tau_2")
    s_formula = "-(z1 z2 - tau_p(z1+z2-sigma z2) + tau_p^2) / (z1 z2 - tau_p(z1+z2-sigma z1) + tau_p^2)"
    n_formula = "tau_2 tau_p (z1-z2) / 2(z1 z2 - tau_p(z1+z2-sigma z1) + tau_p^2)"

    def couplings(self, free, branch):
        p, tp, t2, s1 = _require(free, "p", "tp", "t2", "s1")
        _nonzero(p=p, tp=tp)
        return _couplings(
            X11=0, Y=2 * p**2 / tp, X12=(3 * p**2 - s1 * t2) / tp,
            X21=(3 * p**2 - s1 * t2) / tp, X22=(4 * p**2 - 2 * s1 * t2) / tp,
            p=p, tp=tp, t2=t2, s1=s1,
            q=p**3 / tp**2, s3=p**3 / tp**2, t1=p**2 * t2 / tp**2,
            t3=p, s2=p**2 * s1 / tp**2, sp=p**4 / tp**3,
        )

    def reduced(self, free, branch):
        p, tp, t2, s1 = _require(free, "p", "tp", "t2", "s1")
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p, sigma=s1 * t2 / p**2,
                             theta=p**2 / tp**2)

    def reduction_gauge(self, free, branch, red):
        p, tp, t2, s1 = _require(free, "p", "tp", "t2", "s1")
        if s1 == 0:
            raise DegenerateFamilyPoint(
                "reduction not valid for s1 = 0 (sigma vanishes); "
                "work with the raw Hamiltonian instead")
        return tp / p**2, p**2 * np.sqrt(complex(red.sigma)) / (tp * t2)


class GIK(Family):
    name = "gIK"
    free_names = ("p", "tp", "t2", "v")
    branches = ({"u": 0}, {"u": 1})
    reduced_names = ("tau_p", "tau_2")
    s_formula = ("-(v^2 z1 z2 - tau_p(z1+v z2) + tau_p^2)(v^2 z1 z2 - tau_p(1+v)z2 + tau_p^2)"
                 " / (v^2 z1 z2 - tau_p(z2+v z1) + tau_p^2)(v^2 z1 z2 - tau_p(1+v)z1 + tau_p^2)")
    n_formula = ("tau_2 tau_p (z1-z2)(z1 z2/u + tau_p^2)"
                 " / 2(v^2 z1 z2 - tau_p(z2+v z1) + tau_p^2)(v^2 z1 z2 - tau_p(1+v)z1 + tau_p^2)")

    @staticmethod
    def _us(v, branch):
        lo, hi = _u_roots(v)
        return (lo, hi) if branch["u"] == 0 else (hi, lo)

    def build(self, free, branch, us=None):
        return _member(self.couplings(free, branch, us), free.get("V", 0))

    def couplings(self, free, branch, us=None):
        """The fingerprint of the member of free and branch; us = (u_t1,
        u_s2) in place of the roots of the u-quadratic at v, where given."""
        p, tp, t2, v = _require(free, "p", "tp", "t2", "v")
        _nonzero(p=p, tp=tp, t2=t2, v=v)
        u_t1, u_s2 = us or self._us(v, branch)
        pi = p**2 / tp
        return _couplings(
            X11=v * (v + 1) * pi, Y=(v**2 + 1) * pi,
            X12=(v**2 + 1 - 1 / u_s2) * pi,
            X21=(v**2 + 1 - 1 / u_t1) * pi,
            X22=2 * (v + 1) * pi,
            p=p, tp=tp, t2=t2,
            sp=v**4 * p**4 / tp**3, q=v**2 * p**3 / tp**2,
            s3=v**2 * p**3 / tp**2, t3=p,
            t1=p**2 * t2 / (u_t1 * tp**2),
            s1=v * (v - 1) * p**2 / t2,
            s2=v * (v - 1) * p**4 / (u_s2 * t2 * tp**2),
        )

    def read_free(self, params, inv, branch):
        if params.p == 0 or params.tp == 0 or params.t2 == 0:
            return None
        v = inv.X22 * params.tp / (2 * params.p**2) - 1
        if v == 0:
            return None
        return dict(p=params.p, tp=params.tp, t2=params.t2, v=v)

    def candidate(self, params, inv, branch):
        """As Family.candidate, with u read off the t1 slot (_read_us)
        instead of recomputed from v.  Near a double root of the u-quadratic
        (v = 1 or v = -1/3) the roots move by about the square root of the
        rounding in v, enough to lose the match.  The floor is the
        quadratic's relative residual at u_t1, and the branch must order
        the two roots as build does."""
        free = self.read_free(params, inv, branch)
        if free is None or params.t1 == 0:
            return None
        v = free["v"]
        u_t1, u_s2 = self._read_us(params, free)
        lower = (u_t1.real, u_t1.imag) <= (u_s2.real, u_s2.imag)
        if lower != (branch["u"] == 0):
            return None
        terms = (v**4 * u_t1**2, (1 + 2 * v - v**2) * u_t1, 1)
        quad = abs(sum(terms)) / sum(abs(t) for t in terms)
        return free, self.couplings(free, branch, (u_t1, u_s2)), quad

    @staticmethod
    def _read_us(params, free):
        """(u_t1, u_s2) of the member params with free values free: u_t1 =
        p^2 t2 / (t1 tp^2) off the t1 slot, and u_s2 = 1 / (v^4 u_t1), its
        partner root."""
        p, tp, t2, v = _require(free, "p", "tp", "t2", "v")
        u_t1 = p**2 * t2 / (params.t1 * tp**2)
        return u_t1, 1 / (v**4 * u_t1)

    def reduced(self, free, branch, us=None):
        """The reduced parameters of free and branch; us = (u_t1, u_s2) in
        place of the roots of the u-quadratic at v, where given."""
        p, tp, t2, v = _require(free, "p", "tp", "t2", "v")
        u_t1, u_s2 = us or self._us(v, branch)
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p, theta=v**2 * p / tp,
                             extra=dict(v=v, u_t1=u_t1, u_s2=u_s2))

    def member_reduced(self, member, free, branch):
        """As reduced, with u read off the member's t1 slot as fit does."""
        return self.reduced(free, branch, self._read_us(member, free))

    def reduction_gauge(self, free, branch, red):
        p, tp, t2, v = _require(free, "p", "tp", "t2", "v")
        if v == 1:
            raise DegenerateFamilyPoint("reduction not valid for v = 1")
        return tp / p**2, (p / t2) * np.sqrt((v - 1) / (v * red.extra["u_s2"]))


class GB(Family):
    name = "gB"
    free_names = ("p", "q", "t1", "t2", "tp")
    branches = ({"J": J_PLUS}, {"J": J_MINUS})
    reduced_names = ("tau_p", "theta", "mu", "tau_2")
    s_formula = ("-L(z1,z2)/L(z2,z1) with L = J mu^4 tau_p^2 z1^2 z2^2"
                 " - mu^2 tau_p theta z1 z2(z1+z2) - J^2 mu^3 tau_p z1 z2^2"
                 " + (mu-theta)(mu-J^2 theta) z1 z2 + J^2 mu^3 tau_p^2 z2^2"
                 " - mu^2 tau_p(z1+z2) - J mu tau_p theta z2 + mu^2 tau_p^2")
    n_formula = "tau_2 tau_p mu^2 (z1-z2)(1 + mu z1 z2) / 2 L(z2,z1)"

    def couplings(self, free, branch):
        p, q, t1, t2, tp = _require(free, "p", "q", "t1", "t2", "tp")
        _nonzero(t1=t1, t2=t2, tp=tp)
        J = branch["J"]
        core = J * t1**2 * tp**2 - p * q * t2**2
        num = p**2 * t1**2 * t2 + J * p * q * t1 * t2**2 + J**2 * q**2 * t2**3
        den = t1**2 * t2 * tp
        return _couplings(
            X11=J**2 * t1 * tp / t2,
            Y=(num - J**2 * t1**3 * tp**2) / den,
            X12=(num + t1**3 * tp**2) / den,
            X21=(num + J * t1**3 * tp**2) / den,
            X22=num / den,
            p=p, q=q, t1=t1, t2=t2, tp=tp,
            s1=J * core / (t1 * t2**2), s2=J**2 * core / t2**3,
            s3=-J**2 * p * t1 / t2, t3=-J * q * t2 / t1,
            sp=J * t1**2 * tp / t2**2,
        )

    def reduced(self, free, branch):
        p, q, t1, t2, tp = _require(free, "p", "q", "t1", "t2", "tp")
        _nonzero(p=p)
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p, theta=q / p,
                             mu=t1 / t2, extra=dict(J=branch["J"]))

    def reduction_gauge(self, free, branch, red):
        p, q, t1, t2, tp = _require(free, "p", "q", "t1", "t2", "tp")
        return np.sqrt(1 / complex(red.mu)) / p, p / t2


class SPR(Family):
    name = "SpR"
    free_names = ("p", "q", "tp", "t2", "t3")
    reduced_names = ("tau_p", "tau_3", "theta", "tau_2")
    s_formula = ("-((tau_3^2-tau_3+1)z1 z2 - tau_p(z1+z2-tau_3 z2) + tau_p^2)"
                 " / ((tau_3^2-tau_3+1)z1 z2 - tau_p(z1+z2-tau_3 z1) + tau_p^2)")
    n_formula = "tau_2 tau_p (z1-z2) / 2((tau_3^2-tau_3+1)z1 z2 - tau_p(z1+z2-tau_3 z1) + tau_p^2)"

    def couplings(self, free, branch):
        p, q, tp, t2, t3 = _require(free, "p", "q", "tp", "t2", "t3")
        _nonzero(p=p, tp=tp, t2=t2)
        W = (t3**2 - t3 * p + p**2) / tp + q * tp / p
        return _couplings(
            X11=0, Y=W, X12=W, X21=W, X22=W,
            p=p, q=q, tp=tp, t2=t2, t3=t3,
            t1=q * t2 / p, s1=p * t3 / t2, s2=q * t3 / t2, s3=q * t3 / p,
            sp=q * (t3**2 - t3 * p + p**2) / (p * tp),
        )

    def reduced(self, free, branch):
        p, q, tp, t2, t3 = _require(free, "p", "q", "tp", "t2", "t3")
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p, tau_3=t3 / p,
                             theta=q / p)


class SB5(Family):
    name = "SB5"
    free_names = ("p", "q", "t2", "Y")
    branches = ({"J": J_PLUS}, {"J": J_MINUS})
    reduced_names = ("theta", "upsilon", "tau_2")
    s_formula = ("-(theta z1 z2(z1-J^2 z2) - upsilon z1 z2 + z1 - J z2)"
                 " / (theta z1 z2(z2-J^2 z1) - upsilon z1 z2 + z2 - J z1)")
    n_formula = ("-tau_2 (z1-z2)(theta z1 z2 + 1)"
                 " / 2(theta z1 z2(z2-J^2 z1) - upsilon z1 z2 + z2 - J z1)")

    def couplings(self, free, branch):
        p, q, t2, Y = _require(free, "p", "q", "t2", "Y")
        _nonzero(p=p, t2=t2)
        J = branch["J"]
        return _couplings(
            X11=0, Y=Y, X12=Y, X21=Y, X22=Y,
            p=p, q=q, t2=t2,
            t1=q * t2 / p, s1=-J**2 * p**2 / t2, s2=-J * p * q / t2,
            t3=-J**2 * p, s3=-J * q,
        )

    def reduced(self, free, branch):
        p, q, t2, Y = _require(free, "p", "q", "t2", "Y")
        return ReducedParams(tau_2=t2 / p, theta=q / p, upsilon=Y / p,
                             extra=dict(J=branch["J"]))

    def reduction_gauge(self, free, branch, red):
        p, t2, Y = _require(free, "p", "t2", "Y")
        _nonzero(Y=Y)
        return 1 / Y, p / t2


class V17_1A(Family):
    name = "17V1a"
    free_names = ("p", "q", "tp", "t2")
    branches = ({"eps": 1}, {"eps": -1})
    half_free_names = ("p", "q", "tp", "t2", "t3", "s3", "X22")
    reduced_names = ("tau_p", "theta", "tau_2")
    s_formula = "-1"
    n_formula = "tau_2 tau_p (z1-z2) / 2(z1-tau_p)(z2-tau_p)"

    def couplings(self, free, branch):
        p, q, tp, t2 = _require(free, "p", "q", "tp", "t2")
        _nonzero(p=p, tp=tp)
        e = branch["eps"]
        Y = p**2 / tp + q * tp / p
        return _couplings(
            X11=0, Y=Y, X12=Y + e * p**2 / tp, X21=Y + e * q * tp / p,
            X22=(1 + e) * Y,
            p=p, q=q, tp=tp, t2=t2,
            sp=p * q / tp, t1=q * t2 / p, s3=e * q, t3=e * p,
        )

    def build_half(self, free, branch):
        p, q, tp, t2, t3, s3, X22 = _require(
            free, "p", "q", "tp", "t2", "t3", "s3", "X22")
        _nonzero(p=p, tp=tp)
        Y = p**2 / tp + q * tp / p
        return _member(_couplings(
            X11=0, Y=Y, X12=Y + p * t3 / tp, X21=Y + tp * s3 / p, X22=X22,
            p=p, q=q, tp=tp, t2=t2, sp=p * q / tp, t1=q * t2 / p, t3=t3, s3=s3,
        ), free.get("V", 0))

    def reduced(self, free, branch):
        p, q, tp, t2 = _require(free, "p", "q", "tp", "t2")
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p, theta=q / p,
                             extra=dict(eps=branch["eps"]))


class V17_1B(Family):
    name = "17V1b"
    free_names = ("p", "tp", "t2")
    branches = ({"I": 1j}, {"I": -1j})
    reduced_names = ("tau_p", "tau_2")
    s_formula = "-1"
    n_formula = "tau_2 tau_p (z1-z2) / 2(z1-tau_p)(z2-tau_p)"

    def couplings(self, free, branch):
        p, tp, t2 = _require(free, "p", "tp", "t2")
        _nonzero(p=p, tp=tp)
        I = branch["I"]
        pi = p**2 / tp
        return _couplings(
            X11=0, Y=(1 + I) * pi, X12=(2 * I + 1) * pi,
            X21=(I + 2) * pi, X22=(1 + I) * pi,
            p=p, tp=tp, t2=t2,
            q=I * p**3 / tp**2, t3=I * p, s3=p**3 / tp**2,
            sp=I * p**4 / tp**3, t1=I * p**2 * t2 / tp**2,
        )

    def reduced(self, free, branch):
        p, tp, t2 = _require(free, "p", "tp", "t2")
        I = branch["I"]
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p, theta=I * p**2 / tp**2,
                             extra=dict(I=I))


class V17_2(Family):
    name = "17V2"
    free_names = ("p", "q", "tp", "t2")
    half_free_names = ("p", "q", "tp", "t2", "t3", "s3")
    reduced_names = ("tau_p", "theta", "tau_2")
    s_formula = ("-(theta tau_p z1 z2 - (theta tau_p^2+1)z2 + tau_p)"
                 " / (theta tau_p z1 z2 - (theta tau_p^2+1)z1 + tau_p)")
    n_formula = ("-tau_2 (z1-z2)(z1 z2 - tau_p^2)"
                 " / 2(theta tau_p z1 z2 - (theta tau_p^2+1)z1 + tau_p)(z1-tau_p)(z2-tau_p)")

    def couplings(self, free, branch):
        p, q, tp, t2 = _require(free, "p", "q", "tp", "t2")
        _nonzero(p=p, tp=tp)
        Y = p**2 / tp + q * tp / p
        return _couplings(
            X11=Y, Y=Y, X12=2 * p**2 / tp + q * tp / p,
            X21=p**2 / tp + 2 * q * tp / p, X22=2 * Y,
            p=p, q=q, tp=tp, t2=t2,
            sp=p * q / tp, t1=-p**2 * t2 / tp**2, s3=q, t3=p,
        )

    def build_half(self, free, branch):
        p, q, tp, t2, t3, s3 = _require(free, "p", "q", "tp", "t2", "t3", "s3")
        _nonzero(p=p, q=q, tp=tp)
        Y = p**2 / tp + q * tp / p
        return _member(_couplings(
            X11=Y, Y=Y, X12=2 * Y - q * tp * t3 / p**2,
            X21=2 * Y - p**2 * s3 / (q * tp), X22=2 * Y,
            p=p, q=q, tp=tp, t2=t2,
            sp=p * q / tp, t1=-p**2 * t2 / tp**2, t3=t3, s3=s3,
        ), free.get("V", 0))

    def reduced(self, free, branch):
        p, q, tp, t2 = _require(free, "p", "q", "tp", "t2")
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p, theta=q / p)


class V14_1(Family):
    name = "14V1"
    free_names = ("p", "tp", "t2", "X22")
    branches = ({"eps": 1}, {"eps": -1})
    half_free_names = ("p", "tp", "t2", "t3", "X21", "X22")
    reduced_names = ("tau_p", "tau_2")
    s_formula = "-(z2-tau_p)/(z1-tau_p)"
    n_formula = "tau_2 (z1-z2)(z1 z2 - tau_p^2) / 2(z1-tau_p)^2(z2-tau_p)"

    def couplings(self, free, branch):
        p, tp, t2, X22 = _require(free, "p", "tp", "t2", "X22")
        _nonzero(p=p, tp=tp)
        e = branch["eps"]
        pi = p**2 / tp
        return _couplings(
            X11=pi, Y=pi, X12=2 * pi, X21=X22 - pi, X22=X22,
            p=p, tp=tp, t2=t2, t1=-p**2 * t2 / tp**2, t3=e * p,
        )

    def build_half(self, free, branch):
        p, tp, t2, t3, X21, X22 = _require(
            free, "p", "tp", "t2", "t3", "X21", "X22")
        _nonzero(p=p, tp=tp)
        pi = p**2 / tp
        return _member(_couplings(
            X11=pi, Y=pi, X12=2 * pi, X21=X21, X22=X22,
            p=p, tp=tp, t2=t2, t1=-p**2 * t2 / tp**2, t3=t3,
        ), free.get("V", 0))

    def reduced(self, free, branch):
        p, tp, t2, X22 = _require(free, "p", "tp", "t2", "X22")
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p,
                             extra=dict(eps=branch["eps"], xi=X22 / p))


class V14_2(Family):
    name = "14V2"
    free_names = ("p", "tp", "t2")
    half_free_names = ("p", "tp", "t1", "t2")
    reduced_names = ("tau_p", "tau_2")
    s_formula = "-1"
    n_formula = "tau_2 (z1-z2)(z1 z2 + tau_p^2) / 2 tau_p (z1-tau_p)(z2-tau_p)"

    def couplings(self, free, branch):
        p, tp, t2 = _require(free, "p", "tp", "t2")
        _nonzero(p=p, tp=tp)
        pi = p**2 / tp
        return _couplings(
            X11=0, Y=pi, X12=pi, X21=0, X22=0,
            p=p, tp=tp, t2=t2, t1=p**2 * t2 / tp**2, t3=-p,
        )

    def build_half(self, free, branch):
        p, tp, t1, t2 = _require(free, "p", "tp", "t1", "t2")
        _nonzero(p=p, tp=tp, t2=t2)
        pi = p**2 / tp
        X = (p**2 * t2 - tp**2 * t1) / (tp * t2)
        return _member(_couplings(
            X11=0, Y=pi, X12=pi, X21=X, X22=X,
            p=p, tp=tp, t1=t1, t2=t2, t3=-tp**2 * t1 / (p * t2),
        ), free.get("V", 0))

    def reduced(self, free, branch):
        p, tp, t2 = _require(free, "p", "tp", "t2")
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p)


FAMILIES = {f.name: f for f in
            (GZF(), GIK(), GB(), SPR(), SB5(),
             V17_1A(), V17_1B(), V17_2(), V14_1(), V14_2())}

TRIVIAL_S_TAGS = ("17V1a", "17V1b", "14V2")


def _zero_mask(fam, branch):
    """The fingerprint slots that fam's couplings leave exactly zero for
    every member of branch, as bits (bit k for slot k), read at the generic
    point fam.generic_free()."""
    return sum(1 << k for k, c in
               enumerate(fam.couplings(fam.generic_free(), branch)) if c == 0)


_ZERO_MASKS = {tag: tuple(_zero_mask(fam, b) for b in fam.branches)
               for tag, fam in FAMILIES.items()}
_SLOT_NAMES = OFFDIAG_KEYS + ("X11", "Y", "X12", "X21", "X22")
_SLOT_BITS = 1 << np.arange(len(_SLOT_NAMES))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def construct(tag, free, branch=None, half_constrained=False):
    """Build family parameters from free values (and branch data if the
    family has any)."""
    fam = FAMILIES[tag]
    branch = _normalize_branch(fam, branch)
    if half_constrained:
        return fam.build_half(free, branch)
    return fam.build(free, branch)


def _normalize_branch(fam, branch):
    """The branch values: None is the first branch, an int indexes
    fam.branches, and a dict overrides the first branch's values."""
    if branch is None:
        return fam.branches[0]
    if isinstance(branch, dict):
        out = dict(fam.branches[0])
        out.update(branch)
        return out
    if (isinstance(branch, (int, np.integer)) and not isinstance(branch, bool)
            and 0 <= branch < len(fam.branches)):
        return fam.branches[branch]
    raise ValueError(f"branch must be null, an object or an index "
                     f"0..{len(fam.branches) - 1}, not {branch!r}")


@dataclass
class FamilyMatch:
    tag: str
    branch: dict
    free_params: dict
    frame: str                      # word over {P, C, T}; "" is the identity
    fit_residual: float = 0.0
    degenerate: bool = False        # several (family, frame) matches
    all_matches: list = field(default_factory=list)


def _fingerprint(params):
    """The 15 couplings the classifier compares: the ten off-diagonals in
    OFFDIAG_KEYS order, then the diagonal invariants X11, Y, X12, X21, X22
    (not V)."""
    inv = invariants(params)
    return (tuple(getattr(params, k) for k in OFFDIAG_KEYS)
            + (inv.X11, inv.Y, inv.X12, inv.X21, inv.X22))


def _distances(fa, fb):
    """Row-wise relative distance of two (K, 15) fingerprint arrays: the
    largest slot difference over the largest magnitude in either row, 0
    where both rows vanish."""
    with np.errstate(all="ignore"):     # a NaN distance matches nothing
        scale = np.maximum(np.abs(fa).max(axis=1), np.abs(fb).max(axis=1))
        diff = np.abs(fa - fb).max(axis=1)
        return np.divide(diff, scale, out=np.zeros_like(diff),
                         where=scale != 0)


def _ldexp(z, e):
    """z * 2**e, exact barring overflow and underflow, zero signs kept."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def _scaled(params, e):
    """params * 2**e, slot by slot (as _ldexp)."""
    v = np.ascontiguousarray(params.v).view(float)
    return HamiltonianParams(v=np.ldexp(v, e).view(complex), **{
        k: _ldexp(getattr(params, k), e) for k in OFFDIAG_KEYS})


def classify(params, tol=1e-9):
    """Match a Hamiltonian to a solution family modulo P/C/T and gauge.

    Tries all eight frames; in each, reads the candidate free parameters off
    their slots for every family and branch and takes the member
    fingerprint they give.  One array pass compares every member with its
    framed input and accepts when all off-diagonals and diagonal invariants
    agree to the relative tolerance.  Returns None when nothing fits.
    Otherwise the family is the one whose match fits best (smallest fit
    residual, ties to the earlier match by (frame, family, branch)
    precedence), and its first match by that precedence is returned, with
    every match recorded.  The frame is not chosen by residual: a symmetric
    member fits several frames to rounding level.  Solvability is not
    tested here: that is constraints.is_cba_solvable's answer, which the
    CLI gives beside it.

    A candidate is skipped unbuilt when a slot its family and branch leave
    exactly zero (_ZERO_MASKS) holds more than 2 tol of the framed input's
    largest slot: with c that share, its distance is at least c / (1 + c),
    above tol for tol < 1/4 (nothing is skipped for larger tol).  Families
    are cones, so the input is matched divided by 2**e, e the binary
    exponent of its largest slot; the division is exact, the couplings'
    products of up to five slots stay in range at any scale, and the free
    values read off a slot are multiplied back by 2**e (gIK's v, a ratio,
    is not).
    """
    params.check_gates()
    e = math.frexp(max(map(abs, _fingerprint(params))))[1]
    unit = _scaled(params, -e)
    frames = [apply_frame(unit, word) for word in FRAME_WORDS]
    targets = np.array([_fingerprint(f) for f in frames], complex)
    mags = np.abs(targets)
    large = ((mags > 2 * tol * mags.max(axis=1, keepdims=True)) @ _SLOT_BITS
             if tol < 0.25 else np.zeros(len(frames), int)).tolist()
    found, rows, members = [], [], []
    for i, (word, framed) in enumerate(zip(FRAME_WORDS, frames)):
        inv = invariants(framed)
        for tag in FAMILY_ORDER:
            fam = FAMILIES[tag]
            for branch, zeros in zip(fam.branches, _ZERO_MASKS[tag]):
                if zeros & large[i]:
                    continue
                try:
                    cand = fam.candidate(framed, inv, branch)
                except (DegenerateFamilyPoint, ZeroDivisionError):
                    continue
                if cand is not None:
                    free, fp, floor = cand
                    found.append((tag, dict(branch), free, word, floor))
                    rows.append(i)
                    members.append(fp)
    dists = (_distances(targets[rows], np.array(members, complex))
             if found else [])
    matches = []
    for (tag, branch, free, word, floor), dist in zip(found, dists):
        r = max(float(dist), floor)
        if r <= tol:
            matches.append((tag, branch, free, word, r))
    if not matches:
        return None
    best = min(matches, key=lambda m: m[4])[0]
    tag, branch, free, word, res = next(m for m in matches if m[0] == best)
    free = {n: _ldexp(x, e) if n in _SLOT_NAMES else x
            for n, x in free.items()}
    distinct_tags = {m[0] for m in matches}
    return FamilyMatch(tag=tag, branch=branch, free_params=free, frame=word,
                       fit_residual=res, degenerate=len(distinct_tags) > 1,
                       all_matches=[(m[0], m[1], m[3], m[4]) for m in matches])
