"""The ten solution families and the classifier matching a Hamiltonian to one.

Each family is a parameter variety: a handful of free amplitudes, the rest
fixed by closed-form relations, diagonals fixed through their telescoping
invariants (V stays free; it only shifts sector energies and never enters the
solvability constraints).  Discrete branch data where needed: the two roots
u of  v^4 u^2 + (1+2v-v^2) u + 1 = 0  for gIK, a primitive cube root of unity
J for gB and SB5, a sign eps for 17V1a and 14V1, a square root of -1 for
17V1b.

Classification works modulo parity / charge conjugation / time reversal and
gauge: the gauge orbit only rescales (t1, t2) against (s1, s2) and every
family keeps t2 free, so reading the free parameters off their slots absorbs
the gauge exactly.  The classifier tries all eight P/C/T frames, every family
and branch, reconstructs, and compares all off-diagonals plus the diagonal
invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import (DiagonalInvariants, HamiltonianParams, apply_frame,
                          FRAME_WORDS, invariants, symmetric_diagonal)
from . import constraints

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


def _assemble(inv_dict, V, **offdiag):
    inv = DiagonalInvariants(V=V, **inv_dict)
    return HamiltonianParams(v=symmetric_diagonal(inv), **offdiag)


def _u_roots(v):
    """Roots of v^4 Z^2 + (1+2v-v^2) Z + 1 = 0, sorted by (Re, Im)."""
    if v == 0:
        raise DegenerateFamilyPoint("degenerate free-parameter point (v = 0)")
    r = np.roots([v**4, 1 + 2 * v - v**2, 1])
    r = sorted((complex(x) for x in r), key=lambda z: (z.real, z.imag))
    return r[0], r[1]


# ---------------------------------------------------------------------------
# family definitions
# ---------------------------------------------------------------------------

class Family:
    """One solution family: constructor, closed-form S and N, reduction
    gauge."""

    name = ""
    free_names = ()
    branches = ({},)
    half_free_names = None  # first-vacuum-only variant, where one exists
    reduced_names = ()
    s_formula = ""
    n_formula = ""

    def build(self, free, branch):
        raise NotImplementedError

    def build_half(self, free, branch):
        raise NotImplementedError(f"{self.name} has no half-constrained form")

    def read_free(self, params, inv, branch):
        """The free parameters, each read off its slot, or off the invariants
        for Y and X22.  A zero where the family needs a nonzero value is
        refused by build (DegenerateFamilyPoint)."""
        return {n: getattr(inv if n in ("Y", "X22") else params, n)
                for n in self.free_names}

    def reduced(self, free, branch):
        raise NotImplementedError

    def s_closed(self, red, z1, z2):
        raise NotImplementedError

    def n_closed(self, red, z1, z2):
        raise NotImplementedError

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

    def build(self, free, branch):
        p, tp, t2, s1 = _require(free, "p", "tp", "t2", "s1")
        _nonzero(p=p, tp=tp)
        return _assemble(
            dict(X11=0, Y=2 * p**2 / tp, X12=(3 * p**2 - s1 * t2) / tp,
                 X21=(3 * p**2 - s1 * t2) / tp, X22=(4 * p**2 - 2 * s1 * t2) / tp),
            free.get("V", 0),
            p=p, tp=tp, t2=t2, s1=s1,
            q=p**3 / tp**2, s3=p**3 / tp**2, t1=p**2 * t2 / tp**2,
            t3=p, s2=p**2 * s1 / tp**2, sp=p**4 / tp**3,
        )

    def reduced(self, free, branch):
        p, tp, t2, s1 = _require(free, "p", "tp", "t2", "s1")
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p, sigma=s1 * t2 / p**2,
                             theta=p**2 / tp**2)

    def s_closed(self, red, z1, z2):
        tp, sg = red.tau_p, red.sigma
        return -((z1 * z2 - tp * (z1 + z2 - sg * z2) + tp**2)
                 / (z1 * z2 - tp * (z1 + z2 - sg * z1) + tp**2))

    def n_closed(self, red, z1, z2):
        tp, sg = red.tau_p, red.sigma
        return (red.tau_2 * tp * (z1 - z2)
                / (2 * (z1 * z2 - tp * (z1 + z2 - sg * z1) + tp**2)))

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

    def build(self, free, branch):
        p, tp, t2, v = _require(free, "p", "tp", "t2", "v")
        _nonzero(p=p, tp=tp, t2=t2, v=v)
        u_t1, u_s2 = self._us(v, branch)
        pi = p**2 / tp
        return _assemble(
            dict(X11=v * (v + 1) * pi, Y=(v**2 + 1) * pi,
                 X12=(v**2 + 1 - 1 / u_s2) * pi,
                 X21=(v**2 + 1 - 1 / u_t1) * pi,
                 X22=2 * (v + 1) * pi),
            free.get("V", 0),
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

    def reduced(self, free, branch):
        p, tp, t2, v = _require(free, "p", "tp", "t2", "v")
        u_t1, u_s2 = self._us(v, branch)
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p, theta=v**2 * p / tp,
                             extra=dict(v=v, u_t1=u_t1, u_s2=u_s2))

    def s_closed(self, red, z1, z2):
        tp, v = red.tau_p, red.extra["v"]
        num = ((v**2 * z1 * z2 - tp * (z1 + v * z2) + tp**2)
               * (v**2 * z1 * z2 - tp * (1 + v) * z2 + tp**2))
        den = ((v**2 * z1 * z2 - tp * (z2 + v * z1) + tp**2)
               * (v**2 * z1 * z2 - tp * (1 + v) * z1 + tp**2))
        return -num / den

    def n_closed(self, red, z1, z2):
        tp, v, u_t1 = red.tau_p, red.extra["v"], red.extra["u_t1"]
        den = ((v**2 * z1 * z2 - tp * (z2 + v * z1) + tp**2)
               * (v**2 * z1 * z2 - tp * (1 + v) * z1 + tp**2))
        return red.tau_2 * tp * (z1 - z2) * (z1 * z2 / u_t1 + tp**2) / (2 * den)

    def reduction_gauge(self, free, branch, red):
        p, tp, t2, v = _require(free, "p", "tp", "t2", "v")
        if v == 1:
            raise DegenerateFamilyPoint("reduction not valid for v = 1")
        _, u_s2 = self._us(v, branch)
        return tp / p**2, (p / t2) * np.sqrt((v - 1) / (v * u_s2))


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

    def build(self, free, branch):
        p, q, t1, t2, tp = _require(free, "p", "q", "t1", "t2", "tp")
        _nonzero(t1=t1, t2=t2, tp=tp)
        J = branch["J"]
        core = J * t1**2 * tp**2 - p * q * t2**2
        num = p**2 * t1**2 * t2 + J * p * q * t1 * t2**2 + J**2 * q**2 * t2**3
        den = t1**2 * t2 * tp
        return _assemble(
            dict(X11=J**2 * t1 * tp / t2,
                 Y=(num - J**2 * t1**3 * tp**2) / den,
                 X12=(num + t1**3 * tp**2) / den,
                 X21=(num + J * t1**3 * tp**2) / den,
                 X22=num / den),
            free.get("V", 0),
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

    @staticmethod
    def _lam(red, z1, z2):
        tp, th, mu, J = red.tau_p, red.theta, red.mu, red.extra["J"]
        return (J * mu**4 * tp**2 * z1**2 * z2**2
                - mu**2 * tp * th * z1 * z2 * (z1 + z2)
                - J**2 * mu**3 * tp * z1 * z2**2
                + (mu - th) * (mu - J**2 * th) * z1 * z2
                + J**2 * mu**3 * tp**2 * z2**2 - mu**2 * tp * (z1 + z2)
                - J * mu * tp * th * z2 + mu**2 * tp**2)

    def s_closed(self, red, z1, z2):
        return -self._lam(red, z1, z2) / self._lam(red, z2, z1)

    def n_closed(self, red, z1, z2):
        return (red.tau_2 * red.tau_p * red.mu**2 * (z1 - z2)
                * (1 + red.mu * z1 * z2) / (2 * self._lam(red, z2, z1)))

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

    def build(self, free, branch):
        p, q, tp, t2, t3 = _require(free, "p", "q", "tp", "t2", "t3")
        _nonzero(p=p, tp=tp, t2=t2)
        W = (t3**2 - t3 * p + p**2) / tp + q * tp / p
        return _assemble(
            dict(X11=0, Y=W, X12=W, X21=W, X22=W),
            free.get("V", 0),
            p=p, q=q, tp=tp, t2=t2, t3=t3,
            t1=q * t2 / p, s1=p * t3 / t2, s2=q * t3 / t2, s3=q * t3 / p,
            sp=q * (t3**2 - t3 * p + p**2) / (p * tp),
        )

    def reduced(self, free, branch):
        p, q, tp, t2, t3 = _require(free, "p", "q", "tp", "t2", "t3")
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p, tau_3=t3 / p,
                             theta=q / p)

    def s_closed(self, red, z1, z2):
        tp, t3 = red.tau_p, red.tau_3
        c = t3**2 - t3 + 1
        return -((c * z1 * z2 - tp * (z1 + z2 - t3 * z2) + tp**2)
                 / (c * z1 * z2 - tp * (z1 + z2 - t3 * z1) + tp**2))

    def n_closed(self, red, z1, z2):
        tp, t3 = red.tau_p, red.tau_3
        c = t3**2 - t3 + 1
        return (red.tau_2 * tp * (z1 - z2)
                / (2 * (c * z1 * z2 - tp * (z1 + z2 - t3 * z1) + tp**2)))


class SB5(Family):
    name = "SB5"
    free_names = ("p", "q", "t2", "Y")
    branches = ({"J": J_PLUS}, {"J": J_MINUS})
    reduced_names = ("theta", "upsilon", "tau_2")
    s_formula = ("-(theta z1 z2(z1-J^2 z2) - upsilon z1 z2 + z1 - J z2)"
                 " / (theta z1 z2(z2-J^2 z1) - upsilon z1 z2 + z2 - J z1)")
    n_formula = ("-tau_2 (z1-z2)(theta z1 z2 + 1)"
                 " / 2(theta z1 z2(z2-J^2 z1) - upsilon z1 z2 + z2 - J z1)")

    def build(self, free, branch):
        p, q, t2, Y = _require(free, "p", "q", "t2", "Y")
        _nonzero(p=p, t2=t2)
        J = branch["J"]
        return _assemble(
            dict(X11=0, Y=Y, X12=Y, X21=Y, X22=Y),
            free.get("V", 0),
            p=p, q=q, t2=t2,
            t1=q * t2 / p, s1=-J**2 * p**2 / t2, s2=-J * p * q / t2,
            t3=-J**2 * p, s3=-J * q,
        )

    def reduced(self, free, branch):
        p, q, t2, Y = _require(free, "p", "q", "t2", "Y")
        return ReducedParams(tau_2=t2 / p, theta=q / p, upsilon=Y / p,
                             extra=dict(J=branch["J"]))

    @staticmethod
    def _den(red, z1, z2):
        th, up, J = red.theta, red.upsilon, red.extra["J"]
        return th * z1 * z2 * (z2 - J**2 * z1) - up * z1 * z2 + z2 - J * z1

    def s_closed(self, red, z1, z2):
        th, up, J = red.theta, red.upsilon, red.extra["J"]
        num = th * z1 * z2 * (z1 - J**2 * z2) - up * z1 * z2 + z1 - J * z2
        return -num / self._den(red, z1, z2)

    def n_closed(self, red, z1, z2):
        return (-red.tau_2 * (z1 - z2) * (red.theta * z1 * z2 + 1)
                / (2 * self._den(red, z1, z2)))

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

    def build(self, free, branch):
        p, q, tp, t2 = _require(free, "p", "q", "tp", "t2")
        _nonzero(p=p, tp=tp)
        e = branch["eps"]
        Y = p**2 / tp + q * tp / p
        return _assemble(
            dict(X11=0, Y=Y, X12=Y + e * p**2 / tp, X21=Y + e * q * tp / p,
                 X22=(1 + e) * Y),
            free.get("V", 0),
            p=p, q=q, tp=tp, t2=t2,
            sp=p * q / tp, t1=q * t2 / p, s3=e * q, t3=e * p,
        )

    def build_half(self, free, branch):
        p, q, tp, t2, t3, s3, X22 = _require(
            free, "p", "q", "tp", "t2", "t3", "s3", "X22")
        _nonzero(p=p, tp=tp)
        Y = p**2 / tp + q * tp / p
        return _assemble(
            dict(X11=0, Y=Y, X12=Y + p * t3 / tp, X21=Y + tp * s3 / p, X22=X22),
            free.get("V", 0),
            p=p, q=q, tp=tp, t2=t2, sp=p * q / tp, t1=q * t2 / p, t3=t3, s3=s3,
        )

    def reduced(self, free, branch):
        p, q, tp, t2 = _require(free, "p", "q", "tp", "t2")
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p, theta=q / p,
                             extra=dict(eps=branch["eps"]))

    def s_closed(self, red, z1, z2):
        return -1.0 + 0j + 0 * z1 * z2

    def n_closed(self, red, z1, z2):
        tp = red.tau_p
        return red.tau_2 * tp * (z1 - z2) / (2 * (z1 - tp) * (z2 - tp))


class V17_1B(Family):
    name = "17V1b"
    free_names = ("p", "tp", "t2")
    branches = ({"I": 1j}, {"I": -1j})
    reduced_names = ("tau_p", "tau_2")
    s_formula = "-1"
    n_formula = "tau_2 tau_p (z1-z2) / 2(z1-tau_p)(z2-tau_p)"

    def build(self, free, branch):
        p, tp, t2 = _require(free, "p", "tp", "t2")
        _nonzero(p=p, tp=tp)
        I = branch["I"]
        pi = p**2 / tp
        return _assemble(
            dict(X11=0, Y=(1 + I) * pi, X12=(2 * I + 1) * pi,
                 X21=(I + 2) * pi, X22=(1 + I) * pi),
            free.get("V", 0),
            p=p, tp=tp, t2=t2,
            q=I * p**3 / tp**2, t3=I * p, s3=p**3 / tp**2,
            sp=I * p**4 / tp**3, t1=I * p**2 * t2 / tp**2,
        )

    def reduced(self, free, branch):
        p, tp, t2 = _require(free, "p", "tp", "t2")
        I = branch["I"]
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p, theta=I * p**2 / tp**2,
                             extra=dict(I=I))

    s_closed = V17_1A.s_closed
    n_closed = V17_1A.n_closed


class V17_2(Family):
    name = "17V2"
    free_names = ("p", "q", "tp", "t2")
    half_free_names = ("p", "q", "tp", "t2", "t3", "s3")
    reduced_names = ("tau_p", "theta", "tau_2")
    s_formula = ("-(theta tau_p z1 z2 - (theta tau_p^2+1)z2 + tau_p)"
                 " / (theta tau_p z1 z2 - (theta tau_p^2+1)z1 + tau_p)")
    n_formula = ("-tau_2 (z1-z2)(z1 z2 - tau_p^2)"
                 " / 2(theta tau_p z1 z2 - (theta tau_p^2+1)z1 + tau_p)(z1-tau_p)(z2-tau_p)")

    def build(self, free, branch):
        p, q, tp, t2 = _require(free, "p", "q", "tp", "t2")
        _nonzero(p=p, tp=tp)
        Y = p**2 / tp + q * tp / p
        return _assemble(
            dict(X11=Y, Y=Y, X12=2 * p**2 / tp + q * tp / p,
                 X21=p**2 / tp + 2 * q * tp / p, X22=2 * Y),
            free.get("V", 0),
            p=p, q=q, tp=tp, t2=t2,
            sp=p * q / tp, t1=-p**2 * t2 / tp**2, s3=q, t3=p,
        )

    def build_half(self, free, branch):
        p, q, tp, t2, t3, s3 = _require(free, "p", "q", "tp", "t2", "t3", "s3")
        _nonzero(p=p, q=q, tp=tp)
        Y = p**2 / tp + q * tp / p
        return _assemble(
            dict(X11=Y, Y=Y, X12=2 * Y - q * tp * t3 / p**2,
                 X21=2 * Y - p**2 * s3 / (q * tp), X22=2 * Y),
            free.get("V", 0),
            p=p, q=q, tp=tp, t2=t2,
            sp=p * q / tp, t1=-p**2 * t2 / tp**2, t3=t3, s3=s3,
        )

    def reduced(self, free, branch):
        p, q, tp, t2 = _require(free, "p", "q", "tp", "t2")
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p, theta=q / p)

    def s_closed(self, red, z1, z2):
        tp, th = red.tau_p, red.theta
        return -((th * tp * z1 * z2 - (th * tp**2 + 1) * z2 + tp)
                 / (th * tp * z1 * z2 - (th * tp**2 + 1) * z1 + tp))

    def n_closed(self, red, z1, z2):
        tp, th = red.tau_p, red.theta
        return (-red.tau_2 * (z1 - z2) * (z1 * z2 - tp**2)
                / (2 * (th * tp * z1 * z2 - (th * tp**2 + 1) * z1 + tp)
                   * (z1 - tp) * (z2 - tp)))


class V14_1(Family):
    name = "14V1"
    free_names = ("p", "tp", "t2", "X22")
    branches = ({"eps": 1}, {"eps": -1})
    half_free_names = ("p", "tp", "t2", "t3", "X21", "X22")
    reduced_names = ("tau_p", "tau_2")
    s_formula = "-(z2-tau_p)/(z1-tau_p)"
    n_formula = "tau_2 (z1-z2)(z1 z2 - tau_p^2) / 2(z1-tau_p)^2(z2-tau_p)"

    def build(self, free, branch):
        p, tp, t2, X22 = _require(free, "p", "tp", "t2", "X22")
        _nonzero(p=p, tp=tp)
        e = branch["eps"]
        pi = p**2 / tp
        return _assemble(
            dict(X11=pi, Y=pi, X12=2 * pi, X21=X22 - pi, X22=X22),
            free.get("V", 0),
            p=p, tp=tp, t2=t2, t1=-p**2 * t2 / tp**2, t3=e * p,
        )

    def build_half(self, free, branch):
        p, tp, t2, t3, X21, X22 = _require(
            free, "p", "tp", "t2", "t3", "X21", "X22")
        _nonzero(p=p, tp=tp)
        pi = p**2 / tp
        return _assemble(
            dict(X11=pi, Y=pi, X12=2 * pi, X21=X21, X22=X22),
            free.get("V", 0),
            p=p, tp=tp, t2=t2, t1=-p**2 * t2 / tp**2, t3=t3,
        )

    def reduced(self, free, branch):
        p, tp, t2, X22 = _require(free, "p", "tp", "t2", "X22")
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p,
                             extra=dict(eps=branch["eps"], xi=X22 / p))

    def s_closed(self, red, z1, z2):
        tp = red.tau_p
        return -(z2 - tp) / (z1 - tp)

    def n_closed(self, red, z1, z2):
        tp = red.tau_p
        return (red.tau_2 * (z1 - z2) * (z1 * z2 - tp**2)
                / (2 * (z1 - tp)**2 * (z2 - tp)))


class V14_2(Family):
    name = "14V2"
    free_names = ("p", "tp", "t2")
    half_free_names = ("p", "tp", "t1", "t2")
    reduced_names = ("tau_p", "tau_2")
    s_formula = "-1"
    n_formula = "tau_2 (z1-z2)(z1 z2 + tau_p^2) / 2 tau_p (z1-tau_p)(z2-tau_p)"

    def build(self, free, branch):
        p, tp, t2 = _require(free, "p", "tp", "t2")
        _nonzero(p=p, tp=tp)
        pi = p**2 / tp
        return _assemble(
            dict(X11=0, Y=pi, X12=pi, X21=0, X22=0),
            free.get("V", 0),
            p=p, tp=tp, t2=t2, t1=p**2 * t2 / tp**2, t3=-p,
        )

    def build_half(self, free, branch):
        p, tp, t1, t2 = _require(free, "p", "tp", "t1", "t2")
        _nonzero(p=p, tp=tp, t2=t2)
        pi = p**2 / tp
        X = (p**2 * t2 - tp**2 * t1) / (tp * t2)
        return _assemble(
            dict(X11=0, Y=pi, X12=pi, X21=X, X22=X),
            free.get("V", 0),
            p=p, tp=tp, t1=t1, t2=t2, t3=-tp**2 * t1 / (p * t2),
        )

    def reduced(self, free, branch):
        p, tp, t2 = _require(free, "p", "tp", "t2")
        return ReducedParams(tau_p=tp / p, tau_2=t2 / p)

    s_closed = V17_1A.s_closed

    def n_closed(self, red, z1, z2):
        tp = red.tau_p
        return (red.tau_2 * (z1 - z2) * (z1 * z2 + tp**2)
                / (2 * tp * (z1 - tp) * (z2 - tp)))


FAMILIES = {f.name: f for f in
            (GZF(), GIK(), GB(), SPR(), SB5(),
             V17_1A(), V17_1B(), V17_2(), V14_1(), V14_2())}

TRIVIAL_S_TAGS = ("17V1a", "17V1b", "14V2")


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
    if branch is None:
        return fam.branches[0]
    if isinstance(branch, int):
        return fam.branches[branch]
    out = dict(fam.branches[0])
    out.update(branch)
    return out


def family_reduced(tag, free, branch=None):
    fam = FAMILIES[tag]
    return fam.reduced(free, _normalize_branch(fam, branch))


def family_s_matrix(tag, red, z1, z2):
    """The family's closed-form scattering amplitude."""
    val = FAMILIES[tag].s_closed(red, z1, z2)
    if not np.all(np.isfinite(np.atleast_1d(val))):
        raise ValueError("singular S")
    return val


def family_n_factor(tag, red, z1, z2):
    """The family's closed-form decay coefficient."""
    val = FAMILIES[tag].n_closed(red, z1, z2)
    if not np.all(np.isfinite(np.atleast_1d(val))):
        raise ValueError("singular N")
    return val


@dataclass
class FamilyMatch:
    tag: str
    branch: dict
    free_params: dict
    frame: str                      # word over {P, C, T}; "" is the identity
    fit_residual: float = 0.0
    degenerate: bool = False        # several (family, frame) matches
    all_matches: list = field(default_factory=list)


def _param_distance(a, b):
    """Relative distance over off-diagonals and diagonal invariants (not V)."""
    ia, ib = invariants(a), invariants(b)
    vals_a = [getattr(a, k) for k in
              ("p", "q", "t1", "t2", "s1", "s2", "t3", "s3", "tp", "sp")]
    vals_b = [getattr(b, k) for k in
              ("p", "q", "t1", "t2", "s1", "s2", "t3", "s3", "tp", "sp")]
    for k in ("X11", "Y", "X12", "X21", "X22"):
        vals_a.append(getattr(ia, k))
        vals_b.append(getattr(ib, k))
    scale = max(max(abs(x) for x in vals_a), max(abs(x) for x in vals_b))
    if scale == 0:
        return 0.0
    return max(abs(x - y) for x, y in zip(vals_a, vals_b)) / scale


def classify(params, tol=1e-9, check_solvable=True, n_samples=20,
             constraint_tol=1e-9, seed=0):
    """Match a Hamiltonian to a solution family modulo P/C/T and gauge.

    Tries all eight frames; in each, reads the candidate free parameters off
    their slots for every family and branch, reconstructs, and accepts
    when all off-diagonals and diagonal invariants agree to the relative
    tolerance.  Returns the first match by (frame, family, branch) precedence
    with every other match recorded, or None when nothing fits.
    """
    params.check_gates()
    if check_solvable:
        verdict = constraints.is_cba_solvable(
            params, n_samples=n_samples, tol=constraint_tol, seed=seed)
        if not verdict.solvable:
            raise ValueError(
                f"not CBA-solvable (max residual {verdict.max_residual:.3e} "
                f"in {verdict.failing_constraint})")
    matches = []
    for word in FRAME_WORDS:
        framed = apply_frame(params, word)
        inv = invariants(framed)
        for tag in FAMILY_ORDER:
            fam = FAMILIES[tag]
            for branch in fam.branches:
                free = fam.read_free(framed, inv, branch)
                if free is None:
                    continue
                try:
                    candidate = fam.build(free, branch)
                except (DegenerateFamilyPoint, ZeroDivisionError):
                    continue
                res = _param_distance(framed, candidate)
                if res <= tol:
                    matches.append((tag, dict(branch), free, word, res))
    if not matches:
        return None
    tag, branch, free, word, res = matches[0]
    distinct_tags = {m[0] for m in matches}
    return FamilyMatch(tag=tag, branch=branch, free_params=free, frame=word,
                       fit_residual=res, degenerate=len(distinct_tags) > 1,
                       all_matches=[(m[0], m[1], m[3], m[4]) for m in matches])
