"""Renormalized powers of the stochastic convolution and the polynomial
coefficients of the remainder equation.

With psi the first component of the (truncated) stochastic convolution and
gamma a real constant, the renormalized squares and cubes are

    wick2 = psi^2 - gamma,        wick3 = psi^3 - 3 gamma psi,

and with u0N(t) the first component of P_N S(t) u0, the cubic nonlinearity
expands around u0N + psi as  v^3 + a v^2 + b v + c  with

    a = 3 u0N + 3 psi,
    b = 3 (u0N^2 + 2 u0N psi + wick2),
    c = u0N^3 + 3 u0N^2 psi + 3 u0N wick2 + wick3,

so that identically  v^3 + a v^2 + b v + c = (u0N + psi + v)^3
- 3 gamma (u0N + psi + v).

All products here are dealiased and kept at their exact trigonometric
degree (psi^2 at 2N, c at 3N, ...), so the identities above hold as exact
equalities of coefficient arrays; the sharp projection P_N is applied once,
where the equation of motion says, not inside the coefficients.

The quadratic form of the coupling argument is

    Q(u, v) = 3 ((pi1 u)^2 - gamma) + 3 pi1 u pi1 v + (pi1 v)^2,

with   N_gamma(u+v) - N_gamma(u) = Q(u, v) * pi1 v  for the cubic
N_gamma(x) = x^3 - 3 gamma x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import propagator, spectral
from .spectral import add_fields, dealiased_product, embed, truncation_of


@dataclass(frozen=True)
class WickPowers:
    """psi and its renormalized square/cube, at exact degree."""

    psi: np.ndarray    # degree N
    psi2: np.ndarray   # degree 2N
    psi3: np.ndarray   # degree 3N
    gamma: float


@dataclass(frozen=True)
class CubicCoefficients:
    """Coefficients (a, b, c) of the expanded cubic, at exact degree."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    N: int


def wick_powers(psi: np.ndarray, gamma: float) -> WickPowers:
    N = truncation_of(psi)
    psi2 = dealiased_product(psi, psi)
    psi2 = psi2.copy()
    psi2[..., 2 * N, 2 * N] -= gamma
    psi3 = dealiased_product(psi, psi, psi)
    psi3 = psi3 - 3.0 * gamma * embed(psi, 3 * N)
    return WickPowers(psi.copy(), psi2, psi3, float(gamma))


def cubic_coefficients(u0: np.ndarray, stick_psi: np.ndarray, t: float,
                       gamma: float, N: int) -> CubicCoefficients:
    """Coefficients at time t for initial data u0 and stick component psi.

    u0 is a phase-space pair; u0N = pi1 P_N S(t) u0 is computed here.
    """
    u = spectral.project_leq(propagator.apply_S(u0, float(t))[..., 0, :, :], N)
    psi = spectral.project_leq(stick_psi, N)
    wick = wick_powers(psi, gamma)
    a = 3.0 * u + 3.0 * psi
    b = 3.0 * add_fields(
        dealiased_product(u, u),
        2.0 * dealiased_product(u, psi),
        wick.psi2,
    )
    c = add_fields(
        dealiased_product(u, u, u),
        3.0 * dealiased_product(u, u, psi),
        3.0 * dealiased_product(u, wick.psi2),
        wick.psi3,
    )
    return CubicCoefficients(a, b, c, N)


def quadratic_Q(u1: np.ndarray, v: np.ndarray, gamma: float) -> np.ndarray:
    """Q(u1, v) = 3((pi1 u1)^2 - gamma) + 3 pi1 u1 pi1 v + (pi1 v)^2."""
    p = u1[..., 0, :, :]
    q = v[..., 0, :, :]
    out = add_fields(
        3.0 * dealiased_product(p, p),
        3.0 * dealiased_product(p, q),
        dealiased_product(q, q),
    )
    out = out.copy()
    No = truncation_of(out)
    out[..., No, No] -= 3.0 * gamma
    return out
