"""Exact predicted limit spectra for operator sequences at a jump.

For a jump with one-sided limits (L-, L+) the operator values at the jump
cluster around images of the relevant limit profile under the affine map of
the jump:

  Lagrange, theta0/pi = p/q (lowest terms):
      q odd:  atoms at gi((2m+1)/(2q)), m = 0..q-1, each with index 1/q
      q even: atom at the point value d with index 1/q, plus atoms at
              gi(m/q), m = 1..q-1, each 1/q
      where gi(t) = L- + (L+ - L-) * g(t).
  Lagrange, theta0/pi irrational: a continuous spectrum, the pushforward
      of the uniform offset distribution through gi.
  Shepard s > 1, x0 = p/q: atom at d (1/q) plus atoms at gsi(m/q) (1/q),
      with gsi(t) = L+ + (L- - L+) * g_s(t).
  Shepard s > 1, x0 irrational: continuous pushforward through gsi.
  Shepard s = 1: atom at d (1/q) plus an atom at (L- + L+)/2 with index
      1 - 1/q when x0 = p/q; a single unit atom at (L- + L+)/2 when x0 is
      irrational.  (The excursion subsequences toward L- and L+ in this
      case carry zero density and are not representable as atoms.)

Atom indices are exact rationals; in every rational case they sum to 1.

Whether a location is irrational is declared by the caller through the
Irrational marker (floating-point values cannot decide irrationality).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .density import IntervalUnion
from .piecewise import JumpSpec
from .specfun import (
    LimitProfile,
    g_lagrange,
    g_shepard,
    lagrange_profile,
    profile_preimage_measure,
    shepard_profile,
)

LAGRANGE_RATIONAL = "lagrange_rational"
LAGRANGE_IRRATIONAL = "lagrange_irrational"
SHEPARD_RATIONAL = "shepard_rational"
SHEPARD_IRRATIONAL = "shepard_irrational"
SHEPARD_S1_RATIONAL = "shepard_s1_rational"
SHEPARD_S1_IRRATIONAL = "shepard_s1_irrational"


@dataclass(frozen=True)
class Irrational:
    """Marker for a declared-irrational location, with a float approximation."""

    approx: float


@dataclass(frozen=True)
class Atom:
    value: float
    index: Fraction


@dataclass(frozen=True)
class ContinuousSpectrum:
    """Pushforward component: value = alpha + beta * profile_variable."""

    profile: LimitProfile
    alpha: float
    beta: float


@dataclass(frozen=True)
class PredictedSpectrum:
    atoms: tuple[Atom, ...]
    continuous: ContinuousSpectrum | None
    source: str

    def to_dict(self) -> dict:
        cont = None
        if self.continuous is not None:
            cont = {
                "profile": self.continuous.profile.kind,
                "alpha": self.continuous.alpha,
                "beta": self.continuous.beta,
            }
            if self.continuous.profile.s is not None:
                cont["s"] = self.continuous.profile.s
        return {
            "atoms": [
                {
                    "value": a.value,
                    "index_num": a.index.numerator,
                    "index_den": a.index.denominator,
                }
                for a in self.atoms
            ],
            "continuous": cont,
            "source": self.source,
        }


def _affine(jump: JumpSpec, reversed_step: bool) -> tuple[float, float]:
    # reversed_step: Shepard convention (anchor at the right limit)
    if reversed_step:
        return jump.right, jump.left - jump.right
    return jump.left, jump.right - jump.left


def _merged(atoms) -> tuple[Atom, ...]:
    """Coalesce atoms sharing a value: the index at a value is one number.

    Values closer than 1e-12 (the evaluation accuracy of the profiles) are
    numerically the same limit, e.g. a point value chosen to coincide with
    a cluster value.  Atoms come out sorted by value.
    """
    out: list[Atom] = []
    for atom in sorted(atoms, key=lambda a: a.value):
        if out and abs(atom.value - out[-1].value) <= 1e-12 * max(
            1.0, abs(atom.value)
        ):
            out[-1] = Atom(out[-1].value, out[-1].index + atom.index)
        else:
            out.append(atom)
    return tuple(out)


def predict_lagrange(jump: JumpSpec, theta0) -> PredictedSpectrum:
    """Spectrum of the Lagrange sequence at the jump, for theta0/pi = p/q or
    a declared-irrational angle ratio."""
    alpha, beta = _affine(jump, reversed_step=False)
    if isinstance(theta0, Irrational):
        return PredictedSpectrum(
            atoms=(),
            continuous=ContinuousSpectrum(lagrange_profile(), alpha, beta),
            source=LAGRANGE_IRRATIONAL,
        )
    theta0 = Fraction(theta0)
    p, q = theta0.numerator, theta0.denominator
    if not 0 < p < q:
        raise ValueError("rational angle ratio must satisfy 0 < p/q < 1")
    idx = Fraction(1, q)
    atoms = []
    if q % 2 == 1:
        for m in range(q):
            atoms.append(Atom(alpha + beta * g_lagrange((2 * m + 1) / (2 * q)), idx))
    else:
        atoms.append(Atom(jump.value, idx))
        for m in range(1, q):
            atoms.append(Atom(alpha + beta * g_lagrange(m / q), idx))
    return PredictedSpectrum(_merged(atoms), None, LAGRANGE_RATIONAL)


def predict_shepard(jump: JumpSpec, x0, s: float) -> PredictedSpectrum:
    """Spectrum of the Shepard sequence at the jump, for x0 = p/q or a
    declared-irrational location; s >= 1."""
    s = float(s)
    if s < 1.0:
        raise ValueError("shepard exponent must satisfy s >= 1")
    alpha, beta = _affine(jump, reversed_step=True)
    midpoint = 0.5 * (jump.left + jump.right)
    if isinstance(x0, Irrational):
        if s == 1.0:
            return PredictedSpectrum(
                (Atom(midpoint, Fraction(1)),), None, SHEPARD_S1_IRRATIONAL
            )
        return PredictedSpectrum(
            atoms=(),
            continuous=ContinuousSpectrum(shepard_profile(s), alpha, beta),
            source=SHEPARD_IRRATIONAL,
        )
    x0 = Fraction(x0)
    if not 0 <= x0 <= 1:
        raise ValueError("rational location must satisfy 0 <= p/q <= 1")
    q = x0.denominator
    idx = Fraction(1, q)
    if s == 1.0:
        atoms = [Atom(jump.value, idx)]
        if q > 1:
            atoms.append(Atom(midpoint, 1 - idx))
        return PredictedSpectrum(_merged(atoms), None, SHEPARD_S1_RATIONAL)
    atoms = [Atom(jump.value, idx)]
    for m in range(1, q):
        atoms.append(Atom(alpha + beta * g_shepard(s, m / q), idx))
    return PredictedSpectrum(_merged(atoms), None, SHEPARD_RATIONAL)


def predicted_set_index(spectrum: PredictedSpectrum, targets: IntervalUnion) -> float:
    """Predicted index of the operator sequence relative to an interval union.

    Sums the indices of atoms inside the union plus, for a continuous
    component, the preimage measure of the affine-normalized union under
    the profile.
    """
    total = 0.0
    for atom in spectrum.atoms:
        if bool(targets.contains([atom.value])[0]):
            total += float(atom.index)
    if spectrum.continuous is not None:
        cont = spectrum.continuous
        pairs = []
        for lo, hi in targets.intervals:
            a = (lo - cont.alpha) / cont.beta
            b = (hi - cont.alpha) / cont.beta
            pairs.append((min(a, b), max(a, b)))
        total += profile_preimage_measure(cont.profile, pairs)
    return min(1.0, total)
