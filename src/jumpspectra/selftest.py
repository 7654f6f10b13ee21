"""Fast built-in invariant suite, exposed as the `selftest` CLI subcommand.

Each check is small enough to run in a few seconds total; the full
evidence lives in the pytest suite.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import piecewise
from .lagrange import (
    ChebyshevGrid,
    fundamental_product_reference,
    fundamental_weights,
    lagrange_eval,
)
from .piecewise import ContinuousPart, JumpFunction, node_offsets, pure_step
from .shepard import ShepardConfig, shepard_eval
from .specfun import (
    hurwitz_zeta,
    j_zeta_relation_residual,
    lagrange_profile,
    lerch_j,
    shepard_profile,
)


def _check(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def run_selftest() -> list[dict]:
    checks = []

    # partition of unity
    grid = ChebyshevGrid(64)
    xs = np.linspace(-0.999, 0.999, 101)
    worst = max(abs(np.sum(fundamental_weights(grid, x)) - 1.0) for x in xs)
    checks.append(_check("lagrange partition of unity (n=64)", worst < 1e-10, f"max |sum-1| = {worst:.2e}"))

    # cardinal property
    g7 = ChebyshevGrid(7)
    card = all(
        abs(fundamental_weights(g7, g7.nodes[j])[k] - (1.0 if j == k else 0.0)) < 1e-12
        for j in range(7)
        for k in range(7)
    )
    checks.append(_check("lagrange cardinal property (n=7)", card))

    # trig form vs product form
    g16 = ChebyshevGrid(16)
    worst = max(
        abs(fundamental_weights(g16, 0.2)[k - 1] - fundamental_product_reference(g16, k, 0.2))
        for k in range(1, 17)
    )
    checks.append(_check("trig form matches product form (n=16)", worst < 1e-9, f"max diff = {worst:.2e}"))

    # zeta / J closed forms
    vals = [
        abs(hurwitz_zeta(2, 1).value - math.pi**2 / 6),
        abs(hurwitz_zeta(2, 0.5).value - math.pi**2 / 2),
        abs(lerch_j(1, 1).value - math.log(2)),
        abs(lerch_j(1, 0.5).value - math.pi / 2),
        abs(lerch_j(2, 1).value - math.pi**2 / 12),
    ]
    checks.append(_check("zeta/J closed forms", max(vals) < 1e-10, f"max err = {max(vals):.2e}"))

    # J-zeta relation on a coarse grid
    worst = max(
        j_zeta_relation_residual(1.0 + 0.5 * i, j / 5.0)
        for i in range(1, 6)
        for j in range(1, 6)
    )
    checks.append(_check("J-zeta relation residual (5x5)", worst < 1e-9, f"max = {worst:.2e}"))

    # profile symmetry + monotonicity gates
    for profile, label in ((lagrange_profile(), "g"), (shepard_profile(2.0), "g_2")):
        xs = np.linspace(0.01, 0.99, 99)
        sym = np.max(np.abs(profile.eval_many(xs) + profile.eval_many(1 - xs) - 1.0))
        profile.monotone_grid()
        checks.append(_check(f"{label} symmetry + monotone gate", sym < 1e-10, f"max |sym-1| = {sym:.2e}"))

    # sigma cycle for theta0 = pi/3
    _, num, den, _ = node_offsets(Fraction(1, 3), np.arange(1, 7), 0.5)
    cycle = [Fraction(r, den) for r in num.tolist()]
    expect = [Fraction(5, 6), Fraction(1, 6), Fraction(1, 2)] * 2
    checks.append(_check("sigma cycle theta0=pi/3", cycle == expect, str(cycle)))

    # shepard node reproduction and constant reproduction
    h = pure_step(Fraction(1, 2), 0.7, piecewise.LEFT1_RIGHT0, (0.0, 1.0))
    cfg = ShepardConfig(2.0, 10)
    node_ok = shepard_eval(cfg, h, Fraction(1, 2)) == 0.7
    const = JumpFunction(ContinuousPart((3.25,)), (), (0.0, 1.0))
    const_ok = abs(shepard_eval(cfg, const, 0.374) - 3.25) < 1e-12
    checks.append(_check("shepard node/constant reproduction", node_ok and const_ok))

    # interpolation reproduces polynomials of degree < n
    fcube = JumpFunction(ContinuousPart((0.0, 0.0, 0.0, 1.0)), (), (-1.0, 1.0))
    err = abs(lagrange_eval(ChebyshevGrid(4), fcube, 0.37) - 0.37**3)
    checks.append(_check("lagrange cubic reproduction (n=4)", err < 1e-10, f"err = {err:.2e}"))

    return checks
