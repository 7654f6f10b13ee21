from fractions import Fraction

import pytest

from jumpspectra.density import IntervalUnion
from jumpspectra.piecewise import JumpSpec
from jumpspectra.specfun import g_lagrange, g_shepard, lagrange_profile, shepard_profile
from jumpspectra.theory import (
    Atom,
    ContinuousSpectrum,
    Irrational,
    PredictedSpectrum,
    predict_lagrange,
    predict_shepard,
    predicted_set_index,
)

from oracles import grid_scan_preimage

UNIT_JUMP = JumpSpec(x=0.0, left=0.0, right=1.0, value=0.2)
UNIT_JUMP_REV = JumpSpec(x=0.5, left=1.0, right=0.0, value=0.2)


class TestPredictLagrange:
    def test_even_denominator(self):
        spectrum = predict_lagrange(UNIT_JUMP, Fraction(1, 2))
        assert spectrum.source == "lagrange_rational"
        assert len(spectrum.atoms) == 2
        assert spectrum.atoms[0] == Atom(0.2, Fraction(1, 2))
        assert spectrum.atoms[1].value == pytest.approx(0.5, abs=1e-12)
        assert sum(a.index for a in spectrum.atoms) == 1

    def test_odd_denominator(self):
        spectrum = predict_lagrange(UNIT_JUMP, Fraction(1, 3))
        values = sorted(a.value for a in spectrum.atoms)
        expected = sorted(g_lagrange((2 * m + 1) / 6) for m in range(3))
        for got, want in zip(values, expected):
            assert got == pytest.approx(want, abs=1e-12)
        assert all(a.index == Fraction(1, 3) for a in spectrum.atoms)
        assert sum(a.index for a in spectrum.atoms) == 1

    def test_odd_atoms_pair_to_one(self):
        spectrum = predict_lagrange(UNIT_JUMP, Fraction(1, 5))
        values = sorted(a.value for a in spectrum.atoms)
        for lo, hi in zip(values, reversed(values)):
            assert lo + hi == pytest.approx(1.0, abs=1e-10)

    def test_denominator_normalized(self):
        a = predict_lagrange(UNIT_JUMP, Fraction(2, 6))
        b = predict_lagrange(UNIT_JUMP, Fraction(1, 3))
        assert [x.value for x in a.atoms] == [x.value for x in b.atoms]

    def test_affine_map_on_general_jump(self):
        jump = JumpSpec(x=0.0, left=2.0, right=4.0, value=3.0)
        spectrum = predict_lagrange(jump, Irrational(0.7))
        assert spectrum.atoms == ()
        assert spectrum.continuous == ContinuousSpectrum(
            spectrum.continuous.profile, alpha=2.0, beta=2.0
        )
        assert spectrum.continuous.profile.kind == "lagrange_g"
        assert spectrum.source == "lagrange_irrational"

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            predict_lagrange(UNIT_JUMP, Fraction(5, 3))

    def test_coincident_point_value_merges(self):
        # d equal to a cluster value: one atom carrying the summed index
        jump = JumpSpec(x=0.0, left=0.0, right=1.0, value=0.5)
        spectrum = predict_lagrange(jump, Fraction(1, 2))
        assert len(spectrum.atoms) == 1
        assert spectrum.atoms[0].value == pytest.approx(0.5, abs=1e-12)
        assert spectrum.atoms[0].index == 1
        assert sum(a.index for a in spectrum.atoms) == 1


class TestPredictShepard:
    def test_s2_half(self):
        spectrum = predict_shepard(UNIT_JUMP_REV, Fraction(1, 2), 2.0)
        assert spectrum.source == "shepard_rational"
        assert spectrum.atoms[0] == Atom(0.2, Fraction(1, 2))
        assert spectrum.atoms[1].value == pytest.approx(0.5, abs=1e-12)
        assert sum(a.index for a in spectrum.atoms) == 1

    def test_s1_third(self):
        spectrum = predict_shepard(UNIT_JUMP_REV, Fraction(1, 3), 1.0)
        assert spectrum.source == "shepard_s1_rational"
        assert spectrum.atoms == (
            Atom(0.2, Fraction(1, 3)),
            Atom(0.5, Fraction(2, 3)),
        )

    def test_s3_irrational_general_jump(self):
        jump = JumpSpec(x=0.3, left=5.0, right=1.0, value=2.0)
        spectrum = predict_shepard(jump, Irrational(0.3), 3.0)
        assert spectrum.source == "shepard_irrational"
        cont = spectrum.continuous
        assert (cont.alpha, cont.beta) == (1.0, 4.0)
        assert cont.profile.kind == "shepard_gs" and cont.profile.s == 3.0

    def test_s1_irrational(self):
        jump = JumpSpec(x=0.3, left=5.0, right=1.0, value=2.0)
        spectrum = predict_shepard(jump, Irrational(0.3), 1.0)
        assert spectrum.source == "shepard_s1_irrational"
        assert spectrum.atoms == (Atom(3.0, Fraction(1)),)

    def test_rational_values_match_profile(self):
        spectrum = predict_shepard(UNIT_JUMP_REV, Fraction(2, 5), 2.0)
        got = sorted(a.value for a in spectrum.atoms if a.value != 0.2)
        want = sorted(1.0 - 1.0 * g_shepard(2.0, m / 5) for m in range(1, 5))
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-12)
        assert sum(a.index for a in spectrum.atoms) == 1

    def test_exponent_validated(self):
        with pytest.raises(ValueError):
            predict_shepard(UNIT_JUMP_REV, Fraction(1, 2), 0.5)


class TestPredictedSetIndex:
    def test_atoms_inside(self):
        spectrum = PredictedSpectrum(
            atoms=(Atom(0.2, Fraction(1, 2)), Atom(0.5, Fraction(1, 2))),
            continuous=None,
            source="lagrange_rational",
        )
        union = IntervalUnion(((0.4, 0.6),))
        assert predicted_set_index(spectrum, union) == 0.5

    def test_continuous_identity_map_full_range(self):
        spectrum = PredictedSpectrum(
            atoms=(),
            continuous=ContinuousSpectrum(lagrange_profile(), 0.0, 1.0),
            source="lagrange_irrational",
        )
        union = IntervalUnion(((0.0, 1.0),))
        assert predicted_set_index(spectrum, union) == pytest.approx(1.0, abs=1e-8)

    def test_continuous_affine_band(self):
        profile = shepard_profile(2.0)
        spectrum = PredictedSpectrum(
            atoms=(),
            continuous=ContinuousSpectrum(profile, 1.0, 4.0),
            source="shepard_irrational",
        )
        lo = 1.0 + 4.0 * g_shepard(2.0, 0.75)
        hi = 1.0 + 4.0 * g_shepard(2.0, 0.25)
        union = IntervalUnion(((lo, hi),))
        got = predicted_set_index(spectrum, union)
        assert got == pytest.approx(0.5, abs=1e-8)
        scan = grid_scan_preimage(
            lambda u: 1.0 + 4.0 * profile.eval_many(u), [(lo, hi)], du=1e-5
        )
        assert got == pytest.approx(scan, abs=1e-4)

    def test_covering_union_saturates(self):
        spectrum = predict_lagrange(UNIT_JUMP, Fraction(1, 4))
        union = IntervalUnion(((-100.0, 100.0),))
        assert predicted_set_index(spectrum, union) == 1.0

    def test_covering_union_saturates_continuous(self):
        spectrum = predict_shepard(UNIT_JUMP_REV, Irrational(0.7), 2.0)
        union = IntervalUnion(((-100.0, 100.0),))
        assert predicted_set_index(spectrum, union) == pytest.approx(1.0, abs=1e-8)


class TestSerialization:
    def test_atomic_schema(self):
        data = predict_shepard(UNIT_JUMP_REV, Fraction(1, 3), 1.0).to_dict()
        assert data["source"] == "shepard_s1_rational"
        assert data["continuous"] is None
        assert data["atoms"][0] == {"value": 0.2, "index_num": 1, "index_den": 3}

    def test_continuous_schema(self):
        data = predict_shepard(UNIT_JUMP_REV, Irrational(0.7), 2.0).to_dict()
        assert data["atoms"] == []
        assert data["continuous"] == {
            "profile": "shepard_gs",
            "s": 2.0,
            "alpha": 0.0,
            "beta": 1.0,
        }

    def test_lagrange_continuous_schema_has_no_s(self):
        data = predict_lagrange(UNIT_JUMP, Irrational(0.3)).to_dict()
        assert "s" not in data["continuous"]
