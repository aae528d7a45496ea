import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crflab.errors import FlagContradiction, InconsistentData
from crflab.surfaces import (
    Divisor,
    SurfaceClassData,
    SurfaceFlags,
    classify,
    divisor_volume,
    maximal_time,
    volume_polynomial,
)

from conftest import scale_data

INF = math.inf
TWO_PI = 2.0 * math.pi


def hopf_like(vol0=10.0, pairing=10.0):
    return SurfaceClassData(
        "hopf", vol0, pairing, 0.0, (), SurfaceFlags(True, -INF, 0, False)
    )


class TestVolumePolynomial:
    def test_at_zero(self):
        assert volume_polynomial(hopf_like(), 0.0) == 10.0

    def test_class_vii_quadratic(self):
        n = 4
        data = SurfaceClassData(
            "vii", 8.0, 1.0, -4 * math.pi ** 2 * n, (),
            SurfaceFlags(True, -INF, n, False),
        )
        t = 0.3
        assert volume_polynomial(data, t) == pytest.approx(
            8.0 - 2 * t * 1.0 - 4 * math.pi ** 2 * n * t * t
        )

    def test_linear_root(self):
        data = hopf_like(vol0=6.0, pairing=2.0)
        root = 6.0 / (2 * 2.0)
        assert volume_polynomial(data, root) == pytest.approx(0.0, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            volume_polynomial(hopf_like(), -0.5)


class TestDivisorVolume:
    def test_minus_one_curve_root(self):
        d = Divisor("E", -1, -1, 1.0)
        t = 1.0 / TWO_PI
        assert divisor_volume(d, t) == pytest.approx(0.0, abs=1e-15)

    def test_ruled_fiber_halves_faster(self):
        d = Divisor("F", -2, -2, 1.0)
        assert divisor_volume(d, 1.0 / (2 * TWO_PI)) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_divisor_constant(self):
        d = Divisor("C", -2, 0, 3.0)
        assert divisor_volume(d, 100.0) == 3.0

    def test_nonnegative_self_intersection_rejected(self):
        with pytest.raises(InconsistentData):
            Divisor("bad", 0, -2, 1.0)


class TestMaximalTime:
    def test_hopf_case_b(self):
        r = maximal_time(hopf_like())
        assert r.T == pytest.approx(0.5)
        assert r.case == "b" and r.binding == "volume-collapse"

    def test_inoue_case_a(self):
        data = SurfaceClassData(
            "inoue", 5.0, -2.0, 0.0, (), SurfaceFlags(True, -INF, 0, False)
        )
        r = maximal_time(data)
        assert not r.finite and r.case == "a"

    def test_properly_elliptic_case_a(self):
        data = SurfaceClassData(
            "pe", 6.0, -1.5, 0.0, (), SurfaceFlags(True, 1, None, True)
        )
        assert maximal_time(data).case == "a"

    def test_class_vii_b2_case_b(self):
        n = 3
        data = SurfaceClassData(
            "vii", 8.0, 1.0, -4 * math.pi ** 2 * n, (),
            SurfaceFlags(True, -INF, n, False),
        )
        r = maximal_time(data)
        assert r.case == "b"
        assert volume_polynomial(data, r.T) == pytest.approx(0.0, abs=1e-10)

    def test_minus_one_curve_binds_first(self):
        curve = Divisor("E1", -1, -1, 1.0)
        data = SurfaceClassData(
            "blowup", 100.0, 1.0, 0.0, (curve,),
            SurfaceFlags(False, -INF, None, True),
        )
        r = maximal_time(data)
        assert r.case == "c"
        assert r.T == pytest.approx(1.0 / TWO_PI)
        assert r.binding == "divisor-collapse(E1)"
        # the divisor volume vanishes at T while the total volume stays up
        assert divisor_volume(curve, r.T) == pytest.approx(0.0, abs=1e-12)
        assert volume_polynomial(data, r.T) > 0.99 * data.vol0

    def test_volume_wins_ties(self):
        # volume root and divisor root coincide: report volume collapse
        curve = Divisor("E1", -1, -1, 1.0)
        t_star = 1.0 / TWO_PI
        data = SurfaceClassData(
            "tie", 2.0 * t_star, 1.0, 0.0, (curve,),
            SurfaceFlags(False, -INF, None, True),
        )
        r = maximal_time(data)
        assert r.case == "b"

    @pytest.mark.parametrize("vol0", [-1.0, 0.0, math.nan])
    def test_invalid_initial_volume(self, vol0):
        with pytest.raises(InconsistentData):
            SurfaceClassData("bad", vol0, 0.0, 0.0)
        with pytest.raises(InconsistentData):
            Divisor("E", -1, -1, vol0)

    def test_data_cannot_change_after_its_checks(self):
        # maximal_time trusts the constructors' t = 0 checks
        data = SurfaceClassData("ok", 1.0, 0.5, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.vol0 = -1.0

    @given(
        lam=st.floats(0.1, 10.0),
        vol0=st.floats(1.0, 50.0),
        pairing=st.floats(-5.0, 5.0),
        c1sq=st.floats(-50.0, 50.0),
    )
    def test_scale_equivariance(self, lam, vol0, pairing, c1sq):
        data = SurfaceClassData("s", vol0, pairing, c1sq,
                                (Divisor("E", -1, -1, 2.0),))
        r1 = maximal_time(data)
        r2 = maximal_time(scale_data(data, lam))
        if r1.finite:
            assert r2.T == pytest.approx(lam * r1.T, rel=1e-9)
        else:
            assert not r2.finite

    @given(
        vol0=st.floats(1.0, 20.0),
        bump=st.floats(0.0, 30.0),
        pairing=st.floats(0.5, 5.0),
    )
    def test_monotone_in_initial_volume(self, vol0, bump, pairing):
        base = SurfaceClassData("m", vol0, pairing, 0.0)
        bigger = SurfaceClassData("m", vol0 + bump, pairing, 0.0)
        assert maximal_time(bigger).T >= maximal_time(base).T - 1e-12


class TestClassify:
    def test_hopf_narrative(self):
        data = hopf_like()
        rep = classify(data, maximal_time(data))
        text = " ".join(rep.narrative)
        assert "class VII" in text
        assert "Inoue" in text
        assert "listed divisors" in text  # completeness caveat is stated

    def test_case_c_narrative(self):
        curve = Divisor("E1", -1, -1, 1.0)
        data = SurfaceClassData(
            "blowup", 100.0, 1.0, 0.0, (curve,),
            SurfaceFlags(False, -INF, None, True),
        )
        rep = classify(data, maximal_time(data))
        assert rep.case == "c"
        assert "(-1)-curve" in " ".join(rep.narrative)

    def test_minimal_with_minus_one_curve_contradicts(self):
        curve = Divisor("E1", -1, -1, 1.0)
        data = SurfaceClassData(
            "bad", 100.0, 1.0, 0.0, (curve,),
            SurfaceFlags(True, -INF, None, True),
        )
        with pytest.raises(FlagContradiction):
            classify(data, maximal_time(data))

    def test_case_b_with_nonnegative_kodaira_contradicts(self):
        data = SurfaceClassData(
            "bad", 10.0, 10.0, 0.0, (), SurfaceFlags(True, 0, None, False)
        )
        with pytest.raises(FlagContradiction):
            classify(data, maximal_time(data))

    def test_infinite_time_requires_minimal_flag(self):
        data = SurfaceClassData(
            "bad", 5.0, -2.0, 0.0, (), SurfaceFlags(False, -INF, None, False)
        )
        with pytest.raises(FlagContradiction):
            classify(data, maximal_time(data))

    def test_non_minus_one_binding_divisor_warns(self):
        odd = Divisor("D", -3, -5, 1.0)
        data = SurfaceClassData("odd", 1e6, 0.0, 0.0, (odd,))
        rep = classify(data, maximal_time(data))
        assert any("warning" in line for line in rep.narrative)


def _golden():
    vA, vB = 3.0, 2.0
    return [
        ("hopf", hopf_like(), 0.5, "b"),
        (
            "inoue",
            SurfaceClassData("inoue", 5.0, -2.0, 0.0, (),
                             SurfaceFlags(True, -INF, 0, False)),
            INF,
            "a",
        ),
        (
            "class_vii_b2",
            SurfaceClassData("vii", 8.0, 1.0, -4 * math.pi ** 2 * 3, (),
                             SurfaceFlags(True, -INF, 3, False)),
            (1.0 + math.sqrt(1.0 + 8.0 * 4 * math.pi ** 2 * 3))
            / (4 * math.pi ** 2 * 3 * 2 / 2.0)
            / 2.0,
            "b",
        ),
        (
            "properly_elliptic",
            SurfaceClassData("pe", 6.0, -1.5, 0.0, (),
                             SurfaceFlags(True, 1, None, True)),
            INF,
            "a",
        ),
        (
            "ruled_fiber",
            SurfaceClassData("ruled", 2 * vA * vB, 4 * math.pi * vA, 0.0, (),
                             SurfaceFlags(True, -INF, None, True)),
            vB / (4 * math.pi),
            "b",
        ),
        (
            "minus_one_curve",
            SurfaceClassData(
                "blowup", 100.0, 1.0, 0.0,
                (Divisor("E1", -1, -1, 1.0),),
                SurfaceFlags(False, -INF, None, True),
            ),
            1.0 / TWO_PI,
            "c",
        ),
    ]


class TestGoldenSuite:
    @pytest.mark.parametrize("name,data,T,case", _golden(),
                             ids=[g[0] for g in _golden()])
    def test_fixture(self, name, data, T, case):
        r = maximal_time(data)
        assert r.case == case
        if math.isinf(T):
            assert not r.finite
        elif name == "class_vii_b2":
            # quadratic root checked through the polynomial itself
            assert volume_polynomial(data, r.T) == pytest.approx(0.0, abs=1e-9)
        else:
            assert r.T == pytest.approx(T, rel=1e-12)
        classify(data, r)  # narratives must not contradict the flags
