"""Closed-form bounds, point counts, rate families, and CSV emission."""

import math
import random

import pytest

from eaqec.bounds import (
    BoundCurve,
    FAMILY_NAMES,
    LOG4_3,
    amds_length_bound,
    curves_to_csv,
    eaq_length_bounds,
    entropy_q4,
    envelope_curve,
    family_domain,
    genus2_points,
    gv_root_x0,
    rate_value,
    sample_curve,
    tvz_rate,
    weil_bound,
)
from eaqec.errors import (
    BadFamilyParams,
    DomainError,
    FieldTooLarge,
    NoRoot,
    NotSquare,
)
from eaqec.gf import prime_power

# exact genus-2 maxima for small q
GENUS2_TRUTH = {
    (2, 1): 6,
    (3, 1): 8,
    (2, 2): 10,
    (5, 1): 12,
    (7, 1): 16,
    (2, 3): 18,
    (3, 2): 20,
    (11, 1): 24,
    (13, 1): 26,
}


class TestIntegerBounds:
    def test_amds_frozen(self):
        assert amds_length_bound(2, 4) == 25
        assert amds_length_bound(2, 3) == 14
        assert amds_length_bound(2, 2) == 9

    def test_amds_divisible_branch(self):
        # q = 128: floor(2*sqrt(q)) = 22 is even and m = 7 >= 3 is odd
        assert amds_length_bound(2, 7) == 128 + 22
        # q = 8 has even floor(2*sqrt(q))... no, 5; stays on the +1 branch
        assert amds_length_bound(2, 3) == 8 + 5 + 1

    def test_amds_validation(self):
        with pytest.raises(DomainError):
            amds_length_bound(4, 2)
        with pytest.raises(DomainError):
            amds_length_bound(2, 0)
        with pytest.raises(FieldTooLarge):
            amds_length_bound(2, 21)

    def test_genus2_truth_table(self):
        for (p, m), value in GENUS2_TRUTH.items():
            assert genus2_points(p, m) == value, (p, m)

    def test_genus2_even_nonexceptional(self):
        assert genus2_points(2, 4) == 16 + 1 + 16
        assert genus2_points(5, 2) == 25 + 1 + 20
        assert genus2_points(2, 6) == 64 + 1 + 32

    def test_weil_frozen(self):
        assert weil_bound(2, 2) == 7
        assert weil_bound(16, 2) == 33
        assert weil_bound(9, 0) == 10
        with pytest.raises(DomainError):
            weil_bound(1, 2)
        with pytest.raises(DomainError):
            weil_bound(4, -1)

    def test_genus2_never_exceeds_weil(self):
        for q in range(2, 1 << 12):
            pm = prime_power(q)
            if pm is None:
                continue
            p, m = pm
            n2 = genus2_points(p, m)
            w = weil_bound(q, 2)
            assert n2 <= w, q
            if m % 2 == 0 and q not in (4, 9):
                assert n2 == w, q

    def test_genus2_special_q_fall_short_of_weil(self):
        for p, m in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 3), (13, 1)):
            q = p ** m
            assert genus2_points(p, m) < weil_bound(q, 2)
        # q = 11 is not special: the Weil bound is met exactly
        assert genus2_points(11, 1) == weil_bound(11, 2)

    def test_eaq_length_bounds(self):
        assert eaq_length_bounds(2, 1) == (9, 10)
        assert eaq_length_bounds(3, 1) == (16, 20)
        assert eaq_length_bounds(2, 2) == (25, 33)
        # second figure is q^2 + 4q + 1 away from the two exceptions
        for p, m in ((2, 2), (5, 1), (7, 1), (3, 2)):
            q = p ** m
            assert eaq_length_bounds(p, m)[1] == q * q + 4 * q + 1


class TestEntropy:
    def test_anchors(self):
        assert entropy_q4(0.0) == 0.0
        assert entropy_q4(1.0) == LOG4_3
        assert abs(entropy_q4(0.75) - 1.0) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            entropy_q4(-0.01)
        with pytest.raises(DomainError):
            entropy_q4(1.01)

    def test_high_precision_oracle(self):
        from mpmath import mp, mpf, log

        mp.dps = 50
        rng = random.Random(31)
        for _ in range(1000):
            g = rng.uniform(1e-6, 1.0 - 1e-6)
            gm = mpf(g)
            truth = (
                gm * log(3) / log(4)
                - gm * log(gm) / log(4)
                - (1 - gm) * log(1 - gm) / log(4)
            )
            assert abs(entropy_q4(g) - float(truth)) < 1e-12

    def test_shape(self):
        # increasing up to 3/4, decreasing after, concave throughout
        xs = [i / 200 for i in range(201)]
        vals = [entropy_q4(x) for x in xs]
        for a, b in zip(xs, xs[1:]):
            va, vb = entropy_q4(a), entropy_q4(b)
            if b <= 0.75:
                assert vb > va
            if a >= 0.75:
                assert vb < va
        for i in range(1, 200):
            assert vals[i] >= (vals[i - 1] + vals[i + 1]) / 2 - 1e-12

    def test_not_symmetric(self):
        assert abs(entropy_q4(0.2) - entropy_q4(0.8)) > 0.1


class TestTvz:
    def test_frozen(self):
        assert abs(tvz_rate(49, 0.0) - 5.0 / 6.0) < 1e-15
        assert abs(tvz_rate(16, 0.1) - (0.9 - 1.0 / 3.0)) < 1e-15

    def test_errors(self):
        with pytest.raises(NotSquare):
            tvz_rate(8, 0.0)
        with pytest.raises(DomainError):
            tvz_rate(36, 0.0)  # square but not a prime power
        with pytest.raises(DomainError):
            tvz_rate(49, 0.9)  # past 1 - 1/6


class TestGvRoot:
    def test_frozen_root(self):
        x0 = gv_root_x0(0.0, 0.0)
        assert 0.18 < x0 < 0.20
        assert abs(2.0 * entropy_q4(x0) - 1.0) < 1e-10
        assert abs(gv_root_x0(0.3, 0.3) - x0) < 1e-11  # same target

    def test_endpoints(self):
        assert gv_root_x0(1.0, 0.0) == 0.0
        assert gv_root_x0(-1.0, 0.0) == 0.75

    def test_no_root(self):
        with pytest.raises(NoRoot):
            gv_root_x0(1.5, 0.2)
        with pytest.raises(NoRoot):
            gv_root_x0(-1.2, 0.0)

    def test_random_residuals(self):
        rng = random.Random(77)
        for _ in range(200):
            target = rng.uniform(0.05, 1.95)
            x0 = gv_root_x0(1.0 - target, 0.0)
            assert abs(2.0 * entropy_q4(x0) - target) < 1e-10

    def test_monotone_in_ce(self):
        roots = [gv_root_x0(0.0, ce) for ce in (0.0, 0.2, 0.4, 0.6, 0.8)]
        assert all(b > a for a, b in zip(roots, roots[1:]))


class TestRateFamilies:
    def test_registry(self):
        assert FAMILY_NAMES == ("P1a", "P1b", "C5", "C6", "C7", "C8", "GV")

    def test_frozen_intercepts(self):
        assert abs(rate_value("C5", 0.0, m=4) - 2.0 / 3.0) < 1e-15
        assert abs(rate_value("C6", 0.0, m=5) - 8.0 / 15.0) < 1e-15
        assert abs(rate_value("C7", 0.0, m=6) - 5.0 / 7.0) < 1e-15
        assert abs(rate_value("C8", 0.0, m=7) - 23.0 / 49.0) < 1e-15
        assert rate_value("GV", 0.0, ce=0.0) == 1.0

    def test_aliases(self):
        for d in (0.0, 0.05, 0.1):
            assert rate_value("P1a", d, m=4) == rate_value("C5", d, m=4)
        assert rate_value("P1b", 0.05, m=5) == rate_value("C6", 0.05, m=5)

    def test_domain_endpoints(self):
        lo, hi, included = family_domain("C5", m=4)
        assert (lo, included) == (0.0, True)
        assert abs(hi - (1.0 - 1.0 / 3.0) / 4.0) < 1e-15
        assert abs(rate_value("C5", hi, m=4)) < 1e-12  # rate hits zero there
        lo, hi, included = family_domain("C7", m=6)
        assert not included
        with pytest.raises(DomainError):
            rate_value("C7", hi, m=6)
        assert rate_value("C7", hi - 1e-9, m=6) > 0.0

    def test_gv_domain_is_the_root(self):
        _, hi, included = family_domain("GV", ce=0.25)
        assert included
        assert abs(2.0 * entropy_q4(hi) - 1.25) < 1e-10

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            rate_value("C5", 0.2, m=4)
        with pytest.raises(DomainError):
            rate_value("GV", -0.01, ce=0.0)

    def test_parameter_validation(self):
        with pytest.raises(BadFamilyParams):
            rate_value("C5", 0.0, m=5)       # odd
        with pytest.raises(BadFamilyParams):
            rate_value("C6", 0.0, m=4)       # even
        with pytest.raises(BadFamilyParams):
            rate_value("C7", 0.0, m=2)       # too small
        with pytest.raises(BadFamilyParams):
            rate_value("C8", 0.0, m=3)       # too small
        with pytest.raises(BadFamilyParams):
            rate_value("C5", 0.0)            # m missing
        with pytest.raises(BadFamilyParams):
            rate_value("C5", 0.0, m=4.0)     # m must be an int
        with pytest.raises(BadFamilyParams):
            rate_value("GV", 0.0, ce=1.0)
        with pytest.raises(BadFamilyParams):
            rate_value("GV", 0.0, ce=-0.1)
        with pytest.raises(BadFamilyParams):
            rate_value("nope", 0.0, m=4)

    def test_nonincreasing(self):
        cases = [
            ("C5", {"m": 4}), ("C6", {"m": 5}), ("C7", {"m": 8}),
            ("C8", {"m": 7}), ("GV", {"ce": 0.3}),
        ]
        for family, params in cases:
            _, hi, included = family_domain(family, **params)
            steps = 60
            top = hi if included else hi * (1 - 1e-9)
            vals = [
                rate_value(family, top * i / steps, **params)
                for i in range(steps + 1)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])), family


GRID = tuple(i / 100 for i in range(16))


class TestCurves:
    def test_sample_curve_filters_domain(self):
        curve = sample_curve("C5", GRID, m=4)
        assert isinstance(curve, BoundCurve)
        assert curve.label() == "C5[m=4]"
        _, hi, _ = family_domain("C5", m=4)
        assert [d for d, _ in curve.samples] == [d for d in GRID if d <= hi]
        for d, r in curve.samples:
            assert r == rate_value("C5", d, m=4)

    def test_gv_label(self):
        assert sample_curve("GV", GRID, ce=0.1).label() == "GV[ce=0.1]"

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            sample_curve("C5", (0.0, 0.0, 0.1), m=4)
        with pytest.raises(ValueError):
            sample_curve("C5", (0.1, 0.0), m=4)

    def test_envelope_is_pointwise_max(self):
        members = [("C5", {"m": 4}), ("C5", {"m": 6}), ("C6", {"m": 5})]
        env = envelope_curve(GRID, members)
        assert env.label() == "envelope"
        lut = dict(env.samples)
        for d in GRID:
            rates = []
            for fam, params in members:
                _, hi, included = family_domain(fam, **params)
                if d < hi or (included and d == hi):
                    rates.append(rate_value(fam, d, **params))
            if rates:
                assert lut[d] == max(rates)
            else:
                assert d not in lut

    def test_envelope_needs_members(self):
        with pytest.raises(BadFamilyParams):
            envelope_curve(GRID, [])


class TestCsv:
    def test_golden_tiny(self):
        curve = sample_curve("GV", (0.0,), ce=0.0)
        assert curves_to_csv((0.0,), [curve]) == "delta,GV[ce=0]\n0,1\n"

    def test_extra_columns_stay_empty(self):
        curve = sample_curve("GV", (0.0,), ce=0.0)
        out = curves_to_csv((0.0,), [curve], extra_columns=("ref_a", "ref_b"))
        assert out == "delta,GV[ce=0],ref_a,ref_b\n0,1,,\n"

    def test_layout_and_precision(self):
        curves = [sample_curve("C5", GRID, m=4), sample_curve("GV", GRID, ce=0.0)]
        out = curves_to_csv(GRID, curves)
        assert out.endswith("\n") and "\r" not in out
        lines = out.splitlines()
        assert lines[0] == "delta,C5[m=4],GV[ce=0]"
        assert len(lines) == 1 + len(GRID)
        _, hi, _ = family_domain("C5", m=4)
        for line, d in zip(lines[1:], GRID):
            cells = line.split(",")
            assert cells[0] == f"{d:.12g}"
            if d > hi:
                assert cells[1] == ""
            else:
                assert cells[1] == f"{rate_value('C5', d, m=4):.12g}"
            assert float(cells[2]) == pytest.approx(
                rate_value("GV", d, ce=0.0), abs=1e-11
            )
