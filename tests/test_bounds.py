"""Closed-form bounds, point counts, rate families, and CSV emission."""

import math
import random

import numpy as np
import pytest

from eaqec import bounds
from eaqec.bounds import (
    MAX_M,
    BoundCurve,
    FAMILY_NAMES,
    LOG4_3,
    amds_length_bound,
    curves_to_csv,
    delta_grid,
    eaq_length_bounds,
    entropy_q4,
    envelope_curve,
    genus2_points,
    gv_root_x0,
    rate_value,
    sample_curve,
    tvz_rate,
    weil_bound,
)
from eaqec.eaqecc import parse_params
from eaqec.errors import (
    BadFamilyParams,
    DomainError,
    FieldTooLarge,
    NoRoot,
    NotSquare,
)
from eaqec.primes import prime_power

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
    (17, 1): 32,  # q = 4^2 + 1 is special
    # odd m, f = floor(2 sqrt(q)): q is special when p divides f (Serre)
    (2, 7): 172,  # f = 22, special, frac(2 sqrt(q)) = 0.627 > 0.618: q + 2f
    (2, 9): 603,  # f = 45, not special: q + 1 + 2f
    (3, 7): 2372,  # f = 93, special, frac = 0.531 < 0.618: q + 2f - 1
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

    @pytest.mark.parametrize("call", [
        lambda: amds_length_bound(2.0, 4),
        lambda: amds_length_bound(2, 4.0),
        lambda: genus2_points(2, True),
        lambda: genus2_points(True, 1),
        lambda: eaq_length_bounds(3, 1.0),
        lambda: weil_bound(16.0, 1),
        lambda: weil_bound(16, 1.5),
        lambda: weil_bound(16, False),
    ], ids=["amds-p", "amds-m", "genus2-m", "genus2-p", "eaq-m", "weil-q", "weil-g",
            "weil-g-bool"])
    def test_non_integer_arguments_rejected(self, call):
        # a bool would pass as 0 or 1 and a float would reach isqrt
        with pytest.raises(DomainError, match="must be an integer"):
            call()

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


def domain_top(family, m=None, ce=None):
    """(delta_max, included) by the paper's formulas, eps = 1/(2^floor(m/2) - 1);
    the GV family ends at its root x0."""
    if family == "GV":
        return gv_root_x0(0.0, ce), True
    eps = 1.0 / (2 ** (m // 2) - 1)
    return {
        "C5": ((1.0 - eps) / m, True),
        "C6": (2.0 * (1.0 - eps) / m, True),
        "C7": ((1.0 - 2.0 * eps) / (2.0 * m), False),
        "C8": ((1.0 - 1.0 / (m - 1) - 2.0 * eps) / m, True),
    }[family]


def closed_form(family, m, delta):
    """C5-C8 rates by the paper's closed forms, eps = 1/(2^floor(m/2) - 1)."""
    eps = 1.0 / (2 ** (m // 2) - 1)
    return {
        "C5": 1.0 - m * delta - eps,
        "C6": (1.0 - 1.0 / m) * (1.0 - (m / 2.0) * delta - eps),
        "C7": 1.0 - 2.0 * m * delta - 2.0 * eps,
        "C8": (2.0 - 2.0 / m) * (1.0 - (m / 2.0) * delta - eps) - 1.0,
    }[family]


# (family, the closed form it follows, least m); m steps by 2 from there
CONCATENATED = [
    ("P1a", "C5", 2), ("P1b", "C6", 3), ("C5", "C5", 2),
    ("C6", "C6", 3), ("C7", "C7", 4), ("C8", "C8", 5),
]


class TestConcatenationRule:
    @pytest.mark.parametrize("family, form, least", CONCATENATED)
    def test_every_m_prints_the_closed_form(self, family, form, least):
        grid = [i * 0.0005 for i in range(1501)]
        for m in range(least, MAX_M + 1, 2):
            hi, included = domain_top(form, m=m)
            for d in grid:
                if d > hi or (d == hi and not included):
                    break
                got = f"{rate_value(family, d, m=m):.12g}"
                assert got == f"{closed_form(form, m, d):.12g}", (family, m, d)

    @pytest.mark.parametrize("family, form, least", CONCATENATED)
    def test_every_end_is_the_closed_form(self, family, form, least):
        # the float just past the end is refused and the one before accepted,
        # so the end the rule computes is domain_top's to the last bit
        for m in range(least, MAX_M + 1, 2):
            hi, included = domain_top(form, m=m)
            rate_value(family, math.nextafter(hi, 0.0), m=m)
            with pytest.raises(DomainError):
                rate_value(family, math.nextafter(hi, 1.0), m=m)
            if included:
                rate_value(family, hi, m=m)
            else:
                with pytest.raises(DomainError):
                    rate_value(family, hi, m=m)

    @pytest.mark.parametrize(
        "family, m, text",
        [("C5", 4, "[[4,4,1;0]]_2"), ("C5", 10, "[[10,10,1;0]]_2"),
         ("C6", 5, "[[5,4,2;1]]_2"), ("C6", 9, "[[9,8,2;1]]_2"),
         ("C7", 6, "[[6,6,1;0]]_2"), ("C8", 7, "[[7,6,2;1]]_2")],
    )
    def test_inner_codes(self, family, m, text):
        # each row's inner builds as a maximal-entanglement parameter tuple, and
        # its rate times the TVZ line over GF(2^k1), at delta*n1/d1, is the
        # closed form (2R - 1 for the net families C7 and C8)
        n1, k1, d1 = bounds._ROWS[family][0](m)
        code = parse_params(f"{n1},{k1},{d1},{n1 - k1},2")
        assert code.render() == text and code.is_maximal
        for d in (0.0, 0.25 / m, 0.5 / m):
            r = k1 / n1 * tvz_rate(2 ** k1, d * n1 / d1)
            want = 2 * r - 1 if family in ("C7", "C8") else r
            assert want == pytest.approx(closed_form(family, m, d), abs=1e-15)


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
        hi = (1.0 - 1.0 / 3.0) / 4.0  # C5 at m = 4: (1 - eps) / m, eps = 1/3
        assert domain_top("C5", m=4) == (hi, True)
        assert rate_value("C5", 0.0, m=4) > 0.0
        assert abs(rate_value("C5", hi, m=4)) < 1e-12  # closed end: rate hits zero there
        for delta in (-1e-12, hi * (1 + 1e-9)):
            with pytest.raises(DomainError):
                rate_value("C5", delta, m=4)
        hi, included = domain_top("C7", m=6)
        assert not included
        with pytest.raises(DomainError):
            rate_value("C7", hi, m=6)
        assert rate_value("C7", hi - 1e-9, m=6) > 0.0

    def test_gv_domain_is_the_root(self):
        hi = gv_root_x0(0.0, 0.25)
        assert abs(2.0 * entropy_q4(hi) - 1.25) < 1e-10
        assert abs(rate_value("GV", hi, ce=0.25)) < 1e-10  # closed end
        with pytest.raises(DomainError):
            rate_value("GV", hi + 1e-9, ce=0.25)

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

    def test_gv_ce_is_a_number_not_a_bool(self):
        # False would otherwise read as ce = 0; a non-float goes through the
        # integer rule, and at delta 0 the rate is 1 + ce
        for bad in (False, True, None, "0.1"):
            with pytest.raises(BadFamilyParams):
                rate_value("GV", 0.0, ce=bad)
        for good in (0, 0.0, np.float64(0.1)):
            assert rate_value("GV", 0.0, ce=good) == 1.0 + good

    def test_nonincreasing(self):
        cases = [
            ("C5", {"m": 4}), ("C6", {"m": 5}), ("C7", {"m": 8}),
            ("C8", {"m": 7}), ("GV", {"ce": 0.3}),
        ]
        for family, params in cases:
            hi, included = domain_top(family, **params)
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
        hi, _ = domain_top("C5", m=4)
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
        env = envelope_curve([sample_curve(fam, GRID, **params) for fam, params in members])
        assert env.label() == "envelope"
        lut = dict(env.samples)
        for d in GRID:
            rates = []
            for fam, params in members:
                hi, included = domain_top(fam, **params)
                if d < hi or (included and d == hi):
                    rates.append(rate_value(fam, d, **params))
            if rates:
                assert lut[d] == max(rates)
            else:
                assert d not in lut
        assert [d for d, _ in env.samples] == [d for d in GRID if d in lut]

    def test_envelope_needs_members(self):
        with pytest.raises(BadFamilyParams):
            envelope_curve([])


class TestDeltaGrid:
    @pytest.mark.parametrize(
        "step, top",
        [(0.01, 0.75), (0.002, 0.35), (0.05, 0.75), (0.5, 0.75), (0.1, 0.3), (0.25, 0.0)],
    )
    def test_multiples_of_step_up_to_top(self, step, top):
        # every i * step within a rounding error of top is kept, nothing above
        grid = delta_grid(step, top)
        assert grid == [i * step for i in range(len(grid))]
        assert grid[-1] <= top * (1 + 1e-12)
        assert len(grid) * step > top * (1 + 1e-12)

    def test_tiny_step_on_a_zero_top(self):
        assert delta_grid(1e-20, 0.0) == [0.0]
        assert len(delta_grid(1e-300, 0.0)) == 1

    def test_cap_is_on_the_point_count(self):
        assert len(delta_grid(1e-6, 1.0 - 1e-6)) == 10**6
        for step, top in [(1e-6, 1.0), (1e-300, 1e-10), (5e-324, 1e300)]:
            with pytest.raises(DomainError, match="cap 1000000"):
                delta_grid(step, top)


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
        hi, _ = domain_top("C5", m=4)
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
