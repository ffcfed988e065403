"""Ensemble generating functions, probability bounds, exhaustive validation.

The heavier oracle here computes the exact ensemble-average weight enumerator
E[N(w)] by per-vector probabilities: inner parity parts are drawn
independently per outer position, so a vector's membership probability
factorizes over its blocks and is settled by enumerating a single parity
part at a time.  Everything is exact rationals.
"""

import math
import time
import tracemalloc
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest

from eaqec import ensemble, gf
from eaqec.ensemble import (
    ClassStat,
    EnsembleSpec,
    WeightPolynomial,
    avg_codeword_bound,
    ensemble_exhaustive,
    nt_w_bruteforce,
    phi_series_value,
    phi_upper_bound,
    psi_t,
    theorem2_probability_bound,
)
from eaqec.errors import DomainError, TooLarge
from eaqec.gf import FieldSpec


def series_coefficients(spec):
    """Coefficients of sum_t 4^-(t*r1 + kbar1*r2) * Psi_t(x), exact."""
    coeffs = [Fraction(0)] * (spec.n_e + 1)
    for t in range(spec.n2 + 1):
        scale = Fraction(1, 4 ** (t * spec.r1 + spec.kbar1 * spec.r2))
        poly = psi_t(spec.n1, spec.n2, t)
        for w in range(spec.n_e + 1):
            coeffs[w] += scale * poly.coefficient(w)
    return coeffs


def _gf_dot(spec, xs, ys):
    acc = 0
    for x, y in zip(xs, ys):
        acc = spec.add(acc, spec.mul(x, y))
    return acc


def model_average(spec):
    """Exact E[N(w)] for the ensemble, by exhausting each parity part."""
    g4 = FieldSpec(2, 2)
    k1, r1, n1 = spec.k1, spec.r1, spec.n1
    kb = spec.kbar1
    q = 4 ** kb
    outer = FieldSpec(2, 2 * kb)
    k2, r2, n2 = spec.k2, spec.r2, spec.n2

    def block_prob(block):
        m, par = block[:k1], block[k1:]
        if not any(m):
            return Fraction(1) if not any(par) else Fraction(0)
        hits = sum(
            1
            for p1 in iproduct(range(4), repeat=k1 * r1)
            if all(
                _gf_dot(g4, m, [p1[i * r1 + j] for i in range(k1)]) == par[j]
                for j in range(r1)
            )
        )
        return Fraction(hits, 4 ** (k1 * r1))

    def outer_prob(v):
        a, par = v[:k2], v[k2:]
        if not any(a):
            return Fraction(1) if not any(par) else Fraction(0)
        prob = Fraction(1)
        for j in range(r2):
            hits = sum(
                1
                for col in iproduct(range(q), repeat=k2)
                if _gf_dot(outer, a, col) == par[j]
            )
            prob *= Fraction(hits, q ** k2)
        return prob

    totals = [Fraction(0)] * (spec.n_e + 1)
    for u in iproduct(range(4), repeat=spec.n_e):
        if not any(u):
            continue
        prob = Fraction(1)
        symbols = []
        for b in range(n2):
            block = u[b * n1:(b + 1) * n1]
            prob *= block_prob(block)
            # inner info part, reassembled as one outer-field symbol
            symbols.append(sum(block[i] << (2 * i) for i in range(k1)))
        if prob:
            prob *= outer_prob(tuple(symbols))
        if prob:
            totals[sum(1 for x in u if x)] += prob
    return totals


class TestPsi:
    def test_small_example(self):
        assert psi_t(2, 2, 1).coefficients == (0, 12, 18)

    def test_t_zero_is_one(self):
        poly = psi_t(3, 4, 0)
        assert poly.coefficients == (1,)
        assert poly.evaluate(Fraction(7)) == 1

    def test_single_position_blocks(self):
        # n1 = 1: exactly C(n2, t) * 3^t vectors, all of weight t
        for n2 in (1, 3, 5):
            for t in range(n2 + 1):
                poly = psi_t(1, n2, t)
                for w in range(n2 + 1):
                    want = math.comb(n2, t) * 3 ** t if w == t else 0
                    assert poly.coefficient(w) == want

    def test_total_count(self):
        for n1, n2 in ((2, 2), (3, 3), (4, 2)):
            for t in range(n2 + 1):
                assert psi_t(n1, n2, t).evaluate(1) == (
                    math.comb(n2, t) * (4 ** n1 - 1) ** t
                )

    def test_partition_of_the_whole_space(self):
        for n1, n2 in ((2, 2), (3, 2), (2, 4)):
            total = sum(psi_t(n1, n2, t).evaluate(1) for t in range(n2 + 1))
            assert total == 4 ** (n1 * n2)

    def test_block_recursion_oracle(self):
        # M_t(w) = sum_i 3^i C(n1,i) M_{t-1}(w-i); N_t = C(n2,t) M_t
        for n1, n2 in ((2, 3), (3, 2), (4, 3)):
            ne = n1 * n2
            m_prev = [1] + [0] * ne
            for t in range(n2 + 1):
                poly = psi_t(n1, n2, t)
                for w in range(ne + 1):
                    assert poly.coefficient(w) == math.comb(n2, t) * m_prev[w]
                m_next = [0] * (ne + 1)
                for w in range(ne + 1):
                    for i in range(1, min(n1, w) + 1):
                        m_next[w] += 3 ** i * math.comb(n1, i) * m_prev[w - i]
                m_prev = m_next

    def test_large_call_against_closed_values(self):
        # the binomial sum cancels heavily here; its totals at x = 1 and x = -1
        # and its lowest and highest weights have closed forms
        n1, n2, t = 100, 100, 50
        poly = psi_t(n1, n2, t)
        scale = math.comb(n2, t)
        assert poly.evaluate(1) == scale * (4 ** n1 - 1) ** t
        assert poly.evaluate(-1) == scale * ((-2) ** n1 - 1) ** t
        assert poly.coefficients[: t + 1] == (0,) * t + (scale * (3 * n1) ** t,)
        assert poly.coefficients[-1] == scale * 3 ** (n1 * t)

    def test_work_cap_refuses_at_once(self):
        for args in ((100, 100, 100), (1, 10**4, 10**4)):
            start = time.perf_counter()
            with pytest.raises(DomainError, match="above the cap 150000"):
                psi_t(*args)
            assert time.perf_counter() - start < 1.0

    def test_series_over_the_cap_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="above the cap"):
            phi_series_value(EnsembleSpec(3, 2, 400, 200), Fraction(1, 2))
        assert time.perf_counter() - start < 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            psi_t(0, 2, 0)
        with pytest.raises(DomainError):
            psi_t(2, 2, 3)
        with pytest.raises(DomainError):
            psi_t(2, 2, -1)
        with pytest.raises(DomainError):
            psi_t(101, 101, 1)  # coefficient cap


class TestWeightPolynomial:
    def test_evaluate_exact(self):
        poly = WeightPolynomial((1, 0, 6), n_e=4)
        assert poly.evaluate(Fraction(1, 2)) == Fraction(5, 2)
        assert isinstance(poly.evaluate(0.5), float)
        assert sum(poly.coefficients) == 7
        assert poly.coefficient(1) == 0 and poly.coefficient(9) == 0

    def test_validation(self):
        with pytest.raises(DomainError):
            WeightPolynomial((1, 2, 3), n_e=1)
        with pytest.raises(DomainError):
            WeightPolynomial((1, -2), n_e=3)


def nt_w_per_vector(n1, n2):
    """N_t(w) by visiting each vector of GF(4)^(n1*n2) as a digit tuple."""
    table = [[0] * (n1 * n2 + 1) for _ in range(n2 + 1)]
    for v in iproduct(range(4), repeat=n1 * n2):
        w = sum(1 for x in v if x)
        t = sum(1 for b in range(n2) if any(v[b * n1:(b + 1) * n1]))
        table[t][w] += 1
    return table


SMALL_SIZES = [(n1, n2) for n1 in range(1, 7) for n2 in range(1, 7) if n1 * n2 <= 6]


class TestBruteforceTable:
    @pytest.mark.parametrize("n1,n2", SMALL_SIZES)
    def test_matches_per_vector_reference(self, n1, n2):
        assert nt_w_bruteforce(n1, n2).tolist() == nt_w_per_vector(n1, n2)

    @pytest.mark.parametrize("n1,n2", SMALL_SIZES + [(1, 7), (7, 1)])
    def test_matches_reference_across_many_chunks(self, monkeypatch, n1, n2):
        # Small chunks: every size above ne = 2 spans several, so chunk
        # offsets and the last chunk are exercised.  Across the three sizes
        # the low part of whole blocks is empty (n1 >= 3 at 16), takes one
        # high value per chunk ((1, *) at 64) or several ((2, *) at 64).
        want = nt_w_per_vector(n1, n2)
        for chunk in (16, 64, 1024):
            monkeypatch.setattr(ensemble, "_CHUNK", chunk)
            assert nt_w_bruteforce(n1, n2).tolist() == want, chunk

    @pytest.mark.parametrize("n1,n2", [(2, 3), (2, 6), (9, 1)])
    def test_every_vector_is_counted(self, monkeypatch, n1, n2):
        # each of the 4^ne keys is written out and bincounted, a chunk at a
        # time: two to an element into base^2 bins, or one into base bins
        # when nothing is paired ((9, 1)); the low and high parts' histograms
        # are never combined
        base = (n2 + 1) * (n1 * n2 + 1)
        counted = []
        bincount = np.bincount

        def spy(a, **kw):
            counted.append(a.size * {base: 1, base * base: 2}[kw["minlength"]])
            return bincount(a, **kw)

        monkeypatch.setattr(np, "bincount", spy)
        nt_w_bruteforce(n1, n2)
        assert sum(counted) == 4 ** (n1 * n2)
        assert max(counted) == min(ensemble._CHUNK, 4 ** (n1 * n2))

    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 2), (3, 2), (2, 3), (1, 5), (3, 3)])
    def test_matches_psi(self, n1, n2):
        table = nt_w_bruteforce(n1, n2)
        assert table.shape == (n2 + 1, n1 * n2 + 1)
        for t in range(n2 + 1):
            poly = psi_t(n1, n2, t)
            for w in range(n1 * n2 + 1):
                assert table[t, w] == poly.coefficient(w)
        assert int(table.sum()) == 4 ** (n1 * n2)

    def test_memory_bounded(self):
        # 4^12 vectors through reused chunk buffers, not whole-range temporaries
        tracemalloc.start()
        try:
            nt_w_bruteforce(2, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize("n1,n2", [(1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)])
    def test_largest_admitted_sizes(self, n1, n2):
        # 4^12 vectors, the cap: within the peak stated at _CHUNK (1.2 MiB
        # measured at (12, 1)) and 0.5 s (0.04-0.08 s measured)
        assert 2 * n1 * n2 == ensemble._MAX_ENSEMBLE_BITS
        tracemalloc.start()
        try:
            start = time.perf_counter()
            table = nt_w_bruteforce(n1, n2)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(table.sum()) == 4**12
        assert peak < 1_572_864 and elapsed < 0.5

    @pytest.mark.parametrize("n1,n2", [(13, 1), (1, 13)])
    def test_smallest_refused_sizes(self, n1, n2):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(TooLarge, match=r"4\^13 vectors exceed the enumeration cap"):
                nt_w_bruteforce(n1, n2)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20 and elapsed < 0.01

    def test_caps(self):
        with pytest.raises(TooLarge):
            nt_w_bruteforce(13, 1)
        with pytest.raises(DomainError):
            nt_w_bruteforce(0, 3)


@pytest.mark.parametrize(
    "call, args",
    [
        (nt_w_bruteforce, (True, 2)),
        (nt_w_bruteforce, (2.0, 3)),
        (psi_t, (1, 2, True)),
        (psi_t, (2, 2.0, 1)),
        (ensemble_exhaustive, (True, True, 2, 1)),
        (ensemble_exhaustive, ("2", 1, 2, 1)),
        (EnsembleSpec, (2, 1, 2, 1, True)),
        (EnsembleSpec, (2, 1, 2.0, 1)),
    ],
    ids=["nt_w-bool", "nt_w-float", "psi-bool", "psi-float", "exhaustive-bool",
         "exhaustive-str", "spec-bool-c1", "spec-float"],
)
def test_sizes_must_be_integers(call, args):
    # True would pass as 1, and 2.0 died inside numpy with a bare TypeError
    with pytest.raises(DomainError, match="must be an integer"):
        call(*args)


class TestEnsembleSpec:
    def test_maximal_defaults(self):
        spec = EnsembleSpec(4, 2, 8, 4)
        assert (spec.c1, spec.c2) == (2, 4)
        assert (spec.kbar1, spec.kbar2) == (2, 4)  # maximal: kbar = k
        assert (spec.n_e, spec.k_e) == (32, 8)
        assert spec.c_e == 2 * 8 + 4 * 2
        assert spec.rate == 0.25
        assert spec.net_rate == spec.rate - spec.ea_rate

    def test_explicit_entanglement(self):
        spec = EnsembleSpec(4, 3, 5, 3, c1=1, c2=0)
        assert spec.kbar1 == 2 * 3 - 4 + 1
        assert spec.kbar2 == 2 * 3 - 5 + 0
        assert spec.c_e == 1 * 5 + 0 * spec.kbar1

    def test_exponent_identity_all_entanglements(self):
        # r_e + c_e == 2*(r1*n2 + kbar1*r2), any c1, c2
        for n1, k1 in ((2, 1), (3, 2), (4, 2)):
            for n2, k2 in ((2, 1), (5, 3)):
                for c1 in range(n1 - k1 + 1):
                    if 2 * k1 - n1 + c1 < 0:
                        continue
                    for c2 in range(n2 - k2 + 1):
                        if 2 * k2 - n2 + c2 < 0:
                            continue
                        spec = EnsembleSpec(n1, k1, n2, k2, c1=c1, c2=c2)
                        assert spec.r_e + spec.c_e == 2 * (
                            spec.r1 * spec.n2 + spec.kbar1 * spec.r2
                        )

    def test_validation(self):
        with pytest.raises(DomainError):
            EnsembleSpec(2, 0, 2, 1)
        with pytest.raises(DomainError):
            EnsembleSpec(2, 3, 2, 1)
        with pytest.raises(DomainError):
            EnsembleSpec(2, 1, 2, 1, c1=2)
        with pytest.raises(DomainError):
            EnsembleSpec(2, 1, 2, 1, c2=-1)
        with pytest.raises(DomainError):
            EnsembleSpec(3, 1, 2, 1, c1=0)  # kbar1 = -1


class TestPhiBounds:
    def test_series_closed_form(self):
        # binomial identity: the series telescopes to
        # 4^-(kbar1*r2) * (1 + ((1+3x)^n1 - 1) / 4^r1)^n2
        for args in ((2, 1, 2, 1), (3, 2, 4, 2), (4, 2, 3, 1)):
            spec = EnsembleSpec(*args)
            for x in (Fraction(1, 3), Fraction(1, 2), Fraction(7, 8)):
                base = (1 + 3 * x) ** spec.n1
                closed = Fraction(1, 4 ** (spec.kbar1 * spec.r2)) * (
                    1 + (base - 1) / Fraction(4 ** spec.r1)
                ) ** spec.n2
                assert phi_series_value(spec, x) == closed

    def test_upper_bound_dominates_series(self):
        for args in ((2, 1, 2, 1), (4, 2, 8, 4), (3, 2, 5, 2)):
            spec = EnsembleSpec(*args)
            for x in (0.1, 0.5, 0.9):
                series = phi_series_value(spec, Fraction(x).limit_denominator(10))
                loose = phi_upper_bound(spec, float(Fraction(x).limit_denominator(10)))
                assert float(series) <= 2.0**loose * (1 + 1e-12)

    def test_exact_cross_check(self):
        spec = EnsembleSpec(4, 2, 8, 4)
        bound = phi_upper_bound(spec, 0.5)
        exact = Fraction(1, 2 ** (spec.r_e + spec.c_e)) * (
            (1 + Fraction(3, 2)) ** spec.n1 + 4 ** spec.r1
        ) ** spec.n2
        truth = math.log2(exact.numerator) - math.log2(exact.denominator)
        assert bound == pytest.approx(truth, abs=1e-12)

    def test_monotone_in_x(self):
        spec = EnsembleSpec(4, 2, 8, 4)
        vals = [phi_upper_bound(spec, x / 20) for x in range(1, 20)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        spec = EnsembleSpec(2, 1, 2, 1)
        with pytest.raises(DomainError):
            phi_upper_bound(spec, 0.0)
        with pytest.raises(DomainError):
            phi_upper_bound(spec, 1.0)

    def test_finite_log2_past_float_range(self):
        # 2^log2 would overflow binary64; the log2 itself stays finite
        spec = EnsembleSpec(4, 2, 600, 300)
        bound = phi_upper_bound(spec, 0.99)
        assert math.isfinite(bound) and bound > 1020.0


class TestAverageOracle:
    @pytest.mark.parametrize("args", [(2, 1, 2, 1), (2, 1, 3, 1), (3, 2, 2, 1)])
    def test_series_dominates_exhaustive_average(self, args):
        spec = EnsembleSpec(*args)
        avg = model_average(spec)
        series = series_coefficients(spec)
        assert all(avg[w] <= series[w] for w in range(1, spec.n_e + 1))
        # strict somewhere: some weight-w patterns are never codewords
        assert any(avg[w] < series[w] for w in range(1, spec.n_e + 1))
        for x in (Fraction(1, 10), Fraction(1, 2)):
            gen = sum(avg[w] * x ** w for w in range(1, spec.n_e + 1))
            assert gen <= phi_series_value(spec, x)

    @pytest.mark.parametrize("args", [(2, 1, 2, 1), (3, 2, 2, 1)])
    def test_single_weight_bound_dominates(self, args):
        spec = EnsembleSpec(*args)
        avg = model_average(spec)
        for w in range(1, spec.n_e + 1):
            gamma = w / spec.n_e
            if gamma > 0.75 or avg[w] == 0:
                continue
            assert avg_codeword_bound(spec, gamma) >= math.log2(avg[w]) - 1e-12

    def test_avg_codeword_bound_domain(self):
        spec = EnsembleSpec(2, 1, 2, 1)
        with pytest.raises(DomainError):
            avg_codeword_bound(spec, 0.0)
        with pytest.raises(DomainError):
            avg_codeword_bound(spec, 0.76)


class TestTheorem2:
    def test_reported_constants(self):
        spec = EnsembleSpec(4, 2, 8, 4)
        out = theorem2_probability_bound(spec, 0.25)
        assert out.tau == pytest.approx(4.0 ** 0.5 * 0.75)
        assert out.c_const == pytest.approx(out.tau ** 4 * 8)
        assert out.prefactor == pytest.approx(0.75 / 0.5)

    def test_prefactor_blowup(self):
        spec = EnsembleSpec(2, 1, 2, 1)
        assert theorem2_probability_bound(spec, 0.49).prefactor == pytest.approx(25.5)

    def test_domain(self):
        spec = EnsembleSpec(2, 1, 2, 1)
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(DomainError):
                theorem2_probability_bound(spec, bad)

    def test_increasing_in_delta(self):
        spec = EnsembleSpec(4, 2, 8, 4)
        vals = [
            theorem2_probability_bound(spec, 0.05 * i).log2 for i in range(1, 10)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_constant_beyond_binary64_refused(self):
        # c = tau^n1 * n2: tau^n1 overflows for the first spec, and only the
        # product with n2 for the second
        for spec in (EnsembleSpec(10**12, 2, 8, 4), EnsembleSpec(670, 1, 10**10, 1)):
            with pytest.raises(DomainError, match="beyond binary64"):
                theorem2_probability_bound(spec, 0.3)
        # just below 2^1024 the constant is finite
        c = theorem2_probability_bound(EnsembleSpec(670, 1, 10**9, 1), 0.3).c_const
        assert math.isfinite(c) and c > 2.0**1000

    def test_consistent_with_avg_bound(self):
        spec = EnsembleSpec(4, 2, 8, 4)
        out = theorem2_probability_bound(spec, 0.3)
        assert out.log2 == pytest.approx(
            math.log2(out.prefactor) + avg_codeword_bound(spec, 0.3)
        )


def whole_matrix_classes(experiment, spec, n, k):
    """Syndrome-kill classes by visiting every whole P in GF(q)^(k x r).

    A per-matrix oracle for ensemble_exhaustive: each of the q^(k*r) parity
    parts is built in full and every nonzero v is tested against H = [-P^T I]
    with scalar field arithmetic, so nothing rests on the columns of P being
    independent.
    """
    q, r = spec.q, n - k
    vectors = [v for v in iproduct(range(q), repeat=n) if any(v)]
    hits = dict.fromkeys(vectors, 0)
    matrices = list(iproduct(range(q), repeat=k * r))
    for flat in matrices:
        cols = [flat[j::r] for j in range(r)]  # column j of P, row-major flat
        for v in vectors:
            if all(_gf_dot(spec, col, v[:k]) == v[k + j] for j, col in enumerate(cols)):
                hits[v] += 1
    stats = []
    for info_zero in (True, False):
        members = [v for v in vectors if (not any(v[:k])) == info_zero]
        freqs = tuple(sorted({Fraction(hits[v], len(matrices)) for v in members}))
        expected = Fraction(0) if info_zero else Fraction(1, q**r)
        stats.append(ClassStat(experiment, info_zero, len(members), freqs, expected))
    return tuple(stats), len(matrices)


class TestExhaustive:
    @pytest.mark.parametrize("n1,k1", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_inner_matches_whole_matrix_oracle(self, n1, k1):
        report = ensemble_exhaustive(n1, k1, 2, 1)
        stats, matrices = whole_matrix_classes("inner", FieldSpec(2, 2), n1, k1)
        assert report.classes[:2] == stats
        assert report.inner_matrices == matrices

    @pytest.mark.parametrize(
        "n1,k1,n2,k2,m",
        [
            (2, 2, 2, 1, 4),  # outer field GF(4^kbar1) = GF(16)
            (1, 1, 2, 2, 2),  # r2 = 0: P has no column, so every v is killed
            (2, 1, 2, 2, 2),
            (2, 1, 3, 2, 2),  # k2 = 2: columns of P range over GF(4)^2
        ],
    )
    def test_outer_gf16_matches_whole_matrix_oracle(self, n1, k1, n2, k2, m):
        report = ensemble_exhaustive(n1, k1, n2, k2)
        stats, matrices = whole_matrix_classes("outer", FieldSpec(2, m), n2, k2)
        assert report.classes[2:] == stats
        assert report.outer_matrices == matrices

    @pytest.mark.parametrize(
        "n,k,m", [(2, 1, 2), (3, 1, 2), (3, 2, 2), (2, 2, 2), (2, 1, 4)],
        ids=["gf4-2-1", "gf4-3-1", "gf4-3-2", "gf4-r0", "gf16-2-1"],
    )
    def test_blocks_of_information_parts_match_whole_matrix_oracle(self, monkeypatch, n, k, m):
        # one information part per block (_CHUNK = 1), then blocks of 3 with a
        # shorter last one, give the same classes as one block of all parts
        spec = FieldSpec(2, m)
        stats, _ = whole_matrix_classes("outer", spec, n, k)
        assert ensemble._syndrome_classes("outer", spec, n, k) == stats
        for chunk in (1, 3 * max(spec.q**k * k, spec.q ** (n - k))):
            monkeypatch.setattr(ensemble, "_CHUNK", chunk)
            assert ensemble._syndrome_classes("outer", spec, n, k) == stats

    @pytest.mark.parametrize("spec", [(1, 1, 6, 6), (2, 2, 4, 3), (1, 1, 10, 5)])
    def test_memory_is_a_few_blocks(self, spec):
        # the largest specs the caps admit: q^k * k = 24,576 or 12,288
        # products a part with q^r = 1 or 16, and 4^5 * 5 with q^r = 4^5;
        # blocks of at most _CHUNK entries keep each array under 0.5 MiB
        ensemble_exhaustive(1, 1, 2, 1)  # GF(4) and its tables built
        ensemble_exhaustive(2, 2, 2, 1)  # GF(16)
        tracemalloc.start()
        try:
            report = ensemble_exhaustive(*spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_passed
        assert peak <= 2 << 20

    @pytest.mark.parametrize("args", [(2, 1, 2, 1), (3, 2, 2, 1)])
    def test_identities_hold(self, args):
        report = ensemble_exhaustive(*args)
        assert report.all_passed
        for stat in report.classes:
            if stat.info_zero:
                assert stat.expected == 0
            else:
                # weight independence: a single observed frequency
                assert len(stat.frequencies) == 1
                assert stat.frequencies[0] == stat.expected

    def test_expected_rationals(self):
        report = ensemble_exhaustive(2, 1, 2, 1)
        inner_nz = report.classes[1]
        outer_nz = report.classes[3]
        assert inner_nz.expected == Fraction(1, 4)       # 4^-r1
        assert outer_nz.expected == Fraction(1, 4)       # q^-r2, q = 4^kbar1
        assert inner_nz.vectors == 4 ** 2 - 4            # nonzero info part
        assert report.classes[0].vectors == 4 - 1

    def test_report_rendering(self):
        text = ensemble_exhaustive(2, 1, 2, 1).render()
        assert "ensemble n1=2 k1=1 n2=2 k2=1" in text
        assert text.count("PASS") == 4
        assert "FAIL" not in text
        assert text.endswith("all identities hold")

    @pytest.mark.parametrize(
        "args, vectors",
        [
            # 2^30 and 2^50 outer matrices, counted per information part, not
            # visited.  Each class holds q^r - 1 (zero info part) or q^n - q^r
            # (nonzero) vectors.
            ((1, 1, 8, 3), [0, 3, 1023, 64512]),
            ((1, 1, 10, 5), [0, 3, 1023, 1047552]),
        ],
    )
    def test_many_outer_matrices_run(self, args, vectors):
        report = ensemble_exhaustive(*args)
        assert report.all_passed
        assert [c.vectors for c in report.classes] == vectors

    def test_caps(self, monkeypatch):
        """Every refusal comes before a field is built or an enumeration starts."""

        def start(*args):
            raise AssertionError(f"work started for a refused spec: {args}")

        monkeypatch.setattr(ensemble, "_FIELDS", {})
        monkeypatch.setattr(ensemble, "_syndrome_classes", start)
        monkeypatch.setattr(gf, "field_of_order", start)
        for spec in [
            (4, 2, 2, 1),
            (1, 1, 7, 7),
            (2, 2, 4, 4),
            (1, 1, 11, 1),
            (2, 2, 6, 1),
            (1, 1, 10, 10),
            (1, 1, 10**8, 10**8),
            (1, 1, 10**12, 1),
        ]:
            with pytest.raises(TooLarge):
                ensemble_exhaustive(*spec)

    def test_fields_built_once(self, monkeypatch):
        built, build = [], gf.field_of_order
        monkeypatch.setattr(ensemble, "_FIELDS", {})
        monkeypatch.setattr(gf, "field_of_order", lambda q: built.append(q) or build(q))
        for spec in [(2, 2, 2, 1), (2, 2, 2, 1), (2, 1, 2, 1), (3, 2, 2, 1), (1, 1, 3, 2)]:
            assert ensemble_exhaustive(*spec).all_passed
        assert sorted(built) == [4, 16]
        assert sorted(ensemble._FIELDS) == [4, 16]

    @pytest.mark.parametrize(
        "spec, admitted",
        [
            # r2 = 0 leaves only the q^k * q^k * k column products of the outer
            # experiment, 2^(4*kbar1*k2) * k2 <= 2^27: 4^14 * 7 ~ 1.9e9 ran for 21 s
            ((1, 1, 7, 7), False),
            ((2, 2, 4, 4), False),
            # the largest specs at the column cap, 1.0e8 and 5.0e7 products, about 0.5 and 0.3 s
            ((1, 1, 6, 6), True),
            ((2, 2, 4, 3), True),
            # the q_outer^n2 = 2^(2*kbar1*n2) test vectors, at and above their 2^20 cap
            ((1, 1, 10, 1), True),
            ((1, 1, 11, 1), False),
            ((2, 2, 5, 1), True),
            ((2, 2, 6, 1), False),
            # 2^20 vectors each; 4^10 * 5 column products pass, 4^20 * 10 (about a day) do not
            ((1, 1, 10, 5), True),
            ((1, 1, 10, 10), False),
        ],
    )
    def test_column_work_decided_before_enumerating(self, monkeypatch, spec, admitted):
        class Started(Exception):
            pass

        def start(*args):
            raise Started

        monkeypatch.setattr(ensemble, "_syndrome_classes", start)
        with pytest.raises(Started if admitted else TooLarge):
            ensemble_exhaustive(*spec)

    @pytest.mark.parametrize(
        "call, args, message",
        [
            # k2 = 10^8: 4^(2*10^8) column products; n2 = 10^8 or 10^12: 4^n2
            # vectors.  Each is refused by its exponent, not its power.
            (ensemble_exhaustive, (1, 1, 10**8, 10**8), r"4\^200000000 \* 100000000 col"),
            (ensemble_exhaustive, (1, 1, 10**8, 1), r"4\^100000000 test vectors"),
            (ensemble_exhaustive, (1, 1, 10**12, 1), r"4\^1000000000000 test vectors"),
            (nt_w_bruteforce, (10**4, 10**4), r"4\^100000000 vectors exceed"),
        ],
        ids=["column-work", "test-vectors", "test-vectors-1e12", "vectors"],
    )
    def test_huge_sizes_refused_at_once(self, call, args, message):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=message):
            call(*args)
        assert time.perf_counter() - start < 0.5
