"""End-to-end CLI runs, in process via main(argv)."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from eaqec.bounds import MAX_M, gv_root_x0, rate_value
from eaqec.cli import main, read_matrix_file
from eaqec.eaqecc import parse_params
from eaqec.errors import DEFAULT_BUDGET, ParseError

REP2 = "q 2 poly 1,1\n1 1\n"
HAMMING = (
    "q 2 poly 1,1\n"
    "1 0 1 0 1 0 1\n"
    "0 1 1 0 0 1 1\n"
    "0 0 0 1 1 1 1\n"
)
HERM3 = "q 4 poly 1,1,1\n# one conjugate-orthogonality violation\n1 1 2\n"

WORKED = ["concat", "--inner", "4,2,2,0,2", "--outer", "25,13,>=12,12,4"]


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out.splitlines(), cap.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def records(lines):
    return [json.loads(ln) for ln in lines if ln.startswith("{")]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_fresh(argv):
    """`python -m eaqec ARGV` in a fresh interpreter; a spin fails on the timeout,
    and a runaway allocation on the child's 1 GiB address-space limit."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "eaqec", *argv],
        capture_output=True, text=True, env=env, timeout=20,
        preexec_fn=_cap_address_space,
    )


class TestBannerAndJson:
    def test_banner_only_by_default(self, capsys):
        code, lines, err = run(capsys, WORKED)
        assert code == 0 and err == ""
        assert lines[0] == "# eaqec 0.1.0"
        assert len(lines) == 2

    def test_quiet(self, capsys):
        code, lines, _ = run(capsys, WORKED + ["--quiet"])
        assert code == 0
        assert lines == ["[[100,26,>=24;24]]_2 net=2 hbar_e=52 class=52-EAQMDS maximal=no"]

    def test_json_record_round_trip(self, capsys):
        code, lines, _ = run(capsys, WORKED + ["--quiet", "--json"])
        assert code == 0
        (rec,) = records(lines)
        assert rec["command"] == "concat"
        back = parse_params(rec["params"])
        assert (back.n, back.k, back.c, back.q) == (100, 26, 24, 2)
        assert rec["net"] == 2 and rec["hbar_e"] == 52
        assert rec["class"] == "52-EAQMDS" and rec["maximal"] is False

    def test_json_keys_sorted(self, capsys):
        _, lines, _ = run(capsys, WORKED + ["--quiet", "--json"])
        (raw,) = [ln for ln in lines if ln.startswith("{")]
        keys = list(json.loads(raw).keys())
        assert keys == sorted(keys)

    def test_missing_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main([])


class TestMatrixFiles:
    def test_read_matrix_file(self, tmp_path):
        m = read_matrix_file(write(tmp_path, "h.txt", HAMMING))
        assert m.shape == (3, 7) and m.spec.q == 2

    def test_comments_skipped(self, tmp_path):
        m = read_matrix_file(write(tmp_path, "h.txt", HERM3))
        assert m.shape == (1, 3) and m.spec.q == 4

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "empty"),
            ("q 6 poly 1,1\n1 1\n", "prime power"),
            ("size 4 poly 1,1,1\n1 1\n", "header"),
            ("q 4 poly 1,x,1\n1 1\n", "malformed header"),
            ("q 4 poly 1,0,1\n1 1\n", "bad field header"),
            ("q 2 poly 1,1\n", "no matrix rows"),
            ("q 2 poly 1,1\n1 a\n", "non-integer"),
            ("q 2 poly 1,1\n1 1\n1 1 1\n", "ragged"),
            ("q 2 poly 1,1\n1 2\n", "out of range"),
        ],
    )
    def test_rejects(self, tmp_path, text, match):
        with pytest.raises(ParseError, match=match):
            read_matrix_file(write(tmp_path, "bad.txt", text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_matrix_file(str(tmp_path / "nope.txt"))

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"q 2 poly 1,1\n# caf\xe9\n1 1\n")
        with pytest.raises(ParseError, match="latin1.txt: 'utf-8' codec"):
            read_matrix_file(str(path))
        code, _, err = run(capsys, ["mindist", "--code", str(path), "--quiet"])
        assert code == 2 and err.startswith("error: ParseError")


class TestConstructions:
    def test_css(self, capsys, tmp_path):
        rep = write(tmp_path, "rep.txt", REP2)
        code, lines, _ = run(capsys, ["css", "--c1", rep, "--c2", rep, "--quiet"])
        assert code == 0
        assert lines == ["[[2,0,>=2;0]]_2 net=0 hbar_e=0 class=EAQMDS maximal=no"]

    def test_css_steane(self, capsys, tmp_path):
        ham = write(tmp_path, "h.txt", HAMMING)
        code, lines, _ = run(capsys, ["css", "--c1", ham, "--c2", ham, "--quiet"])
        assert code == 0
        assert lines[0].startswith("[[7,1,>=3;0]]_2 net=1 hbar_e=2 class=EAQAMDS")

    def test_concat_rejects_dimension_above_length(self, capsys):
        code, lines, err = run(
            capsys, ["concat", "--inner", "3,5,1,0,2", "--outer", "2,1,1,0,32", "--quiet"]
        )
        assert code == 2
        assert lines == []
        assert err.startswith("error: ParseError") and "exceeds the length" in err

    @pytest.mark.parametrize("inner", ["4,2,9,0,2", "4,2,>=5,0,2"])
    def test_concat_rejects_distance_above_length(self, capsys, inner):
        code, lines, err = run(
            capsys, ["concat", "--inner", inner, "--outer", "25,13,12,12,4", "--quiet"]
        )
        assert code == 2
        assert lines == []
        assert err.startswith("error: ParseError") and "exceeds the length 4" in err

    def test_css_field_mismatch(self, capsys, tmp_path):
        rep = write(tmp_path, "rep.txt", REP2)
        herm = write(tmp_path, "herm.txt", HERM3)
        code, _, err = run(capsys, ["css", "--c1", rep, "--c2", herm])
        assert code == 3
        assert err.startswith("error: FieldMismatch")

    def test_css_prime_field_headers_with_different_moduli(self, capsys, tmp_path):
        # both headers name GF(3); the linear modulus plays no part in its arithmetic
        tetracode = "1 0 1 1\n0 1 1 2\n"
        c1 = write(tmp_path, "c1.txt", "q 3 poly 1,1\n" + tetracode)
        c2 = write(tmp_path, "c2.txt", "q 3 poly 0,1\n" + tetracode)
        code, lines, _ = run(capsys, ["css", "--c1", c1, "--c2", c2, "--quiet"])
        assert code == 0
        assert lines == ["[[4,0,>=3;0]]_3 net=0 hbar_e=0 class=EAQMDS maximal=no"]

    def test_css_length_mismatch(self, capsys, tmp_path):
        rep = write(tmp_path, "rep.txt", REP2)
        ham = write(tmp_path, "h.txt", HAMMING)
        code, _, err = run(capsys, ["css", "--c1", rep, "--c2", ham])
        assert code == 3
        assert err.startswith("error: LengthMismatch")

    def test_css_bad_file_exits_2(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.txt", "q 6 poly 1,1\n1 1\n")
        rep = write(tmp_path, "rep.txt", REP2)
        code, _, err = run(capsys, ["css", "--c1", bad, "--c2", rep])
        assert code == 2
        assert err.startswith("error: ParseError")

    def test_hermitian(self, capsys, tmp_path):
        herm = write(tmp_path, "herm.txt", HERM3)
        code, lines, _ = run(
            capsys, ["hermitian", "--code", herm, "--base", "2", "--quiet"]
        )
        assert code == 0
        assert lines == ["[[3,2,>=2;1]]_2 net=1 hbar_e=0 class=EAQMDS maximal=yes"]

    def test_hermitian_wrong_base(self, capsys, tmp_path):
        rep = write(tmp_path, "rep.txt", REP2)
        code, _, err = run(capsys, ["hermitian", "--code", rep, "--base", "2"])
        assert code == 3
        assert err.startswith("error: FieldMismatch")

    def test_hermitian_negative_base(self, capsys, tmp_path):
        # (-2)^2 = 4 matches the file's field size, yet no field has -2 elements
        herm = write(tmp_path, "herm.txt", HERM3)
        code, lines, err = run(capsys, ["hermitian", "--code", herm, "--base=-2",
                                        "--quiet"])
        assert code == 3 and lines == []
        assert err.startswith("error: FieldMismatch")

    def test_extend(self, capsys):
        code, lines, _ = run(
            capsys,
            ["extend", "--inner", "4,2,2,0,2", "--outer", "25,13,>=12,12,4",
             "--t", "2", "--quiet"],
        )
        assert code == 0
        assert lines[0].startswith("[[102,26,>=24;24]]_2 net=2")

    def test_extend_negative_t(self, capsys):
        code, _, err = run(
            capsys,
            ["extend", "--inner", "4,2,2,0,2", "--outer", "25,13,>=12,12,4",
             "--t", "-1"],
        )
        assert code == 3
        assert err.startswith("error: ValueError")

    def test_expurgate(self, capsys):
        code, lines, _ = run(
            capsys,
            ["expurgate", "--inner", "4,2,2,0,2", "--outer", "25,13,>=12,12,4",
             "--t", "3", "--quiet"],
        )
        assert code == 0
        assert lines[0].startswith("[[97,26,>=24;27]]_2 net=-1")

    def test_expurgate_too_many(self, capsys):
        code, _, err = run(
            capsys,
            ["expurgate", "--inner", "4,2,2,0,2", "--outer", "25,13,>=12,12,4",
             "--t", "26"],
        )
        assert code == 3
        assert err.startswith("error: TooManyBlocks")

    def test_expurgate_wrong_inner(self, capsys):
        code, _, err = run(
            capsys,
            ["expurgate", "--inner", "3,2,2,1,2", "--outer", "25,13,>=12,12,4",
             "--t", "1"],
        )
        assert code == 3
        assert err.startswith("error: ProvenanceMismatch")

    def test_bad_tuple_exits_2(self, capsys):
        code, _, err = run(capsys, ["concat", "--inner", "4,2,2,0", "--outer", "5,3,2,1,4"])
        assert code == 2
        assert err.startswith("error: ParseError")

    def test_alphabet_mismatch_exits_3(self, capsys):
        code, _, err = run(
            capsys, ["concat", "--inner", "4,2,2,0,2", "--outer", "5,3,2,1,2"]
        )
        assert code == 3
        assert err.startswith("error: AlphabetMismatch")

    def test_huge_prime_alphabet_decided_at_once(self, capsys):
        # 10^18 + 3 is prime, so the outer tuple parses and the alphabet
        # check refuses it; primality is decided without trial division
        start = time.perf_counter()
        code, _, err = run(
            capsys,
            ["concat", "--inner", "4,2,2,0,2", "--outer", "5,3,2,1,1000000000000000003"],
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert err.startswith("error: AlphabetMismatch")

    def test_alphabet_beyond_the_primality_range_exits_2(self, capsys):
        # 2^89 - 1 is prime but above the range where the primality test is
        # exact, so the tuple is refused rather than guessed at
        code, _, err = run(
            capsys, ["concat", "--inner", "4,2,2,0,2", "--outer", f"5,3,2,1,{2**89 - 1}"]
        )
        assert code == 2
        assert err.startswith("error: ParseError") and "cannot decide" in err

    def test_alphabet_above_the_cap_exits_2(self, capsys):
        code, _, err = run(
            capsys, ["concat", "--inner", "4,2,2,0,2", "--outer", f"5,3,2,1,{10**4000 + 1}"]
        )
        assert code == 2
        assert err.startswith("error: ParseError") and "exceeds the cap of 1024 bits" in err

    @pytest.mark.parametrize("k1", ["30000000", "100000000000"])
    def test_alphabet_refused_without_the_power(self, k1):
        # q^k1 would have millions of digits (or 10^11 bits); 2^k1 > 5 decides it
        start = time.perf_counter()
        proc = run_fresh(["concat", "--inner", f"{k1},{k1},1,0,2", "--outer", "5,3,2,1,4",
                          "--quiet"])
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: AlphabetMismatch")


class TestAudit:
    def test_bundled_fails_without_allowance(self, capsys):
        code, lines, _ = run(capsys, ["audit", "--quiet"])
        assert code == 1
        assert lines[-1] == "rows=141 consistent=140 known_issues=1 unexpected=0"

    def test_bundled_with_allowance(self, capsys):
        code, lines, _ = run(capsys, ["audit", "--allow-known", "--quiet"])
        assert code == 0
        flagged = [ln for ln in lines if "MISMATCH" in ln]
        assert len(flagged) == 1
        assert "MISMATCH (known) c expected=44 published=34" in flagged[0]
        assert "[[46,2,36;34]]_2" in flagged[0]

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, ["audit", "--allow-known"])
        _, second, _ = run(capsys, ["audit", "--allow-known"])
        assert first == second

    def test_json_per_row(self, capsys):
        code, lines, _ = run(capsys, ["audit", "--allow-known", "--quiet", "--json"])
        assert code == 0
        recs = records(lines)
        assert len(recs) == 141
        bad = [r for r in recs if not r["consistent"]]
        assert len(bad) == 1 and bad[0]["known"]
        assert bad[0]["mismatches"] == [
            {"field": "c", "expected": 44, "published": 34}
        ]

    def test_unexpected_mismatch_fails_even_with_allowance(self, capsys, tmp_path):
        broken = "I|4,2,2,0,2|23,1*,11,?,4|base|93,2*,>=22,?,2|a|b\n"
        path = write(tmp_path, "t.txt", broken)
        code, lines, _ = run(
            capsys, ["audit", "--tables", path, "--allow-known", "--quiet"]
        )
        assert code == 1
        assert lines[0].startswith("I:001 base [[93,2*,>=22]]_2: MISMATCH n expected=92")
        assert lines[-1] == "rows=1 consistent=0 known_issues=0 unexpected=1"

    @pytest.mark.parametrize(
        "published, code, status",
        [
            ("46,2,36,34,2", 0, "MISMATCH (known) c expected=44 published=34"),
            ("46,2,36,35,2", 1, "MISMATCH c expected=44 published=35"),
            ("47,2,36,34,2", 1, "MISMATCH n expected=46 published=47; c expected=44"),
        ],
    )
    def test_only_the_exact_known_row_is_allowed(
        self, capsys, tmp_path, published, code, status
    ):
        row = f"IV|23,2,18,21,2|2,1,2,1,4|base|{published}|opt_d=36|\n"
        path = write(tmp_path, "t.txt", row)
        got, lines, _ = run(capsys, ["audit", "--tables", path, "--allow-known", "--quiet"])
        assert got == code
        assert status in lines[0]

    def test_empty_table_file(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt", "# nothing here\n")
        code, lines, _ = run(capsys, ["audit", "--tables", path, "--quiet"])
        assert code == 0
        assert lines == ["rows=0 consistent=0 known_issues=0 unexpected=0"]

    def test_unparseable_table_file(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt", "I|oops\n")
        code, _, err = run(capsys, ["audit", "--tables", path])
        assert code == 2
        assert "line 1" in err

    def test_missing_table_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["audit", "--tables", str(tmp_path / "nope")])
        assert code == 2

    def test_non_utf8_table_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# caf\xe9\n")
        code, _, err = run(capsys, ["audit", "--tables", str(path), "--quiet"])
        assert code == 2
        assert err.startswith("error: ParseError") and "latin1.txt: 'utf-8' codec" in err


class TestBounds:
    def test_single_family_csv(self, capsys):
        code, lines, _ = run(
            capsys,
            ["bounds", "--family", "C5", "--m", "4", "--delta-step", "0.05", "--quiet"],
        )
        assert code == 0
        assert lines[0] == "delta,C5[m=4]"
        assert lines[1] == "0,0.666666666667"
        # domain ends at 1/6; later grid points emit empty cells
        assert lines[-1].endswith(",")

    def test_gv_family(self, capsys):
        code, lines, _ = run(
            capsys, ["bounds", "--family", "GV", "--delta-step", "0.25", "--quiet"]
        )
        assert code == 0
        assert lines[0] == "delta,GV[ce=0]"
        assert lines[1] == "0,1"

    def test_m_range_envelope(self, capsys):
        code, lines, _ = run(
            capsys,
            ["bounds", "--family", "C5", "--m-range", "3..6",
             "--delta-step", "0.05", "--quiet"],
        )
        assert code == 0
        # odd m values are skipped, envelope appended
        assert lines[0] == "delta,C5[m=4],C5[m=6],envelope"
        cells = lines[1].split(",")
        assert float(cells[3]) == pytest.approx(
            max(rate_value("C5", 0.0, m=4), rate_value("C5", 0.0, m=6))
        )

    def test_m_range_with_no_valid_member(self, capsys):
        code, _, err = run(
            capsys, ["bounds", "--family", "C7", "--m-range", "3..3"]
        )
        assert code == 3
        assert err.startswith("error: BadFamilyParams")

    def test_bad_m_range(self, capsys):
        code, _, err = run(capsys, ["bounds", "--family", "C5", "--m-range", "6..4"])
        assert code == 2

    def test_missing_m(self, capsys):
        code, _, err = run(capsys, ["bounds", "--family", "C5"])
        assert code == 3
        assert err.startswith("error: BadFamilyParams")

    def test_bad_step(self, capsys):
        code, _, err = run(capsys, ["bounds", "--family", "C5", "--m", "4",
                                    "--delta-step", "0"])
        assert code == 3
        assert err.startswith("error: DomainError")

    @pytest.mark.parametrize(
        "flag, value",
        [("--delta-step", "nan"), ("--delta-step", "inf"), ("--delta-max", "nan")],
    )
    def test_non_finite_grid(self, capsys, flag, value):
        code, lines, err = run(capsys, ["bounds", "--family", "C5", "--m", "4",
                                        flag, value, "--quiet"])
        assert code == 3 and lines == []
        assert err.startswith("error: DomainError")

    def test_negative_grid_max(self, capsys):
        # an empty grid is an error, not a header-only CSV
        code, lines, err = run(capsys, ["bounds", "--family", "C5", "--m", "4",
                                        "--delta-max", "-1", "--quiet"])
        assert code == 3 and lines == []
        assert err.startswith("error: DomainError") and "non-negative" in err

    def test_grid_cap(self, capsys):
        # 1e-9 would mean 750M points; refused before the grid is built
        start = time.perf_counter()
        code, lines, err = run(capsys, ["bounds", "--family", "C5", "--m", "4",
                                        "--delta-step", "1e-9", "--quiet"])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and lines == []
        assert err.startswith("error: DomainError") and "cap 1000000" in err

    @pytest.mark.parametrize("step", ["1e-20", "1e-300"])
    def test_tiny_step_on_a_one_point_grid(self, step):
        # the grid [0] has one point, however small the step
        proc = run_fresh(["bounds", "--family", "C5", "--m", "4", "--delta-step", step,
                          "--delta-max", "0", "--quiet"])
        assert proc.returncode == 0, proc.stderr
        rate = rate_value("C5", 0.0, m=4)
        assert proc.stdout.splitlines() == ["delta,C5[m=4]", f"0,{rate:.12g}"]

    def test_m_range_sample_cap(self):
        # 2047 curves on a 75,001-point grid: refused before any sampling
        start = time.perf_counter()
        proc = run_fresh(["bounds", "--family", "C5", "--m-range", "1..2047",
                          "--delta-step", "1e-5", "--quiet"])
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == ("error: DomainError: 2047 values of m on 75001 grid points "
                               "exceed the cap of 1000000 samples\n")

    def test_m_above_the_cap(self):
        # 2 ** (m // 2) no longer converts to a float beyond the cap
        proc = run_fresh(["bounds", "--family", "C5", "--m", "100000000", "--quiet"])
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == f"error: BadFamilyParams: m = 100000000 exceeds the cap {MAX_M}\n"

    @pytest.mark.parametrize(
        "m_range, same_as",
        [("4..100000000", f"4..{MAX_M}"), ("-100000000..4", "1..4")],
    )
    def test_m_range_walks_only_the_capped_m(self, capsys, m_range, same_as):
        # --m-range=... because argparse reads a leading '-' as a flag
        proc = run_fresh(["bounds", "--family", "C5", f"--m-range={m_range}", "--quiet"])
        assert proc.returncode == 0, proc.stderr
        code, lines, _ = run(capsys, ["bounds", "--family", "C5", "--m-range", same_as,
                                      "--quiet"])
        assert code == 0
        assert proc.stdout.splitlines() == lines

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "curves.csv"
        code, lines, _ = run(
            capsys,
            ["bounds", "--family", "C5", "--m", "4", "--delta-step", "0.05",
             "--out", str(target), "--quiet"],
        )
        assert code == 0
        assert lines == [f"wrote {target}: 1 curve(s), 16 grid points"]
        text = target.read_text(encoding="utf-8")
        assert text.startswith("delta,C5[m=4]\n0,0.666666666667\n")
        assert text.endswith("\n") and "\r" not in text

    @pytest.mark.parametrize("where", ["missing/curves.csv", "."])
    def test_out_unwritable(self, capsys, tmp_path, where):
        # a missing directory, and a directory in place of a file
        target = tmp_path / where
        code, lines, err = run(
            capsys, ["bounds", "--family", "C5", "--m", "4", "--out", str(target), "--quiet"]
        )
        assert code == 2 and lines == []
        assert err.startswith(f"error: ParseError: {target}: [Errno ")
        assert not (tmp_path / "missing").exists()


class TestGv:
    def test_spec_report(self, capsys):
        code, lines, _ = run(capsys, ["gv", "--spec", "4,2,8,4", "--quiet"])
        assert code == 0
        assert lines[0] == (
            "spec n1=4 k1=2 n2=8 k2=4 c1=2 c2=4: R_e=0.25 C_e=0.75 net=-0.5"
        )
        assert lines[1] == f"x0={gv_root_x0(0.25, 0.75):.10f}"

    def test_delta_line_and_json(self, capsys):
        code, lines, _ = run(
            capsys, ["gv", "--spec", "4,2,8,4", "--delta", "0.3", "--quiet", "--json"]
        )
        assert code == 0
        assert any(ln.startswith("delta_e=0.3: log2_bound=") for ln in lines)
        (rec,) = records(lines)
        assert rec["spec"] == [4, 2, 8, 4, 2, 4]
        assert rec["prefactor"] == pytest.approx(0.7 / 0.4)

    def test_explicit_entanglement_spec(self, capsys):
        code, lines, _ = run(capsys, ["gv", "--spec", "4,2,8,4,1,2", "--quiet"])
        assert code == 0
        assert lines[0].startswith("spec n1=4 k1=2 n2=8 k2=4 c1=1 c2=2:")

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run(capsys, ["gv", "--spec", "4,2"])
        assert code == 2

    def test_invalid_spec_exits_3(self, capsys):
        code, _, err = run(capsys, ["gv", "--spec", "4,2,8,4,9,0"])
        assert code == 3
        assert err.startswith("error: DomainError")

    @pytest.mark.parametrize(
        "spec", ["1000000000000,2,8,4", "670,1,10000000000,1"]
    )
    def test_constant_beyond_binary64_exits_3(self, capsys, spec):
        # tau^n1 overflows for the first; for the second only tau^n1 * n2 does
        code, lines, err = run(capsys, ["gv", "--spec", spec, "--delta", "0.3",
                                        "--quiet", "--json"])
        assert code == 3 and lines == []
        assert err.startswith("error: DomainError") and "beyond binary64" in err


class TestMindist:
    def test_exact(self, capsys, tmp_path):
        ham = write(tmp_path, "h.txt", HAMMING)
        code, lines, _ = run(capsys, ["mindist", "--code", ham, "--quiet", "--json"])
        assert code == 0
        assert lines[0] == "d=3 exact"
        assert records(lines) == [{"command": "mindist", "d": 3, "kind": "exact"}]

    def test_budget_exceeded(self, capsys, tmp_path):
        ham = write(tmp_path, "h.txt", HAMMING)
        code, lines, _ = run(
            capsys, ["mindist", "--code", ham, "--budget", "15", "--quiet"]
        )
        assert code == 0
        assert lines == ["d=unknown (budget exceeded)"]

    def test_bad_budget(self, capsys, tmp_path):
        ham = write(tmp_path, "h.txt", HAMMING)
        for budget in ("0", str(DEFAULT_BUDGET + 1)):
            code, _, err = run(capsys, ["mindist", "--code", ham, "--budget", budget])
            assert code == 3
            assert err.startswith("error: BudgetInvalid")

    def test_nullspace_cap(self, tmp_path):
        # one GF(2) row of 1025 columns: its 1024 x 1025 generator is refused
        # before it is allocated, as a domain error
        path = write(tmp_path, "wide.txt", "q 2 poly 1,1\n" + " ".join(["1"] * 1025) + "\n")
        proc = run_fresh(["mindist", "--code", path, "--quiet"])
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: TooLarge: nullspace basis of 1024 x 1025")
        assert "Traceback" not in proc.stderr

    def test_extension_field_above_log_cap(self, capsys, tmp_path):
        # GF(727^2) and GF(2^11) are under the 2^20 field cap but above the
        # 1024 table cap on extension fields; the header is refused before
        # any arithmetic
        for header in ("q 528529 poly 1,0,1", "q 2048 poly 1,0,1,0,0,0,0,0,0,0,0,1"):
            path = write(tmp_path, "big.txt", header + "\n1 2 3 4\n5 6 7 9\n")
            code, lines, err = run(capsys, ["mindist", "--code", path, "--quiet"])
            assert code == 2 and lines == []
            assert err.startswith("error: ParseError") and "bad field header" in err
