"""Property-based fuzz of the command line: every subcommand under hostile argv.

Each example calls cli.main in process.  Whatever the input, the command must
end through its documented exit codes (0 success, 2 parse error, 3 domain or
construction error; 1 only for an audit mismatch), print no traceback, and
finish within the deadline.  argparse ends a malformed command line with
SystemExit(2), which counts as exit 2.  Every value is passed as --flag=value,
so that a leading '-' reaches the parser as a value.
"""

import contextlib
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaqec.bounds import FAMILY_NAMES
from eaqec.cli import main
from eaqec.gf import _BUILTIN_MODULI

FUZZ = settings(derandomize=True, max_examples=40, deadline=2000, database=None)

EDGE_INTS = (0, 1, -1, 2, 3, 4, 5, 2047, 2048, 2**31, 2**63, -(2**63), 10**18, -(10**18))
INTS = st.one_of(st.sampled_from(EDGE_INTS), st.integers(-(10**18), 10**18))
SMALL = st.integers(-2, 40)
EDGE_FLOATS = (math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-20,
               1e-6, 0.01, 0.5, 0.75, 1.0)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


def mostly(good, bad, odds=4):
    """bad about once in odds draws, so that most examples get past the parser.

    The bad branch sits in the middle of the range, because hypothesis favours
    the ends of an integer range."""
    return st.integers(0, odds - 1).flatmap(lambda i: bad if i == odds // 2 else good)


# tuple fields: numbers of any size, the '>=', '*' and '?' markers, and junk
TOKEN = st.one_of(
    INTS.map(str),
    SMALL.map(str),
    SMALL.map(lambda v: f">={v}"),
    SMALL.map(lambda v: f"{v}*"),
    st.sampled_from(("?", "", "x", " 3 ", "1.5", "nan")),
)
# five fields, the length a tuple needs, or another arity
BAD_TUPLE = st.lists(TOKEN, min_size=0, max_size=8).map(",".join)
ALPHABETS = mostly(st.sampled_from((2, 3, 4, 5, 8, 9, 16, 25, 27, 64)),
                   st.one_of(st.sampled_from((1, 0, -2, 6)), INTS))


@st.composite
def small_tuples(draw, alphabet=ALPHABETS, max_k=30, net=False):
    """'n,k,d,c,q' with 0 <= k <= n, 1 <= d <= n and 0 <= c <= n - k, the
    bounds a literal tuple keeps, each broken now and then.  The net form
    'n,k-c*,d,?,q' leaves room for c = 0 and 1."""
    n = draw(mostly(st.integers(1, 30), SMALL, odds=10))
    k = draw(mostly(st.integers(0, max(min(n - net, max_k), 0)), SMALL, odds=10))
    d = draw(mostly(st.integers(1, max(n, 1)), SMALL, odds=10))
    c = draw(mostly(st.integers(0, max(n - k, 0)), SMALL, odds=10))
    d = draw(st.sampled_from((f"{d}", f">={d}")))
    if net:
        return f"{n},{k}*,{d},?,{draw(alphabet)}"
    return f"{n},{k},{d},{c},{draw(alphabet)}"


@st.composite
def concat_pairs(draw, net_outer=False):
    """An inner tuple and an outer one over its q^k1, mostly."""
    q = draw(st.sampled_from((2, 3, 4)))
    inner = draw(small_tuples(st.just(q), max_k=3))
    k1 = int(inner.split(",")[1])
    outer_q = mostly(st.just(q ** max(k1, 1)), ALPHABETS, odds=10)
    return inner, draw(small_tuples(outer_q, net=net_outer))


PUBLISHED = (
    "4,2,2,0,2", "3,2,2,1,2", "25,13,>=12,12,4", "5,3,2,1,4", "6,2,4,4,2", "2,1,2,1,4"
)
TUPLE = mostly(st.one_of(st.sampled_from(PUBLISHED), small_tuples()), BAD_TUPLE)
PAIRS = mostly(concat_pairs(), st.tuples(TUPLE, TUPLE))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


def check(argv, allowed=(0, 2, 3)):
    code, err = run(argv)
    assert code in allowed, (argv, code, err)
    assert "Traceback" not in err and "DivisionByZero" not in err, (argv, err)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(
    command=st.sampled_from(("concat", "extend", "expurgate")),
    pair=PAIRS,
    t=mostly(SMALL, INTS),
)
@example(command="concat", pair=("100000000000,100000000000,1,0,2", "5,3,2,1,4"), t=0)
@example(command="concat", pair=("30000000,30000000,1,0,2", "5,3,2,1,4"), t=0)
@example(command="concat", pair=("4,2,2,0,2", "5,3,2,1,1000000000000000003"), t=0)
@example(command="concat", pair=("4,2,9,0,2", "25,13,12,12,4"), t=0)
@example(command="expurgate", pair=("4,2,2,0,2", "25,13,>=12,12,4"), t=10**18)
def test_concatenation_commands(command, pair, t):
    inner, outer = pair
    argv = [command, f"--inner={inner}", f"--outer={outer}", "--quiet"]
    if command != "concat":
        argv.append(f"--t={t}")
    check(argv)


@FUZZ
@given(
    family=st.sampled_from((*FAMILY_NAMES, "nope")),
    m=st.one_of(st.none(), mostly(SMALL, INTS)),
    m_range=st.one_of(
        st.none(),
        st.builds(lambda a, b: f"{a}..{b}", mostly(SMALL, INTS), mostly(SMALL, INTS)),
        st.sampled_from(("", "..", "4..", "a..b", "1..2..3")),
    ),
    ce=st.one_of(st.none(), mostly(st.floats(0, 1), FLOATS)),
    step=st.one_of(st.none(), mostly(st.floats(1e-3, 1), FLOATS)),
    top=st.one_of(st.none(), mostly(st.floats(0, 1), FLOATS)),
    out=st.sampled_from((None, "curves.csv", "missing/curves.csv", ".")),
)
@example(family="C5", m=4, m_range=None, ce=None, step=1e-20, top=0.0, out=None)
@example(family="C5", m=4, m_range=None, ce=None, step=1e-300, top=0.0, out=None)
@example(family="C5", m=100000000, m_range=None, ce=None, step=None, top=None, out=None)
@example(family="C5", m=None, m_range="4..100000000", ce=None, step=None, top=None, out=None)
@example(family="C5", m=None, m_range="1..2047", ce=None, step=1e-5, top=None, out=None)
@example(family="GV", m=None, m_range=None, ce=math.nan, step=None, top=None, out=None)
@example(family="C5", m=4, m_range=None, ce=None, step=None, top=None, out="missing/curves.csv")
@example(family="C5", m=4, m_range=None, ce=None, step=None, top=None, out=".")
def test_bounds(workdir, family, m, m_range, ce, step, top, out):
    # --out is a file in a directory that exists, one in a missing directory,
    # or the directory itself
    argv = ["bounds", f"--family={family}", "--quiet"]
    for flag, value in (("--m", m), ("--m-range", m_range), ("--ce", ce),
                        ("--delta-step", step), ("--delta-max", top),
                        ("--out", out and workdir / out)):
        if value is not None:
            text = repr(value) if isinstance(value, float) else value
            argv.append(f"{flag}={text}")
    check(argv)


@FUZZ
@given(
    spec=mostly(
        st.one_of(
            st.lists(st.integers(0, 40), min_size=4, max_size=4),
            st.lists(st.integers(0, 40), min_size=6, max_size=6),
        ).map(lambda v: ",".join(map(str, v))),
        st.one_of(
            st.lists(mostly(SMALL, INTS), min_size=0, max_size=7).map(
                lambda v: ",".join(map(str, v))
            ),
            BAD_TUPLE,
        ),
    ),
    delta=st.one_of(st.none(), mostly(st.floats(0, 1), FLOATS)),
)
@example(spec="1000000000000,2,8,4", delta=0.3)
@example(spec="8,4,2,1", delta=1e-300)
def test_gv(spec, delta):
    argv = ["gv", f"--spec={spec}", "--quiet"]
    if delta is not None:
        argv.append(f"--delta={delta!r}")
    check(argv)


def _header(q, poly):
    return f"q {q} poly {','.join(map(str, poly))}"


# headers of fields that exist (prime fields take any monic linear modulus),
# and generated ones that mostly do not
VALID_HEADERS = st.one_of(
    st.sampled_from([_header(p**m, poly) for (p, m), poly in _BUILTIN_MODULI.items()]),
    st.sampled_from((2, 3, 5, 7, 251, 1021, 4093)).map(lambda p: _header(p, (1, 1))),
)
HEADERS = mostly(
    VALID_HEADERS,
    st.one_of(
        st.builds(_header, ALPHABETS, st.lists(st.integers(-1, 5), min_size=0, max_size=6)),
        st.sampled_from(
            ("", "q", "q 4 poly", "size 4 poly 1,1,1", "q x poly 1,1", "q 4 poly 1,,1")
        ),
    ),
)


def _field_size(header):
    try:
        return int(header.split()[1])
    except (IndexError, ValueError):
        return 2


def _matrix_text(draw, header, width):
    """A matrix file: the header, then rows of mostly in-range entries."""
    q = _field_size(header)
    entry = mostly(st.integers(0, max(q, 2) - 1), st.sampled_from((-1, q, 10**18)), odds=40)
    row = mostly(st.lists(entry, min_size=width, max_size=width),
                 st.lists(entry, min_size=0, max_size=8), odds=10)
    rows = draw(mostly(st.lists(row, min_size=1, max_size=4), st.just([])))
    lines = [header, *(" ".join(map(str, row)) for row in rows)]
    if draw(st.booleans()):
        lines.insert(1, "# comment")
    return "\n".join(lines) + "\n"


@st.composite
def matrix_cases(draw):
    """Two matrix files, mostly over one field and of one length, and a base
    that is mostly the square root of the field size."""
    header, width = draw(HEADERS), draw(st.integers(1, 7))
    first = _matrix_text(draw, header, width)
    if draw(mostly(st.just(True), st.just(False), odds=10)):
        second = _matrix_text(draw, header, width)
    else:
        second = _matrix_text(draw, draw(HEADERS), draw(st.integers(1, 7)))
    base = draw(mostly(st.just(math.isqrt(max(_field_size(header), 0))),
                       st.one_of(st.sampled_from((-4, -2, 0, 1, 2, 3, 4, 5, 16)), INTS)))
    return first, second, base


BUDGETS = st.one_of(
    st.none(), st.sampled_from((-1, 0, 1, 2**24, 2**24 + 1)), st.integers(-(10**18), 10**18)
)

HERM3 = "q 4 poly 1,1,1\n1 1 2\n"
GF9_CODE = "q 9 poly 2,2,1\n1 2 3 4\n0 1 5 7\n"


@FUZZ
@given(
    command=st.sampled_from(("css", "hermitian", "mindist")),
    case=matrix_cases(),
    budget=BUDGETS,
)
@example(command="hermitian", case=(HERM3, HERM3, -2), budget=None)
@example(command="hermitian", case=(HERM3, HERM3, 0), budget=None)
@example(command="hermitian", case=(GF9_CODE, HERM3, -3), budget=None)
@example(command="css", case=(HERM3, "q 2 poly 1,1\n1 1 1\n", 2), budget=None)
def test_matrix_file_commands(workdir, command, case, budget):
    first, second, base = case
    a, b = workdir / "a.txt", workdir / "b.txt"
    a.write_text(first, encoding="utf-8")
    b.write_text(second, encoding="utf-8")
    if command == "css":
        argv = ["css", f"--c1={a}", f"--c2={b}"]
    elif command == "hermitian":
        argv = ["hermitian", f"--code={a}", f"--base={base}"]
    else:
        argv = ["mindist", f"--code={a}"]
    if budget is not None:
        argv.append(f"--budget={budget}")
    check([*argv, "--quiet"])


TABLE_LINE = st.builds(
    lambda table, pair, *fields: "|".join((table, *pair, *fields)),
    mostly(st.sampled_from(("I", "II", "III", "IV")), st.sampled_from(("V", "")), odds=10),
    mostly(st.one_of(concat_pairs(), concat_pairs(net_outer=True)), st.tuples(TUPLE, TUPLE)),
    mostly(
        st.one_of(
            st.just("base"),
            st.builds(lambda name, t: f"{name}{t}", st.sampled_from(("extend+", "expurgate-")),
                      mostly(st.integers(1, 30), INTS)),
        ),
        st.sampled_from(("extend+", "expurgate-", "shorten-1", "")),
        odds=10,
    ),
    mostly(st.one_of(small_tuples(), small_tuples(net=True)), TUPLE, odds=10),
    st.just("x"),
    st.just("y"),
)


@FUZZ
@given(
    lines=st.lists(mostly(TABLE_LINE, st.sampled_from(("# note", "", "I|bad"))),
                   min_size=0, max_size=2),
    allow_known=st.booleans(),
)
@example(lines=["I|4,9,2,0,2|25,13,12,12,4|base|100,26,24,24,2|x|y"], allow_known=False)
@example(lines=["I|4,2,2,0,6|25,13,12,12,4|base|100,26,24,24,2|x|y"], allow_known=False)
@example(
    lines=["I|4,2,2,0,2|23,1*,11,?,4|expurgate-1000000000000000000|92,2*,>=22,?,2|x|y"],
    allow_known=True,
)
def test_audit(workdir, lines, allow_known):
    path = workdir / "tables.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["audit", f"--tables={path}", "--quiet"]
    if allow_known:
        argv.append("--allow-known")
    check(argv, allowed=(0, 1, 2))
