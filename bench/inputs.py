"""Seeded inputs for the three workloads, built without importing the program.

Everything here is plain Python data (JSON-serialisable) made from
``random.Random(seed)`` and the reference arithmetic in ``gfref``.  The same
seed always gives the same inputs, and no change to ``eaqec`` can alter them.
Expected answers that can be derived independently (the CSS and Hermitian
entanglement counts, the anchors' distances) are computed here too, before the
child process that runs the program is started.
"""

from __future__ import annotations

import hashlib
import json
import random

from gfref import FIELDS, MODULI, field

WORKLOADS = ("entangle", "enumerate", "cli")

# entangle: the field mix of acceptance criterion 03, as (kind, field key,
# base field size for the Hermitian pairing).
ENTANGLE_SLOTS = (
    ("css", "q2", None), ("css", "q3", None), ("css", "q4", None),
    ("css", "q9", None), ("css", "q16", None),
    ("hermitian", "q4", 2), ("hermitian", "q9", 3), ("hermitian", "q16", 4),
)
ENTANGLE_PER_SLOT = 100

# enumerate: (n, k) per field for the min_distance codes: the smallest k with
# q^k >= 10^3.  The time min_distance takes depends on the code's weight
# distribution, so each code is a fixed random code under a seeded monomial
# map (column permutation and nonzero column scaling), which keeps its
# weights and its distance.
MINDIST_SHAPES = {"q2": (14, 10), "q3": (11, 7), "q4": (8, 5), "q9": (8, 4), "q16": (7, 3)}
MINDIST_PER_FIELD = 2
# nt_w sizes: the two n1*n2 = 12 sizes always, then one seeded factorisation
# for each of n1*n2 = 8, 9, 10 (the cost depends on n1*n2, not on its split).
NTW_FIXED = ((2, 6), (3, 4))
NTW_SEEDED = (
    ((1, 8), (2, 4), (4, 2), (8, 1)),
    ((1, 9), (3, 3), (9, 1)),
    ((1, 10), (2, 5), (5, 2), (10, 1)),
)
ENSEMBLE_SPECS = ((2, 1, 2, 1), (2, 1, 3, 2), (3, 2, 2, 1))


def systematic(key: str, n: int, k: int, rng: random.Random, nonzero_rows=False):
    """Generator [I_k | P] and parity check [-P^T | I_{n-k}], columns permuted alike.

    With nonzero_rows, no row of P is zero, so no codeword has weight 1.
    """
    f = field(key)
    r = n - k
    rows = []
    for _ in range(k):
        row = [rng.randrange(f.q) for _ in range(r)]
        while nonzero_rows and not any(row):
            row = [rng.randrange(f.q) for _ in range(r)]
        rows.append(row)
    perm = list(range(n))
    rng.shuffle(perm)
    g = [[1 if j == i else 0 for j in range(k)] + rows[i] for i in range(k)]
    h = [[f.neg[rows[i][j]] for i in range(k)] + [1 if t == j else 0 for t in range(r)]
         for j in range(r)]
    return [[row[p] for p in perm] for row in g], [[row[p] for p in perm] for row in h]


def monomial(key: str, g: list[list[int]], rng: random.Random) -> list[list[int]]:
    """g with its columns permuted and each scaled by a nonzero field element."""
    f = field(key)
    n = len(g[0])
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [rng.randrange(1, f.q) for _ in range(n)]
    return [[f.mul[row[p]][c] for p, c in zip(perm, scale)] for row in g]


def _entangle(rng: random.Random) -> dict:
    ops = []
    for kind, key, base in ENTANGLE_SLOTS:
        f = field(key)
        for _ in range(ENTANGLE_PER_SLOT):
            n = rng.randrange(2, 13)
            g1, h1 = systematic(key, n, rng.randrange(1, n), rng)
            if kind == "css":
                g2, h2 = systematic(key, n, rng.randrange(1, n), rng)
                c = f.rank(f.matmul_t(h1, h2))
                ops.append({"kind": kind, "field": key, "n": n, "g1": g1, "g2": g2, "c": c})
            else:
                conj = [[f.pow(x, base) for x in row] for row in h1]
                c = f.rank(f.matmul_t(h1, conj))
                ops.append({"kind": kind, "field": key, "n": n, "g1": g1, "base": base, "c": c})
    rng.shuffle(ops)
    return {"ops": ops}


def _cyclic(n: int, gpoly: list[int]) -> list[list[int]]:
    """Generator rows of the cyclic code of length n with generator polynomial gpoly."""
    k = n - (len(gpoly) - 1)
    return [[0] * i + gpoly + [0] * (n - len(gpoly) - i) for i in range(k)]


def _vandermonde(key: str, k: int, n: int) -> list[list[int]]:
    """Rows x_j^i (i < k) over the first n nonzero elements: an MDS [n, k, n-k+1] code."""
    f = field(key)
    pts = list(range(1, n + 1))
    return [[f.pow(x, i) for x in pts] for i in range(k)]


def anchor_codes() -> list[dict]:
    """Codes of known minimum distance (generator rows, n, k, d, field)."""
    golay23 = _cyclic(23, [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1])
    golay24 = [row + [sum(row) % 2] for row in golay23]
    return [
        {"name": "hamming_7_4_3", "field": "q2", "d": 3,
         "g": [[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 0, 1, 1],
               [0, 0, 1, 0, 1, 1, 1], [0, 0, 0, 1, 1, 0, 1]]},
        {"name": "golay_24_12_8", "field": "q2", "d": 8, "g": golay24},
        {"name": "golay_11_6_5", "field": "q3", "d": 5,
         "g": _cyclic(11, [2, 0, 1, 2, 1, 1])},
        {"name": "hexacode_6_3_4", "field": "q4", "d": 4,
         "g": [[1, 0, 0, 1, 2, 2], [0, 1, 0, 2, 1, 2], [0, 0, 1, 2, 2, 1]]},
        {"name": "rs_8_4_5", "field": "q9", "d": 5, "g": _vandermonde("q9", 4, 8)},
        {"name": "rs_15_3_13", "field": "q16", "d": 13, "g": _vandermonde("q16", 3, 15)},
    ]


# Every min_distance, anchor and ensemble op appears this many times in a
# pass, in separately shuffled blocks with the nt_w tables spread between
# them.  Its latency is its best over all those runs: the two n1*n2 = 12
# tables alone take ~7.5 s a pass, and the best of a few samples left these
# pure-Python ops at the mercy of the host's slow spells.  The nt_w ops run
# once a pass.
ENUMERATE_COPIES = 15


def _enumerate(rng: random.Random) -> dict:
    sizes = list(NTW_FIXED) + [rng.choice(choices) for choices in NTW_SEEDED]
    tables = [{"kind": "nt_w", "n1": n1, "n2": n2} for n1, n2 in sizes]
    small = []
    for key, (n, k) in MINDIST_SHAPES.items():
        for j in range(MINDIST_PER_FIELD):
            g, _ = systematic(key, n, k, random.Random(f"mindist:{key}:{j}"), nonzero_rows=True)
            small.append({"kind": "min_distance", "field": key, "n": n, "k": k,
                          "g": monomial(key, g, rng)})
    for a in anchor_codes():
        small.append({"kind": "anchor", "name": a["name"], "field": a["field"],
                      "n": len(a["g"][0]), "k": len(a["g"]), "d": a["d"],
                      "g": monomial(a["field"], a["g"], rng)})
    for spec in ENSEMBLE_SPECS:
        small.append({"kind": "ensemble", "spec": list(spec)})
    for i, d in enumerate(tables + small):
        d["key"] = i
    rng.shuffle(tables)
    stride = ENUMERATE_COPIES // len(tables)
    ops = []
    for copy in range(ENUMERATE_COPIES):
        block = list(small)
        rng.shuffle(block)
        ops += block
        if copy % stride == stride - 1:
            ops.append(tables[copy // stride])
    return {"ops": ops}


# cli: parity-check matrix files written at set-up (fixed, not seeded).
def _matrix_file(key: str, rows: list[list[int]]) -> str:
    p, m = FIELDS[key]
    head = f"q {p**m} poly {','.join(str(c) for c in MODULI[(p, m)])}"
    return "\n".join([head] + [" ".join(str(v) for v in row) for row in rows]) + "\n"


def cli_files() -> dict[str, str]:
    anchors = {a["name"]: a["g"] for a in anchor_codes()}
    return {
        "hamming2.txt": _matrix_file("q2", [[1, 1, 1, 0, 1, 0, 0], [0, 1, 1, 1, 0, 1, 0],
                                            [1, 1, 0, 1, 0, 0, 1]]),
        "golay24.txt": _matrix_file("q2", anchors["golay_24_12_8"]),
        "golay3.txt": _matrix_file("q3", anchors["golay_11_6_5"]),
        "hexa4.txt": _matrix_file("q4", anchors["hexacode_6_3_4"]),
        "rs9.txt": _matrix_file("q9", anchors["rs_8_4_5"]),
        "rs16.txt": _matrix_file("q16", _vandermonde("q16", 12, 15)),
    }


CLI_DIR = "bench/work/cli"

# (op name, argv after `python -m eaqec`); every subcommand, some with --json.
CLI_SCRIPT = (
    ("concat", ["concat", "--inner", "4,2,2,0,2", "--outer", "25,13,12,12,4"]),
    ("concat_json", ["concat", "--inner", "3,2,2,1,2", "--outer", "5,3,2,1,4", "--json", "--quiet"]),
    ("extend", ["extend", "--inner", "4,2,2,0,2", "--outer", "25,13,12,12,4", "--t", "2"]),
    ("expurgate_json", ["expurgate", "--inner", "4,2,2,0,2", "--outer", "25,13,12,12,4",
                        "--t", "3", "--json"]),
    ("audit", ["audit", "--allow-known"]),
    ("audit_json", ["audit", "--allow-known", "--json", "--quiet"]),
    ("bounds", ["bounds", "--family", "C5", "--m-range", "4..8"]),
    ("bounds_gv", ["bounds", "--family", "GV", "--ce", "0.1", "--delta-step", "0.005", "--quiet"]),
    ("gv", ["gv", "--spec", "4,2,8,4", "--delta", "0.3"]),
    ("gv_json", ["gv", "--spec", "3,2,6,3", "--delta", "0.2", "--json", "--quiet"]),
    ("css_q2", ["css", "--c1", f"{CLI_DIR}/hamming2.txt", "--c2", f"{CLI_DIR}/hamming2.txt"]),
    ("css_q3_json", ["css", "--c1", f"{CLI_DIR}/golay3.txt", "--c2", f"{CLI_DIR}/golay3.txt", "--json"]),
    ("hermitian_q4", ["hermitian", "--code", f"{CLI_DIR}/hexa4.txt", "--base", "2"]),
    ("hermitian_q9_json", ["hermitian", "--code", f"{CLI_DIR}/rs9.txt", "--base", "3", "--json"]),
    ("mindist_q2", ["mindist", "--code", f"{CLI_DIR}/golay24.txt"]),
    ("mindist_q16_json", ["mindist", "--code", f"{CLI_DIR}/rs16.txt", "--json", "--quiet"]),
)


def _cli(rng: random.Random) -> dict:
    ops = [{"name": name, "argv": argv} for name, argv in CLI_SCRIPT]
    rng.shuffle(ops)
    return {"ops": ops, "dir": CLI_DIR, "files": cli_files()}


def build(workload: str, seed: int) -> dict:
    """All inputs of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    maker = {"entangle": _entangle, "enumerate": _enumerate, "cli": _cli}[workload]
    return maker(rng)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
