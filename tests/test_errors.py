"""The one integer rule, errors.integer, at every boundary that takes an integer.

Each site keeps its own exception type (so the CLI's exit codes and
`error: <Type>:` prefixes stay put), refuses a bool, a float, a str and a
numpy bool, and accepts a numpy integer as the plain int it stands for.
"""

import random

import numpy as np
import pytest

from eaqec.bounds import _checked_m, amds_length_bound, weil_bound
from eaqec.codes import ClassicalCode, Distance, min_distance, random_code
from eaqec.concat import concatenate, expurgate, extend
from eaqec.eaqecc import EaqeccParams, hermitian_construct, parse_params
from eaqec.ensemble import EnsembleSpec, nt_w_bruteforce, psi_t
from eaqec.errors import (
    BadFamilyParams,
    BudgetInvalid,
    DomainError,
    FieldMismatch,
    NotIrreducible,
    NotPrime,
    integer,
)
from eaqec.gf import FieldSpec, field_of_order
from eaqec.matrix import MatrixGF

GF2 = FieldSpec(2)
HAMMING = ClassicalCode.from_parity_check(
    MatrixGF(GF2, [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]])
)
TRIPLE = ClassicalCode.from_parity_check(MatrixGF(FieldSpec(2, 2), [[1, 1, 2]]))
TRIPLE = TRIPLE.with_distance(min_distance(TRIPLE))
BASE = parse_params("5,3,2,1,2")
CONCAT = concatenate(parse_params("4,2,2,0,2"), parse_params("5,3,2,1,4"))

# site id: (exception type, an integer the site accepts, probe).  probe(x)
# passes x to the site and returns an int the site derives from x (a stored
# field, or a value computed from it), which must be a plain int.
SITES = {
    "bounds.checked_q-p": (DomainError, 2, lambda x: amds_length_bound(x, 4)),
    "bounds.checked_q-m": (DomainError, 4, lambda x: amds_length_bound(2, x)),
    "bounds.weil_bound-q": (DomainError, 16, lambda x: weil_bound(x, 1)),
    "bounds.weil_bound-g": (DomainError, 1, lambda x: weil_bound(16, x)),
    "bounds.checked_m": (BadFamilyParams, 4, lambda x: _checked_m({"m": x}, 0, 3)),
    "ensemble.psi_t-n1": (DomainError, 2, lambda x: psi_t(x, 2, 1).n_e),
    "ensemble.psi_t-t": (DomainError, 1, lambda x: psi_t(2, 2, x).coefficient(1)),
    "ensemble.nt_w_bruteforce": (DomainError, 2, lambda x: nt_w_bruteforce(x, 1).shape[1]),
    "ensemble.EnsembleSpec-k2": (DomainError, 2, lambda x: EnsembleSpec(2, 1, 4, x).k2),
    "ensemble.EnsembleSpec-c1": (DomainError, 1, lambda x: EnsembleSpec(2, 1, 4, 2, c1=x).c1),
    "codes.Distance": (ValueError, 3, lambda x: Distance.exact(x).value),
    "codes.min_distance-budget": (
        BudgetInvalid, 16, lambda x: min_distance(HAMMING, budget=x).value,
    ),
    "codes.random_code-n": (ValueError, 4, lambda x: random_code(GF2, x, 2, random.Random(0)).n),
    "codes.random_code-k": (ValueError, 2, lambda x: random_code(GF2, 4, x, random.Random(0)).k),
    "concat.extend": (ValueError, 2, lambda x: extend(BASE, x).n),
    "concat.expurgate": (ValueError, 1, lambda x: expurgate(CONCAT, x).n),
    "eaqecc.EaqeccParams-q": (
        ValueError, 2, lambda x: EaqeccParams(q=x, n=3, k=1, d=Distance.exact(2), c=0).q,
    ),
    "eaqecc.EaqeccParams-n": (
        ValueError, 3, lambda x: EaqeccParams(q=2, n=x, k=1, d=Distance.exact(2), c=0).n,
    ),
    "eaqecc.EaqeccParams-k": (
        ValueError, 1, lambda x: EaqeccParams(q=2, n=3, k=x, d=Distance.exact(2), c=0).k,
    ),
    "eaqecc.EaqeccParams-c": (
        ValueError, 1, lambda x: EaqeccParams(q=2, n=3, k=1, d=Distance.exact(2), c=x).c,
    ),
    "eaqecc.hermitian_construct-q0": (
        FieldMismatch, 2, lambda x: hermitian_construct(TRIPLE, x).provenance.args[1],
    ),
    "gf.FieldSpec-p": (NotPrime, 3, lambda x: FieldSpec(x).p),
    "gf.FieldSpec-m": (NotIrreducible, 2, lambda x: FieldSpec(2, x).m),
    "gf.FieldSpec-modulus": (NotIrreducible, 1, lambda x: FieldSpec(2, 2, (1, 1, x)).modulus[2]),
    "gf.field_of_order": (NotPrime, 4, lambda x: field_of_order(x).q),
}


@pytest.mark.parametrize("bad", [True, 2.5, "2", np.True_], ids=["bool", "float", "str", "np.bool"])
@pytest.mark.parametrize("site", SITES)
def test_site_refuses_non_integers(site, bad):
    error, _, probe = SITES[site]
    with pytest.raises(error) as info:
        probe(bad)
    assert type(info.value) is error


@pytest.mark.parametrize("site", SITES)
def test_site_takes_numpy_integers_as_int(site):
    _, good, probe = SITES[site]
    expected = probe(good)
    got = probe(np.int64(good))
    assert type(got) is int and got == expected


def test_integer():
    assert integer(5, "x") == 5
    assert type(integer(np.uint8(5), "x")) is int
    assert integer(0, "x", low=0) == 0
    with pytest.raises(DomainError, match=r"^x must be an integer >= 1, got 0$"):
        integer(0, "x", DomainError, low=1)
    with pytest.raises(ValueError, match=r"^x must be an integer, got False$"):
        integer(False, "x")
