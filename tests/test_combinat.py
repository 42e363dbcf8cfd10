"""Tests for the coefficient combinatorics.

The expected tables below were computed with the independent oracles in this
file (a minimal list-based polynomial expander and an explicit double sum)
and then frozen as literals.
"""

from math import comb

import pytest

from detlam import combinat
from detlam.combinat import (
    CoeffTable,
    DomainError,
    binomial_expansion_check,
    coeff_table,
    pk_identity_check,
    pk_poly,
)

# ----------------------------------------------------------------------
# independent oracles (list-based polynomial arithmetic)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def poly_scale(a, c):
    return [c * x for x in a]


def oracle_pk(k):
    # sum_{i=0}^{k} 2^(k-i) (2-t)^i
    out = [0]
    p = [1]
    for i in range(k + 1):
        out = poly_add(out, poly_scale(p, 2 ** (k - i)))
        p = poly_mul(p, [2, -1])
    return out


def oracle_coeff_entries(d):
    # brute-force double sum c_j = sum_{i=j}^{2d} 2^(2d-i) (-1)^j C(i,j)
    return [
        sum(2 ** (2 * d - i) * (-1) ** j * comb(i, j) for i in range(j, 2 * d + 1))
        for j in range(2 * d + 1)
    ]


# ----------------------------------------------------------------------
# frozen values


def test_pk_poly_frozen():
    assert pk_poly(0) == (1,)
    assert pk_poly(1) == (4, -1)
    assert pk_poly(2) == (12, -6, 1)


@pytest.mark.parametrize("k", range(0, 65))
def test_pk_poly_matches_oracle(k):
    got = list(pk_poly(k))
    want = oracle_pk(k)
    while want and want[-1] == 0:
        want.pop()
    assert got == want


def test_pk_identity_frozen_k2():
    # t*(12 - 6t + t^2) == 8 - (2-t)^3
    lhs = poly_mul([0, 1], oracle_pk(2))
    rhs = poly_add([8], poly_scale(poly_mul([2, -1], poly_mul([2, -1], [2, -1])), -1))
    assert lhs == rhs


def test_pk_identity_all_k_up_to_64():
    assert all(pk_identity_check(k) for k in range(65))


def test_binomial_side_matches_the_comb_formula(monkeypatch):
    # Hand the check the P_k that the comb formula gives: t * P_k(t) is
    # 2^(k+1) - (2-t)^(k+1) with coefficient j = -C(k+1, j) 2^(k+1-j) (-1)^j
    # for j >= 1. The check then passes iff its term-ratio expansion of the
    # right side equals that formula at every coefficient.
    for k in range(combinat.MAX_POLYID_K + 1):
        n = k + 1
        formula = tuple(-comb(n, j) * 2 ** (n - j) * (-1) ** j for j in range(1, n + 1))
        monkeypatch.setattr(combinat, "pk_poly", lambda _k, f=formula: f)
        assert pk_identity_check(k), k


def test_pk_poly_does_not_depend_on_call_order():
    # the recurrence resumes from the last P_k built, or restarts from P_0
    for k in (64, 3, 3, 70, 65, 0, 12):
        assert list(pk_poly(k)) == oracle_pk(k)


def test_pk_poly_carries_nothing_above_max_polyid_k():
    pk_poly(5)
    big = combinat.MAX_POLYID_K + 1
    assert len(pk_poly(big)) == big + 1
    assert combinat._carried_pk == (5, pk_poly(5))


@pytest.mark.parametrize("k", [0, 1, 7, 32, 64])
def test_pk_identity_check_rejects_a_wrong_pk(monkeypatch, k):
    # The right side is expanded without pk_poly, so a P_k that is off by one
    # in any single coefficient must make the check fail.
    for m in range(k + 1):
        wrong = oracle_pk(k)
        wrong[m] += 1
        monkeypatch.setattr(combinat, "pk_poly", lambda _k, w=wrong: tuple(w))
        assert not pk_identity_check(k)


def test_coeff_table_frozen():
    assert coeff_table(1).entries == (7, -4, 1)
    assert coeff_table(2).entries == (31, -26, 16, -6, 1)
    assert coeff_table(3).entries == (127, -120, 99, -64, 29, -8, 1)


@pytest.mark.parametrize("d", range(1, 9))
def test_coeff_table_matches_double_sum_oracle(d):
    assert list(coeff_table(d).entries) == oracle_coeff_entries(d)


@pytest.mark.parametrize("d", range(1, 9))
def test_coeff_table_invariants(d):
    t = coeff_table(d)
    assert t.entries[2 * d] == 1
    assert t.entries[0] == 2 ** (2 * d + 1) - 1
    assert sum(t.entries) == 2 ** (2 * d)
    for j, c in enumerate(t.entries):
        assert c != 0
        assert (c > 0) == (j % 2 == 0)


def test_coeff_table_rejects_degenerate_dims():
    with pytest.raises(DomainError):
        coeff_table(0)
    with pytest.raises(DomainError):
        coeff_table(-1)


@pytest.mark.parametrize("d", range(1, 9))
def test_binomial_expansion_check(d):
    assert binomial_expansion_check(d)


def test_coeff_table_validation_guards():
    with pytest.raises(DomainError):
        CoeffTable(1, (7, -4, 2))  # leading entry must be 1
    with pytest.raises(DomainError):
        CoeffTable(1, (7, 4, 1))  # signs must alternate
    with pytest.raises(DomainError):
        CoeffTable(1, (8, -4, 1))  # sum must be 2^(2d)


@pytest.mark.parametrize(
    "dim, entries",
    [
        (1, (7.9, -4, 1)),
        (1, ("7", -4, 1)),
        (1, (7, -4, True)),
        (True, (7, -4, 1)),
        (1.0, (7, -4, 1)),
        ("1", (7, -4, 1)),
    ],
)
def test_coeff_table_refuses_what_is_not_an_int(dim, entries):
    # int() would read 7.9 as 7 and "7" as 7, and a bool dim would print
    # as "dim": true
    with pytest.raises(DomainError, match="^dim and entries must be integers$"):
        CoeffTable(dim, entries)


@pytest.mark.parametrize(
    "call",
    [
        lambda: coeff_table(True),
        lambda: coeff_table(2.0),
        lambda: binomial_expansion_check(2.0),
        lambda: pk_poly(1.5),
        lambda: pk_identity_check(1.5),
        lambda: pk_identity_check(True),
    ],
    ids=["coeffs-bool", "coeffs-float", "binomial-float", "pk-poly-float", "pk-float", "pk-bool"],
)
def test_integer_arguments_refuse_bools_and_floats(call):
    with pytest.raises(DomainError, match="integer"):
        call()
