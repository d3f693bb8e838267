import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohft.frobenius import FrobeniusAlgebra
from cohft.kappa import KappaPoly
from cohft.linalg import identity
from cohft.sampling import (
    random_r_series,
    random_semisimple_algebra,
    random_symplectic_r,
)
from cohft.series import (
    ConstantTermSingular,
    EndSeries,
    NotDivisible,
    OrderMismatch,
    check_symplectic,
    edge_kernel,
    translation_vector,
    truncated_exp,
    truncated_log,
)

ETA1 = ((F(1),),)


def scalar_exp(a, order):
    return EndSeries(1, order, [[[F(a) ** k / factorial(k)]] for k in range(order + 1)])


def test_multiply_identity():
    rng = random.Random(0)
    b = random_r_series(rng, 2, 4)
    assert EndSeries.identity(2, 4).multiply(b) == b


def test_multiply_nilpotent():
    n = [[F(0), F(1)], [F(0), F(0)]]
    minus = [[F(0), F(-1)], [F(0), F(0)]]
    prod = EndSeries.from_higher_coeffs(2, 3, [n]).multiply(
        EndSeries.from_higher_coeffs(2, 3, [minus])
    )
    # (Id + Nz)(Id - Nz) = Id - N^2 z^2 and N^2 = 0 here
    assert prod.is_identity()


def test_multiply_scalar_square():
    s = EndSeries.from_higher_coeffs(1, 3, [[[F(1)]]])
    sq = s.multiply(s)
    assert [c[0][0] for c in sq.coeffs] == [1, 2, 1, 0]


def test_order_mismatch():
    with pytest.raises(OrderMismatch):
        EndSeries.identity(1, 2).multiply(EndSeries.identity(1, 3))


def test_invert_identity():
    assert EndSeries.identity(3, 5).invert() == EndSeries.identity(3, 5)


def test_invert_geometric():
    r1 = [[F(2)]]
    s = EndSeries.from_higher_coeffs(1, 5, [r1])
    inv = s.invert()
    assert [c[0][0] for c in inv.coeffs] == [(-2) ** k for k in range(6)]


def test_invert_two_sided():
    rng = random.Random(1)
    for dim in (1, 2, 3):
        s = random_r_series(rng, dim, 6)
        assert s.multiply(s.invert()).is_identity()
        assert s.invert().multiply(s).is_identity()


def test_invert_singular_constant():
    zero = [[F(0)]]
    s = EndSeries(1, 2, [zero, [[F(1)]], zero])
    with pytest.raises(ConstantTermSingular):
        s.invert()


def test_adjoint():
    rng = random.Random(2)
    alg, _, _ = random_semisimple_algebra(rng, 2)
    s = random_r_series(rng, 2, 4)
    assert EndSeries.identity(2, 4).adjoint(alg.eta).is_identity()
    assert s.adjoint(alg.eta).adjoint(alg.eta) == s
    t = random_r_series(rng, 2, 4)
    lhs = s.multiply(t).adjoint(alg.eta)
    rhs = t.adjoint(alg.eta).multiply(s.adjoint(alg.eta))
    assert lhs == rhs


def test_adjoint_diagonal_eta_is_transpose():
    s = EndSeries.from_higher_coeffs(2, 2, [[[F(1), F(2)], [F(3), F(4)]]])
    adj = s.adjoint(identity(2))
    assert adj.coeffs[1] == ((F(1), F(3)), (F(2), F(4)))


def test_symplectic_examples():
    assert check_symplectic(EndSeries.identity(2, 4), identity(2))
    for a in (F(1), F(-2, 3), F(5, 7)):
        assert check_symplectic(scalar_exp(a, 6), ETA1)
    bad = EndSeries.from_higher_coeffs(1, 4, [[[F(0)]], [[F(1)]]])
    assert not check_symplectic(bad, ETA1)


def test_edge_kernel_identity_is_zero():
    k = edge_kernel(EndSeries.identity(2, 4), identity(2))
    assert k.is_zero()


def test_edge_kernel_scalar_exp():
    a = F(2, 3)
    k = edge_kernel(scalar_exp(a, 6), ETA1)
    # (1 - exp(-a(z+w)))/(z+w) = a - a^2/2 (z+w) + a^3/6 (z+w)^2 - ...
    assert k.coeff(0, 0)[0][0] == a
    assert k.coeff(1, 0)[0][0] == -a * a / 2
    assert k.coeff(0, 1)[0][0] == -a * a / 2
    assert k.coeff(1, 1)[0][0] == 2 * a**3 / 6


def test_edge_kernel_not_divisible():
    bad = EndSeries.from_higher_coeffs(1, 4, [[[F(0)]], [[F(1)]]])
    with pytest.raises(NotDivisible):
        edge_kernel(bad, ETA1)


def test_kernel_iff_symplectic_randomized():
    rng = random.Random(3)
    seen_good = seen_bad = 0
    for trial in range(50):
        dim = 1 + trial % 3
        alg, _, _ = random_semisimple_algebra(rng, dim)
        if trial % 2 == 0:
            r = random_symplectic_r(rng, alg, 8)
        else:
            r = random_r_series(rng, dim, 8)
        symplectic = check_symplectic(r, alg.eta)
        try:
            edge_kernel(r, alg.eta)
            divisible = True
        except NotDivisible:
            divisible = False
        assert divisible == symplectic
        if symplectic:
            seen_good += 1
            assert check_symplectic(r.invert(), alg.eta)
        else:
            seen_bad += 1
    assert seen_good >= 20 and seen_bad >= 10


def test_symplectic_adjoint_inverse_equivalence():
    # the two ways of writing the condition agree: the eta-adjoint of a
    # symplectic series is its inverse with the variable negated
    rng = random.Random(5)
    for dim in (1, 2, 3):
        alg, _, _ = random_semisimple_algebra(rng, dim)
        r = random_symplectic_r(rng, alg, 6)
        assert r.adjoint(alg.eta) == r.invert().negate_variable()


def test_translation_vector():
    alg = FrobeniusAlgebra(1, [[1]], [[[1]]], [1])
    assert translation_vector(EndSeries.identity(1, 4), alg.unit).valuation() == 5
    a = F(3)
    r = EndSeries.from_higher_coeffs(1, 4, [[[a]]])
    t = translation_vector(r, alg.unit)
    # z(1 - (1 - az + a^2 z^2 - ...)) = a z^2 - a^2 z^3 + a^3 z^4
    assert [c[0] for c in t.coeffs] == [0, 0, a, -a * a, a**3]
    assert t.valuation() == 2


def test_translation_valuation_random():
    rng = random.Random(4)
    for dim in (1, 2, 3):
        alg, _, _ = random_semisimple_algebra(rng, dim)
        r = random_symplectic_r(rng, alg, 5)
        assert translation_vector(r, alg.unit).valuation() >= 2


# -- the shared truncated exp/log ----------------------------------------------

SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def kappa_polys(draw):
    """A KappaPoly with zero constant term, cap 1..5."""
    cap = draw(st.integers(1, 5))
    keys = st.lists(st.integers(1, cap), min_size=1, max_size=3).map(lambda k: tuple(sorted(k)))
    terms = draw(st.dictionaries(keys.filter(lambda k: sum(k) <= cap), SMALL, max_size=4))
    return KappaPoly(cap, terms)


@st.composite
def end_series(draw):
    """An EndSeries of dim 1-2 and order 1-4 with zero constant term."""
    dim = draw(st.integers(1, 2))
    order = draw(st.integers(1, 4))
    entry = st.lists(SMALL, min_size=dim, max_size=dim)
    higher = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=order, max_size=order))
    return EndSeries(dim, order, [[[0] * dim] * dim] + higher)


@settings(max_examples=40, deadline=None)
@given(kappa_polys())
def test_kappa_exp_log_round_trip(x):
    one = KappaPoly.constant(x.cap, 1)
    assert x.exp().log() == x
    assert (one + x).log().exp() == one + x


@settings(max_examples=40, deadline=None)
@given(end_series())
def test_end_series_exp_log_round_trip(x):
    # the coefficients need not commute: only powers of x enter either sum
    one = EndSeries.identity(x.dim, x.order)
    assert truncated_log(truncated_exp(x, one, x.order), one, x.order) == x
    assert truncated_exp(truncated_log(one + x, one, x.order), one, x.order) == one + x


def test_scalar_exp_and_log_closed_forms():
    order = 9
    z = EndSeries.from_higher_coeffs(1, order, [[[1]]]) - EndSeries.identity(1, order)
    one = EndSeries.identity(1, order)
    exp = truncated_exp(z, one, order)
    assert [c[0][0] for c in exp.coeffs] == [F(1, factorial(n)) for n in range(order + 1)]
    log = truncated_log(one + z, one, order)
    assert [c[0][0] for c in log.coeffs] == [0] + [F((-1) ** (n - 1), n) for n in range(1, order + 1)]
