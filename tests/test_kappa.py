import random
from fractions import Fraction as F

import pytest

from cohft.kappa import (
    CovectorKappaPoly,
    KappaPoly,
    NonzeroConstantTerm,
    WrongConstantTerm,
    convolution,
    collect,
    coproduct,
    exp_conv,
    exp_conv_series,
    is_grouplike,
    is_primitive,
    log_conv,
    tensor_truncate,
    theta_covector,
)
from cohft.sampling import random_semisimple_algebra


def random_primitive(rng, ss, cap, maxj=4):
    values = []
    for _ in range(ss.dim):
        terms = {(j,): F(rng.randrange(-3, 4)) for j in range(1, maxj + 1)}
        values.append(KappaPoly(cap, terms))
    return CovectorKappaPoly(ss, values)


def tensor_mul(t1, t2, cap):
    out = {}
    for (a1, b1), c1 in t1.items():
        for (a2, b2), c2 in t2.items():
            key = (tuple(sorted(a1 + a2)), tuple(sorted(b1 + b2)))
            if sum(key[0]) + sum(key[1]) <= cap:
                out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def test_coproduct_examples():
    cap = 6
    one = KappaPoly.constant(cap, 1)
    assert coproduct(one) == {((), ()): 1}
    k2 = KappaPoly.generator(cap, 2)
    assert coproduct(k2) == {((2,), ()): 1, ((), (2,)): 1}
    k1sq = KappaPoly.generator(cap, 1) * KappaPoly.generator(cap, 1)
    assert coproduct(k1sq) == {((1, 1), ()): 1, ((1,), (1,)): 2, ((), (1, 1)): 1}


def test_coproduct_is_algebra_map():
    rng = random.Random(0)
    cap = 6
    for _ in range(10):
        p = KappaPoly(cap, {(rng.randrange(1, 4),): F(rng.randrange(-2, 3)), (): F(1)})
        q = KappaPoly(cap, {(rng.randrange(1, 4), rng.randrange(1, 3)): F(rng.randrange(-2, 3))})
        lhs = tensor_truncate(coproduct(p * q), cap)
        rhs = tensor_truncate(tensor_mul(coproduct(p), coproduct(q), cap), cap)
        assert lhs == rhs


def test_convolution_neutral_element():
    rng = random.Random(1)
    for dim in (1, 2, 3):
        alg, _, _ = random_semisimple_algebra(rng, dim)
        ss = alg.semisimplify()
        theta = theta_covector(ss, 5)
        x = random_primitive(rng, ss, 5)
        y = exp_conv(x)
        assert convolution(theta, y) == y
        assert convolution(y, theta) == y


def test_convolution_scalar_case():
    # dim 1 with norm t: (X * Y)(pi) = t^{-1} X(pi) Y(pi)
    from cohft.frobenius import FrobeniusAlgebra

    alg = FrobeniusAlgebra.from_semisimple([F(16)], [[F(2)]])
    ss = alg.semisimplify()
    cap = 4
    x = CovectorKappaPoly(ss, (KappaPoly(cap, {(1,): F(3), (): F(1)}),))
    y = CovectorKappaPoly(ss, (KappaPoly(cap, {(2,): F(5), (): F(2)}),))
    conv = convolution(x, y)
    t = ss.norms[0]
    want = (x.values[0] * y.values[0]).scale(1 / t)
    assert conv.values[0] == want
    assert want == KappaPoly(cap, {(): F(2) / t, (1,): F(6) / t, (2,): F(5) / t, (1, 2): F(15) / t})


def test_exp_log_roundtrip():
    rng = random.Random(2)
    for dim in (1, 2, 3):
        alg, _, _ = random_semisimple_algebra(rng, dim)
        ss = alg.semisimplify()
        for _ in range(4):
            x = random_primitive(rng, ss, 6)
            big = exp_conv(x)
            assert log_conv(big) == x
            assert exp_conv_series(x) == big


def test_exp_conv_zero_is_theta():
    rng = random.Random(3)
    alg, _, _ = random_semisimple_algebra(rng, 2)
    ss = alg.semisimplify()
    zero = CovectorKappaPoly(ss, (KappaPoly(4), KappaPoly(4)))
    assert exp_conv(zero) == theta_covector(ss, 4)


def test_exp_conv_rejects_constant_term():
    rng = random.Random(4)
    alg, _, _ = random_semisimple_algebra(rng, 2)
    ss = alg.semisimplify()
    bad = CovectorKappaPoly(ss, (KappaPoly.constant(4, 1), KappaPoly(4)))
    with pytest.raises(NonzeroConstantTerm):
        exp_conv(bad)
    with pytest.raises(NonzeroConstantTerm):
        exp_conv_series(bad)
    with pytest.raises(WrongConstantTerm):
        log_conv(bad)


def test_scalar_log_series():
    from cohft.frobenius import FrobeniusAlgebra

    alg = FrobeniusAlgebra(1, [[1]], [[[1]]], [1])
    ss = alg.semisimplify()
    assert ss.projectors == ((1,),) and ss.norms == (1,)
    x = CovectorKappaPoly(ss, (KappaPoly.constant(4, 1) + KappaPoly.generator(4, 1),))
    out = log_conv(x).values[0]
    want = KappaPoly(
        4, {(1,): F(1), (1, 1): F(-1, 2), (1, 1, 1): F(1, 3), (1, 1, 1, 1): F(-1, 4)}
    )
    assert out == want


def test_grouplike_primitive_both_directions():
    rng = random.Random(5)
    for dim in (1, 2, 3):
        alg, _, _ = random_semisimple_algebra(rng, dim)
        ss = alg.semisimplify()
        theta = theta_covector(ss, 6)
        assert is_grouplike(theta)
        for _ in range(3):
            x = random_primitive(rng, ss, 6)
            assert is_primitive(x)
            big = exp_conv(x)
            assert is_grouplike(big)
            assert is_primitive(log_conv(big))


def test_not_grouplike_when_not_primitive():
    rng = random.Random(6)
    alg, _, _ = random_semisimple_algebra(rng, 2)
    ss = alg.semisimplify()
    # kappa_1^2 is not primitive, so its exponential is not group-like
    x = CovectorKappaPoly(ss, (KappaPoly(6, {(1, 1): F(1)}), KappaPoly(6)))
    assert not is_primitive(x)
    assert not is_grouplike(exp_conv(x))


def test_grouplike_needs_theta_constant():
    rng = random.Random(7)
    alg, _, _ = random_semisimple_algebra(rng, 2)
    ss = alg.semisimplify()
    one = CovectorKappaPoly(ss, (KappaPoly.constant(4, 1), KappaPoly.constant(4, 1)))
    theta = theta_covector(ss, 4)
    if one != theta:
        assert not is_grouplike(one)


def test_rendering_sorted():
    p = KappaPoly(6, {(2,): F(1), (1, 1): F(-1, 3), (): F(2)})
    assert p.render() == "2 - 1/3*k1^2 + k2"


def test_collect_sums_and_drops_terms():
    terms = [((1,), F(1, 2)), ((2,), 3), ((1,), F(1, 2)), ((1, 1), F(2)), ((1, 1), F(-2)), ((), 0), ((5,), 1)]
    got = collect(terms, 4, sum)
    assert got == {(1,): 1, (2,): 3}
    assert all(type(c) is F for c in got.values())
    # dict and pair input give the same table, and the first occurrence of a
    # monomial fixes its place
    assert list(collect(dict(terms[:4]), 4, sum).items()) == [((1,), F(1, 2)), ((2,), 3), ((1, 1), 2)]
    assert list(got) == [(1,), (2,)]
    # the cap bounds degree(key), whatever the key format
    pairs = {((1,), (2,)): F(1), ((2,), (2,)): F(1)}
    assert collect(pairs, 3, lambda key: sum(key[0]) + sum(key[1])) == {((1,), (2,)): 1}
    assert collect(None, 3, sum) == {} and collect(iter([]), 3, sum) == {}
