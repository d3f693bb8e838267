import random
from fractions import Fraction as F
from itertools import product
from math import factorial

import pytest

from cohft.graphs import StableGraph, smooth_graph
from cohft.kappa import KappaPoly
from cohft.oracles import multikappa_by_permutations
from cohft.taut import (
    DecoratedGraph,
    KPPoly,
    TautExpr,
    UnsupportedLowPower,
    exp_pushforward_check,
    exp_pushforward_diff,
    forgetful_pushforward_monomial,
    kappa_multi_index,
)

CAP = 10


def test_multikappa_worked_values():
    assert kappa_multi_index([1], CAP) == KappaPoly(CAP, {(1,): 1})
    assert kappa_multi_index([1, 1], CAP) == KappaPoly(CAP, {(1, 1): 1, (2,): 1})
    want = KappaPoly(CAP, {(1, 2, 3): 1, (1, 5): 1, (2, 4): 1, (3, 3): 1, (6,): 2})
    assert kappa_multi_index([1, 2, 3], CAP) == want


def test_multikappa_symmetric():
    assert kappa_multi_index([3, 1, 2], CAP) == kappa_multi_index([2, 3, 1], CAP)


def test_multikappa_all_ones_counts_permutations():
    for m in (2, 3, 4, 5):
        poly = kappa_multi_index([1] * m, 2 * CAP)
        assert sum(poly.terms.values()) == factorial(m)


@pytest.mark.parametrize("ks", [[1, 1], [2, 1], [1, 2, 3], [2, 2, 1], [1, 1, 1, 1], [1, 1, 2, 3]])
def test_multikappa_permutation_oracle(ks):
    assert kappa_multi_index(ks, 2 * CAP) == multikappa_by_permutations(ks, 2 * CAP)


def test_pushforward_monomial():
    assert forgetful_pushforward_monomial([2], CAP) == KappaPoly(CAP, {(1,): 1})
    assert forgetful_pushforward_monomial([2, 2], CAP) == KappaPoly(CAP, {(1, 1): 1, (2,): 1})
    assert forgetful_pushforward_monomial([3, 2], CAP) == KappaPoly(CAP, {(1, 2): 1, (3,): 1})
    with pytest.raises(UnsupportedLowPower):
        forgetful_pushforward_monomial([1, 2], CAP)


def test_forgetful_pullback_rules():
    k1 = KPPoly.from_kappa(1, KappaPoly.generator(4, 1))
    pulled = k1.forgetful_pullback()
    want = KPPoly(2, 4, {((1,), (0, 0)): 1, ((), (0, 1)): -1})
    assert pulled == want
    psi = KPPoly.psi(2, 4, 1)
    assert psi.forgetful_pullback() == KPPoly(3, 4, {((), (1, 0, 0)): 1})
    twice = k1.forgetful_pullback().forgetful_pullback()
    want2 = KPPoly(3, 4, {((1,), (0, 0, 0)): 1, ((), (0, 1, 0)): -1, ((), (0, 0, 1)): -1})
    assert twice == want2


def test_forgetful_pullback_multiplicative():
    rng = random.Random(0)
    for _ in range(5):
        x = KPPoly(
            2, 6, {((rng.randrange(1, 3),), (rng.randrange(2), 0)): F(rng.randrange(1, 4))}
        ) + KPPoly.constant(2, 6, rng.randrange(1, 3))
        y = KPPoly(2, 6, {((), (0, rng.randrange(1, 3))): F(rng.randrange(-3, 0))})
        assert (x * y).forgetful_pullback() == x.forgetful_pullback() * y.forgetful_pullback()


def test_exp_pushforward_trivial():
    assert exp_pushforward_check([0, 0, 0], 6)


def test_exp_pushforward_hand_expansion():
    # a_1 = 1 at degree 2: both sides are 1 + k1 + k1^2/2; the kappa_2 terms
    # from m=1 (psi^3 pushforward) and m=2 (kappa_{1,1}) cancel
    assert exp_pushforward_check([1], 2)
    diff = exp_pushforward_diff([1], 2)
    assert diff.is_zero()


def test_exp_pushforward_random():
    rng = random.Random(1)
    for _ in range(6):
        coeffs = [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(4)]
        assert exp_pushforward_check(coeffs, 6)


def test_kppoly_arithmetic():
    p = KPPoly.psi(2, 4, 1) + KPPoly.constant(2, 4, 2)
    q = KPPoly.psi(2, 4, 2, 2)
    prod = p * q
    assert prod == KPPoly(2, 4, {((), (1, 2)): 1, ((), (0, 2)): 2})
    assert (prod - prod).is_zero()
    assert p.permute_slots((1, 0)) == KPPoly.psi(2, 4, 2) + KPPoly.constant(2, 4, 2)


def test_kppoly_truncation():
    p = KPPoly(1, 5, {((3,), (2,)): 1})
    assert p.truncate(4).is_zero()
    assert not p.truncate(5).is_zero()


def test_decorated_graph_loop_flip_canonical():
    loop = StableGraph((1,), (0,), ((0, 0),))
    a = DecoratedGraph(loop, ((),), (0,), ((2, 0),))
    b = DecoratedGraph(loop, ((),), (0,), ((0, 2),))
    assert a == b


def test_decorated_graph_parallel_edge_canonical():
    banana = StableGraph((0, 0), (0, 1), ((0, 1), (0, 1)))
    a = DecoratedGraph(banana, ((), ()), (0, 0), ((1, 0), (0, 0)))
    b = DecoratedGraph(banana, ((), ()), (0, 0), ((0, 0), (1, 0)))
    assert a == b


def test_restrict_to_smooth_and_pullback_guard():
    g = smooth_graph(1, 1)
    loop = StableGraph((0,), (0,), ((0, 0),))
    expr = TautExpr(
        1,
        1,
        4,
        {
            DecoratedGraph(g, ((1,),), (0,), ()): F(2),
            DecoratedGraph(loop, ((),), (0,), ((0, 0),)): F(5),
        },
    )
    assert expr.restrict_to_smooth() == KPPoly(1, 4, {((1,), (0,)): 2})


def test_decorated_graph_theta_symmetry():
    # three parallel edges between two genus-0 vertices: permuting the edges
    # and swapping the vertices identifies all placements of one psi power
    theta = StableGraph((0, 0), (), ((0, 1), (0, 1), (0, 1)))
    keys = {
        DecoratedGraph(theta, ((), ()), (), ((1, 0), (0, 0), (0, 0))),
        DecoratedGraph(theta, ((), ()), (), ((0, 0), (1, 0), (0, 0))),
        DecoratedGraph(theta, ((), ()), (), ((0, 0), (0, 0), (0, 1))),
    }
    assert len(keys) == 1


def test_decorated_graph_shape_validation():
    g = smooth_graph(1, 2)
    with pytest.raises(ValueError):
        DecoratedGraph(g, ((),), (0,), ())  # one psi slot missing
    with pytest.raises(ValueError):
        DecoratedGraph(g, ((), ()), (0, 0), ())  # too many kappa slots


def test_degree_bound_invariant():
    g = smooth_graph(1, 2)
    key = DecoratedGraph(g, ((1, 1),), (1, 1), ())
    # total degree 4 > 3g-3+n = 2: dropped by the expression cap
    expr = TautExpr(1, 2, 2, {key: F(1)})
    assert expr.is_zero()


def _random_kappa_poly(rng, cap):
    terms = {}
    for _ in range(rng.randrange(0, 6)):
        key = tuple(sorted(rng.randrange(1, 4) for _ in range(rng.randrange(0, 3))))
        terms[key] = F(rng.randrange(-3, 4), rng.randrange(1, 3))
    return KappaPoly(cap, terms)


@pytest.mark.parametrize("seed", range(4))
def test_from_kappa_is_a_ring_map(seed):
    rng = random.Random(seed)
    for _ in range(15):
        cap = rng.randrange(0, 6)
        n = rng.randrange(0, 3)
        p, q = _random_kappa_poly(rng, cap), _random_kappa_poly(rng, cap)
        c = F(rng.randrange(-3, 4), rng.randrange(1, 3))
        lift = lambda x: KPPoly.from_kappa(n, x)
        assert lift(p + q) == lift(p) + lift(q)
        assert lift(p - q) == lift(p) - lift(q)
        assert lift(p * q) == lift(p) * lift(q)
        assert lift(p.scale(c)) == lift(p).scale(c)
        assert KPPoly.from_kappa(0, p * q).render() == (p * q).render()


def _pullback_by_subsets(poly):
    # prod_j (kappa_j - psi_{n+1}^j) term by term: all 2^m choices of the
    # factors that move to the new point, repeats included
    out = {}
    for (kk, pp), c in poly.terms.items():
        for moves in product((False, True), repeat=len(kk)):
            kept = tuple(j for j, move in zip(kk, moves) if not move)
            key = (kept, pp + (sum(kk) - sum(kept),))
            out[key] = out.get(key, 0) + (-c if sum(moves) % 2 else c)
    return {key: c for key, c in out.items() if c != 0}


@pytest.mark.parametrize("seed", range(3))
def test_forgetful_pullback_is_the_subset_expansion(seed):
    rng = random.Random(seed)
    for _ in range(10):
        n = rng.randrange(0, 3)
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            kk = tuple(sorted(rng.choice((1, 1, 2, 3)) for _ in range(rng.randrange(0, 5))))
            pp = tuple(rng.randrange(0, 3) for _ in range(n))
            terms[(kk, pp)] = F(rng.randrange(-3, 4), rng.randrange(1, 3))
        poly = KPPoly(n, 8, terms)
        assert poly.forgetful_pullback().terms == _pullback_by_subsets(poly)


def test_kppoly_checks_psi_length_and_accepts_list_keys():
    for terms in ({((), (0,)): 1}, {((1,), (1, 2, 3)): 1}, {((9,), (9,)): F(1, 2)}):
        # a nonzero term of the wrong length raises, even above the cap
        with pytest.raises(ValueError, match="psi tuple has wrong length"):
            KPPoly(2, 3, terms)
        with pytest.raises(ValueError, match="psi tuple has wrong length"):
            KPPoly(2, 3, list(terms.items()))
    assert KPPoly(2, 3, {((1,), (0,)): 0}).is_zero()
    listed = KPPoly(2, 3, [(([1], [0, 1]), 2), (([], [0, 0]), F(1, 3)), (([1], (0, 1)), 1)])
    assert listed == KPPoly(2, 3, {((1,), (0, 1)): 3, ((), (0, 0)): F(1, 3)})
    assert listed.render() == "1/3 + 3*k1*p2"


def test_kppoly_rejects_operands_of_different_n():
    # a product zipped the psi tuples: one order dropped psi_2, the other
    # raised about the psi length instead of naming both n
    one, two = KPPoly.psi(1, 3, 1), KPPoly.psi(2, 3, 2)
    for left, right in ((one, two), (two, one)):
        for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(ValueError, match="different n: %d and %d" % (left.n, right.n)):
                op(left, right)
    assert (two * KPPoly.constant(2, 3, 3)) == KPPoly.psi(2, 3, 2).scale(3)
