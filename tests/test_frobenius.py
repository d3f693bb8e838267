import random
import re
import time
from fractions import Fraction as F
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohft.frobenius import (
    FrobeniusAlgebra,
    InvalidAlgebra,
    NotInvertible,
    NotSplit,
    orthonormal_form,
    poly_eval_frac,
    rational_roots,
    rational_sqrt,
)
from cohft.linalg import (
    frac_str,
    identity,
    linear_dependence,
    mat,
    mat_mul,
    mat_inv,
    mat_vec,
    read_integer,
    read_rational,
    solve,
    transpose,
    vec,
)
from cohft.sampling import random_nilpotent_algebra, random_semisimple_algebra


def _invertible(m):
    try:
        mat_inv(m)
    except ZeroDivisionError:
        return False
    return True


def dual_numbers():
    # Q[x]/(x^2) with the antidiagonal pairing
    structure = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    return FrobeniusAlgebra(2, [[0, 1], [1, 0]], structure, [1, 0])


def sqrt2_field():
    # Q[x]/(x^2 - 2) with the pairing eta(1, 1) = 1, eta(x, x) = 2
    structure = [[[1, 0], [0, 1]], [[0, 1], [2, 0]]]
    return FrobeniusAlgebra(2, [[1, 0], [0, 2]], structure, [1, 0])


def split_pair():
    # Q x Q componentwise, diagonal pairing
    structure = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    return FrobeniusAlgebra(2, [[1, 0], [0, 1]], structure, [1, 1])


def test_multiply_unit_law():
    a = dual_numbers()
    for v in ((F(1), F(0)), (F(0), F(1)), (F(2), F(-3))):
        assert a.multiply(a.unit, v) == v


def test_multiply_nilpotent():
    a = dual_numbers()
    assert a.multiply((0, 1), (0, 1)) == (0, 0)


def test_multiply_dimension_mismatch():
    a = dual_numbers()
    with pytest.raises(ValueError):
        a.multiply((1,), (1, 0))


def test_semisimple_basis_product_law():
    rng = random.Random(1)
    for _ in range(5):
        alg, _, _ = random_semisimple_algebra(rng, 3)
        ss = alg.semisimplify()
        for mu in range(3):
            p = ss.projectors[mu]
            assert alg.multiply(p, p) == p
            assert alg.frobenius_trace(p) == ss.norms[mu] == alg.pair(p, p)
            for nu in range(3):
                if nu != mu:
                    assert alg.multiply(p, ss.projectors[nu]) == (F(0),) * 3
                    assert alg.pair(p, ss.projectors[nu]) == 0


def test_trace_of_unit():
    a = split_pair()
    assert a.frobenius_trace(a.unit) == a.pair(a.unit, a.unit)


def test_euler_class_dual_numbers():
    a = dual_numbers()
    assert a.euler_class() == (0, 2)


def test_trace_euler_equals_dim():
    rng = random.Random(2)
    algebras = [dual_numbers(), split_pair(), random_nilpotent_algebra()]
    for dim in (1, 2, 3):
        for _ in range(4):
            algebras.append(random_semisimple_algebra(rng, dim)[0])
    for alg in algebras:
        assert alg.frobenius_trace(alg.euler_class()) == alg.dim


def test_euler_class_basis_invariance():
    rng = random.Random(3)
    alg, _, _ = random_semisimple_algebra(rng, 2)
    # change the ambient basis by a random invertible matrix p: b'_i = sum p[i][k] b_k
    p = ((F(1), F(2)), (F(1), F(1)))
    pinv = mat_inv(p)
    eta2 = mat_mul(p, mat_mul(alg.eta, transpose(p)))
    structure2 = [[None] * 2 for _ in range(2)]
    for i in range(2):
        for j in range(2):
            prod = alg.multiply(mat_vec(transpose(p), identity(2)[i]), mat_vec(transpose(p), identity(2)[j]))
            # wrong transform would break the unit law, caught at construction
            structure2[i][j] = mat_vec(transpose(pinv), prod)
    unit2 = mat_vec(transpose(pinv), alg.unit)
    alg2 = FrobeniusAlgebra(2, eta2, structure2, unit2)
    alpha2 = alg2.euler_class()
    # push the transformed euler class back to the original coordinates
    assert mat_vec(transpose(p), alpha2) == alg.euler_class()


def test_invert_unit_and_euler():
    a = split_pair()
    assert a.invert(a.unit) == a.unit
    sa = a.semisimplify()
    inv = a.invert(a.euler_class())
    want = tuple(sum(sa.norms[m] * sa.projectors[m][k] for m in range(2)) for k in range(2))
    assert inv == want


def test_invert_nilpotent_fails():
    a = dual_numbers()
    with pytest.raises(NotInvertible):
        a.invert((0, 2))


def test_is_semisimple():
    assert not dual_numbers().is_semisimple()
    # the non-semisimple algebra Teleman's classification excludes
    with pytest.raises(NotInvertible, match="not semisimple"):
        random_nilpotent_algebra().semisimplify()
    assert split_pair().is_semisimple()
    one = FrobeniusAlgebra(1, [[1]], [[[1]]], [1])
    assert one.is_semisimple()


def test_semisimplify_split_pair():
    ss = split_pair().semisimplify()
    assert ss.norms == (F(1), F(1))
    assert ss.projectors == ((F(0), F(1)), (F(1), F(0)))


def test_semisimplify_roundtrip():
    rng = random.Random(4)
    for dim in (1, 2, 3):
        for _ in range(4):
            alg, _, _ = random_semisimple_algebra(rng, dim)
            ss = alg.semisimplify()
            rebuilt = FrobeniusAlgebra.from_semisimple(ss.norms, ss.projectors)
            assert rebuilt.eta == alg.eta
            assert rebuilt.structure == alg.structure
            assert rebuilt.unit == alg.unit


def test_semisimplify_deterministic():
    rng = random.Random(5)
    alg, _, _ = random_semisimple_algebra(rng, 3)
    a = alg.semisimplify()
    b = alg.semisimplify()
    assert a.norms == b.norms and a.projectors == b.projectors


def test_not_split_irrational():
    # a field, hence semisimple, but not split over Q
    alg = sqrt2_field()
    assert alg.is_semisimple()
    with pytest.raises(NotSplit, match="irrational eigenvalues"):
        alg.semisimplify()


def test_split_with_nonsquare_norms():
    # the projector norms 2 and 1 need no square root: the algebra splits,
    # and only its eta-orthonormal form, which needs sqrt(2), does not exist
    structure = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    alg = FrobeniusAlgebra(2, [[2, 0], [0, 1]], structure, [1, 1])
    ss = alg.semisimplify()
    assert (ss.norms, ss.projectors) == ((F(1), F(2)), ((F(0), F(1)), (F(1), F(0))))
    assert orthonormal_form(ss) is None
    # QH(P^1) at q = 1 and 4: norms of both signs, -1/2 and 1/2, -1/4 and 1/4
    for q in (1, 4):
        qh = FrobeniusAlgebra(2, [[0, 1], [1, 0]], [[[1, 0], [0, 1]], [[0, 1], [q, 0]]], [1, 0])
        ss = qh.semisimplify()
        h = F(1, 2) / rational_sqrt(q)
        assert ss.projectors == ((F(1, 2), -h), (F(1, 2), h))
        assert ss.norms == (-h, h)
        assert orthonormal_form(ss) is None


def test_orthonormal_form_is_signed_and_sorted():
    # pi = theta e with theta^2 = w; e is signed by its first nonzero entry
    # and the e are sorted, whatever the order and signs the data came in
    alg = _from_orthonormal([-2, -1], [[2, 1], [0, -2]])
    assert orthonormal_form(alg.semisimplify()) == ((F(1), F(-2)), ((F(0), F(2)), (F(2), F(1))))


def _from_orthonormal(weights, rows):
    """The algebra with eta-orthonormal basis rows e_mu of weights theta_mu:
    projectors pi_mu = theta_mu e_mu of norms theta_mu^2."""
    projectors = [[F(t) * x for x in row] for t, row in zip(weights, rows)]
    return FrobeniusAlgebra.from_semisimple([F(t) ** 2 for t in weights], projectors)


def _frame(weights, rows):
    """The projectors pi_mu = theta_mu e_mu, sorted, with their norms."""
    pairs = sorted((tuple(F(t) * x for x in row), F(t) ** 2) for t, row in zip(weights, rows))
    return tuple(w for _, w in pairs), tuple(p for p, _ in pairs)


def _canonical(weights, rows):
    """Construction data as orthonormal_form reports it: each row, with its
    weight, negated when its first nonzero entry is negative, then sorted."""
    pairs = []
    for w, row in zip(weights, rows):
        row = tuple(F(x) for x in row)
        if next(x for x in row if x != 0) < 0:
            w, row = -w, tuple(-x for x in row)
        pairs.append((row, F(w)))
    pairs.sort()
    return tuple(w for _, w in pairs), tuple(row for row, _ in pairs)


def test_semisimplify_recovers_the_construction_data():
    # the projectors are unique, and the eta-orthonormal basis is unique up
    # to the sign of each vector, so both must be the data the algebra was
    # built from; with the unit as the first basis vector, that vector
    # splits nothing
    rng, big_rng = random.Random(17), random.Random(18)
    for dim in (1, 2, 3, 4):
        algebras = [
            make(rng, dim)
            for _ in range(6)
            for make in (random_semisimple_algebra, _unit_first_algebra)
        ]
        # entries of 20-60 digits, whose divisors no p/q search could list
        algebras += [_big_number_algebra(big_rng, dim) for _ in range(2)]
        for alg, weights, rows in algebras:
            ss = alg.semisimplify()
            assert (ss.norms, ss.projectors) == _frame(weights, rows)
            assert orthonormal_form(ss) == _canonical(weights, rows)


def trace_form_quotient(p):
    """Q[x]/(p) in the basis 1, x, ..., x^{d-1} with eta(a, b) = Tr(ab); p is
    monic and squarefree, its coefficients listed from low to high."""
    d = len(p) - 1
    powers = [tuple(F(int(i == k)) for i in range(d)) for k in range(d)]
    while len(powers) < 3 * d - 2:
        # x * x^{k-1}, with x^d = -(p_0 + p_1 x + ... + p_{d-1} x^{d-1})
        prev = powers[-1]
        powers.append(tuple((prev[i - 1] if i else F(0)) - prev[-1] * p[i] for i in range(d)))
    structure = [[powers[i + j] for j in range(d)] for i in range(d)]
    # Tr(x^k) is the trace of multiplication by x^k
    trace = [sum(powers[k + j][j] for j in range(d)) for k in range(2 * d - 1)]
    eta = [[trace[i + j] for j in range(d)] for i in range(d)]
    return FrobeniusAlgebra(d, eta, structure, powers[0])


@pytest.mark.parametrize(
    "p",
    [
        (0, -2, 0, 1),  # x(x^2 - 2)
        (3, 0, -4, 0, 1),  # (x^2 - 1)(x^2 - 3)
        (0, 1, 0, 1),  # x(x^2 + 1)
    ],
)
def test_not_split_quotients(p):
    # some basis vectors split off rational blocks, but a block with
    # irrational eigenvalues is left
    alg = trace_form_quotient(p)
    assert alg.is_semisimple()
    with pytest.raises(NotSplit):
        alg.semisimplify()


def test_split_quotient():
    # Q[x]/((x-1)(x-2)(x-3)): the projectors are the Lagrange polynomials at
    # 1, 2, 3, each of trace 1, so they are already orthonormal
    alg = trace_form_quotient((-6, 11, -6, 1))
    lagrange = [(3, F(-5, 2), F(1, 2)), (-3, 4, -1), (1, F(-3, 2), F(1, 2))]
    ss = alg.semisimplify()
    assert (ss.norms, ss.projectors) == _frame((1, 1, 1), lagrange)
    assert orthonormal_form(ss) == _canonical((1, 1, 1), lagrange)


def _direct_product(a, b):
    """A x B, in the basis of A followed by the basis of B."""
    n = a.dim + b.dim
    zero = (F(0),) * n
    eta = [[F(0)] * n for _ in range(n)]
    structure = [[zero] * n for _ in range(n)]
    for alg, s in ((a, 0), (b, a.dim)):
        for i in range(alg.dim):
            for j in range(alg.dim):
                eta[s + i][s + j] = alg.eta[i][j]
                structure[s + i][s + j] = zero[:s] + alg.structure[i][j] + zero[s + alg.dim :]
    return FrobeniusAlgebra(n, eta, structure, a.unit + b.unit)


def test_semisimplify_requires_semisimple():
    # Q(sqrt 2) x Q[x]/(x^2) is not semisimple, and its split fails first,
    # on sqrt 2 or on the nilpotent, whichever factor comes first
    sqrt2, dual = sqrt2_field(), dual_numbers()
    for alg in (dual, _direct_product(sqrt2, dual), _direct_product(dual, sqrt2)):
        with pytest.raises(NotInvertible) as exc:
            alg.semisimplify()
        assert str(exc.value) == "euler class is not invertible: algebra is not semisimple"


def test_semisimplify_data_passes_the_check():
    # semisimplify does not check its own split; the check it used to run
    # holds on what it returns
    rng = random.Random(41)
    algebras = [random_semisimple_algebra(rng, dim)[0] for dim in (1, 2, 3, 4) for _ in range(3)]
    algebras.append(FrobeniusAlgebra(2, [[0, 1], [1, 0]], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0]))
    for alg in algebras:
        alg.check_semisimple_data(alg.semisimplify())


def test_split_decides_semisimplicity(monkeypatch):
    # a split that reaches dim blocks proves semisimplicity, so a split
    # config parses without solving for the inverse of the Euler class
    from cohft.config import parse_config

    def fail(self):
        raise AssertionError("is_semisimple called after a successful split")

    monkeypatch.setattr(FrobeniusAlgebra, "is_semisimple", fail)
    text = "dim: 2\neta: 0 1 | 1 0\nunit: 1 0\nmul 1 1: 1 0\nmul 1 2: 0 1\nmul 2 2: 1 0\ndegree: 2\ncoherent: yes\n"
    spec = parse_config(text)
    assert spec.ss.norms == (F(-1, 2), F(1, 2))


def test_euler_power():
    rng = random.Random(6)
    alg, _, _ = random_semisimple_algebra(rng, 2)
    assert alg.euler_power(0) == alg.unit
    for g in range(-4, 5):
        assert alg.multiply(alg.euler_power(g), alg.euler_power(-g)) == alg.unit
    ss = alg.semisimplify()
    for g in (-2, -1, 0, 1, 2, 3):
        want = tuple(sum(ss.norms[m] ** -g * ss.projectors[m][k] for m in range(2)) for k in range(2))
        assert alg.euler_power(g) == want


def test_euler_power_negative_needs_semisimple():
    with pytest.raises(NotInvertible):
        dual_numbers().euler_power(-1)


def test_frobenius_symmetry_random():
    rng = random.Random(7)
    alg, _, _ = random_semisimple_algebra(rng, 3)
    basis = identity(3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                lhs = alg.pair(alg.multiply(basis[i], basis[j]), basis[k])
                rhs = alg.pair(basis[i], alg.multiply(basis[j], basis[k]))
                assert lhs == rhs


def test_validation_reports():
    with pytest.raises(InvalidAlgebra) as exc:
        FrobeniusAlgebra(2, [[0, 1], [0, 0]], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    assert any("symmetric" in p for p in exc.value.problems)
    with pytest.raises(InvalidAlgebra) as exc:
        FrobeniusAlgebra(2, [[1, 0], [0, 0]], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    assert any("degenerate" in p for p in exc.value.problems)
    with pytest.raises(InvalidAlgebra) as exc:
        FrobeniusAlgebra(2, [[0, 1], [1, 0]], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [0, 1])
    assert any("neutral" in p for p in exc.value.problems)
    # commutative, eta(b_i b_j, b_k) totally symmetric, but with
    # b_1 b_1 = b_0 + b_1, b_1 b_2 = 0 and b_2 b_2 = b_0 not associative
    structure = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
    ]
    with pytest.raises(InvalidAlgebra) as exc:
        FrobeniusAlgebra(3, identity(3), structure, [1, 0, 0])
    assert exc.value.problems == ["product not associative at (1,1,2)"]
    # Q x Q with a pairing that is not invariant: eta(b_0 b_0, b_1) = 1, eta(b_0, b_0 b_1) = 0
    with pytest.raises(InvalidAlgebra) as exc:
        FrobeniusAlgebra(2, [[1, 1], [1, 2]], [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])
    assert exc.value.problems == ["eta is not invariant at (0,0,1)"]


def _reference_axiom_problems(eta, s):
    """Associativity, then invariance, on every basis triple in order: the
    first violation, as FrobeniusAlgebra reports it."""
    n = len(eta)
    for i, j, k in product(range(n), repeat=3):
        ab_c = [sum(s[i][j][l] * s[l][k][m] for l in range(n)) for m in range(n)]
        a_bc = [sum(s[j][k][l] * s[i][l][m] for l in range(n)) for m in range(n)]
        if ab_c != a_bc:
            return ["product not associative at (%d,%d,%d)" % (i, j, k)]
        lhs = sum(s[i][j][l] * eta[l][k] for l in range(n))
        rhs = sum(eta[i][l] * s[j][k][l] for l in range(n))
        if lhs != rhs:
            return ["eta is not invariant at (%d,%d,%d)" % (i, j, k)]
    return []


def _unit_first_algebra(rng, dim):
    """A random split algebra whose ambient basis starts with the unit."""
    weights = [F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 3)) for _ in range(dim)]
    while True:
        # row 0 of the inverse basis change: the unit's semisimple coordinates
        coords = [weights] + [[F(rng.randrange(-3, 4)) for _ in range(dim)] for _ in range(dim - 1)]
        try:
            rows = mat_inv(coords)
            break
        except ZeroDivisionError:
            pass
    alg = _from_orthonormal(weights, rows)
    assert alg.unit == (1,) + (0,) * (dim - 1)
    return alg, weights, rows


def _big_number_algebra(rng, dim):
    """A random split algebra whose weights and basis entries have 20-60
    digits in numerator and denominator."""

    def digits():
        n = rng.randrange(20, 61)
        return rng.randrange(10 ** (n - 1), 10**n)

    def big():
        return F(rng.choice((-1, 1)) * digits(), digits())

    weights = [big() for _ in range(dim)]
    while True:
        rows = [[big() for _ in range(dim)] for _ in range(dim)]
        if _invertible(rows):
            return _from_orthonormal(weights, rows), weights, rows


def _problems(dim, eta, structure, unit):
    try:
        FrobeniusAlgebra(dim, eta, structure, unit)
    except InvalidAlgebra as exc:
        return exc.problems
    return []


def test_single_constant_changes_match_a_full_triple_check():
    # Changes of one constant, each kept symmetric: s_ij[m] with s_ji[m];
    # in dim 3, c_ijk = eta(b_i b_j, b_k) with its permutations, which keeps
    # eta invariant (in dim 2 the product is generated by b_1, so always
    # associative); one entry of eta with its mirror.  With b_0 the unit, a
    # change away from b_0 leaves the unit neutral and reaches the triple
    # checks, which must report what a check of every triple finds first
    rng = random.Random(5)
    counts = {}
    for trial in range(12):
        dim = 2 + trial % 2
        alg, _, _ = _unit_first_algebra(rng, dim)
        generic, _, _ = random_semisimple_algebra(rng, dim)  # failures anywhere
        c = [[mat_vec(alg.eta, prod) for prod in row] for row in alg.structure]
        for i, j, m in product(range(dim), repeat=3):
            delta = F(rng.choice([-2, -1, 1, 2]), rng.randrange(1, 4))
            changed = []
            if i <= j:
                s = [[list(v) for v in row] for row in alg.structure]
                s[i][j][m] += delta
                if i != j:
                    s[j][i][m] += delta
                changed.append(("product", alg.eta, s, alg.unit))
            if dim == 3 and 0 < i <= j <= m:
                cc = [[list(v) for v in row] for row in c]
                for a, b, d in set(permutations((i, j, m))):
                    cc[a][b][d] += delta
                s = [[mat_vec(alg.eta_inv, v) for v in row] for row in cc]
                changed.append(("c", alg.eta, s, alg.unit))
            if i <= j and m == 0:
                eta = [list(row) for row in generic.eta]
                eta[i][j] += delta
                eta[j][i] += delta if i != j else 0
                if _invertible(eta):
                    changed.append(("eta", eta, generic.structure, generic.unit))
            for kind, eta, s, unit in changed:
                problems = _problems(dim, eta, s, unit)
                if kind == "product" and i == 0:
                    assert any("neutral" in p for p in problems)
                    continue
                assert problems == _reference_axiom_problems(eta, s)
                verdict = problems[0].split(" at ")[0] if problems else "accepted"
                counts[kind, verdict] = counts.get((kind, verdict), 0) + 1
    # nearly every change is rejected, and both triple checks fire
    for kind in ("product", "c", "eta"):
        rejected = sum(n for (k, v), n in counts.items() if k == kind and v != "accepted")
        assert rejected > 5 * counts.get((kind, "accepted"), 0)
    assert {v for _, v in counts} >= {"product not associative", "eta is not invariant"}


def test_semisimple_data_rejects_singular_basis():
    from cohft.frobenius import SemisimpleData

    with pytest.raises(InvalidAlgebra):
        SemisimpleData([F(1), F(1)], [[1, 0], [2, 0]])
    with pytest.raises(InvalidAlgebra):
        SemisimpleData([F(1), F(0)], [[1, 0], [0, 1]])


def test_rational_helpers():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(-1)) is None
    assert rational_roots([F(-2), F(1)]) == [F(2)]
    assert rational_roots([F(-2), F(0), F(1)]) is None  # x^2 - 2
    assert rational_roots([F(0), F(-1, 2), F(1)]) == [F(0), F(1, 2)]


def _times_linear(poly, r):
    """poly (low to high) times (t - r)."""
    return [a - r * b for a, b in zip([F(0)] + poly, poly + [F(0)])]


QUADRATICS = [  # irreducible over Q
    [F(1), F(0), F(1)],
    [F(-2), F(0), F(1)],
    [F(1), F(1), F(1)],
    [F(-3), F(0), F(2)],
    [F(5), F(2), F(3)],
]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(-6, 6, max_denominator=4), max_size=4),
    st.sampled_from([None] + QUADRATICS),
    st.fractions(-5, 5, max_denominator=7).filter(bool),
)
def test_rational_roots_of_products_of_linear_factors(roots, quadratic, scale):
    # distinct linear factors give their sorted roots; a repeated factor or
    # an irreducible quadratic factor gives None
    poly = [F(1)] if quadratic is None else list(quadratic)
    for r in roots:
        poly = _times_linear(poly, r)
    poly = [scale * c for c in poly]
    # brute force over every p/q with |p/q| <= 6 and q <= 4
    grid = {F(p, q) for q in range(1, 5) for p in range(-6 * q, 6 * q + 1)}
    brute = sorted(x for x in grid if poly_eval_frac(poly, x) == 0)
    assert brute == sorted(set(roots))
    splits = quadratic is None and len(brute) == len(roots)
    assert rational_roots(poly) == (brute if splits else None)


BIG = [F(3 * 10**39 + 7, 10**21 + 9), F(-(10**25) - 13, 7 * 10**30 + 1), F(2**100 + 1, 3**40)]


@pytest.mark.parametrize(
    "roots,quadratic,splits",
    [
        (BIG, None, True),
        (BIG + [BIG[0] + F(1, 10**40)], None, True),  # two roots 10^-40 apart
        (BIG + [BIG[1]], None, False),  # a repeated factor
        (BIG, [F(-2 * 10**40), F(0), F(1)], False),  # real irrational roots
        (BIG, [F(10**40 + 1, 10**20 + 3), F(-(10**30)), F(1)], False),  # the same, with p/q
        (BIG[:1], [F(10**38), F(2 * 10**19), F(1)], False),  # (t + 10^19)^2
        (BIG[:1], [F(10**38 + 1), F(2 * 10**19), F(1)], False),  # (t + 10^19)^2 + 1
    ],
)
def test_rational_roots_of_big_numbers(roots, quadratic, splits):
    # numerators and denominators of 20-40 digits: the walk's cost grows
    # with their digits, not with their divisors
    poly = [F(7, 10**20 + 39)] if quadratic is None else list(quadratic)
    for r in roots:
        poly = _times_linear(poly, r)
    start = time.perf_counter()
    got = rational_roots(poly)
    assert time.perf_counter() - start < 1
    assert got == (sorted(roots) if splits else None)
    if got:
        assert all(poly_eval_frac(poly, x) == 0 for x in got)


def test_solve_square_non_square_and_inconsistent_systems():
    # square and invertible: the one solution
    a = mat([[2, 1], [1, 3]])
    assert solve(a, vec([3, 5])) == (F(4, 5), F(7, 5))
    # square and singular: a solution with the free unknown 0, or none
    singular = mat([[1, 2], [2, 4]])
    assert solve(singular, vec([1, 2])) == (F(1), F(0))
    assert solve(singular, vec([1, 3])) is None
    # three equations in two unknowns, consistent and not
    tall = mat([[1, 0], [0, 1], [1, 1]])
    assert solve(tall, vec([1, 2, 3])) == (F(1), F(2))
    assert solve(tall, vec([1, 2, 4])) is None
    # one equation in three unknowns
    assert solve(mat([[0, 2, 1]]), vec([4])) == (F(0), F(2), F(0))
    # no unknowns: solvable exactly when b is zero
    assert solve(mat([[], []]), vec([0, 0])) == ()
    assert solve(mat([[], []]), vec([0, 1])) is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_returns_a_solution_or_none_only_when_there_is_none(data):
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    entry = st.integers(-2, 2)
    a = mat(data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
    b = vec(data.draw(st.lists(entry, min_size=rows, max_size=rows)))
    x = solve(a, b)
    if x is not None:
        assert len(x) == cols and mat_vec(a, x) == b
    else:
        # b lies outside the column space: appending it raises the rank
        assert _rank([row + (c,) for row, c in zip(a, b)]) > _rank(a)


def _rank(m):
    # forward elimination written here, apart from linalg
    rows = [list(row) for row in m]
    rank = 0
    for c in range(len(rows[0])):
        i = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        pivot = rows[rank]
        for r in rows[rank + 1:]:
            f = r[c] / pivot[c]
            r[:] = [x - f * y for x, y in zip(r, pivot)]
        rank += 1
    return rank


def test_linear_dependence():
    # the one-vector case: only the zero vector is dependent
    assert linear_dependence([vec([1, 0])]) is None
    assert linear_dependence([vec([0, 0])]) == (F(1),)
    assert linear_dependence([]) is None
    # independent, then the last vector through the previous ones
    assert linear_dependence([vec([1, 0, 0]), vec([0, 1, 0])]) is None
    u, v = vec([1, 2, 0]), vec([0, 1, 1])
    w = vec([3 * x - F(1, 2) * y for x, y in zip(u, v)])
    assert linear_dependence([u, v, w]) == (F(-3), F(1, 2), F(1))
    # more vectors than coordinates: one equation in two unknowns
    assert linear_dependence([vec([1]), vec([2]), vec([3])]) == (F(-3), F(0), F(1))
    # the last vector outside the span of dependent earlier ones
    assert linear_dependence([vec([1, 1]), vec([2, 2]), vec([0, 1])]) is None
    # the minimal polynomial of x in Q[x]/(x^2 - 1): x^2 - 1
    assert linear_dependence([vec([1, 0]), vec([0, 1]), vec([1, 0])]) == (F(-1), F(0), F(1))


@settings(max_examples=60, deadline=None)
@given(num=st.integers(-10**30, 10**30), den=st.integers(1, 10**12))
def test_number_grammar_reads_what_frac_str_writes(num, den):
    x = F(num, den)
    assert read_rational(frac_str(x)) == x
    assert read_integer(str(num)) == num
    assert read_rational("+" + frac_str(abs(x))) == abs(x)


@pytest.mark.parametrize(
    "text", ["", " 1", "1 ", "0.5", "1e-1", "1_0", "\u0661", "\uff11", "1/0", "1/02", "1/-2", "--1", "1/2/3", "inf", "1\n"]
)
def test_number_grammar_rejects_other_text(text):
    # int() and Fraction() accept several of these; the grammar is ASCII p or p/q
    with pytest.raises(ValueError, match="not an exact rational: %s" % re.escape(repr(text))):
        read_rational(text)
    with pytest.raises(ValueError, match="not an integer"):
        read_integer(text)
    assert read_integer("-07") == -7
    with pytest.raises(ValueError):
        read_integer("1/2")


def _fraction_product(alg, a, b):
    """a b by the plain Fraction triple loop over the structure constants."""
    out = [F(0)] * alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                out[k] += F(a[i]) * F(b[j]) * alg.structure[i][j][k]
    return tuple(out)


# rationals with zeros and numerators and denominators of up to 25 digits
_entries = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-10**25, 10**25), st.integers(1, 10**25)),
    st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
)


@st.composite
def algebra_and_vectors(draw):
    """A random split algebra of dim 1-4, built from projector rows and norms
    drawn with zero entries and large denominators, and two vectors."""
    dim = draw(st.integers(1, 4))
    norms = [draw(_entries.filter(bool)) for _ in range(dim)]
    rows = draw(st.lists(st.lists(_entries, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
                .filter(lambda m: _invertible(mat(m))))
    alg = FrobeniusAlgebra.from_semisimple(norms, rows)
    a, b = (draw(st.lists(_entries, min_size=dim, max_size=dim)) for _ in range(2))
    return alg, vec(a), vec(b)


@settings(max_examples=80, deadline=None)
@given(algebra_and_vectors())
def test_int_product_matches_the_fraction_triple_loop(data):
    # the product runs on int numerators over one denominator per operand
    # and one for the structure constants
    alg, a, b = data
    want = _fraction_product(alg, a, b)
    assert alg.multiply(a, b) == want
    assert all(type(x) is F for x in alg.multiply(a, b))
    assert alg.multiply(b, a) == want
    # plain int coordinates are read as rationals
    ints = tuple(int(x.numerator) for x in a)
    assert alg.multiply(ints, b) == _fraction_product(alg, ints, b)


def _split_along_every_basis_vector(alg):
    """The blocks of the unit split along every basis vector, sorted."""
    blocks = [alg.unit]
    for b in identity(alg.dim):
        blocks = [p for u in blocks for p in alg._split_block(u, b)]
    return tuple(sorted(blocks))


def test_semisimplify_stops_once_it_holds_dim_blocks(monkeypatch):
    # dim orthogonal idempotents summing to the unit are primitive, so the
    # split stops there; the blocks are those of splitting along every basis
    # vector, both when b_1 is the unit (it splits nothing) and generically
    rng = random.Random(31)
    calls = []
    split = FrobeniusAlgebra._split_block
    monkeypatch.setattr(FrobeniusAlgebra, "_split_block", lambda self, u, b: calls.append(b) or split(self, u, b))
    for dim in (1, 2, 3, 4):
        for make in (random_semisimple_algebra, _unit_first_algebra):
            for _ in range(4):
                alg = make(rng, dim)[0]
                ss = alg.semisimplify()
                assert ss.projectors == _split_along_every_basis_vector(alg)
                assert ss.norms == tuple(alg.frobenius_trace(p) for p in ss.projectors)
    # Q x Q x Q: b_1 = (1, 0, 0) splits off one block, b_2 the other two,
    # and b_3 is never read
    structure = [[[F(int(i == j == k)) for k in range(3)] for j in range(3)] for i in range(3)]
    alg = FrobeniusAlgebra(3, identity(3), structure, [1, 1, 1])
    calls.clear()
    assert alg.semisimplify().projectors == tuple(sorted(identity(3)))
    assert identity(3)[2] not in calls
