"""Seeded random generators for algebras, R-matrices and specifications.

Symplectic series are produced as exponentials: R = exp(B_1 z + B_2 z^2 + ..)
satisfies the symplectic condition iff eta B_j is symmetric for odd j and
antisymmetric for even j, and exponentials of truncations stay exactly
symplectic through the truncation order.  Coherent specifications take phi
from the compatibility relation; incoherent ones perturb phi_1.
"""

from fractions import Fraction
from math import comb

from .frobenius import FrobeniusAlgebra
from .givental import CohFTSpec, coherent_phi
from .linalg import Q0, Q1, mat, mat_inv, mat_mul, zero_mat
from .series import EndSeries, check_symplectic, truncated_exp


def _rand_frac(rng, num=4, den=3):
    return Fraction(rng.randrange(-num, num + 1), rng.randrange(1, den + 1))


def _rand_nonzero(rng, num=4):
    while True:
        x = Fraction(rng.randrange(-num, num + 1), rng.randrange(1, 3))
        if x != 0:
            return x


def random_semisimple_algebra(rng, dim):
    """Split semisimple algebra with a random eta-orthonormal integral basis.

    The draws are weights theta_mu and rows e_mu; the projectors are
    pi_mu = theta_mu e_mu, of norms theta_mu^2.  Returns the algebra and
    the draws.
    """
    weights = [_rand_nonzero(rng) for _ in range(dim)]
    while True:
        rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(dim)] for _ in range(dim)]
        try:
            mat_inv(rows)
            break
        except ZeroDivisionError:
            pass
    projectors = [[t * x for x in row] for t, row in zip(weights, rows)]
    return FrobeniusAlgebra.from_semisimple([t * t for t in weights], projectors), weights, rows


def random_nilpotent_algebra():
    """Q[x]/(x^2) with the antidiagonal pairing: valid but not semisimple.

    Teleman's classification needs a semisimple algebra; this is the
    Frobenius algebra it excludes, which semisimplify must reject.
    """
    structure = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    return FrobeniusAlgebra(2, [[0, 1], [1, 0]], structure, [1, 0])


def random_symplectic_r(rng, algebra, order, sparsity=2):
    """exp(B_1 z + ... + B_order z^order) with the right eta symmetries."""
    dim = algebra.dim
    eta_inv = algebra.eta_inv
    bs = []
    for j in range(1, order + 1):
        s = [[Q0] * dim for _ in range(dim)]
        for i in range(dim):
            for k in range(i, dim):
                if rng.randrange(sparsity) == 0:
                    val = _rand_frac(rng, 2, 2)
                else:
                    val = Q0
                if j % 2 == 1:
                    s[i][k] = val
                    s[k][i] = val
                else:
                    if i == k:
                        continue
                    s[i][k] = val
                    s[k][i] = -val
        bs.append(mat_mul(eta_inv, mat(s)))
    b = EndSeries(dim, order, [zero_mat(dim)] + bs)
    r = truncated_exp(b, EndSeries.identity(dim, order), order)
    assert check_symplectic(r, algebra.eta)
    return r


def random_r_series(rng, dim, order):
    """Unconstrained R with R_0 = Id; typically not symplectic."""
    higher = [
        [[_rand_frac(rng, 2, 2) for _ in range(dim)] for _ in range(dim)]
        for _ in range(order)
    ]
    return EndSeries.from_higher_coeffs(dim, order, higher)


def coherent_spec(rng, dim, degree):
    """Random coherent specification: phi is forced by R."""
    algebra, _, _ = random_semisimple_algebra(rng, dim)
    ss = algebra.semisimplify()
    r = random_symplectic_r(rng, algebra, degree)
    return CohFTSpec(algebra, ss, None, r, degree, coherent=True)


def incoherent_spec(rng, dim, degree):
    """Same data with phi_1 perturbed; compatibility fails by construction."""
    algebra, _, _ = random_semisimple_algebra(rng, dim)
    ss = algebra.semisimplify()
    r = random_symplectic_r(rng, algebra, degree)
    phi = [list(p) for p in coherent_phi(algebra, ss, r, degree)]
    phi[0][0] += 1
    return CohFTSpec(algebra, ss, phi, r, degree, coherent=False)


def _scalar_spec(log_r, degree):
    """dim 1, eta(1,1) = 1, R = exp(sum_k log_r[k] z^k) (log_r[0] = 0) and
    the matching coherent phi."""
    algebra = FrobeniusAlgebra(1, [[1]], [[[1]]], [1])
    b = EndSeries(1, degree, [[[c]] for c in log_r])
    r = truncated_exp(b, EndSeries.identity(1, degree), degree)
    return CohFTSpec(algebra, algebra.semisimplify(), None, r, degree, coherent=True)


def trivial_spec(degree=3):
    """dim 1, eta(1,1) = 1, R = Id, phi = 0: the Witten correlator theory."""
    return _scalar_spec([0] * (degree + 1), degree)


def scalar_exp_spec(a, degree):
    """dim 1 with R = exp(a z) and the matching coherent phi."""
    return _scalar_spec([0, a] + [0] * (degree - 1), degree)


def bernoulli_numbers(count):
    """B_0 .. B_{count-1} as Fractions, B_1 = -1/2, from
    sum_{k<=m} C(m+1, k) B_k = 0 for m >= 1."""
    out = [Q1]
    for m in range(1, count):
        out.append(-sum(comb(m + 1, k) * b for k, b in enumerate(out)) / (m + 1))
    return out[:count]


def hodge_spec(degree, sign=1):
    """dim 1 with R(z) = exp(sign sum_k B_2k / (2k (2k-1)) z^(2k-1)) and the
    matching coherent phi.

    By Mumford's formula for ch(E) the R-matrix action of this R, sign 1,
    is the total Chern class of the Hodge bundle, 1 + lambda_1 + ... +
    lambda_g; sign -1 gives that of its dual, whose lambda_i carry (-1)^i.
    """
    bern = bernoulli_numbers(degree + 2)
    log_r = [Q0] * (degree + 1)
    for k in range(1, (degree + 1) // 2 + 1):
        log_r[2 * k - 1] = sign * bern[2 * k] / (2 * k * (2 * k - 1))
    return _scalar_spec(log_r, degree)


def random_vector(rng, dim, num=3):
    return tuple(Fraction(rng.randrange(-num, num + 1)) for _ in range(dim))
