import hashlib
import random
from fractions import Fraction as F
from itertools import permutations
from itertools import product as iproduct
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohft.frobenius import FrobeniusAlgebra, InvalidAlgebra, SemisimpleData
from cohft.givental import (
    CohFTSpec,
    IncoherentSpec,
    NotSymplectic,
    coherent_phi,
    compatibility_check,
    graph_contribution,
    omega_plus,
    phi_primitive,
    r_action,
    reconstruct_fixed,
    reconstruct_free,
    restrict_to_smooth,
    skipped_axioms,
    tqft_value,
    two_point,
    verify_axioms,
)
from cohft.graphs import StableGraph, UnstablePair, smooth_graph
from cohft.intersect import Correlators, correlator_of_theory
from cohft.kappa import KappaPoly, is_grouplike, log_conv
from cohft.oracles import brute_force_graph_sum
from cohft.linalg import CohftError, frac_str, identity, mat_inv, mat_mul, mat_vec, transpose
from cohft.sampling import (
    coherent_spec,
    hodge_spec,
    incoherent_spec,
    random_r_series,
    random_semisimple_algebra,
    random_symplectic_r,
    random_vector,
    scalar_exp_spec,
    trivial_spec,
)
from cohft.series import EndSeries, check_symplectic, edge_kernel
from cohft.taut import DecoratedGraph, KPPoly, TautExpr
from test_graphs import SMALL_PAIRS
from test_intersect import _indefinite_spec


def identity_spec(rng, dim, degree, phi=None):
    alg, _, _ = random_semisimple_algebra(rng, dim)
    ss = alg.semisimplify()
    return CohFTSpec(alg, ss, phi or [], EndSeries.identity(dim, degree), degree)


def ambient_omega_plus(spec, x):
    """Omega^+(x) = theta(x exp(sum_j kappa_j eta^{-1} phi_j)) through the
    spec degree, the exponential summed in A[kappa] with ambient products:
    a reference that reads no projector and no value of omega_plus."""
    alg, cap = spec.algebra, spec.degree
    step = [((j,), mat_vec(alg.eta_inv, p)) for j, p in enumerate(spec.phi, start=1)]
    power = {(): alg.unit}
    total = dict(power)
    for k in range(1, cap + 1):
        # power holds X^k / k!, X = sum_j kappa_j eta^{-1} phi_j
        new = {}
        for k1, a in power.items():
            for k2, b in step:
                if sum(k1) + sum(k2) <= cap:
                    key = tuple(sorted(k1 + k2))
                    prod = alg.multiply(a, b)
                    old = new.get(key, (0,) * alg.dim)
                    new[key] = tuple(o + c / k for o, c in zip(old, prod))
        power = new
        for key, a in power.items():
            total[key] = tuple(t + c for t, c in zip(total.get(key, (0,) * alg.dim), a))
    return KappaPoly(cap, ((key, alg.frobenius_trace(alg.multiply(x, a))) for key, a in total.items()))


def ambient_slot_sum(spec, g, slots, cap):
    """The smooth part with ambient products: sum over psi exponents e of
    total degree <= cap of Omega^+(alpha^g prod_i slots[i][e_i]) psi^e, with
    alpha^g from euler_power and slots of ambient vectors."""
    alg = spec.algebra
    terms = []
    for exps in iproduct(*(range(len(slot)) for slot in slots)):
        if sum(exps) > cap:
            continue
        acc = alg.euler_power(g)
        for slot, e in zip(slots, exps):
            acc = alg.multiply(acc, slot[e])
        terms.extend(((kk, exps), c) for kk, c in ambient_omega_plus(spec, acc).terms.items())
    return KPPoly(len(slots), cap, terms)


def test_tqft_small_values():
    rng = random.Random(0)
    spec = identity_spec(rng, 2, 3)
    alg = spec.algebra
    v1, v2, v3 = (random_vector(rng, 2) for _ in range(3))
    assert tqft_value(spec, 0, 3, [v1, v2, v3]) == alg.pair(alg.multiply(v1, v2), v3)
    assert tqft_value(spec, 1, 1, [v1]) == alg.pair(v1, alg.euler_class())
    triv = trivial_spec(3)
    for g, n in [(0, 3), (1, 1), (1, 2), (2, 1)]:
        assert tqft_value(triv, g, n, [[1]] * n) == 1


def test_tqft_multilinear_symmetric():
    rng = random.Random(1)
    spec = identity_spec(rng, 2, 3)
    vs = [random_vector(rng, 2) for _ in range(3)]
    base = tqft_value(spec, 1, 3, vs)
    for perm in permutations(range(3)):
        assert tqft_value(spec, 1, 3, [vs[i] for i in perm]) == base
    doubled = [tuple(2 * x for x in vs[0])] + vs[1:]
    assert tqft_value(spec, 1, 3, doubled) == 2 * base


def test_tqft_unstable():
    with pytest.raises(UnstablePair):
        tqft_value(trivial_spec(2), 0, 2, [[1], [1]])


def test_omega_plus_trivial_is_theta():
    rng = random.Random(2)
    spec = identity_spec(rng, 2, 4)
    op = omega_plus(spec)
    from cohft.kappa import theta_covector

    assert op == theta_covector(spec.ss, 4)


def test_omega_plus_grouplike():
    rng = random.Random(3)
    for dim in (1, 2):
        spec = coherent_spec(rng, dim, 4)
        assert is_grouplike(omega_plus(spec))


def test_omega_plus_scalar_exponential():
    c = F(3, 4)
    alg = FrobeniusAlgebra(1, [[1]], [[[1]]], [1])
    ss = alg.semisimplify()
    spec = CohFTSpec(alg, ss, [[c]], EndSeries.identity(1, 3), 3)
    assert ss.projectors == ((1,),) and ss.norms == (1,)
    value = omega_plus(spec).values[0]
    want = KappaPoly(3, {(1,): c}).exp()
    assert value == want


def _omega_plus_is_vertex_exp(spec):
    op = omega_plus(spec)
    return [
        op.values[mu] == spec.vertex_exp(mu, spec.degree).scale(spec.ss.norms[mu])
        for mu in range(spec.ss.dim)
    ]


def test_omega_plus_and_vertex_factor_are_one_exponential():
    # Omega^+(e_mu) = theta_mu exp(sum_j phi_j(e_mu) kappa_j / theta_mu), and
    # coherence makes phi_j(e_mu) / theta_mu the vertex log coefficient a_j^mu
    rng = random.Random(15)
    for dim in (1, 2, 3):
        for degree in (3, 4, 5):
            assert all(_omega_plus_is_vertex_exp(coherent_spec(rng, dim, degree)))
    assert all(_omega_plus_is_vertex_exp(hodge_spec(6)))
    for dim in (1, 2, 3):
        assert not all(_omega_plus_is_vertex_exp(incoherent_spec(rng, dim, 4)))


def test_reconstruct_fixed_point_case():
    rng = random.Random(4)
    spec = identity_spec(rng, 2, 3)
    alg = spec.algebra
    basis = identity(2)
    for i in range(2):
        for j in range(2):
            got = reconstruct_fixed(spec, 0, 3, [alg.unit, basis[i], basis[j]])
            assert got == KPPoly.constant(3, 0, alg.pair(basis[i], basis[j]))


def test_reconstruct_fixed_equals_tqft_when_phi_zero():
    rng = random.Random(5)
    spec = identity_spec(rng, 2, 4)
    for g, n in [(1, 1), (1, 2), (2, 1)]:
        vs = [random_vector(rng, 2) for _ in range(n)]
        got = reconstruct_fixed(spec, g, n, vs)
        assert got == KPPoly.constant(n, got.cap, tqft_value(spec, g, n, vs))


def test_reconstruct_fixed_scalar():
    c = F(2)
    alg = FrobeniusAlgebra(1, [[1]], [[[1]]], [1])
    ss = alg.semisimplify()
    spec = CohFTSpec(alg, ss, [[c]], EndSeries.identity(1, 4), 4)
    got = reconstruct_fixed(spec, 1, 1, [[1]])
    assert got == KPPoly(1, 1, {((), (0,)): 1, ((1,), (0,)): c})


def test_reconstruct_free_matches_fixed_for_identity_r():
    rng = random.Random(6)
    spec = identity_spec(rng, 2, 4, phi=[[F(1), F(0)], [F(0), F(2)]])
    for g, n in [(0, 4), (1, 1), (1, 2)]:
        vs = [random_vector(rng, 2) for _ in range(n)]
        assert reconstruct_free(spec, g, n, vs) == reconstruct_fixed(spec, g, n, vs)


def test_reconstruct_free_degree_zero_is_tqft():
    rng = random.Random(7)
    for dim in (1, 2):
        spec = coherent_spec(rng, dim, 4)
        for g, n in [(0, 4), (1, 2)]:
            vs = [random_vector(rng, dim) for _ in range(n)]
            got = reconstruct_free(spec, g, n, vs)
            assert got.terms.get(((), (0,) * n), 0) == tqft_value(spec, g, n, vs)


def test_reconstruct_free_scalar_closed_form():
    a = F(1, 3)
    spec = scalar_exp_spec(a, 3)
    got = reconstruct_free(spec, 1, 1, [[1]])
    want = KPPoly(1, 1, {((), (0,)): 1, ((1,), (0,)): a, ((), (1,)): -a})
    assert got == want


@pytest.mark.parametrize("degree", [1, 2, 5])
def test_scalar_specs_closed_forms(degree):
    # the dim-1 theories share one builder: R = exp(log R) with coherent phi
    triv = trivial_spec(degree)
    assert triv.r == EndSeries.identity(1, degree)
    assert triv.phi == ((F(0),),) * degree
    a = F(-2, 3)
    spec = scalar_exp_spec(a, degree)
    assert [c[0][0] for c in spec.r.coeffs] == [a**k / factorial(k) for k in range(degree + 1)]
    assert spec.phi == ((a,),) + ((F(0),),) * (degree - 1)
    for s in (triv, spec):
        assert (s.coherent, s.degree, s.ss.norms) == (True, degree, (1,))


# sha256 of the genus-0 fixed and free reconstructions rendered, one per line,
# on non-unit vectors, as the euler-class shift alpha * ... * alpha^{-1} v_n
# computed them
GENUS0_RECONSTRUCTION_PINS = {
    (2, 43, 3): "ce80a4f8939c12b6ac0610df36f4a6b13f5388e01033806269acafdca27b626a",
    (2, 43, 4): "24d5a55ca3de56f650267e1b0edb667fa670ac8061c00a2fe30672afd9338eae",
    (2, 43, 5): "2fee5f035d5aa923cfc6bd06af663711c325d30656fcdcbdd8049a4dda920e45",
    (3, 46, 3): "395f65287d340886ce72febe45ef1bb9b17b1704e037fd51e8e63649b7a89e2a",
    (3, 46, 4): "dc823874daaf002dcbae986255eba5056b02f9687ad3222efeca0908ddc39550",
    (3, 46, 5): "775568aa9b7fe7a1ec55e08cdb8f6900da4a422807ee73be395cc5524100c7c1",
}


@pytest.mark.parametrize("dim, seed", [(2, 43), (3, 46)])
def test_genus0_reconstruction_pins(dim, seed):
    rng = random.Random(seed)
    spec = coherent_spec(rng, dim, 4)
    for n in (3, 4, 5):
        vs = [random_vector(rng, dim) for _ in range(n)]
        assert spec.algebra.unit not in vs
        text = "\n".join(recon(spec, 0, n, vs).render() for recon in (reconstruct_fixed, reconstruct_free))
        assert hashlib.sha256(text.encode()).hexdigest() == GENUS0_RECONSTRUCTION_PINS[(dim, seed, n)]


def test_reconstruct_unstable():
    with pytest.raises(UnstablePair):
        reconstruct_free(trivial_spec(2), 0, 1, [[1]])


def test_compatibility_examples():
    assert compatibility_check(trivial_spec(3))
    assert compatibility_check(scalar_exp_spec(F(-2, 5), 4))
    rng = random.Random(8)
    spec = identity_spec(rng, 1, 3, phi=[[F(1)]])
    assert not compatibility_check(spec)


@st.composite
def coherent_and_changed(draw):
    """A coherent spec of dim 1-3 and degree 1-4, paired with itself or with
    the same data but one entry of one phi_j changed."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    dim, degree = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    coherent = coherent_spec(rng, dim, degree)
    if draw(st.booleans()):
        return coherent, coherent
    phi = [list(p) for p in coherent.phi]
    j, i = draw(st.integers(0, degree - 1)), draw(st.integers(0, dim - 1))
    phi[j][i] += draw(st.fractions(-2, 2, max_denominator=3).filter(bool))
    return coherent, CohFTSpec(coherent.algebra, coherent.ss, phi, coherent.r, degree)


@settings(max_examples=60, deadline=None)
@given(coherent_and_changed())
def test_compatibility_check_matches_the_log_form(data):
    # the relation as stated: the log of Omega^+ against the phi primitive of
    # the covectors forced by R, which the coherent spec derived
    coherent, spec = data
    log_form = log_conv(omega_plus(spec)) == phi_primitive(coherent)
    assert log_form == (spec is coherent)
    assert compatibility_check(spec) == log_form


def test_reconstructions_need_one_vector_per_point():
    # three vectors at (1,1): fixed once multiplied all in, free used the first
    spec = trivial_spec(3)
    for recon in (tqft_value, reconstruct_fixed, reconstruct_free):
        with pytest.raises(ValueError, match="need 1 vectors"):
            recon(spec, 1, 1, [[1], [2], [3]])


def test_vectors_need_the_algebra_dimension():
    # every entry point checks the length: the coordinate changes would read
    # a long vector by its first dim entries
    spec = coherent_spec(random.Random(24), 2, 3)
    for bad in ((1,), (1, 2, 3)):
        for recon in (tqft_value, reconstruct_fixed, reconstruct_free, r_action):
            with pytest.raises(ValueError, match="dimension mismatch"):
                recon(spec, 1, 1, [bad])
        for v, w in ((bad, (1, 0)), ((1, 0), bad)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                two_point(spec, v, w)
        with pytest.raises(ValueError, match="dimension mismatch"):
            correlator_of_theory(spec, 1, 1, [bad], (1,), Correlators())


def test_spec_rejects_phi_of_the_wrong_length():
    # incoherent specs too: [[]] was accepted and omega_plus then failed
    algebra = FrobeniusAlgebra(1, [[1]], [[[1]]], [1])
    ss = algebra.semisimplify()
    for phi in ([[1, 2, 3]], [[]]):
        for coherent in (False, True):
            with pytest.raises(CohftError, match="each phi covector must have 1 entries"):
                CohFTSpec(algebra, ss, phi, EndSeries.identity(1, 3), 3, coherent=coherent)


def test_incoherent_flag_rejected():
    rng = random.Random(9)
    alg, _, _ = random_semisimple_algebra(rng, 1)
    ss = alg.semisimplify()
    with pytest.raises(IncoherentSpec):
        CohFTSpec(alg, ss, [[F(1)]], EndSeries.identity(1, 3), 3, coherent=True)


def test_spec_rejects_non_symplectic_r():
    rng = random.Random(10)
    alg, _, _ = random_semisimple_algebra(rng, 1)
    ss = alg.semisimplify()
    bad = EndSeries.from_higher_coeffs(1, 3, [[[F(0)]], [[F(1)]]])
    with pytest.raises(NotSymplectic, match="R does not satisfy the symplectic condition"):
        CohFTSpec(alg, ss, [], bad, 3)
    # the semisimple data is checked first: the kernel is built in its basis
    wrong = SemisimpleData([ss.norms[0] * 4], [[ss.projectors[0][0] / 2]])
    with pytest.raises(InvalidAlgebra):
        CohFTSpec(alg, wrong, [], bad, 3)


def test_spec_construction_errors_are_cohft_errors():
    rng = random.Random(12)
    alg, _, _ = random_semisimple_algebra(rng, 2)
    ss = alg.semisimplify()
    r = random_symplectic_r(rng, alg, 3)
    with pytest.raises(CohftError, match="truncation degree must be >= 1"):
        CohFTSpec(alg, ss, [], r, 0)
    doubled = EndSeries(2, 3, [[[2, 0], [0, 2]]] + list(r.coeffs[1:]))
    with pytest.raises(CohftError, match="R must have constant term Id"):
        CohFTSpec(alg, ss, [], doubled, 3)
    with pytest.raises(CohftError, match="only for a coherent spec"):
        CohFTSpec(alg, ss, None, r, 3)
    # an R of another order is refused, not padded with zeros or cut
    for order in (2, 4):
        other = random_symplectic_r(rng, alg, order, sparsity=1)
        with pytest.raises(CohftError, match="R must have order 3, the truncation degree, not %d" % order):
            CohFTSpec(alg, ss, [], other, 3)


def test_spec_derives_coherent_phi_from_r():
    rng = random.Random(11)
    alg, _, _ = random_semisimple_algebra(rng, 2)
    ss = alg.semisimplify()
    r = random_symplectic_r(rng, alg, 4)
    derived = CohFTSpec(alg, ss, None, r, 4, coherent=True)
    given = CohFTSpec(alg, ss, coherent_phi(alg, ss, r, 4), r, 4, coherent=True)
    assert derived.phi == given.phi


def test_graph_contribution_identity_r_smooth():
    rng = random.Random(11)
    spec = identity_spec(rng, 2, 3)
    vs = [random_vector(rng, 2) for _ in range(2)]
    got = graph_contribution(spec, smooth_graph(1, 2), vs)
    want = TautExpr(
        1,
        2,
        2,
        {DecoratedGraph(smooth_graph(1, 2), ((),), (0, 0), ()): tqft_value(spec, 1, 2, vs)},
    )
    assert got == want


def test_graph_contribution_identity_r_kills_edges():
    rng = random.Random(12)
    spec = identity_spec(rng, 2, 3)
    loop = StableGraph((0,), (0,), ((0, 0),))
    assert graph_contribution(spec, loop, [random_vector(rng, 2)]).is_zero()


def test_graph_contribution_scalar_loop():
    a = F(1, 2)
    spec = scalar_exp_spec(a, 3)
    loop = StableGraph((0,), (0,), ((0, 0),))
    got = graph_contribution(spec, loop, [[1]])
    kernel = edge_kernel(spec.r, spec.algebra.eta)
    want = TautExpr(
        1,
        1,
        1,
        {DecoratedGraph(loop, ((),), (0,), ((0, 0),)): kernel[(0, 0)][0][0]},
    )
    assert got == want


def test_one_leg_vertex_contribution_matches_insertion_sum():
    # the single-vertex one-leg graph: closed-form vertex factor against the
    # raw insertion sum, projector by projector
    rng = random.Random(13)
    spec = coherent_spec(rng, 2, 4)
    from cohft.oracles import vertex_factor_diff

    for mu in range(2):
        assert vertex_factor_diff(spec, mu, 4).is_zero()


def test_smooth_contribution_is_free_reconstruction_termwise():
    # on the edgeless graph the contribution is the insertion sum with
    # R^{-1}(psi) in each slot: for a coherent spec this reproduces the free
    # reconstruction monomial by monomial
    rng = random.Random(30)
    for dim in (1, 2):
        spec = coherent_spec(rng, dim, 4)
        for g, n in [(1, 1), (2, 1), (1, 2)]:
            vs = [random_vector(rng, dim) for _ in range(n)]
            graph = smooth_graph(g, n)
            got = graph_contribution(spec, graph, vs)
            assert all(key.graph == graph for key in got.terms)
            assert got.restrict_to_smooth() == reconstruct_free(spec, g, n, vs)


def test_r_action_identity_r_fixed_point():
    rng = random.Random(14)
    spec = identity_spec(rng, 2, 4)
    for g, n in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)]:
        vs = [random_vector(rng, 2) for _ in range(n)]
        expr = r_action(spec, g, n, vs)
        cap = max(min(4, 3 * g - 3 + n), 0)
        want = TautExpr(
            g,
            n,
            cap,
            {
                DecoratedGraph(smooth_graph(g, n), ((),), (0,) * n, ()): tqft_value(
                    spec, g, n, vs
                )
            },
        )
        assert expr == want


def test_r_action_point_space_is_tqft():
    rng = random.Random(15)
    for dim in (1, 2):
        spec = coherent_spec(rng, dim, 3)
        vs = [random_vector(rng, dim) for _ in range(3)]
        expr = r_action(spec, 0, 3, vs)
        want = TautExpr(
            0,
            3,
            0,
            {DecoratedGraph(smooth_graph(0, 3), ((),), (0, 0, 0), ()): tqft_value(spec, 0, 3, vs)},
        )
        assert expr == want


def test_r_action_scalar_two_graph_expansion():
    # hand expansion for dim 1, R = exp(az), (g,n) = (1,1): the smooth term is
    # 1 + a kappa_1 - a psi_1 and the loop stratum carries K(0,0)/|Aut| = a/2
    a = F(1, 2)
    spec = scalar_exp_spec(a, 3)
    expr = r_action(spec, 1, 1, [[1]])
    smooth = smooth_graph(1, 1)
    loop = StableGraph((0,), (0,), ((0, 0),))
    want = TautExpr(
        1,
        1,
        1,
        {
            DecoratedGraph(smooth, ((),), (0,), ()): F(1),
            DecoratedGraph(smooth, ((1,),), (0,), ()): a,
            DecoratedGraph(smooth, ((),), (1,), ()): -a,
            DecoratedGraph(loop, ((),), (0,), ((0, 0),)): a / 2,
        },
    )
    assert expr == want


def test_degree_zero_two_slots_is_euler_pairing():
    # the degree-zero part of the one-holed-torus two-point class is
    # eta(v w, alpha)
    rng = random.Random(26)
    spec = coherent_spec(rng, 2, 4)
    alg = spec.algebra
    v, w = random_vector(rng, 2), random_vector(rng, 2)
    got = reconstruct_free(spec, 1, 2, [v, w])
    want = alg.pair(alg.multiply(v, w), alg.euler_class())
    assert got.terms.get(((), (0, 0)), 0) == want


def test_r_action_dim2_loop_hand_assembly():
    # assemble the (1,1) class directly from the formulas: smooth part from
    # the classification formula, loop stratum from the kernel contracted at
    # one projector index with the genus-0 vertex weight w_mu, all divided
    # by |Aut| = 2
    rng = random.Random(27)
    spec = coherent_spec(rng, 2, 4)
    alg, ss = spec.algebra, spec.ss
    v = random_vector(rng, 2)
    got = r_action(spec, 1, 1, [v])

    smooth = smooth_graph(1, 1)
    loop = StableGraph((0,), (0,), ((0, 0),))
    free = reconstruct_free(spec, 1, 1, [v])
    terms = {}
    for (kk, pp), c in free.terms.items():
        terms[DecoratedGraph(smooth, (kk,), pp, ())] = c
    from cohft.linalg import mat_inv, mat_mul, transpose

    kernel = edge_kernel(spec.r, alg.eta)
    binv = mat_inv(ss.projectors)
    k00 = mat_mul(transpose(binv), mat_mul(kernel[(0, 0)], binv))
    rv0 = ss.to_semisimple(spec.r_inverse().apply(v)[0])
    loop_coeff = sum(rv0[mu] * k00[mu][mu] * ss.norms[mu] for mu in range(2))
    key = DecoratedGraph(loop, ((),), (0,), ((0, 0),))
    terms[key] = terms.get(key, F(0)) + loop_coeff / 2
    want = TautExpr(1, 1, 1, terms)
    assert got == want


def test_restriction_equals_free_reconstruction():
    rng = random.Random(16)
    for dim in (1, 2):
        for _ in range(2):
            spec = coherent_spec(rng, dim, 4)
            for g, n in [(0, 4), (1, 1), (1, 2)]:
                vs = [random_vector(rng, dim) for _ in range(n)]
                lhs = restrict_to_smooth(r_action(spec, g, n, vs))
                rhs = reconstruct_free(spec, g, n, vs)
                assert lhs == rhs


def test_restriction_equals_free_reconstruction_dim5_space():
    # one size beyond the acceptance envelope: genus 2 with two points
    rng = random.Random(31)
    spec = coherent_spec(rng, 2, 5)
    vs = [random_vector(rng, 2) for _ in range(2)]
    expr = r_action(spec, 2, 2, vs)
    assert expr.restrict_to_smooth() == reconstruct_free(spec, 2, 2, vs)


def test_restriction_equals_free_reconstruction_more_points():
    spec = coherent_spec(random.Random(7), 2, 5)
    rng = random.Random(5)
    for g, n in [(1, 4), (0, 5)]:
        vs = [random_vector(rng, 2) for _ in range(n)]
        assert restrict_to_smooth(r_action(spec, g, n, vs)) == reconstruct_free(spec, g, n, vs)


# sha256 of r_action(2, 2) rendered, its term count and the correlator
# <tau_2 tau_1> of the same theory, as the earlier graph sum computed them
R_ACTION_PINS = {
    1: ("7c53c1b1da8c8f458ad38dad32f1c7f915d857f54e36eb314d8e72546b2f652a", 1313, F(-84, 5)),
    2: ("9d4c7cae5b6fbe6ebe9085fd18016e71306afcfb247c50fe784af57f7a3f3e08", 1466, F(13456211, 368640)),
    3: (
        "ae64005dd29e0aa5b1e0fdc0bcc8b4a2b6214083dd90ea74ab0aa3026995b6f5",
        1466,
        F(-101523599837, 5441955840),
    ),
}


@pytest.mark.parametrize("dim", sorted(R_ACTION_PINS))
def test_r_action_regression_pins(dim):
    digest, terms, correlator = R_ACTION_PINS[dim]
    spec = coherent_spec(random.Random(7), dim, 5)
    rng = random.Random(3)
    vs = [random_vector(rng, dim) for _ in range(2)]
    expr = r_action(spec, 2, 2, vs)
    assert len(expr.terms) == terms
    assert hashlib.sha256("\n".join(expr.render_lines()).encode()).hexdigest() == digest
    assert correlator_of_theory(spec, 2, 2, vs, (2, 1), Correlators()) == correlator


def test_restriction_fails_for_incoherent():
    rng = random.Random(17)
    spec = incoherent_spec(rng, 2, 3)
    vs = [random_vector(rng, 2)]
    assert restrict_to_smooth(r_action(spec, 1, 1, vs)) != reconstruct_free(spec, 1, 1, vs)


def test_reconstruct_free_slot_symmetry():
    rng = random.Random(18)
    spec = coherent_spec(rng, 2, 4)
    vs = [random_vector(rng, 2) for _ in range(2)]
    base = reconstruct_free(spec, 1, 2, vs)
    swapped = reconstruct_free(spec, 1, 2, vs[::-1])
    assert swapped.permute_slots((1, 0)) == base


def test_dim3_end_to_end():
    rng = random.Random(28)
    spec = coherent_spec(rng, 3, 3)
    assert compatibility_check(spec)
    for g, n in [(1, 1), (1, 2)]:
        vs = [random_vector(rng, 3) for _ in range(n)]
        lhs = restrict_to_smooth(r_action(spec, g, n, vs))
        rhs = reconstruct_free(spec, g, n, vs)
        assert lhs == rhs
    assert verify_axioms(spec, "free", max_dim=1) == []


def test_incoherence_detected_in_higher_degree():
    # perturbing phi_2 rather than phi_1 still breaks the forgetful identity
    rng = random.Random(29)
    from cohft.sampling import random_symplectic_r

    alg, _, _ = random_semisimple_algebra(rng, 2)
    ss = alg.semisimplify()
    r = random_symplectic_r(rng, alg, 3)
    phi = [list(p) for p in coherent_phi(alg, ss, r, 3)]
    phi[1][1] += 1
    spec = CohFTSpec(alg, ss, phi, r, 3, coherent=False)
    assert not compatibility_check(spec)
    vs = [random_vector(rng, 2), random_vector(rng, 2)]
    assert restrict_to_smooth(r_action(spec, 1, 2, vs)) != reconstruct_free(spec, 1, 2, vs)
    failures = verify_axioms(spec, "free", max_dim=2)
    assert any(f["axiom"] == "forgetful" for f in failures)


def test_verify_axioms_trivial_and_coherent():
    assert verify_axioms(trivial_spec(3), "free", max_dim=2) == []
    assert verify_axioms(trivial_spec(3), "fixed", max_dim=2) == []
    rng = random.Random(19)
    spec = coherent_spec(rng, 2, 4)
    assert verify_axioms(spec, "free", max_dim=2) == []
    assert verify_axioms(spec, "fixed", max_dim=2) == []


def test_verify_axioms_catches_incoherence():
    rng = random.Random(20)
    spec = incoherent_spec(rng, 2, 3)
    failures = verify_axioms(spec, "free", max_dim=2)
    assert failures
    assert all(f["axiom"] == "forgetful" for f in failures)


def test_verify_reads_the_edge_kernel():
    # step 3 checks the genus-1 recursion on the theory's correlators, so it
    # sees the graph sum: doubling the kernel entries of degree 0 breaks it
    # on every spec that has one (an R with no z term has none), and no
    # other axiom reads the kernel
    specs = [coherent_spec(random.Random(seed), dim, 3) for dim in (1, 2, 3) for seed in range(6)]
    caught = 0
    for spec in specs + [hodge_spec(3)]:
        assert verify_axioms(spec, "free") == []
        kernel = spec.kernel_ss()
        doubled = 0
        for key, entries in kernel.items():
            kernel[key] = [(a, b, 2 * c if a + b == 0 else c) for a, b, c in entries]
            doubled += sum(a + b == 0 for a, b, _ in entries)
        failures = verify_axioms(spec, "free")
        assert all(f["axiom"] == "sewing-nonseparating" for f in failures)
        assert bool(failures) == bool(doubled)
        caught += bool(failures)
    assert caught == 13  # 12 of the 18 seeded specs, and hodge_spec(3)


def test_skipped_axioms_are_the_ones_with_no_case():
    # a doubled degree-0 kernel fails only non-separating sewing, so the
    # dims that skip it find no failure and must say so
    spec = coherent_spec(random.Random(1), 2, 3)
    for key, entries in spec.kernel_ss().items():
        spec.kernel_ss()[key] = [(a, b, 2 * c if a + b == 0 else c) for a, b, c in entries]
    assert [f["axiom"] for f in verify_axioms(spec, "free", max_dim=2)] == ["sewing-nonseparating"] * 4
    assert skipped_axioms(spec, 2) == []
    for max_dim, skipped in [(0, ["symmetry", "sewing-nonseparating", "forgetful"]), (1, ["sewing-nonseparating"])]:
        assert verify_axioms(spec, "free", max_dim=max_dim) == []
        assert skipped_axioms(spec, max_dim) == skipped
    assert skipped_axioms(coherent_spec(random.Random(0), 2, 1), 3) == ["sewing-nonseparating"]


@pytest.mark.parametrize("make", [coherent_spec, _indefinite_spec])
def test_smooth_part_matches_the_ambient_reference(make):
    # _slot_sum forms Omega^+ on the pi-coordinates; the reference multiplies
    # ambient vectors and takes Omega^+ through an A-valued exponential
    moved = 0
    for dim in (1, 2, 3):
        rng = random.Random("ambient:%d:%s" % (dim, make.__name__))
        spec = make(rng, dim, 3)
        alg, rinv = spec.algebra, spec.r_inverse()
        for g, n in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)]:
            vs = [random_vector(rng, dim) for _ in range(n)]
            cap = min(spec.degree, 3 * g - 3 + n)
            fixed = ambient_slot_sum(spec, g, [(v,) for v in vs], cap)
            free = ambient_slot_sum(spec, g, [rinv.apply(v) for v in vs], cap)
            assert reconstruct_fixed(spec, g, n, vs) == fixed
            assert reconstruct_free(spec, g, n, vs) == free
            moved += free != fixed
        v, w = random_vector(rng, dim), random_vector(rng, dim)
        slot = [alg.multiply(s, w) for s in rinv.apply(v)]
        assert two_point(spec, v, w) == ambient_slot_sum(spec, 0, [slot], spec.degree)
    assert moved >= 9  # of 15: R moves the free form off the fixed one


def test_sewing_fixed_surface_shift():
    rng = random.Random(21)
    spec = coherent_spec(rng, 2, 4)
    alg = spec.algebra
    alpha_inv = alg.invert(alg.euler_class())
    vs = [random_vector(rng, 2) for _ in range(2)]
    low = reconstruct_fixed(spec, 1, 2, vs)
    shifted = [vs[0], alg.multiply(alpha_inv, vs[1])]
    high = reconstruct_fixed(spec, 2, 2, shifted)
    assert high.truncate(low.cap) == low


def test_two_point_degree_zero_and_identity_r():
    rng = random.Random(22)
    spec = coherent_spec(rng, 2, 4)
    alg = spec.algebra
    v, w = random_vector(rng, 2), random_vector(rng, 2)
    tp = two_point(spec, v, w)
    assert tp.terms.get(((), (0,)), 0) == alg.pair(v, w)
    ident = identity_spec(rng, 2, 4, phi=[[F(1), F(1)]])
    tp2 = two_point(ident, v, w)
    want = KPPoly.from_kappa(1, ambient_omega_plus(ident, ident.algebra.multiply(v, w)))
    assert tp2 == want


def test_two_point_pairing_identity():
    # Omega~+(v.w) = sum_mu [R(psi) v]^mu Omega+(e_mu (x) w): the sewing
    # expansion with one side specialized to kappa = 0
    rng = random.Random(23)
    spec = coherent_spec(rng, 2, 4)
    alg, ss = spec.algebra, spec.ss
    v, w = random_vector(rng, 2), random_vector(rng, 2)
    cap = spec.degree
    rv = spec.r.apply(v)
    acc = KPPoly(1, cap)
    for mu in range(2):
        tpm = two_point(spec, ss.projectors[mu], w)
        coords = [ss.to_semisimple(c)[mu] for c in rv]
        series = KPPoly(1, cap, {((), (k,)): c for k, c in enumerate(coords)})
        acc = acc + series * tpm
    want = KPPoly.from_kappa(1, ambient_omega_plus(spec, alg.multiply(v, w)))
    assert acc == want


def test_coherent_phi_matches_scalar_formula():
    # dim 1, R = exp(az): log(R^{-1} unit) = -a psi so phi_1 = a, others 0
    a = F(5, 7)
    spec = scalar_exp_spec(a, 4)
    assert spec.phi[0] == (a,)
    assert all(all(x == 0 for x in p) for p in spec.phi[1:])


# sha256 of coherent_phi for a seeded algebra and dense symplectic R, one row per
# phi_j, as the A-valued logarithm of R^{-1}(z) unit computed it
COHERENT_PHI_PINS = {
    (1, 6, 11): "342600d006f85f63b4d74f71c640300ec5f76cd2e4e141215a4417077842ce4e",
    (1, 6, 12): "81492ad6584615f3f88fe9096f12057702824cf1c21e7be2c14c8b87235aafac",
    (2, 5, 11): "9242b6f2244aae8fc9cf2bd1181fa08df7a0e737188a2d6360bea38cd66aff20",
    (2, 5, 12): "9e246fe67555e966dd4e9be4587d73344a0c6b4bce499c0f5675f0854f227d44",
    (3, 4, 11): "75b909397a533b592c2ee452565175442366a7a86fa7cf4ad67c9d5c3f95d955",
    (3, 4, 12): "36a5c216b9345d9fc320423baf7313f87be3553a8137909337c032af50f17af1",
}


@pytest.mark.parametrize("dim, degree, seed", sorted(COHERENT_PHI_PINS))
def test_coherent_phi_pins(dim, degree, seed):
    rng = random.Random(seed)
    alg, _, _ = random_semisimple_algebra(rng, dim)
    ss = alg.semisimplify()
    r = random_symplectic_r(rng, alg, degree, sparsity=1)
    phi = coherent_phi(alg, ss, r, degree)
    assert len(phi) == degree and any(any(p) for p in phi)
    text = "\n".join(" ".join(frac_str(x) for x in p) for p in phi)
    assert hashlib.sha256(text.encode()).hexdigest() == COHERENT_PHI_PINS[(dim, degree, seed)]


@st.composite
def algebra_and_r(draw):
    """A random split algebra of dim 1-3 with an R of order 1-5 that is
    symplectic, symplectic but for one changed entry, or unconstrained."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    dim = draw(st.integers(1, 3))
    order = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["symplectic", "one entry changed", "unconstrained"]))
    alg, _, _ = random_semisimple_algebra(rng, dim)
    if kind == "unconstrained":
        return alg, random_r_series(rng, dim, order)
    r = random_symplectic_r(rng, alg, order)
    if kind == "one entry changed":
        coeffs = [[list(row) for row in c] for c in r.coeffs]
        k, i, j = draw(st.integers(1, order)), draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        coeffs[k][i][j] += draw(st.fractions(-2, 2, max_denominator=3).filter(bool))
        r = EndSeries(dim, order, coeffs)
    return alg, r


@settings(max_examples=60, deadline=None)
@given(algebra_and_r())
def test_semisimple_kernel_is_the_symplectic_check(data):
    # the spec's kernel remainder against the independent R(z)R(-z)* product,
    # and its entries against the ambient kernel moved to the semisimple basis
    alg, r = data
    ss = alg.semisimplify()
    symplectic = check_symplectic(r, alg.eta)
    try:
        spec = CohFTSpec(alg, ss, [], r, r.order)
    except NotSymplectic:
        assert not symplectic
        return
    assert symplectic
    binv = mat_inv(ss.projectors)
    want = {}
    kernel = edge_kernel(r, alg.eta)
    for (a, b), m in sorted(kernel.items(), key=lambda it: (sum(it[0]), it[0])):
        for mu, row in enumerate(mat_mul(transpose(binv), mat_mul(m, binv))):
            for nu, c in enumerate(row):
                if c != 0:
                    want.setdefault((mu, nu), []).append((a, b, c))
    assert spec.kernel_ss() == want


def _scalar_log(u):
    """-[z^j] log u(z), j >= 1, for a series u with constant term 1, by the
    recurrence j L_j = j u_j - sum_{0<i<j} i L_i u_{j-i} of u L' = u'."""
    logs = [F(0)]
    for j in range(1, len(u)):
        logs.append(u[j] - sum((i * logs[i] * u[j - i] for i in range(1, j)), F(0)) / j)
    return tuple(-x for x in logs[1:])


@pytest.mark.parametrize("make", [coherent_spec, _indefinite_spec, "hodge"])
def test_spec_inverse_is_the_inverted_series(make):
    # a spec reads R^{-1} as the symplectic adjoint R^*(-z) in the projector
    # frame; the leg series, the vertex logs and phi must be those of the
    # inverted series EndSeries.invert, moved to pi-coordinates by to_ss
    if make == "hodge":
        specs = [hodge_spec(degree) for degree in (1, 2, 3, 5)]
    else:
        specs = [make(random.Random(seed), dim, degree) for dim in (1, 2, 3) for seed in range(3)
                 for degree in (1, 3, 4)]
    rng = random.Random(5)
    for spec in specs:
        alg, ss = spec.algebra, spec.ss
        rinv = spec.r.invert()
        for v in [alg.unit] + list(identity(alg.dim)) + [random_vector(rng, alg.dim)]:
            assert spec.leg_series(v) == tuple(ss.to_semisimple(c) for c in rinv.apply(v))
        u = [ss.to_semisimple(c) for c in rinv.apply(alg.unit)]
        assert spec.vertex_log_coeffs() == tuple(_scalar_log([c[mu] for c in u]) for mu in range(alg.dim))
        assert spec.phi_from_r() == coherent_phi(alg, ss, spec.r, spec.degree)
        assert spec.phi == tuple(spec.phi_from_r())


def _generic_vector(rng, dim):
    while True:
        v = random_vector(rng, dim)
        if all(v):
            return v


ORACLE_PAIRS = [(0, 4), (1, 1), (1, 2), (2, 1)]


def _oracle_case(make, dim, g, n):
    """A spec of degree 3g-3+n with a nonzero edge kernel, and n vectors
    with no zero pi-coordinate."""
    rng = random.Random("oracle:%s:%d:%d:%d" % (make.__name__, dim, g, n))
    spec = make(rng, dim, 3 * g - 3 + n)
    while not spec.kernel_ss():
        spec = make(rng, dim, 3 * g - 3 + n)
    vectors = []
    while len(vectors) < n:
        v = random_vector(rng, dim)
        if all(spec.ss.to_semisimple(v)):
            vectors.append(v)
    return spec, vectors


@pytest.mark.parametrize("make", [coherent_spec, _indefinite_spec])
def test_r_action_matches_the_brute_force_graph_sum(make):
    # the oracle shares no code with the walk, the vertex tables or their
    # integer scaling: it reads the ambient kernel and the vertex m-sum
    terms = nodal = 0
    for dim in (1, 2, 3):
        for g, n in ORACLE_PAIRS:
            spec, vs = _oracle_case(make, dim, g, n)
            got = r_action(spec, g, n, vs)
            assert got == brute_force_graph_sum(spec, g, n, vs), (dim, g, n)
            assert len(got.terms) >= 4, (dim, g, n)
            terms += len(got.terms)
            nodal += sum(bool(key.graph.edges) for key in got.terms)
    # 571 and 568 terms, 443 and 442 of them on graphs with edges
    assert terms >= 560
    assert nodal >= 430


def test_brute_force_graph_sum_sees_a_changed_kernel_entry():
    # the oracle reads series.edge_kernel, not the spec's table, so one
    # kernel entry changed in place moves r_action away from it
    for dim, (g, n) in iproduct((1, 2, 3), ORACLE_PAIRS):
        spec, vs = _oracle_case(coherent_spec, dim, g, n)
        kernel = spec.kernel_ss()
        # a degree-0 entry at one projector: the only kind a loop at a
        # single vertex of (1,1) reads
        key = min((mu, mu) for mu in range(dim) if sum(kernel.get((mu, mu), [(1, 0)])[0][:2]) == 0)
        a, b, c = kernel[key][0]
        kernel[key][0] = (a, b, c + 1)
        assert r_action(spec, g, n, vs) != brute_force_graph_sum(spec, g, n, vs), (dim, g, n)
        kernel[key][0] = (a, b, c)
        assert r_action(spec, g, n, vs) == brute_force_graph_sum(spec, g, n, vs), (dim, g, n)


# (dim, g, n, terms of r_action, terms on graphs with |Aut| > 1)
MERGED_CASES = [(1, 1, 4, 1909, 817), (1, 2, 2, 1288, 899), (2, 2, 2, 1466, 978)]


@pytest.mark.parametrize("dim, g, n, terms, merged", MERGED_CASES)
def test_r_action_matches_the_brute_force_graph_sum_on_symmetric_graphs(dim, g, n, terms, merged):
    # the sizes where most terms sit on graphs with automorphisms, so the
    # walk's orbit merge decides them; the oracle canonicalizes through the
    # checking DecoratedGraph constructor
    spec, vs = _oracle_case(coherent_spec, dim, g, n)
    got = r_action(spec, g, n, vs)
    assert got == brute_force_graph_sum(spec, g, n, vs)
    assert len(got.terms) == terms
    assert sum(key.graph.automorphism_order() > 1 for key in got.terms) == merged


@pytest.mark.parametrize("dim, g, n", [(1, 1, 4), (1, 2, 2), (2, 2, 2), (3, 1, 3)])
def test_r_action_keys_are_what_the_checking_constructor_builds(dim, g, n):
    # r_action builds its keys with DecoratedGraph.trusted, from orbit minima
    # and degrees the walk computes; the public constructor recomputes both
    spec, vs = _oracle_case(coherent_spec, dim, g, n)
    keys = r_action(spec, g, n, vs).terms
    assert sum(key.graph.automorphism_order() > 1 for key in keys) >= 65
    for key in keys:
        built = DecoratedGraph(key.graph, key.vertex_kappa, key.leg_psi, key.edge_psi)
        assert built == key, key
        assert hash(built) == hash(key), key
        assert built.degree() == key.degree(), key


# sha256 of r_action rendered on every SMALL_PAIRS entry, each followed by a
# correlator of the class where the degree allows one, for a seeded
# degree-3 coherent spec per dim; measured before the edge kernel was built
# in the semisimple basis and vertex tables were shared across the graphs
# of a sum.  (0, 7) at dim 3 takes 6 s and is left out.
R_ACTION_SMALL_PAIR_PINS = {
    1: "f4b68caa043b692516e0d02b4bcdeb4dc028886acd306532d4f2fdedb00133e3",
    2: "193ca009c5baa0c5d54c658d25bfb171b9d7b83974688be8ac0d357b7a960627",
    3: "074df7e43a65c28873399dca85a16e990d7106d91366c16cff32d35baabfe6ae",
}


@pytest.mark.parametrize("dim", sorted(R_ACTION_SMALL_PAIR_PINS))
def test_r_action_small_pair_pins(dim):
    spec = coherent_spec(random.Random(40 + dim), dim, 3)
    rng = random.Random(50 + dim)
    lines = []
    for g, n in SMALL_PAIRS:
        vs = [_generic_vector(rng, dim) for _ in range(n)]
        psi = [0] * n
        for _ in range(rng.randrange(3 * g - 2 + n) if n else 0):
            psi[rng.randrange(n)] += 1
        if (dim, g, n) == (3, 0, 7):
            continue
        lines.extend(r_action(spec, g, n, vs).render_lines())
        if 3 * g - 3 + n <= spec.degree:
            lines.append(frac_str(correlator_of_theory(spec, g, n, vs, tuple(psi), Correlators())))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == R_ACTION_SMALL_PAIR_PINS[dim]
