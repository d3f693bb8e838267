"""Acceptance suite: one test per criterion, every comparison bit-exact.

Each test prints a single PASS/FAIL line (run with -s to see them even on
success); a failure also fails the test.
"""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction as F

from cohft.cli import main as cli_main
from cohft.config import serialize_config
from cohft.frobenius import FrobeniusAlgebra, NotInvertible
from cohft.givental import (
    CohFTSpec,
    r_action,
    reconstruct_free,
    restrict_to_smooth,
    tqft_value,
    verify_axioms,
)
from cohft.graphs import (
    enumerate_special_types,
    enumerate_stable_graphs,
    special_order,
    special_type,
    smooth_graph,
)
from cohft.intersect import Correlators, correlator_of_theory
from cohft.kappa import (
    KappaPoly,
    coproduct,
    exp_conv,
    is_grouplike,
    is_primitive,
    log_conv,
    tensor_truncate,
)
from cohft.sampling import (
    coherent_spec,
    incoherent_spec,
    random_r_series,
    random_semisimple_algebra,
    random_symplectic_r,
    random_vector,
    trivial_spec,
)
from cohft.series import EndSeries, NotDivisible, check_symplectic, edge_kernel
from cohft.taut import DecoratedGraph, TautExpr, exp_pushforward_check, kappa_multi_index


def report(number, ok, label):
    print("ACCEPTANCE %2d: %s - %s" % (number, "PASS" if ok else "FAIL", label))
    assert ok, "criterion %d failed: %s" % (number, label)


def test_criterion_01_kappa_identities():
    ok = kappa_multi_index([1, 1], 12) == KappaPoly(12, {(1, 1): 1, (2,): 1})
    want = KappaPoly(12, {(1, 2, 3): 1, (1, 5): 1, (2, 4): 1, (3, 3): 1, (6,): 2})
    ok = ok and kappa_multi_index([1, 2, 3], 12) == want
    report(1, ok, "multi-index kappa identities, exact")


def test_criterion_02_exponential_pushforward():
    rng = random.Random(20160101)
    ok = True
    for _ in range(20):
        coeffs = [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(6)]
        ok = ok and exp_pushforward_check(coeffs, 6)
    report(2, ok, "exponential pushforward vs insertion sum, 20 random vectors, degree 6")


def test_criterion_03_symplectic_kernel_duality():
    rng = random.Random(20160202)
    ok = True
    symplectic_seen = 0
    for trial in range(50):
        dim = 1 + trial % 3
        alg, _, _ = random_semisimple_algebra(rng, dim)
        r = random_symplectic_r(rng, alg, 8) if trial % 2 == 0 else random_r_series(rng, dim, 8)
        symplectic = check_symplectic(r, alg.eta)
        try:
            edge_kernel(r, alg.eta)
            divisible = True
        except NotDivisible:
            divisible = False
        ok = ok and divisible == symplectic
        if symplectic:
            symplectic_seen += 1
            ok = ok and check_symplectic(r.invert(), alg.eta)
    ok = ok and symplectic_seen >= 20
    report(3, ok, "edge kernel divisibility iff symplectic, 50 random R, order 8")


def test_criterion_04_hopf_suite():
    rng = random.Random(20160303)
    ok = True
    for trial in range(20):
        dim = 1 + trial % 3
        alg, _, _ = random_semisimple_algebra(rng, dim)
        ss = alg.semisimplify()
        values = []
        for _ in range(dim):
            values.append(KappaPoly(6, {(j,): F(rng.randrange(-3, 4)) for j in range(1, 5)}))
        from cohft.kappa import CovectorKappaPoly

        x = CovectorKappaPoly(ss, values)
        big = exp_conv(x)
        ok = ok and log_conv(big) == x
        ok = ok and is_primitive(x)
        ok = ok and is_grouplike(big)
        ok = ok and is_primitive(log_conv(big))
    for j in (1, 2, 3):
        kj = KappaPoly.generator(6, j)
        ok = ok and coproduct(kj) == {((j,), ()): 1, ((), (j,)): 1}
    p = KappaPoly.generator(6, 1)
    q = KappaPoly.generator(6, 2)
    lhs = tensor_truncate(coproduct(p * q), 6)
    rhs = {}
    for (a1, b1), c1 in coproduct(p).items():
        for (a2, b2), c2 in coproduct(q).items():
            key = (tuple(sorted(a1 + a2)), tuple(sorted(b1 + b2)))
            rhs[key] = rhs.get(key, 0) + c1 * c2
    ok = ok and lhs == tensor_truncate(rhs, 6)
    report(4, ok, "hopf suite: exp/log, group-like, primitive, coproduct, degree 6")


def test_criterion_05_frobenius_suite():
    rng = random.Random(20160404)
    ok = True
    for trial in range(20):
        dim = 1 + trial % 3
        alg, _, _ = random_semisimple_algebra(rng, dim)
        ok = ok and alg.frobenius_trace(alg.euler_class()) == dim
        ss = alg.semisimplify()
        inv = alg.invert(alg.euler_class())
        want = tuple(sum(ss.norms[m] * ss.projectors[m][k] for m in range(dim)) for k in range(dim))
        ok = ok and inv == want
    dual = FrobeniusAlgebra(2, [[0, 1], [1, 0]], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    ok = ok and dual.frobenius_trace(dual.euler_class()) == 2
    ok = ok and not dual.is_semisimple()
    try:
        dual.invert(dual.euler_class())
        ok = False
    except NotInvertible:
        pass
    report(5, ok, "frobenius suite: trace of euler class, inverse formula, nilpotent case")


def test_criterion_06_identity_r_fixed_point():
    rng = random.Random(20160505)
    ok = True
    pairs = []
    g = 0
    while 3 * g - 3 <= 4:
        for n in range(0, 8):
            if 2 * g - 2 + n > 0 and 0 <= 3 * g - 3 + n <= 4:
                pairs.append((g, n))
        g += 1
    for dim in (1, 2):
        alg, _, _ = random_semisimple_algebra(rng, dim)
        ss = alg.semisimplify()
        spec = CohFTSpec(alg, ss, [], EndSeries.identity(dim, 4), 4, coherent=True)
        for g, n in sorted(pairs):
            vs = [random_vector(rng, dim) for _ in range(n)]
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
            ok = ok and expr == want
    report(6, ok, "R = Id acts as the identity on the TQFT, all 3g-3+n <= 4")


def test_criterion_07_reconstruction_coherence():
    rng = random.Random(20160606)
    ok = True
    spaces = [(0, 4), (0, 5), (1, 1), (1, 2), (2, 1)]
    for trial in range(10):
        dim = 1 + trial % 2
        spec = coherent_spec(rng, dim, 4)
        for g, n in spaces:
            vs = [random_vector(rng, dim) for _ in range(n)]
            lhs = restrict_to_smooth(r_action(spec, g, n, vs))
            rhs = reconstruct_free(spec, g, n, vs)
            ok = ok and lhs == rhs
    bad = incoherent_spec(rng, 2, 3)
    vs = [random_vector(rng, 2)]
    ok = ok and restrict_to_smooth(r_action(bad, 1, 1, vs)) != reconstruct_free(bad, 1, 1, vs)
    report(7, ok, "smooth restriction of the graph action equals the free reconstruction")


def test_criterion_08_axiom_verification():
    rng = random.Random(20160707)
    ok = True
    for trial in range(10):
        dim = 1 + trial % 2
        spec = coherent_spec(rng, dim, 6)
        ok = ok and verify_axioms(spec, "free", max_dim=2) == []
        ok = ok and verify_axioms(spec, "fixed", max_dim=2) == []
    report(8, ok, "unit, symmetry, sewing and forgetful identities through degree 6")


def test_criterion_09_correlator_backend():
    backend = Correlators()
    ok = backend.psi_correlator(0, (0, 0, 0)) == 1
    ok = ok and backend.psi_correlator(0, (0, 0, 0, 1)) == 1
    ok = ok and backend.psi_correlator(1, (1,)) == F(1, 24)
    ok = ok and backend.kappa_psi_correlator(1, (0,), (1,)) == F(1, 24)
    ok = ok and backend.check_string_dilaton() == []
    spec = trivial_spec(4)
    pure = Correlators()
    for g, n, psi in [(1, 1, (1,)), (0, 4, (1, 0, 0, 0)), (1, 2, (2, 0)), (2, 1, (4,))]:
        got = correlator_of_theory(spec, g, n, [[1]] * n, psi, pure)
        ok = ok and got == pure.psi_correlator(g, psi)
    # every key the correlators have memoized in pure must be consistent
    ok = ok and pure.check_string_dilaton() == []
    report(9, ok, "DVV backend values, string/dilaton consistency, trivial-theory correlators")


def test_criterion_10_stratification():
    types = enumerate_special_types(1, 2)
    ok = len(types) == 4
    all_types, greater, _ = special_order(1, 2)
    equal_dim_strict = [
        (a, b) for a, b in greater if a.codimension == b.codimension
    ]
    ok = ok and len(equal_dim_strict) >= 1
    pairs = []
    g = 0
    while 3 * g - 3 <= 4:
        for n in range(1, 8):
            if 2 * g - 2 + n > 0 and 0 <= 3 * g - 3 + n <= 4:
                pairs.append((g, n))
        g += 1
    for g, n in pairs:
        for graph in enumerate_stable_graphs(g, n):
            t = special_type(graph, n)
            ok = ok and t.codimension == t.k + t.mu
    for t in types:
        ok = ok and t.codimension == t.k + t.mu
    report(10, ok, "four special types on (1,2), equal-dimension strict relation, codim = mu + k")


def test_criterion_11_determinism(tmp_path):
    rng = random.Random(20160808)
    spec = coherent_spec(rng, 2, 3)
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(serialize_config(spec))
    commands = [
        ["graphs", "enumerate", "1", "2"],
        ["strata", "special", "1", "2"],
        ["--config", str(cfg), "reconstruct", "nodal", "1", "2"],
        ["--config", str(cfg), "correlator", "1", "2", "--psi", "1,0"],
    ]
    ok = True
    for argv in commands:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(argv)
            outputs.append((code, buf.getvalue()))
        ok = ok and outputs[0] == outputs[1] and outputs[0][0] == 0
    report(11, ok, "byte-identical output on two runs of the same command")
