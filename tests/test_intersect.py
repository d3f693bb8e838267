import hashlib
import random
from fractions import Fraction as F
from itertools import product
from math import factorial

import pytest

from cohft import givental, intersect, taut
from cohft.frobenius import FrobeniusAlgebra, orthonormal_form
from cohft.givental import CohFTSpec, r_action, verify_axioms
from cohft.graphs import UnstablePair
from cohft.intersect import Correlators, integrate_taut, correlator_of_theory
from cohft.linalg import CohftError, det, frac_str, read_rational
from cohft.oracles import (
    genus0_multinomial,
    hodge_b,
    lambda_g_cases,
    lambda_g_closed_form,
    trr_genus0,
    trr_genus1,
)
from cohft.sampling import (
    bernoulli_numbers,
    coherent_spec,
    hodge_spec,
    random_semisimple_algebra,
    random_symplectic_r,
    random_vector,
    scalar_exp_spec,
    trivial_spec,
)
from cohft.taut import kappa_multi_index
from test_graphs import SMALL_PAIRS

# one backend for the module, so its tests share one memo
BACKEND = Correlators()


def test_base_cases():
    assert BACKEND.psi_correlator(0, (0, 0, 0)) == 1
    assert BACKEND.psi_correlator(1, (1,)) == F(1, 24)


def test_string_equation_values():
    assert BACKEND.psi_correlator(0, (1, 0, 0, 0)) == 1
    assert BACKEND.psi_correlator(0, (2, 0, 0, 0, 0)) == 1
    assert BACKEND.psi_correlator(0, (1, 1, 0, 0, 0)) == 2


def test_genus_one_values():
    assert BACKEND.psi_correlator(1, (0, 2)) == F(1, 24)
    assert BACKEND.psi_correlator(1, (1, 1)) == F(1, 24)
    assert BACKEND.psi_correlator(1, (0, 0, 3)) == F(1, 24)
    assert BACKEND.psi_correlator(1, (0, 1, 2)) == F(1, 12)
    assert BACKEND.psi_correlator(1, (1, 1, 1)) == F(1, 12)


def test_genus_zero_closed_form():
    # independent oracle: on the sphere the correlator has the multinomial
    # closed form (n-3)! / prod a_i!
    import random
    from math import factorial

    rng = random.Random(123)
    for _ in range(25):
        n = rng.randrange(3, 8)
        total = n - 3
        exps = []
        left = total
        for _ in range(n - 1):
            a = rng.randrange(0, left + 1)
            exps.append(a)
            left -= a
        exps.append(left)
        want = F(factorial(n - 3))
        for a in exps:
            want /= factorial(a)
        assert BACKEND.psi_correlator(0, exps) == want, exps


def test_higher_genus_values():
    # frozen from the recursion, consistent with string/dilaton and with the
    # classically tabulated numbers
    assert BACKEND.psi_correlator(2, (4,)) == F(1, 1152)
    assert BACKEND.psi_correlator(2, (5, 0)) == F(1, 1152)
    assert BACKEND.psi_correlator(2, (4, 1)) == F(1, 384)
    assert BACKEND.psi_correlator(2, (3, 2)) == F(29, 5760)
    assert BACKEND.psi_correlator(3, (7,)) == F(1, 82944)


def test_top_psi_closed_form():
    # independent oracle: <tau_{3g-2}>_g = 1/(24^g g!)
    for g in range(1, 13):
        assert Correlators().psi_correlator(g, (3 * g - 2,)) == F(1, 24**g * factorial(g)), g


def test_memo_holds_lattice_integers():
    # every entry the recursion fills is an int N = 2^{4g+n-2} prod (2a+1)!!
    # times the number.  The memo of <tau_16>_6 holds no genus-0 entry (a
    # genus-0 side of a DVV split would need exponents below 2), so a
    # genus-0 query fills some through the string equation, each checked
    # against the multinomial closed form
    backend = Correlators()
    backend.psi_correlator(6, (16,))
    backend.psi_correlator(0, (3, 2, 2, 1, 1) + (0,) * 7)
    assert all(type(value) is int for value in backend._psi.values())
    genus0 = [exps for g, exps in backend._psi if g == 0]
    assert len(genus0) == 30
    for exps in genus0:
        assert backend.psi_correlator(0, exps) == genus0_multinomial(exps), exps


@pytest.mark.parametrize(
    "g, exps, kappa, lines, digest",
    [
        (8, (22,), (), 259, "426e893d97d35baa6ef9df2df6851f938364efd9ef9e25d8e155522ce3d421a3"),
        (10, (28,), (), 779, "bcddc257f368cd86e15502b61278d628e97cdb3ffb5772da41852fd255d2178b"),
        (4, (6,), (1, 1, 2), 63, "b3f7baad400d7ec3516501b6780200d27f819b504eac749e98f8301c05db62cd"),
    ],
)
def test_memo_table_pins(g, exps, kappa, lines, digest):
    # the whole memo table a fresh backend fills for one query, pinned from
    # the recursion that looped over index subsets and every split genus
    backend = Correlators()
    backend.kappa_psi_correlator(g, exps, kappa)
    text = backend.dump()
    assert len(text.splitlines()) == lines
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_kappa_repeated_part_value():
    assert Correlators().kappa_psi_correlator(4, (6,), (1, 1, 2)) == F(105113, 17203200)


def test_degree_mismatch_is_zero():
    assert BACKEND.psi_correlator(0, (1, 1, 1)) == 0
    assert BACKEND.psi_correlator(1, (3,)) == 0
    assert BACKEND.kappa_psi_correlator(1, (0,), (2,)) == 0


def test_unstable_pair_raises():
    with pytest.raises(UnstablePair):
        BACKEND.psi_correlator(0, (0,))
    with pytest.raises(UnstablePair):
        BACKEND.kappa_psi_correlator(1, (), (1,))


def test_negative_genus_raises():
    # (-1, 5) passes 2g-2+n > 0, and its degree 3g-3+n = -1 once read 0
    with pytest.raises(UnstablePair, match="negative genus"):
        BACKEND.psi_correlator(-1, (0, 0, 0, 0, 0))
    with pytest.raises(UnstablePair, match="negative genus"):
        BACKEND.kappa_psi_correlator(-1, (0,) * 5)
    with pytest.raises(CohftError, match="negative"):
        BACKEND.kappa_psi_correlator(1, (2, -1), (1,))


def test_string_dilaton_on_all_memoized_keys():
    backend = Correlators()
    for g, exps in [(0, (2, 0, 0, 0, 0)), (1, (2, 1, 0)), (2, (4,)), (2, (3, 2)), (3, (7,))]:
        backend.psi_correlator(g, exps)
    assert backend.check_string_dilaton() == []


def test_string_check_reports_a_corrupted_tau0_entry():
    # the string half compares a memoized <exps, tau_0>_g with the string
    # sum over the memoized keys it reduces to; <tau_1 tau_0^3>_0 = 1 is
    # filled on the way to <tau_2 tau_0^4>_0
    backend = Correlators()
    for g, exps in [(0, (2, 0, 0, 0, 0)), (1, (2, 1, 0)), (3, (7,))]:
        backend.psi_correlator(g, exps)
    assert backend.check_string_dilaton() == []
    assert backend.psi_correlator(0, (1, 0, 0, 0)) == 1
    backend.load("psi 0 1,0,0,0 = 2")
    failures = backend.check_string_dilaton()
    assert ("string", 0, (1, 0, 0, 0)) in failures
    # the 5-point key that reduces to it sees the wrong value as well
    assert ("string", 0, (2, 0, 0, 0, 0)) in failures


def test_library_argument_errors_are_cohft_errors():
    # both stay ValueErrors, which CohftError subclasses
    with pytest.raises(CohftError) as exc:
        Correlators().psi_correlator(1, (2, -1))
    assert type(exc.value) is CohftError
    with pytest.raises(CohftError) as exc:
        kappa_multi_index([2, 0], 4)
    assert type(exc.value) is CohftError
    assert issubclass(CohftError, ValueError)


def test_kappa_reduction_examples():
    assert BACKEND.kappa_psi_correlator(1, (0,), (1,)) == F(1, 24)
    assert BACKEND.kappa_psi_correlator(0, (0, 0, 0, 0), (1,)) == 1
    # M_{0,5}: kappa_1^2 = 5 and kappa_2 = 1 (multi-index expansion gives 6)
    assert BACKEND.kappa_psi_correlator(0, (0,) * 5, (1, 1)) == 5
    assert BACKEND.kappa_psi_correlator(0, (0,) * 5, (2,)) == 1
    # mixed psi-kappa: psi_1 kappa_1 on M_{1,2} reduces in one step to
    # psi_1 psi_3^2 on M_{1,3}
    assert BACKEND.kappa_psi_correlator(1, (1, 0), (1,)) == BACKEND.psi_correlator(1, (1, 0, 2))
    assert BACKEND.kappa_psi_correlator(1, (1, 0), (1,)) == F(1, 12)


def test_multi_index_against_multipoint():
    # integral of the multi-index class == bare psi powers at extra points,
    # for every total dimension up to 5
    backend = Correlators()
    cases = []
    for g in (0, 1):
        for n in (1, 2, 3, 4):
            if 2 * g - 2 + n <= 0:
                continue
            for parts in [(1,), (2,), (1, 1), (3,), (1, 2), (1, 1, 1), (2, 2)]:
                m = len(parts)
                if 3 * g - 3 + n + m > 5:
                    continue
                if sum(parts) != 3 * g - 3 + n:
                    continue
                cases.append((g, n, parts))
    assert cases
    for g, n, parts in cases:
        multi = kappa_multi_index(list(parts), 12)
        via_kappa = sum(
            (backend.kappa_psi_correlator(g, (0,) * n, key) * c for key, c in multi.terms.items()),
            F(0),
        )
        direct = backend.psi_correlator(g, (0,) * n + tuple(p + 1 for p in parts))
        assert via_kappa == direct, (g, n, parts)


def test_trivial_spec_correlators_are_witten_numbers():
    spec = trivial_spec(4)
    assert correlator_of_theory(spec, 1, 1, [[1]], (1,), BACKEND) == F(1, 24)
    assert correlator_of_theory(spec, 0, 3, [[1]] * 3, (0, 0, 0), BACKEND) == 1
    assert correlator_of_theory(spec, 0, 4, [[1]] * 4, (1, 0, 0, 0), BACKEND) == 1
    assert correlator_of_theory(spec, 1, 2, [[1]] * 2, (2, 0), BACKEND) == F(1, 24)
    assert correlator_of_theory(spec, 1, 2, [[1]] * 2, (1, 1), BACKEND) == F(1, 24)


def test_correlator_point_integral():
    spec = trivial_spec(3)
    assert correlator_of_theory(spec, 0, 3, [[2], [3], [5]], (0, 0, 0), BACKEND) == 30


def test_scalar_exp_loop_contribution():
    # frozen by expanding the two-graph sum by hand: the smooth terms
    # a(kappa_1 - psi_1) integrate to zero and the loop stratum contributes
    # (1/2) K(0,0) = a/2
    a = F(2, 3)
    spec = scalar_exp_spec(a, 3)
    assert correlator_of_theory(spec, 1, 1, [[1]], (0,), BACKEND) == a / 2


def test_correlator_multilinear_and_symmetric():
    spec = scalar_exp_spec(F(1, 2), 3)
    v = [[F(2)]]
    assert correlator_of_theory(spec, 1, 1, v, (1,), BACKEND) == 2 * correlator_of_theory(
        spec, 1, 1, [[1]], (1,), BACKEND
    )
    vs = [[F(1)], [F(3)]]
    a = correlator_of_theory(spec, 1, 2, vs, (2, 0), BACKEND)
    b = correlator_of_theory(spec, 1, 2, vs[::-1], (0, 2), BACKEND)
    assert a == b


def test_degenerate_degree_gives_zero():
    spec = trivial_spec(3)
    assert correlator_of_theory(spec, 0, 3, [[1]] * 3, (1, 0, 0), BACKEND) == 0


def test_correlator_rejects_underresolved_spec():
    spec = trivial_spec(2)
    with pytest.raises(ValueError):
        correlator_of_theory(spec, 2, 1, [[1]], (4,), BACKEND)  # dimension 4 > degree 2
    # at the dimension the guard stays quiet
    assert correlator_of_theory(spec, 1, 2, [[1], [1]], (2, 0), BACKEND) == F(1, 24)


def test_theory_correlators_satisfy_string_and_dilaton():
    # a genuine nodal theory inherits the string and dilaton equations at
    # the correlator level: the unit in the last slot comes from the
    # forgetful axiom, so these identities exercise every boundary graph,
    # the edge kernels and the insertion exponentials at once.  Every psi
    # vector of total at most 3g-3+n+1 is checked at genus <= 2 and dims
    # 2-3: at the top total the string side reads the class in degree 0
    # and the dilaton side is 0 = 0.  A floor on the identities with a
    # nonzero side keeps them from passing as 0 = 0
    rng = random.Random(78)
    checked = nonzero = 0
    for dim in (2, 3):
        spec = coherent_spec(rng, dim, 5)
        unit = spec.algebra.unit
        backend = Correlators()

        def corr(g, vs, psi):
            return correlator_of_theory(spec, g, len(vs), vs, psi, backend)

        for g, n in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)]:
            vs = [random_vector(rng, dim) for _ in range(n)]
            d = 3 * g - 3 + n
            for psi in product(range(d + 2), repeat=n):
                if sum(psi) > d + 1:
                    continue
                string = sum(
                    (corr(g, vs, psi[:j] + (a - 1,) + psi[j + 1 :]) for j, a in enumerate(psi) if a >= 1), F(0)
                )
                dilaton = (2 * g - 2 + n) * corr(g, vs, psi)
                for lhs, rhs in [(corr(g, vs + [unit], psi + (0,)), string), (corr(g, vs + [unit], psi + (1,)), dilaton)]:
                    assert lhs == rhs, (dim, g, n, psi)
                    checked += 1
                    nonzero += lhs != 0
    assert checked == 152 and nonzero >= 95, (checked, nonzero)


def test_r_action_integral_matches_smooth_model_when_pure():
    # with R = Id the graph sum is pure smooth-model, so integrating the
    # decorated-graph expression and integrating the polynomial monomial by
    # monomial agree
    from cohft.givental import r_action
    from cohft.intersect import integrate_taut

    spec = trivial_spec(4)
    expr = r_action(spec, 1, 2, [[1], [1]])
    poly = expr.restrict_to_smooth()
    for psi, want in [((0, 0), 0), ((2, 0), F(1, 24)), ((1, 1), F(1, 24))]:
        by_monomial = sum(
            (
                c * BACKEND.kappa_psi_correlator(1, tuple(a + b for a, b in zip(pp, psi)), kk)
                for (kk, pp), c in poly.terms.items()
            ),
            F(0),
        )
        assert integrate_taut(expr, BACKEND, psi=psi) == by_monomial == want


def test_memo_dump_load_roundtrip():
    backend = Correlators()
    backend.psi_correlator(1, (2, 1, 0))
    backend.kappa_psi_correlator(1, (0,), (1,))
    # a key with no psi exponents writes an empty field
    backend.kappa_psi_correlator(2, (), (3,))
    text = backend.dump()
    other = Correlators()
    other.load(text)
    assert other.dump() == text
    # psi_keys lists the memo's psi keys, one per psi line of the dump
    assert other.psi_keys() == backend.psi_keys()
    assert len(backend.psi_keys()) == sum(line.startswith("psi ") for line in text.splitlines()) > 0


def test_backend_persistence(tmp_path):
    backend = Correlators()
    backend.psi_correlator(2, (4,))
    backend.save_to(str(tmp_path))
    fresh = Correlators()
    fresh.load_from(str(tmp_path))
    assert fresh.psi_correlator(2, (4,)) == F(1, 1152)


def test_load_is_all_or_nothing():
    backend = Correlators()
    with pytest.raises(ValueError, match="line 3"):
        backend.load("psi 1 1 = 1/24\n\n psi 2 4 = 1/1152\n")
    assert backend.dump() == ""


@pytest.mark.parametrize(
    "line",
    ["junk", "kp 1 0 = 1/24", "psi 1 a = 1", "psi 1 1 = 1/x", "psi 1 1 = 1/0", "psi 1 1 = 1/7", "psi 0 1 = 1"],
)
def test_load_rejects_a_malformed_line(line):
    backend = Correlators()
    with pytest.raises(CohftError, match="line 2: "):
        backend.load("psi 0 0,0,0 = 1\n%s\npsi 1 1 = 1/24\n" % line)
    assert backend.dump() == ""


@pytest.mark.parametrize("kind", ["cache dir is a file", "not utf-8", "file is a directory"])
def test_load_from_names_an_unusable_path(tmp_path, kind):
    cache = tmp_path / "cache"
    if kind == "cache dir is a file":
        cache.write_text("x\n")
    elif kind == "not utf-8":
        cache.mkdir()
        (cache / "correlators.txt").write_bytes(b"\xff\xfe psi 1 1 = 1/24\n")
    else:
        (cache / "correlators.txt").mkdir(parents=True)
    backend = Correlators()
    with pytest.raises(CohftError) as exc:
        backend.load_from(str(cache))
    assert str(cache / "correlators.txt") in str(exc.value)
    assert backend.dump() == ""


def test_save_to_leaves_no_temp_file(tmp_path):
    backend = Correlators()
    backend.psi_correlator(1, (1,))
    for _ in range(2):
        backend.save_to(str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == ["correlators.txt"]


@pytest.mark.parametrize(
    "line, report",
    [
        ("psi 1 1 = 1/7", "psi value 1/7 is off the lattice: .* it is 24/7, not an integer"),
        ("psi 2 4 = 1/1153", "off the lattice"),
        ("psi 0 1 = 1", r"unstable pair \(g, n\) = \(0, 1\)"),
        ("psi 0 0,0 = 1", r"unstable pair \(g, n\) = \(0, 2\)"),
        ("psi 1 2 = 0", "degree 2 above its dimension 1"),
        ("psi 0 9999999,0,0 = 1", "degree 9999999 above its dimension 0"),
        ("psi 1001 3001 = 0", "genus 1001 above 1000"),
        ("psi 99999999999999999999 0,0,0 = 1", "genus 99999999999999999999 above"),
    ],
)
def test_load_keeps_psi_entries_on_the_lattice(line, report):
    backend = Correlators()
    with pytest.raises(CohftError, match="line 2: .*" + report):
        backend.load("psi 0 0,0,0 = 1\n%s\n" % line)
    assert backend.dump() == ""


def test_load_accepts_stable_psi_entries_of_lower_degree():
    # no query reads them, but check_string_dilaton does
    backend = Correlators()
    backend.load("psi 0 0,0,0,0 = 1/4\npsi 1000 2996,0 = 0\n")
    assert backend.psi_correlator(0, (0, 0, 0, 0)) == 0
    assert ("string", 0, (0, 0, 0, 0)) in backend.check_string_dilaton()


@pytest.mark.parametrize(
    "token",
    ["7", "-7", "+7", "007", "1/24", "-3/8", "1/0", "1/024", "0.5", "1e-1", "1_0", "\u0661", "1/-2", "1 /2"],
)
def test_cache_values_follow_the_number_grammar(token):
    # a cache value is read exactly when a config value would be
    try:
        want = read_rational(token)
    except ValueError:
        want = None
    backend = Correlators()
    if want is None:
        with pytest.raises(CohftError, match="line 1"):
            backend.load("psi 1 1 = %s\n" % token)
        assert backend.dump() == ""
    else:
        backend.load("psi 1 1 = %s\n" % token)
        assert backend.dump() == "psi 1 1 = %s\n" % frac_str(want)


# -- the factorised correlator sum against the class ------------------------


def _dense_spec(rng, dim, degree):
    """A coherent spec whose R_1..R_degree have no zero entry."""
    algebra, _, _ = random_semisimple_algebra(rng, dim)
    for _ in range(100):
        r = random_symplectic_r(rng, algebra, degree, sparsity=1)
        if all(x != 0 for k in range(1, degree + 1) for row in r.coeffs[k] for x in row):
            break
    return CohFTSpec(algebra, algebra.semisimplify(), None, r, degree, coherent=True)


# norms that are not rational squares
NONSQUARES = [F(2), F(3), F(5), F(1, 2), F(2, 3), F(5, 6)]


def _indefinite_spec(rng, dim, degree):
    """A coherent spec on the algebra of random integral projectors whose
    norms are not rational squares and alternate in sign, so from dim 2 on
    the metric is indefinite and no eta-orthonormal rational basis exists."""
    sign = rng.choice([-1, 1])
    norms = [sign * (-1) ** mu * rng.choice(NONSQUARES) for mu in range(dim)]
    while True:
        rows = [[F(rng.randrange(-3, 4)) for _ in range(dim)] for _ in range(dim)]
        if det(rows) != 0:
            break
    algebra = FrobeniusAlgebra.from_semisimple(norms, rows)
    r = random_symplectic_r(rng, algebra, degree)
    return CohFTSpec(algebra, algebra.semisimplify(), None, r, degree, coherent=True)


def _spread(rng, total, n):
    out = [0] * n
    for _ in range(total):
        out[rng.randrange(n)] += 1
    return tuple(out)


# (0, 7) at dims 2 and 3 is left out: r_action alone takes 5 s and 39 s there
CLASS_CASES = [(g, n, dim) for dim in (1, 2, 3) for g, n in SMALL_PAIRS if (n, dim) not in ((7, 2), (7, 3))]


# each family's spec builder, and the tag that seeds its cases
FAMILIES = {
    "dense_r": (_dense_spec, True),
    "sparse_r": (coherent_spec, False),
    "indefinite": (_indefinite_spec, "indefinite"),
}


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("g, n, dim", CLASS_CASES)
def test_correlator_equals_the_integrated_class(g, n, dim, family):
    # the factorised sum against integrate_taut(r_action(...)): the same
    # value, and a memo table holding every entry the class path memoised;
    # psi summing above the dimension gives 0
    d = 3 * g - 3 + n
    make, tag = FAMILIES[family]
    rng = random.Random("%d:%d:%d:%s" % (g, n, dim, tag))
    spec = make(rng, dim, max(d, 1))
    vs = [random_vector(rng, dim) for _ in range(n)]
    expr = r_action(spec, g, n, vs)
    totals = [rng.randrange(d + 1), d + 1 + rng.randrange(2)] if n else [0]
    for total in totals:
        psi = _spread(rng, total, n)
        new, old = Correlators(), Correlators()
        value = correlator_of_theory(spec, g, n, vs, psi, new)
        assert value == integrate_taut(expr, old, psi)
        assert set(old.dump().splitlines()) <= set(new.dump().splitlines())
        if total > d:
            assert value == 0


def test_indefinite_family_is_a_cohft():
    # the family has norms of both signs from dim 2 on and no orthonormal
    # form; most of the first correlators the comparison above takes are
    # nonzero, so it compares numbers, and its specs pass every axiom check
    nonzero = 0
    for g, n, dim in CLASS_CASES:
        d = 3 * g - 3 + n
        rng = random.Random("%d:%d:%d:indefinite" % (g, n, dim))
        spec = _indefinite_spec(rng, dim, max(d, 1))
        assert orthonormal_form(spec.ss) is None
        assert dim == 1 or min(spec.ss.norms) < 0 < max(spec.ss.norms)
        vs = [random_vector(rng, dim) for _ in range(n)]
        psi = _spread(rng, rng.randrange(d + 1) if n else 0, n)
        nonzero += correlator_of_theory(spec, g, n, vs, psi, Correlators()) != 0
    assert nonzero >= 24  # 25 of the 31
    for dim in (1, 2, 3):
        spec = _indefinite_spec(random.Random(dim), dim, 3)
        assert verify_axioms(spec, "free") == verify_axioms(spec, "fixed") == []


@pytest.mark.parametrize("family", ["sparse_r", "indefinite"])
def test_theory_correlators_satisfy_the_topological_recursion(family):
    # psi_1 on M-bar_{0,n} and M-bar_{1,n} is a sum of boundary divisors, so
    # the gluing axioms tie the correlators together at every dim with no
    # closed form; 1/12 in place of 1/24 breaks the genus-1 relation, and on
    # the indefinite family so does a vertex weight |w_mu|^{1-h}, which the
    # comparison with the integrated class cannot see
    make, tag = FAMILIES[family]
    nonzero = mutant = 0
    for dim in (1, 2, 3):
        for seed in range(2):
            rng = random.Random("trr:%d:%d:%s" % (dim, seed, tag))
            spec = make(rng, dim, 3)
            backend = Correlators()

            def corr(g, vectors, psi):
                return correlator_of_theory(spec, g, len(vectors), vectors, psi, backend)

            for g, n in [(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3)]:
                d = 3 * g - 3 + n
                for _ in range(3):
                    psi = list(_spread(rng, rng.randrange(d), n))
                    psi[0] += 1
                    points = [(random_vector(rng, dim), k) for k in psi]
                    if g == 0:
                        lhs, rhs = trr_genus0(corr, spec.algebra.eta_inv, points)
                    else:
                        lhs, separating, non_separating = trr_genus1(corr, spec.algebra.eta_inv, points)
                        rhs = separating + non_separating / 24
                        mutant += lhs != separating + non_separating / 12
                    assert lhs == rhs, (dim, seed, g, psi)
                    nonzero += lhs != 0
    # of the 108 cases 78 (sparse_r) and 76 (indefinite) are nonzero, and
    # 1/12 changes 44 and 39 of the 54 genus-1 ones
    assert nonzero >= 70
    assert mutant >= 30


def test_correlator_builds_no_class(monkeypatch):
    spec = coherent_spec(random.Random(3), 2, 3)
    vs = [(1, 2), (-1, 3), (2, 1)]
    want = integrate_taut(r_action(spec, 1, 3, vs), Correlators(), (1, 0, 0))
    assert want != 0

    def refuse(*args, **kwargs):
        raise AssertionError("the correlator built a class")

    monkeypatch.setattr(givental, "r_action", refuse)
    monkeypatch.setattr(intersect, "integrate_taut", refuse)
    monkeypatch.setattr(taut.DecoratedGraph, "__init__", refuse)
    monkeypatch.setattr(taut.TautExpr, "__init__", refuse)
    assert correlator_of_theory(spec, 1, 3, vs, (1, 0, 0), Correlators()) == want


def test_correlator_argument_errors_keep_their_types():
    spec = scalar_exp_spec(F(1, 2), 3)
    cases = [
        ((0, 2, [[1]] * 2, (0, 0)), UnstablePair),  # unstable pair
        ((1, 2, [[1]], (0, 0)), ValueError),  # one vector for two points
        ((1, 2, [[1]] * 2, (0,)), CohftError),  # one psi exponent for two points
        ((1, 2, [[1]] * 2, (-1, 0)), CohftError),  # negative psi exponent
        ((1, 4, [[1]] * 4, (0,) * 4), CohftError),  # degree 3 below dimension 4
    ]
    for args, kind in cases:
        with pytest.raises(ValueError) as exc:
            correlator_of_theory(spec, *args, BACKEND)
        assert type(exc.value) is kind, args


def test_integrate_taut_checks_psi_like_the_correlator():
    spec = scalar_exp_spec(F(1, 2), 3)
    expr = r_action(spec, 1, 2, [[1]] * 2)
    for psi, message in [
        ((1, 0, 7), "need one psi exponent per marked point"),
        ((1,), "need one psi exponent per marked point"),
        ((-1, 2), "negative psi exponent"),
    ]:
        for call in (
            lambda: integrate_taut(expr, Correlators(), psi),
            lambda: correlator_of_theory(spec, 1, 2, [[1]] * 2, psi, Correlators()),
        ):
            with pytest.raises(CohftError, match=message):
                call()
    assert integrate_taut(expr, Correlators(), (1, 1)) == correlator_of_theory(
        spec, 1, 2, [[1]] * 2, (1, 1), Correlators()
    )


# -- the Hodge theory: Teleman's classification against the lambda_g formula --


def test_bernoulli_numbers_and_b_g():
    # b_g = (2^{2g-1} - 1) |B_2g| / (2^{2g-1} (2g)!) against the exact
    # expansion of (t/2) / sin(t/2)
    bern = bernoulli_numbers(15)
    assert [str(b) for b in bern[:9]] == ["1", "-1/2", "1/6", "0", "-1/30", "0", "1/42", "0", "-1/30"]
    assert bern[12] == F(-691, 2730) and bern[14] == F(7, 6)
    assert [hodge_b(g) for g in range(4)] == [1, F(1, 24), F(7, 5760), F(31, 967680)]
    for g in range(1, 8):
        assert hodge_b(g) == (2 ** (2 * g - 1) - 1) * abs(bern[2 * g]) / (2 ** (2 * g - 1) * factorial(2 * g))


def test_lambda_g_cases_cover_every_point_count_to_dimension_5():
    pairs = {(g, n) for g, n, _ in lambda_g_cases(5)}
    assert pairs == {(g, n) for g, n in [(0, n) for n in range(3, 9)] + [(1, n) for n in range(1, 6)] + [(2, 1), (2, 2)]}
    for g, n, exps in lambda_g_cases(5):
        assert len(exps) == n and sum(exps) == 2 * g - 3 + n and list(exps) == sorted(exps, reverse=True)


@pytest.mark.parametrize("sign", [1, -1])
def test_hodge_correlators_are_lambda_g_numbers(sign):
    # <tau_a lambda_g>_g = C(2g-3+n; a) b_g on every (g, n, a) with
    # 3g-3+n <= 5 (a up to order: the points all carry the unit), and at
    # (3,2) and (4,1); R^{-1} in place of R gives (-1)^g times each value
    spec = hodge_spec(10, sign)
    backend = Correlators()
    for g, n, exps in lambda_g_cases(5) + [(3, 2, (4, 1)), (4, 1, (6,))]:
        value = correlator_of_theory(spec, g, n, [[1]] * n, exps, backend)
        assert value == sign**g * lambda_g_closed_form(g, exps), (g, n, exps)
    assert backend.check_string_dilaton() == []
