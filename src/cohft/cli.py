"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 identity-check failure,
3 internal error.  A validation failure is a usage error (an unknown option
or a malformed argument), a CohftError (config errors, unstable pairs and
bad arguments) or an algebra that does not split or invert; any other
exception is an internal error.  All output is deterministic: results
are assembled in canonical order, and --json switches to a
machine-readable mirror of the same data.

Each command that reads intersection numbers (correlator, verify and
oracle dvv, hodge and trr) starts from an empty memo table of its own, so
what it prints does not depend on what ran before it in the same process,
and no command reads or writes a file of intersection numbers.

Each command imports the layers it runs, in its own body, so that
`graphs` and `strata` load only linalg and graphs.
"""

import argparse
import json
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

from .linalg import CohftError, ConfigError, NotInvertible, NotSplit, frac_str, identity, read_integer, read_rational


def _integer(text):
    """A positional g or n: an integer of the number grammar."""
    try:
        return read_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text) from None


def _dimension(text):
    """A --max-dim value: a non-negative integer."""
    try:
        value = read_integer(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer, got %r" % text)
    return value


def _build_parser():
    parser = argparse.ArgumentParser(prog="cohft", description=__doc__)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--config", help="path to a spec config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="algebra utilities")
    p.add_argument("action", choices=["check"])

    p = sub.add_parser("graphs", help="stable graph utilities")
    p.add_argument("action", choices=["enumerate"])
    p.add_argument("g", type=_integer)
    p.add_argument("n", type=_integer)

    p = sub.add_parser("strata", help="special-type stratification")
    p.add_argument("action", choices=["special"])
    p.add_argument("g", type=_integer)
    p.add_argument("n", type=_integer)

    sub.add_parser("classify", help="emit the classification data")

    p = sub.add_parser("reconstruct", help="evaluate a reconstructed class")
    p.add_argument("kind", choices=["fixed", "free", "nodal"])
    p.add_argument("g", type=_integer)
    p.add_argument("n", type=_integer)
    p.add_argument("--vectors", help="semicolon-separated coordinate lists")

    p = sub.add_parser("verify", help="check the field-theory axioms")
    p.add_argument("kind", choices=["fixed", "free"])
    p.add_argument("--max-dim", type=_dimension, default=2)

    p = sub.add_parser("correlator", help="exact correlator of the theory")
    p.add_argument("g", type=_integer)
    p.add_argument("n", type=_integer)
    p.add_argument("--psi", help="comma-separated psi exponents")
    p.add_argument("--vectors", help="semicolon-separated coordinate lists")
    p.add_argument("--dump-table", action="store_true", help="also print every memoized number")

    p = sub.add_parser("oracle", help="diff independent brute-force paths")
    p.add_argument("kind", choices=["graphs", "dvv", "vertex-sum", "hodge", "trr"])
    # None tells an absent option from a given one: vertex-sum takes none
    p.add_argument("--max-dim", type=_dimension)
    return parser


def _load_spec(args):
    if not args.config:
        raise ConfigError([(None, "this command needs --config")])
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError:
        reason = "not a text file"
    else:
        from .config import parse_config

        return parse_config(text)
    raise ConfigError([(None, "cannot read config %r: %s" % (args.config, reason))])


def _parse_vectors(text, dim, n, unit):
    if not text:
        return [unit] * n
    chunks = [c for c in text.split(";") if c.strip()]
    if len(chunks) != n:
        raise ConfigError([(None, "expected %d vectors, got %d" % (n, len(chunks)))])
    out = []
    for chunk in chunks:
        try:
            coords = [read_rational(tok) for tok in chunk.replace(",", " ").split()]
        except ValueError:
            raise ConfigError([(None, "vector %r is not a list of rationals" % chunk)]) from None
        if len(coords) != dim:
            raise ConfigError([(None, "vector %r must have %d coordinates" % (chunk, dim))])
        out.append(tuple(coords))
    return out


def _emit(args, text_lines, payload):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_algebra(args):
    from .frobenius import orthonormal_form

    spec = _load_spec(args)
    lines = ["algebra ok: dim %d" % spec.algebra.dim, "semisimple: yes"]
    payload = {"dim": spec.algebra.dim, "semisimple": True}
    # the weights theta_mu of the eta-orthonormal frame, when it exists
    form = orthonormal_form(spec.ss)
    if form is not None:
        lines.append("weights: " + " ".join(frac_str(w) for w in form[0]))
        payload["weights"] = [frac_str(w) for w in form[0]]
    _emit(args, lines, payload)
    return 0


def _cmd_graphs(args):
    from .graphs import enumerate_stable_graphs

    graphs = enumerate_stable_graphs(args.g, args.n)
    codes = [g.encode() for g in graphs]
    _emit(args, codes + ["total: %d" % len(graphs)], {"graphs": codes, "count": len(graphs)})
    return 0


def _cmd_strata(args):
    from .graphs import special_order

    types, greater, hasse = special_order(args.g, args.n)
    lines = []
    for t in types:
        lines.append("type gamma'=%d nu'=%d k=%d mu=%d codim=%d" % (t + (t.codimension,)))
    for a, b in sorted(hasse):
        lines.append("hasse: %s > %s" % (tuple(a), tuple(b)))
    lines.append("total: %d" % len(types))
    payload = {
        "types": [list(t) for t in types],
        "codimensions": [t.codimension for t in types],
        "hasse": [[list(a), list(b)] for a, b in sorted(hasse)],
        "count": len(types),
    }
    _emit(args, lines, payload)
    return 0


def _cmd_classify(args):
    from .config import serialize_config

    spec = _load_spec(args)
    if not spec.coherent:
        raise ConfigError([(None, "classify needs a coherent spec (set 'coherent: yes')")])
    lines = []
    for j, p in enumerate(spec.phi, start=1):
        lines.append("phi %d: %s" % (j, " ".join(frac_str(x) for x in p)))
    for k in range(1, spec.degree + 1):
        m = spec.r.coeffs[k]
        lines.append("R %d: %s" % (k, " | ".join(" ".join(frac_str(x) for x in row) for row in m)))
    payload = {
        "phi": [[frac_str(x) for x in p] for p in spec.phi],
        "R": [
            [[frac_str(x) for x in row] for row in spec.r.coeffs[k]]
            for k in range(1, spec.degree + 1)
        ],
        "config": serialize_config(spec),
    }
    _emit(args, lines, payload)
    return 0


def _cmd_reconstruct(args):
    from .givental import r_action, reconstruct_fixed, reconstruct_free

    spec = _load_spec(args)
    if args.kind in ("free", "nodal") and not spec.coherent:
        raise ConfigError([(None, "%s reconstruction needs a coherent spec" % args.kind)])
    vectors = _parse_vectors(args.vectors, spec.algebra.dim, args.n, spec.algebra.unit)
    if args.kind == "nodal":
        terms = r_action(spec, args.g, args.n, vectors).render_lines()
        _emit(args, terms or ["0"], {"terms": terms})
    else:
        recon = reconstruct_fixed if args.kind == "fixed" else reconstruct_free
        text = recon(spec, args.g, args.n, vectors).render()
        _emit(args, [text], {"class": text})
    return 0


def _cmd_verify(args):
    from .givental import AXIOMS, skipped_axioms, verify_axioms

    spec = _load_spec(args)
    failures = verify_axioms(spec, args.kind, max_dim=args.max_dim)
    failed = {f["axiom"] for f in failures}
    skipped = set(skipped_axioms(spec, args.max_dim))
    status = {a: None if a in skipped else a not in failed for a in AXIOMS}
    words = {None: "skipped", True: "pass", False: "fail"}
    lines = ["%s: %s" % (a, words[ok]) for a, ok in status.items()]
    for f in failures:
        lines.append("  %s at %s: %s" % (f["axiom"], f["at"], f["diff"]))
    payload = {
        "passed": not failures,
        "axioms": status,
        "failures": [
            {"axiom": f["axiom"], "at": str(f["at"]), "diff": str(f["diff"])} for f in failures
        ],
    }
    _emit(args, lines, payload)
    return 0 if not failures else 2


def _cmd_correlator(args):
    from .intersect import Correlators, correlator_of_theory

    spec = _load_spec(args)
    if not spec.coherent:
        raise ConfigError([(None, "correlators need a coherent spec")])
    try:
        psi = tuple(read_integer(x.strip()) for x in args.psi.split(",")) if args.psi else (0,) * args.n
    except ValueError:
        raise ConfigError([(None, "--psi must be comma-separated integers")]) from None
    if len(psi) != args.n:
        raise ConfigError([(None, "--psi needs %d entries" % args.n)])
    vectors = _parse_vectors(args.vectors, spec.algebra.dim, args.n, spec.algebra.unit)
    backend = Correlators()
    value = correlator_of_theory(spec, args.g, args.n, vectors, psi, backend)
    lines = [frac_str(value)]
    payload = {"value": frac_str(value)}
    if args.dump_table:
        table = backend.dump().rstrip("\n")
        if table:
            lines.extend(table.split("\n"))
        payload["table"] = table.split("\n") if table else []
    _emit(args, lines, payload)
    return 0


def _row(text, bad, detail=""):
    """One oracle row: its mismatch count bad, and text followed by `ok`, or
    by `MISMATCH` and the detail when bad is not 0."""
    return bad, "%s %s" % (text, "MISMATCH" + detail if bad else "ok")


def _compare(label, got, want):
    """The row `label: got vs want ok|MISMATCH` of two exact values."""
    return _row("%s: %s vs %s" % (label, frac_str(got), frac_str(want)), int(got != want))


def _oracle_graphs(args, max_dim):
    from .graphs import enumerate_stable_graphs
    from .oracles import brute_force_stable_graphs

    for g in range(max_dim // 3 + 2):
        for n in range(max_dim + 4):
            if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= max_dim:
                main, oracle = enumerate_stable_graphs(g, n), brute_force_stable_graphs(g, n)
                yield _row("(%d,%d): main %d oracle %d" % (g, n, len(main), len(oracle)), int(main != oracle))


def _oracle_dvv(args, max_dim):
    from .intersect import Correlators
    from .oracles import genus0_multinomial, witten_top_closed_form
    from .taut import kappa_multi_index

    backend = Correlators()
    for g in range(0, 3):
        for n in range(1, 6):
            d = 3 * g - 3 + n
            if 2 * g - 2 + n > 0 and d <= max_dim + 2:
                backend.psi_correlator(g, (d,) + (0,) * (n - 1))
    failures = backend.check_string_dilaton()
    yield _row("string/dilaton checks on %d keys:" % len(backend.psi_keys()), len(failures))
    # the multi-index class kappa_parts, its parts filling the dimension d,
    # against psi^(p+1) at one added point per part p
    for g, n in [(0, 4), (0, 5), (1, 1), (1, 2), (1, 3)]:
        d = 3 * g - 3 + n
        for parts in ([d], [d - 1, 1]) if d >= 2 else ([d],):
            multi = kappa_multi_index(parts, d)
            via_kappa = sum(
                (backend.kappa_psi_correlator(g, (0,) * n, key) * c for key, c in multi.terms.items()),
                Fraction(0),
            )
            direct = backend.psi_correlator(g, (0,) * n + tuple(p + 1 for p in parts))
            yield _compare("kappa multi-index (%d,%d) parts %s" % (g, n, parts), via_kappa, direct)
    for g in range(1, 7):
        yield _compare(
            "closed form <tau_%d>_%d = 1/(24^g g!)" % (3 * g - 2, g),
            backend.psi_correlator(g, (3 * g - 2,)),
            witten_top_closed_form(g),
        )
    for n in range(3, 7):
        keys = [e for e in combinations_with_replacement(range(n - 2), n) if sum(e) == n - 3]
        bad = [e for e in keys if backend.psi_correlator(0, e) != genus0_multinomial(e)]
        text = "genus-0 multinomial (n-3)!/prod a_i! on %d keys with n=%d:" % (len(keys), n)
        yield _row(text, len(bad), " at %s" % bad)


def _oracle_hodge(args, max_dim):
    from .intersect import Correlators, correlator_of_theory
    from .oracles import lambda_g_cases, lambda_g_closed_form
    from .sampling import hodge_spec

    # the Hodge theory's correlators against the lambda_g formula
    backend = Correlators()
    spec = hodge_spec(max(max_dim, 1))
    for g, n, exps in lambda_g_cases(max_dim):
        yield _compare(
            "lambda_g (%d,%d) psi %s" % (g, n, ",".join(map(str, exps))),
            correlator_of_theory(spec, g, n, [[1]] * n, exps, backend),
            lambda_g_closed_form(g, exps),
        )


def _oracle_trr(args, max_dim):
    from .intersect import Correlators, correlator_of_theory
    from .oracles import trr_cases, trr_genus0, trr_genus1

    # the theory's correlators against each other, through the genus-0 and
    # genus-1 topological recursion relations
    if max_dim < 1:
        raise CohftError("oracle trr has no case below --max-dim 1")
    spec = _load_spec(args)
    backend = Correlators()
    basis = identity(spec.algebra.dim)

    def corr(g, vectors, psi):
        return correlator_of_theory(spec, g, len(vectors), vectors, psi, backend)

    for g, psi, idx in trr_cases(spec.algebra.dim, max_dim):
        points = [(basis[i], k) for i, k in zip(idx, psi)]
        if g == 0:
            lhs, rhs = trr_genus0(corr, spec.algebra.eta_inv, points)
        else:
            lhs, separating, non_separating = trr_genus1(corr, spec.algebra.eta_inv, points)
            rhs = separating + non_separating / 24
        label = "genus %d psi %s at %s" % (g, ",".join(map(str, psi)), " ".join("b%d" % (i + 1) for i in idx))
        yield _compare(label, lhs, rhs)


def _oracle_vertex_sum(args, max_dim):
    import random

    from .oracles import multikappa_by_permutations, vertex_factor_diff
    from .taut import exp_pushforward_check, kappa_multi_index

    spec = _load_spec(args)
    for mu in range(spec.algebra.dim):
        diff = vertex_factor_diff(spec, mu, spec.degree)
        yield _row("projector %d vertex sum:" % mu, int(not diff.is_zero()), " " + diff.render())
    rng = random.Random(20150417)
    for trial in range(5):
        coeffs = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(4)]
        text = "exponential pushforward %s:" % " ".join(frac_str(c) for c in coeffs)
        yield _row(text, int(not exp_pushforward_check(coeffs, 6)))
    for parts in [[1, 1], [2, 1], [1, 2, 3], [2, 2, 1], [1, 1, 1, 1], [1, 1, 1, 2, 2]]:
        same = kappa_multi_index(parts, 12) == multikappa_by_permutations(parts, 12)
        yield _row("multi-index kappa %s vs permutation sum:" % ",".join(map(str, parts)), int(not same))


_ORACLES = {
    "graphs": _oracle_graphs,
    "dvv": _oracle_dvv,
    "hodge": _oracle_hodge,
    "trr": _oracle_trr,
    "vertex-sum": _oracle_vertex_sum,
}


def _cmd_oracle(args):
    """Each kind yields (mismatch count, line) rows; a row's text ends in
    its status word, and the report ends with the sum of the counts."""
    if args.kind == "vertex-sum" and args.max_dim is not None:
        raise CohftError("oracle vertex-sum has a fixed size and takes no --max-dim")
    rows = list(_ORACLES[args.kind](args, 3 if args.max_dim is None else args.max_dim))
    mismatches = sum(bad for bad, _ in rows)
    lines = [line for _, line in rows] + ["mismatches: %d" % mismatches]
    _emit(args, lines, {"report": lines, "mismatches": mismatches})
    return 0 if mismatches == 0 else 2


def _join_vectors(argv):
    """argv with each `--vectors X` written `--vectors=X`: argparse reads an
    X that starts with '-', such as "-1;2;1", as an option, not a value."""
    out = []
    for arg in argv:
        if out and out[-1] == "--vectors":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_vectors(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 after printing a usage error;
        # 2 is reserved for identity-check failures
        return 0 if exc.code == 0 else 1
    handlers = {
        "algebra": _cmd_algebra,
        "graphs": _cmd_graphs,
        "strata": _cmd_strata,
        "classify": _cmd_classify,
        "reconstruct": _cmd_reconstruct,
        "verify": _cmd_verify,
        "correlator": _cmd_correlator,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(exc.render(), file=sys.stderr)
        return 1
    except (CohftError, NotSplit, NotInvertible) as exc:
        print("validation failure: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
