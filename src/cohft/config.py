"""Declarative text configuration for a theory specification.

Line-oriented format; rationals are written p/q, rows of a matrix are
separated by '|'.  Example:

    dim: 2
    eta: 1 0 | 0 1
    unit: 1 1
    mul 1 1: 1 0
    mul 1 2: 0 0
    mul 2 2: 0 1
    degree: 3
    coherent: no
    weights: 1 1
    basis: 1 0 | 0 1
    phi 1: 1/2 0
    R 1: 0 1 | -1 0

The semisimple block (weights/basis) is optional and recomputed when
absent; phi and R default to zero and Id.  Every invariant is validated
eagerly and violations are reported with the offending line when there is
one.
"""

import re
from fractions import Fraction

from .frobenius import FrobeniusAlgebra, InvalidAlgebra, NotInvertible, NotSplit, SemisimpleData
from .givental import CohFTSpec, IncoherentSpec, NotSymplectic
from .linalg import CohftError, frac_str, identity
from .series import EndSeries


class ConfigError(CohftError):
    """Carries a structured report: list of (line_number or None, message)."""

    def __init__(self, report):
        self.report = list(report)
        super().__init__("; ".join(m for _, m in self.report))

    def render(self):
        lines = []
        for lineno, msg in self.report:
            where = "line %d: " % lineno if lineno else ""
            lines.append(where + msg)
        return "\n".join(lines)


_RATIONAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _parse_rational(tok, lineno, report):
    # only p or p/q literals: floats have no place in an exact engine
    if not _RATIONAL.match(tok):
        report.append((lineno, "not an exact rational: %r" % tok))
        return Fraction(0)
    return Fraction(tok)


def _parse_row(text, lineno, report):
    return [_parse_rational(tok, lineno, report) for tok in text.split()]


def _parse_matrix(text, lineno, report):
    return [_parse_row(row, lineno, report) for row in text.split("|")]


def parse_config(text):
    """Parse and validate; returns a CohFTSpec or raises ConfigError."""
    report = []
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            report.append((lineno, "expected 'key: values', got %r" % raw.strip()))
            continue
        key = tuple(head.split())
        if key in entries:
            report.append((lineno, "duplicate entry %r" % " ".join(key)))
            continue
        entries[key] = (lineno, tail.strip())
    if report:
        raise ConfigError(report)

    def take(*key):
        return entries.pop(tuple(key), None)

    item = take("dim")
    if item is None:
        raise ConfigError([(None, "missing 'dim'")])
    dim_line, dim_text = item
    try:
        dim = int(dim_text)
    except ValueError:
        raise ConfigError([(dim_line, "dim must be an integer")]) from None
    if dim < 1:
        raise ConfigError([(dim_line, "dim must be positive")])

    item = take("degree")
    degree = 3
    if item is not None:
        try:
            degree = int(item[1])
        except ValueError:
            report.append((item[0], "degree must be an integer"))
        if degree < 1:
            report.append((item[0], "degree must be >= 1"))

    item = take("coherent")
    coherent = False
    if item is not None:
        if item[1] not in ("yes", "no", "true", "false"):
            report.append((item[0], "coherent must be yes or no"))
        coherent = item[1] in ("yes", "true")

    item = take("eta")
    if item is None:
        report.append((None, "missing 'eta'"))
        eta = identity(dim)
        eta_line = None
    else:
        eta_line, eta_text = item
        eta = _parse_matrix(eta_text, eta_line, report)
        if len(eta) != dim or any(len(r) != dim for r in eta):
            report.append((eta_line, "eta must be a %dx%d matrix" % (dim, dim)))
            eta = identity(dim)
        elif any(eta[i][j] != eta[j][i] for i in range(dim) for j in range(dim)):
            report.append((eta_line, "eta not symmetric"))

    item = take("unit")
    if item is None:
        report.append((None, "missing 'unit'"))
        unit = [1] + [0] * (dim - 1)
    else:
        unit_line, unit_text = item
        unit = _parse_row(unit_text, unit_line, report)
        if len(unit) != dim:
            report.append((unit_line, "unit must have %d entries" % dim))
            unit = [1] + [0] * (dim - 1)

    structure = [[None] * dim for _ in range(dim)]
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            item = take("mul", str(i), str(j))
            if item is None:
                report.append((None, "missing 'mul %d %d'" % (i, j)))
                row = [0] * dim
            else:
                mul_line, mul_text = item
                row = _parse_row(mul_text, mul_line, report)
                if len(row) != dim:
                    report.append((mul_line, "mul %d %d must have %d entries" % (i, j, dim)))
                    row = [0] * dim
            structure[i - 1][j - 1] = row
            structure[j - 1][i - 1] = row

    weights_item = take("weights")
    basis_item = take("basis")

    phi = []
    phi_given = False
    for j in range(1, degree + 1):
        item = take("phi", str(j))
        if item is None:
            phi.append([0] * dim)
        else:
            phi_given = True
            phi_line, phi_text = item
            row = _parse_row(phi_text, phi_line, report)
            if len(row) != dim:
                report.append((phi_line, "phi %d must have %d entries" % (j, dim)))
                row = [0] * dim
            phi.append(row)

    higher = []
    for k in range(1, degree + 1):
        item = take("R", str(k))
        if item is None:
            higher.append([[0] * dim for _ in range(dim)])
        else:
            r_line, r_text = item
            m = _parse_matrix(r_text, r_line, report)
            if len(m) != dim or any(len(r) != dim for r in m):
                report.append((r_line, "R %d must be a %dx%d matrix" % (k, dim, dim)))
                m = [[0] * dim for _ in range(dim)]
            higher.append(m)

    for key, (lineno, _) in entries.items():
        report.append((lineno, "unknown entry %r" % " ".join(key)))
    if report:
        raise ConfigError(report)

    try:
        algebra = FrobeniusAlgebra(dim, eta, structure, unit)
    except InvalidAlgebra as exc:
        raise ConfigError([(None, p) for p in exc.problems]) from None

    if weights_item is not None or basis_item is not None:
        if weights_item is None or basis_item is None:
            raise ConfigError([(None, "weights and basis must be given together")])
        w_line, w_text = weights_item
        b_line, b_text = basis_item
        weights = _parse_row(w_text, w_line, report)
        basis = _parse_matrix(b_text, b_line, report)
        if report:
            raise ConfigError(report)
        try:
            ss = SemisimpleData(weights, basis)
            algebra.check_semisimple_data(ss)
        except InvalidAlgebra as exc:
            raise ConfigError([(w_line, p) for p in exc.problems]) from None
    else:
        try:
            ss = algebra.semisimplify()
        except (NotSplit, NotInvertible) as exc:
            raise ConfigError([(None, "semisimple basis: %s" % exc)]) from None

    r = EndSeries.from_higher_coeffs(dim, degree, higher)
    if coherent and not phi_given:
        phi = None  # the compatibility relation determines phi from R uniquely

    try:
        return CohFTSpec(algebra, ss, phi, r, degree, coherent=coherent)
    except NotSymplectic:
        raise ConfigError([(None, "R violates the symplectic condition R(z)R(-z)* = Id")]) from None
    except IncoherentSpec:
        raise ConfigError(
            [
                (
                    None,
                    "compatibility relation violated: "
                    "log of the classification homomorphism must equal "
                    "-eta(beta log(R(psi)^{-1} unit), .)",
                )
            ]
        ) from None


def serialize_config(spec):
    """Canonical text form; parse(serialize(parse(text))) is stable."""
    dim = spec.algebra.dim
    lines = ["dim: %d" % dim, "degree: %d" % spec.degree]
    lines.append("coherent: %s" % ("yes" if spec.coherent else "no"))
    lines.append("eta: " + _render_matrix(spec.algebra.eta))
    lines.append("unit: " + _render_row(spec.algebra.unit))
    for i in range(dim):
        for j in range(i, dim):
            lines.append("mul %d %d: %s" % (i + 1, j + 1, _render_row(spec.algebra.structure[i][j])))
    lines.append("weights: " + _render_row(spec.ss.weights))
    lines.append("basis: " + _render_matrix(spec.ss.basis_change))
    for j, p in enumerate(spec.phi, start=1):
        if any(x != 0 for x in p):
            lines.append("phi %d: %s" % (j, _render_row(p)))
    for k in range(1, spec.degree + 1):
        m = spec.r.coeffs[k]
        if any(x != 0 for row in m for x in row):
            lines.append("R %d: %s" % (k, _render_matrix(m)))
    return "\n".join(lines) + "\n"


def _render_row(row):
    return " ".join(frac_str(x) for x in row)


def _render_matrix(m):
    return " | ".join(_render_row(row) for row in m)
