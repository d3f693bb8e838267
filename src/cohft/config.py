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
    phi 1: 1/2 0
    R 1: 0 1 | -1 0

Numbers follow the one grammar of linalg.INTEGER and linalg.RATIONAL, in
ASCII digits: dim and degree are integers (an optional sign and digits),
every other value a rational p or p/q with q > 0 written without a leading
zero, so 0.5, 1e-1 and 1_0 are rejected.  The keyed rows and matrices
(eta, unit, mul i j, phi j, R k) are read by one reader, which reports a
missing required entry and a wrong shape at the entry's line.

The semisimple data is always computed from the algebra
(FrobeniusAlgebra.semisimplify: the primitive idempotents are unique), so
a file states no frame, and a weights or basis line is an unknown entry.
phi and R default to zero and Id.  A dim whose file holds fewer entries
than its dim(dim+1)/2 mul rows is rejected at the dim line before any
entry is read, and a degree outside 1..MAX_DEGREE (60) at the degree
line.  Every invariant is validated eagerly and violations are reported
with the offending line when there is one.
"""

from fractions import Fraction

from .frobenius import FrobeniusAlgebra, InvalidAlgebra
from .givental import CohFTSpec, IncoherentSpec, NotSymplectic
from .linalg import ConfigError, NotInvertible, NotSplit, frac_str, identity, read_integer, read_rational, zero_mat
from .series import EndSeries

# reading grows fast with degree: at degree 60 a dim-1 config reads in about
# 0.45 s with the Hodge R, nearly all of it the vertex log, and in under
# 0.1 s with R = Id; one took 17 s at degree 1000 (Python 3.11, 2 cores)
MAX_DEGREE = 60


def _parse_row(text, lineno, report):
    row = []
    for tok in text.split():
        try:
            row.append(read_rational(tok))
        except ValueError as exc:
            report.append((lineno, str(exc)))
            row.append(Fraction(0))
    return row


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

    def take(key):
        return entries.pop(tuple(key.split()), None)

    def read(key, matrix=False, required=False):
        """Entry key as a row of dim rationals or a dim x dim matrix; None,
        with the fault reported, when it is absent or has another shape."""
        item = take(key)
        if item is None:
            if required:
                report.append((None, "missing '%s'" % key))
            return None
        lineno, text = item
        if not matrix:
            row = _parse_row(text, lineno, report)
            if len(row) == dim:
                return row
            report.append((lineno, "%s must have %d entries" % (key, dim)))
            return None
        m = _parse_matrix(text, lineno, report)
        if len(m) == dim and all(len(r) == dim for r in m):
            return m
        report.append((lineno, "%s must be a %dx%d matrix" % (key, dim, dim)))
        return None

    item = take("dim")
    if item is None:
        raise ConfigError([(None, "missing 'dim'")])
    try:
        dim = read_integer(item[1])
    except ValueError:
        raise ConfigError([(item[0], "dim must be an integer")]) from None
    if dim < 1:
        raise ConfigError([(item[0], "dim must be positive")])
    # each missing entry is reported, so a dim the file cannot fill would
    # cost dim^2 reports before any check could fail
    needed = dim * (dim + 1) // 2
    if len(entries) < needed:
        raise ConfigError([(item[0], "dim %d needs %d 'mul' entries" % (dim, needed))])

    item = take("degree")
    degree = 3
    if item is not None:
        try:
            degree = read_integer(item[1])
        except ValueError:
            report.append((item[0], "degree must be an integer"))
        if degree < 1:
            report.append((item[0], "degree must be >= 1"))
        elif degree > MAX_DEGREE:
            # phi and R are read per degree: stop before reading them
            raise ConfigError([(item[0], "degree must be <= %d" % MAX_DEGREE)])

    item = take("coherent")
    coherent = False
    if item is not None:
        if item[1] not in ("yes", "no", "true", "false"):
            report.append((item[0], "coherent must be yes or no"))
        coherent = item[1] in ("yes", "true")

    eta_line = entries.get(("eta",), (None, ""))[0]  # read pops the entry
    eta = read("eta", matrix=True, required=True)
    if eta is None:
        eta = identity(dim)
    elif any(eta[i][j] != eta[j][i] for i in range(dim) for j in range(dim)):
        report.append((eta_line, "eta not symmetric"))
    unit = read("unit", required=True) or [1] + [0] * (dim - 1)
    structure = [[None] * dim for _ in range(dim)]
    zero = [0] * dim  # a default is read only when nothing was reported
    for i in range(dim):
        for j in range(i, dim):
            row = read("mul %d %d" % (i + 1, j + 1), required=True) or zero
            structure[i][j] = structure[j][i] = row

    phi_given = any(key[:1] == ("phi",) for key in entries)
    phi = [read("phi %d" % j) or [0] * dim for j in range(1, degree + 1)]
    higher = [read("R %d" % k, matrix=True) or zero_mat(dim) for k in range(1, degree + 1)]

    for key, (lineno, _) in entries.items():
        report.append((lineno, "unknown entry %r" % " ".join(key)))
    if report:
        raise ConfigError(report)

    try:
        algebra = FrobeniusAlgebra(dim, eta, structure, unit)
    except InvalidAlgebra as exc:
        raise ConfigError([(None, p) for p in exc.problems]) from None

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
