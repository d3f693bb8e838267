import hashlib
import importlib
import importlib.util
import io
import json
import random
import re
import threading
import time
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohft import cli, config, graphs, taut
from cohft.cli import main
from cohft.config import ConfigError, parse_config, serialize_config
from cohft.frobenius import FrobeniusAlgebra
from cohft.givental import AXIOMS, CohFTSpec
from cohft.sampling import coherent_spec, incoherent_spec, random_symplectic_r

SCALAR_CFG = """
dim: 1
eta: 1
unit: 1
mul 1 1: 1
degree: 3
coherent: yes
R 1: 1/2
R 2: 1/8
R 3: 1/48
"""


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_parse_minimal_scalar_config():
    spec = parse_config(SCALAR_CFG)
    assert spec.degree == 3
    assert spec.coherent
    # phi is derived from R through the compatibility relation
    assert spec.phi[0] == (F(1, 2),)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    dim=st.integers(1, 3),
    degree=st.integers(1, 4),
    coherent=st.booleans(),
)
def test_serialize_roundtrip_idempotent(seed, dim, degree, coherent):
    # both kinds of spec write every nonzero phi_j as a line; an incoherent
    # one has phi_1 moved off the value R forces
    make = coherent_spec if coherent else incoherent_spec
    text = serialize_config(make(random.Random(seed), dim, degree))
    assert serialize_config(parse_config(text)) == text


def test_parse_error_reports():
    with pytest.raises(ConfigError) as exc:
        parse_config("dim: 2\neta: 1 1 | 0 1\nunit: 1 0\nmul 1 1: 1 0\nmul 1 2: 0 1\nmul 2 2: 0 0\n")
    assert any("symmetric" in msg for _, msg in exc.value.report)
    with pytest.raises(ConfigError) as exc:
        parse_config("eta: 1\n")
    assert any("dim" in msg for _, msg in exc.value.report)
    with pytest.raises(ConfigError) as exc:
        parse_config(SCALAR_CFG + "bogus 3: 1\n")
    assert any("unknown entry" in msg for _, msg in exc.value.report)
    with pytest.raises(ConfigError) as exc:
        parse_config(SCALAR_CFG + "phi 1: 7\n")
    assert any("compatibility" in msg for _, msg in exc.value.report)
    with pytest.raises(ConfigError) as exc:
        parse_config(SCALAR_CFG.replace("1/48", "0.02"))
    assert any("rational" in msg for _, msg in exc.value.report)


DIM2_CFG = "dim: 2\neta: 1 0 | 0 1\nunit: 1 1\nmul 1 1: 1 0\nmul 1 2: 0 0\nmul 2 2: 0 1\n"


@pytest.mark.parametrize(
    "text,report",
    [
        ("dim: 1\nno colon here\n", [(2, "expected 'key: values', got 'no colon here'")]),
        ("dim: 1\ndim: 1\n", [(2, "duplicate entry 'dim'")]),
        ("dim: two\n", [(1, "dim must be an integer")]),
        ("dim: 0\n", [(1, "dim must be positive")]),
        (DIM2_CFG + "degree: 2.5\n", [(7, "degree must be an integer")]),
        (DIM2_CFG + "degree: 0\n", [(7, "degree must be >= 1")]),
        (DIM2_CFG + "coherent: maybe\n", [(7, "coherent must be yes or no")]),
        (DIM2_CFG.replace("eta: 1 0 | 0 1\n", ""), [(None, "missing 'eta'")]),
        (DIM2_CFG.replace("unit: 1 1\n", ""), [(None, "missing 'unit'")]),
        (DIM2_CFG.replace("mul 1 2: 0 0\n", ""), [(None, "missing 'mul 1 2'")]),
        (DIM2_CFG.replace("eta: 1 0 | 0 1", "eta: 1 0 | 0"), [(2, "eta must be a 2x2 matrix")]),
        (DIM2_CFG.replace("unit: 1 1", "unit: 1"), [(3, "unit must have 2 entries")]),
        (DIM2_CFG.replace("mul 1 2: 0 0", "mul 1 2: 0 0 0"), [(5, "mul 1 2 must have 2 entries")]),
        (DIM2_CFG + "phi 1: 1/2\n", [(7, "phi 1 must have 2 entries")]),
        (DIM2_CFG + "R 1: 0 1\n", [(7, "R 1 must be a 2x2 matrix")]),
        # the frame is computed from the algebra, never stated
        (DIM2_CFG + "weights: 1 1\n", [(7, "unknown entry 'weights'")]),
        (DIM2_CFG + "basis: 1 0 | 0 1\n", [(7, "unknown entry 'basis'")]),
        ("dim: 1\neta: 1\nunit: 1\nmul 1 1: 2\n", [(None, "unit is not neutral on basis vector 0")]),
        (
            # Q[x]/(x^2 - 2): semisimple, but not split over Q
            "dim: 2\neta: 1 0 | 0 2\nunit: 1 0\nmul 1 1: 1 0\nmul 1 2: 0 1\nmul 2 2: 2 0\n",
            [(None, "semisimple basis: no rational splitting: irrational eigenvalues")],
        ),
        # each missing 'mul i j' is reported, so without a bound the one line
        # 'dim: 500' built 125,250 reports and a zero row for each of them
        ("dim: 500\n", [(1, "dim 500 needs 125250 'mul' entries")]),
        ("dim: 1000000000\n", [(1, "dim 1000000000 needs 500000000500000000 'mul' entries")]),
        ("dim: 3\neta: 1 0 0 | 0 1 0 | 0 0 1\nunit: 1 0 0\n", [(1, "dim 3 needs 6 'mul' entries")]),
        # phi and R are read per degree, so without a bound 'degree: 1000'
        # took 17 s and 354 MB, and 'degree: 1000000000' never finished
        (DIM2_CFG + "degree: 61\n", [(7, "degree must be <= 60")]),
        (DIM2_CFG + "degree: 1000000000\n", [(7, "degree must be <= 60")]),
    ],
)
def test_parse_error_report_lines(tmp_path, capsys, text, report):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.report == report
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run_cli(["--config", str(cfg), "classify"]) == (1, "")


@pytest.mark.parametrize("degree", [61, 1000000000])
def test_degree_bound_is_checked_before_reading(degree):
    start = time.perf_counter()
    with pytest.raises(ConfigError):
        parse_config(DIM2_CFG + "degree: %d\n" % degree)
    assert time.perf_counter() - start < 0.1


def test_parse_rejects_float_literals():
    with pytest.raises(ConfigError):
        parse_config(SCALAR_CFG.replace("R 1: 1/2", "R 1: 0.5"))


@pytest.mark.parametrize(
    "text,report",
    [
        (DIM2_CFG + "degree: 1_0\n", [(7, "degree must be an integer")]),
        ("dim: 1_0\n", [(1, "dim must be an integer")]),
        ("dim: \u0661\n", [(1, "dim must be an integer")]),
        (DIM2_CFG.replace("unit: 1 1", "unit: 1 \u0661"), [(3, "not an exact rational: '\u0661'")]),
        (DIM2_CFG + "R 1: 1e-1 0 | 0 0\n", [(7, "not an exact rational: '1e-1'")]),
        (DIM2_CFG.replace("eta: 1 0 | 0 1", "eta: 1_0 0 | 0 1"), [(2, "not an exact rational: '1_0'")]),
    ],
)
def test_parse_reads_numbers_by_one_grammar(text, report):
    # Python's int() and Fraction() read 1_0 as 10 and any Unicode digit;
    # the config reads ASCII p or p/q only
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.report == report


def test_parse_reports_every_keyed_entry_in_reading_order():
    # one reader serves eta, unit, mul i j, phi j and R k: a wrong shape is
    # reported at the entry's own line, a missing required entry without one
    text = (
        "dim: 2\ndegree: 2\neta: 1 0 | 0 1 | 0 0\nunit: 1\nmul 1 1: 1 0\n"
        "mul 2 2: 0 1 1\nphi 2: 0\nR 2: 0 0\nR 1: 0 0 | 0 0\n"
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.report == [
        (3, "eta must be a 2x2 matrix"),
        (4, "unit must have 2 entries"),
        (None, "missing 'mul 1 2'"),
        (6, "mul 2 2 must have 2 entries"),
        (7, "phi 2 must have 2 entries"),
        (8, "R 2 must be a 2x2 matrix"),
    ]


def test_parse_rejects_non_symplectic_r(tmp_path):
    # R = 1 + z/2 has R(z)R(-z)* = 1 - z^2/4; with and without a derived phi
    bad = SCALAR_CFG.replace("R 2: 1/8\n", "").replace("R 3: 1/48\n", "")
    for text in (bad, bad.replace("coherent: yes", "coherent: no")):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.report == [(None, "R violates the symplectic condition R(z)R(-z)* = Id")]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(bad)
    assert run_cli(["--config", str(cfg), "classify"])[0] == 1


def test_cli_rejects_a_stated_frame_at_its_lines(tmp_path, capsys):
    # the weights/basis block an earlier serialize_config wrote is not read:
    # each of its lines is an unknown entry
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG + "weights: 1\nbasis: 1\n")
    assert run_cli(["--config", str(cfg), "classify"]) == (1, "")
    assert capsys.readouterr().err == "line 11: unknown entry 'weights'\nline 12: unknown entry 'basis'\n"


def _big_weights_config(digits):
    """The algebra with projectors (1, 1)/(a+1) and (0, 1)/(a+3), a = 10^digits,
    of norms 1/(a+1)^2 and 1/(a+3)^2, serialised."""
    a = 10**digits
    return (
        "dim: 2\ndegree: 1\ncoherent: yes\neta: 2 -1 | -1 1\n"
        "unit: 1/%d %d/%d\n" % (a + 1, 2 * a + 4, (a + 1) * (a + 3))
        + "mul 1 1: %d %d\nmul 1 2: 0 -%d\nmul 2 2: 0 %d\n" % (a + 1, 2 * a + 4, a + 3, a + 3)
    )


@pytest.mark.parametrize("digits", [8, 60])
def test_cli_classify_derives_big_weights_at_once(tmp_path, digits):
    # the split finds the projectors and norms in time that grows with their
    # digits, not with the divisors of their numbers
    text = _big_weights_config(digits)
    a = 10**digits
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(text)
    start = time.perf_counter()
    code, _ = run_cli(["--config", str(cfg), "classify"])
    assert time.perf_counter() - start < 1
    assert code == 0
    spec = parse_config(text)
    alg = FrobeniusAlgebra.from_semisimple(
        [F(1, a + 1) ** 2, F(1, a + 3) ** 2], [[F(1, a + 1), F(1, a + 1)], [0, F(1, a + 3)]]
    )
    assert (spec.algebra.eta, spec.algebra.structure, spec.algebra.unit) == (alg.eta, alg.structure, alg.unit)
    # the projectors sorted, each with its norm
    assert spec.ss.projectors == ((0, F(1, a + 3)), (F(1, a + 1), F(1, a + 1)))
    assert spec.ss.norms == (F(1, a + 3) ** 2, F(1, a + 1) ** 2)
    assert serialize_config(spec) == text


def test_cli_graphs_enumerate():
    code, out = run_cli(["graphs", "enumerate", "1", "1"])
    assert code == 0
    assert "total: 2" in out


def test_cli_strata_special():
    code, out = run_cli(["strata", "special", "1", "2"])
    assert code == 0
    assert "total: 4" in out
    assert "hasse" in out


def test_cli_json_mode():
    code, out = run_cli(["--json", "graphs", "enumerate", "0", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4


def test_cli_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dim: 2\neta: 1 1 | 0 1\nunit: 1 0\nmul 1 1: 1 0\nmul 1 2: 0 1\nmul 2 2: 0 0\n")
    code, _ = run_cli(["--config", str(bad), "algebra", "check"])
    assert code == 1
    code, _ = run_cli(["classify"])  # missing --config
    assert code == 1


def test_cli_classify_and_reconstruct(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    code, out = run_cli(["--config", str(cfg), "classify"])
    assert code == 0
    assert "phi 1: 1/2" in out
    code, out = run_cli(["--config", str(cfg), "reconstruct", "free", "1", "1"])
    assert code == 0
    assert out.strip() == "1 - 1/2*p1 + 1/2*k1"
    code, out = run_cli(["--config", str(cfg), "reconstruct", "nodal", "1", "1"])
    assert code == 0
    assert "E:[(0,0)]" in out


def test_cli_algebra_check_and_fixed_reconstruction(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    code, out = run_cli(["--config", str(cfg), "algebra", "check"])
    assert code == 0
    assert "semisimple: yes" in out
    code, out = run_cli(["--config", str(cfg), "reconstruct", "fixed", "1", "1"])
    assert code == 0
    assert out.strip() == "1 + 1/2*k1"


def test_cli_vector_argument_errors(tmp_path, capsys):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    code, _ = run_cli(["--config", str(cfg), "correlator", "1", "1", "--vectors", "1;2"])
    assert code == 1  # wrong number of vectors
    code, _ = run_cli(["--config", str(cfg), "correlator", "1", "1", "--vectors", "1,2"])
    assert code == 1  # wrong coordinate count
    for bad in ("1/0", "x"):
        capsys.readouterr()
        code, _ = run_cli(["--config", str(cfg), "reconstruct", "free", "1", "1", "--vectors", bad])
        assert code == 1  # not a rational, named in the message
        assert repr(bad) in capsys.readouterr().err
    code, out = run_cli(["--config", str(cfg), "correlator", "1", "1", "--psi", "1", "--vectors", "2"])
    assert code == 0
    assert out.strip() == "1/12"  # multilinearity: twice 1/24


@pytest.mark.parametrize("token", ["0.5", "1e-1", "1_0", "\u0661", "1/02"])
def test_cli_vectors_follow_the_number_grammar(tmp_path, capsys, token):
    # the config's grammar: Fraction() would read these as 1/2, 1/10, 10, 1, 1/2
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    for command in (["reconstruct", "free", "1", "1"], ["correlator", "1", "1"]):
        capsys.readouterr()
        code, out = run_cli(["--config", str(cfg)] + command + ["--vectors", token])
        assert (code, out) == (1, ""), command
        assert repr(token) in capsys.readouterr().err


@pytest.mark.parametrize("token", ["1_0", "\u0661", "1.0", "+1/1"])
def test_cli_integers_follow_the_number_grammar(tmp_path, capsys, token):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    code, out = run_cli(["--config", str(cfg), "correlator", "1", "1", "--psi", token])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "--psi must be comma-separated integers\n"
    for argv in (
        ["--config", str(cfg), "verify", "free", "--max-dim", token],
        ["oracle", "graphs", "--max-dim", token],
        ["graphs", "enumerate", token, "1"],
        ["strata", "special", "1", token],
        ["--config", str(cfg), "reconstruct", "fixed", token, "1"],
    ):
        code, out = run_cli(argv)
        assert (code, out) == (1, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("usage: cohft") and repr(token) in err, argv


def test_cli_number_grammar_keeps_what_frac_str_writes(tmp_path):
    # signs, p/q and the bench's comma-separated psi and vectors still read
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    code, out = run_cli(["--config", str(cfg), "correlator", "+1", "1", "--psi", "+1", "--vectors", "+2/1"])
    assert (code, out) == (0, "1/12\n")
    code, out = run_cli(["--config", str(cfg), "correlator", "0", "4", "--psi", "1,0,0,0", "--vectors", "1;-1/2;1;2"])
    assert (code, out) == (0, "-1\n")


def test_cli_renders_each_result_once(tmp_path, monkeypatch):
    # the text lines and the --json payload share one render
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    calls = []
    for cls, name in ((taut.KPPoly, "render"), (taut.TautExpr, "render_lines"), (graphs.StableGraph, "encode")):
        original = getattr(cls, name)

        def counted(self, _original=original, _name=name):
            calls.append(_name)
            return _original(self)

        monkeypatch.setattr(cls, name, counted)
    graphs.enumerate_stable_graphs(1, 2)
    for command, name, count in (
        (["--config", str(cfg), "reconstruct", "fixed", "1", "2"], "render", 1),
        (["--config", str(cfg), "reconstruct", "free", "1", "2"], "render", 1),
        (["--config", str(cfg), "reconstruct", "nodal", "1", "2"], "render_lines", 1),
        (["graphs", "enumerate", "1", "2"], "encode", 5),
    ):
        outputs = []
        for js in ([], ["--json"]):
            calls.clear()
            code, out = run_cli(js + command)
            # a render of a nodal class encodes its graphs: count only name
            assert code == 0 and calls.count(name) == count, command
            outputs.append(out)
        text, payload = outputs[0].splitlines(), json.loads(outputs[1])
        if "graphs" in command:
            assert (payload["graphs"], payload["count"]) == (text[:-1], count)
        elif "nodal" in command:
            assert payload["terms"] == text
        else:
            assert [payload["class"]] == text


def test_cli_unstable_pair_is_validation_failure(tmp_path, capsys):
    code, _ = run_cli(["graphs", "enumerate", "0", "2"])
    assert code == 1
    code, _ = run_cli(["graphs", "enumerate", "-1", "5"])
    assert code == 1
    for argv in (["strata", "special", "3", "0"], ["--json", "strata", "special", "4", "0"]):
        capsys.readouterr()
        assert run_cli(argv) == (1, "")
        assert "special types need a last marked point" in capsys.readouterr().err
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    for kind in ("free", "fixed"):
        code, out = run_cli(["--config", str(cfg), "reconstruct", kind, "-1", "5"])
        assert (code, out) == (1, "")


def test_cli_unreadable_config_is_validation_failure(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe\x00dim")
    for path in (missing, binary, tmp_path):
        capsys.readouterr()
        code, out = run_cli(["--config", str(path), "classify"])
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert repr(str(path)) in err
        assert "internal error" not in err


# sha256 of stdout for the cli bench's graph jobs, measured on the mask-loop
# enumeration that the orbit walk replaced
GRAPH_COMMAND_PINS = {
    "graphs enumerate 2 3": "b8e68295be3969668ad1d0bd386f4d307506a17a61c15fd20c019452e23277e9",
    "strata special 2 3": "fe18a37c150f17499587ce0cec3a73a558b79183e48d8a4edea9a50294e245a9",
    "graphs enumerate 3 1": "ff874ae822aa9ff46dbae61e690eeecba8b0c062b286bb1868c899caf1f4fde2",
    "strata special 3 1": "147dd297fb6ab4bada71f9bb5aa0a4bf90dec3d8d40b7179f326b34b9a40d696",
    "graphs enumerate 1 4": "ed9c16695b0a0a5bfb24424a44ebc3266e1097f9c146cd3aba62f831d2525216",
    "strata special 1 4": "ef6d49e6a0bbc9a49b81e32665c2fdc80ed1589954799f8b114e7faacef4bba2",
}


@pytest.mark.parametrize("command", list(GRAPH_COMMAND_PINS))
def test_cli_graph_commands_byte_identical(command):
    code, out = run_cli(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GRAPH_COMMAND_PINS[command]


def test_cli_psi_argument_errors(tmp_path, capsys):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    for psi, message in (("-1", "negative psi exponent"), ("a", "--psi")):
        capsys.readouterr()
        code, out = run_cli(["--config", str(cfg), "correlator", "1", "1", "--psi", psi])
        assert (code, out) == (1, "")
        assert message in capsys.readouterr().err


def test_cli_value_error_in_a_handler_is_internal(monkeypatch, capsys):
    # only CohftError and the algebra errors are validation failures; a bare
    # ValueError from inside the engine is a bug
    def broken(g, n):
        raise ValueError("bug")

    monkeypatch.setattr(graphs, "enumerate_stable_graphs", broken)
    code, _ = run_cli(["graphs", "enumerate", "1", "1"])
    assert code == 3
    assert "internal error: bug" in capsys.readouterr().err


def test_cli_spec_construction_error_is_validation_failure(tmp_path, monkeypatch, capsys):
    # CohFTSpec's own checks raise CohftError, so a library path that
    # reaches them exits 1, not 3
    def zero_degree(text):
        spec = parse_config(text)
        return CohFTSpec(spec.algebra, spec.ss, [], spec.r, 0)

    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    monkeypatch.setattr(config, "parse_config", zero_degree)
    code, _ = run_cli(["--config", str(cfg), "classify"])
    assert code == 1
    assert "validation failure: truncation degree must be >= 1" in capsys.readouterr().err


def test_cli_free_reconstruction_requires_coherence(tmp_path):
    rng = random.Random(3)
    bad = incoherent_spec(rng, 2, 3)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(serialize_config(bad))
    code, _ = run_cli(["--config", str(cfg), "reconstruct", "free", "1", "1"])
    assert code == 1
    code, _ = run_cli(["--config", str(cfg), "reconstruct", "fixed", "1", "1"])
    assert code == 0  # framed reconstruction never needs the relation


def test_cli_missing_structure_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("dim: 2\neta: 1 0 | 0 1\nunit: 1 1\nmul 1 1: 1 0\nmul 2 2: 0 1\n")
    assert any("mul 1 2" in msg for _, msg in exc.value.report)


@pytest.mark.parametrize("dim,vectors", [(1, "-1;2;1"), (2, "-1,0;1,1;1,1")])
def test_cli_vectors_may_start_with_a_minus(tmp_path, capsys, dim, vectors):
    # argparse takes a value that starts with '-' for an option; written
    # apart or joined by '=', --vectors gives the same output
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(serialize_config(coherent_spec(random.Random(dim), dim, 3)))
    for command in (["correlator", "0", "3"], ["reconstruct", "nodal", "0", "3"], ["reconstruct", "fixed", "0", "3"]):
        argv = ["--config", str(cfg)] + command
        joined = run_cli(argv + ["--vectors=" + vectors])
        assert run_cli(argv + ["--vectors", vectors]) == joined and joined[0] == 0, command
    # with no value after it, --vectors is still a usage error
    capsys.readouterr()
    assert run_cli(["--config", str(cfg), "correlator", "0", "3", "--vectors"]) == (1, "")
    assert "expected one argument" in capsys.readouterr().err


def _qh_p1_config(q):
    """QH(P^1) at H.H = q with R = Id: eta(1, H) = 1, projectors
    (1 -+ H / sqrt(q)) / 2 of norms -+1 / (2 sqrt(q))."""
    return (
        "dim: 2\neta: 0 1 | 1 0\nunit: 1 0\nmul 1 1: 1 0\nmul 1 2: 0 1\nmul 2 2: %d 0\n"
        "degree: 3\ncoherent: yes\n" % q
    )


@pytest.mark.parametrize("q", [1, 4])
def test_cli_quantum_cohomology_of_p1(tmp_path, q):
    # the norms are not all rational squares, so no weights line is printed;
    # the theory classifies, verifies and gives its correlators
    cfg = tmp_path / "p1.cfg"
    cfg.write_text(_qh_p1_config(q))
    base = ["--config", str(cfg)]
    assert run_cli(base + ["algebra", "check"]) == (0, "algebra ok: dim 2\nsemisimple: yes\n")
    code, out = run_cli(base + ["--json", "algebra", "check"])
    assert (code, json.loads(out)) == (0, {"dim": 2, "semisimple": True})
    code, out = run_cli(base + ["--json", "classify"])
    assert code == 0
    text = json.loads(out)["config"]
    assert "weights" not in text and "basis" not in text
    def data(s):
        alg = s.algebra
        return (alg.eta, alg.structure, alg.unit, s.ss.norms, s.ss.projectors, s.phi, s.r, s.degree, s.coherent)

    back = parse_config(text)
    assert data(back) == data(parse_config(_qh_p1_config(q)))
    assert serialize_config(back) == text
    code, out = run_cli(base + ["verify", "free"])
    assert code == 0 and "fail" not in out
    code, out = run_cli(base + ["oracle", "vertex-sum"])
    assert code == 0 and out.endswith("mismatches: 0\n")
    assert run_cli(base + ["correlator", "1", "1", "--psi", "1"]) == (0, "1/12\n")
    assert run_cli(base + ["correlator", "0", "3", "--vectors", "0,1;0,1;0,1"]) == (0, "%d\n" % q)


def test_cli_prints_a_stated_orthonormal_block_canonically(tmp_path):
    # the projectors (-4, -2) and (0, 2) of norms 4 and 1 are 1 * (0, 2) and
    # -2 * (2, 1) in the eta-orthonormal frame: algebra check prints those
    # weights, each row signed by its first nonzero entry and the rows
    # sorted, and the config states no frame
    alg = FrobeniusAlgebra.from_semisimple([4, 1], [[-4, -2], [0, 2]])
    r = random_symplectic_r(random.Random(5), alg, 3)
    text = serialize_config(CohFTSpec(alg, alg.semisimplify(), None, r, 3, coherent=True))
    assert "weights" not in text and "basis" not in text
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(text)
    base = ["--config", str(cfg)]
    assert run_cli(base + ["algebra", "check"]) == (0, "algebra ok: dim 2\nsemisimple: yes\nweights: 1 -2\n")
    code, out = run_cli(base + ["correlator", "1", "1", "--psi", "1"])
    assert code == 0 and out != "0\n"
    assert [run_cli(base + ["verify", kind])[0] for kind in ("free", "fixed")] == [0, 0]


def test_cli_correlator(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    code, out = run_cli(["--config", str(cfg), "correlator", "1", "1", "--psi", "1"])
    assert code == 0
    assert out.strip() == "1/24"
    code, out = run_cli(["--config", str(cfg), "correlator", "1", "1"])
    assert code == 0
    assert out.strip() == "1/4"


def test_cli_correlator_reads_and_writes_no_cache(tmp_path, monkeypatch):
    # correlator neither reads nor writes the cache file COHFT_CACHE_DIR
    # names: a wrong value there (psi 1 1 = 1/8, on the lattice) is never
    # printed, and no file is made
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    argv = ["--config", str(cfg), "correlator", "1", "1", "--psi", "1", "--dump-table"]
    monkeypatch.delenv("COHFT_CACHE_DIR", raising=False)
    without = run_cli(argv)
    assert without == (0, "1/24\npsi 1 1 = 1/24\n")
    stale = tmp_path / "stale"
    stale.mkdir()
    (stale / "correlators.txt").write_text("psi 1 1 = 1/8\n")
    for cache in (stale, tmp_path / "fresh"):
        monkeypatch.setenv("COHFT_CACHE_DIR", str(cache))
        assert run_cli(argv) == without
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.cfg", "stale"]
    assert [p.name for p in stale.iterdir()] == ["correlators.txt"]
    assert (stale / "correlators.txt").read_text() == "psi 1 1 = 1/8\n"


def test_cli_verify_pass_and_fail(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    code, out = run_cli(["--config", str(cfg), "verify", "free", "--max-dim", "2"])
    assert code == 0
    assert "forgetful: pass" in out

    rng = random.Random(1)
    bad = incoherent_spec(rng, 2, 3)
    badcfg = tmp_path / "bad.cfg"
    badcfg.write_text(serialize_config(bad))
    code, out = run_cli(["--config", str(badcfg), "verify", "free", "--max-dim", "2"])
    assert code == 2
    assert "forgetful: fail" in out


@pytest.mark.parametrize(
    "max_dim, skipped",
    [("0", ["symmetry", "sewing-nonseparating", "forgetful"]), ("1", ["sewing-nonseparating"])],
)
def test_cli_verify_names_the_axioms_it_skips(tmp_path, max_dim, skipped):
    # below --max-dim 2 some axioms have no case to check; each reads
    # skipped (null under --json), never pass
    config, _ = _readme_cli_examples()
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(config)
    code, out = run_cli(["--config", str(cfg), "verify", "free", "--max-dim", max_dim])
    assert code == 0
    lines = out.splitlines()
    assert lines == ["%s: %s" % (a, "skipped" if a in skipped else "pass") for a in AXIOMS]
    code, out = run_cli(["--json", "--config", str(cfg), "verify", "free", "--max-dim", max_dim])
    assert code == 0
    payload = json.loads(out)
    assert payload["axioms"] == {a: None if a in skipped else True for a in AXIOMS}
    assert payload["failures"] == []
    code, out = run_cli(["--config", str(cfg), "verify", "free", "--max-dim", "2"])
    assert "skipped" not in out


def test_cli_oracles(tmp_path):
    code, out = run_cli(["oracle", "graphs", "--max-dim", "2"])
    assert code == 0
    assert "mismatches: 0" in out
    code, out = run_cli(["oracle", "dvv"])
    assert code == 0
    assert "mismatches: 0" in out
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    code, out = run_cli(["--config", str(cfg), "oracle", "vertex-sum"])
    assert code == 0
    assert "mismatches: 0" in out
    code, out = run_cli(["oracle", "hodge", "--max-dim", "4"])
    assert code == 0
    assert out.count(" ok\n") == len(out.splitlines()) - 1
    assert out.endswith("mismatches: 0\n")


def test_cli_oracle_dvv_compares_nonzero_kappa_numbers():
    # each kappa multi-index row's parts fill the dimension 3g-3+n, so no
    # row compares 0 with 0
    code, out = run_cli(["oracle", "dvv"])
    rows = [line for line in out.splitlines() if line.startswith("kappa multi-index")]
    assert code == 0
    assert [row.split(": ")[1].split(" vs ")[0] for row in rows] == ["1", "1", "6", "1/24", "1/24", "1/6", "1/24", "7/24"]
    assert all(row.endswith(" ok") and ": 0 vs 0" not in row for row in rows)


@pytest.mark.parametrize("theory, rows, nonzero", [("readme", 49, 40), ("p1", 98, 54), ("p1 at 4", 98, 54)])
def test_cli_oracle_trr(tmp_path, capsys, theory, rows, nonzero):
    # one row per genus-0 and genus-1 TRR case at dims 1-3, each side a
    # correlator of the theory
    cfg = tmp_path / "spec.cfg"
    cfg.write_text({"readme": _readme_cli_examples()[0], "p1": _qh_p1_config(1), "p1 at 4": _qh_p1_config(4)}[theory])
    code, out = run_cli(["--config", str(cfg), "oracle", "trr"])
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == rows + 1 and lines[-1] == "mismatches: 0"
    assert all(line.startswith("genus ") and line.endswith(" ok") for line in lines[:-1])
    assert sum(": 0 vs 0 ok" not in line for line in lines[:-1]) == nonzero
    assert lines[0].startswith("genus 0 psi 1,0,0,0 at b1 ")
    code, json_out = run_cli(["--json", "--config", str(cfg), "oracle", "trr"])
    assert json.loads(json_out) == {"report": lines, "mismatches": 0}
    assert run_cli(["--config", str(cfg), "oracle", "trr", "--max-dim", "0"]) == (1, "")
    assert "no case below --max-dim 1" in capsys.readouterr().err


def test_cli_oracle_trr_sees_a_doubled_kernel(tmp_path, monkeypatch):
    # the recursion ties correlators with different edge counts together,
    # so doubling the degree-0 kernel entries breaks rows of it
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(serialize_config(coherent_spec(random.Random(1), 2, 3)))
    spec = parse_config(cfg.read_text())
    assert run_cli(["--config", str(cfg), "oracle", "trr", "--max-dim", "2"])[0] == 0
    kernel = spec.kernel_ss()
    for key, entries in kernel.items():
        kernel[key] = [(a, b, 2 * c if a + b == 0 else c) for a, b, c in entries]
    monkeypatch.setattr(cli, "_load_spec", lambda args: spec)
    code, out = run_cli(["--config", str(cfg), "oracle", "trr", "--max-dim", "2"])
    assert code == 2
    assert out.count(" MISMATCH\n") == int(out.splitlines()[-1].split()[1]) > 0


@pytest.mark.parametrize("value", ["0", "3", "5"])
def test_cli_vertex_sum_takes_no_max_dim(tmp_path, capsys, value):
    # the vertex-sum oracle has one fixed size, so a --max-dim would be ignored
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    code, out = run_cli(["--config", str(cfg), "oracle", "vertex-sum", "--max-dim", value])
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err == "validation failure: oracle vertex-sum has a fixed size and takes no --max-dim\n"


@pytest.mark.parametrize("value", ["-1", "-7", "x"])
def test_cli_max_dim_must_be_non_negative(tmp_path, capsys, value):
    # a negative dimension compares nothing, so it must not pass as a check
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    for argv in (["--config", str(cfg), "verify", "free"], ["oracle", "graphs"], ["oracle", "hodge"]):
        code, out = run_cli(argv + ["--max-dim", value])
        assert (code, out) == (1, ""), argv
        assert "expected a non-negative integer, got %r" % value in capsys.readouterr().err


def test_cli_repeated_runs_byte_identical(tmp_path):
    scalar = tmp_path / "scalar.cfg"
    scalar.write_text(SCALAR_CFG)
    dim2 = tmp_path / "dim2.cfg"
    dim2.write_text(serialize_config(coherent_spec(random.Random(2), 2, 3)))
    for cfg, g, n in [(scalar, "1", "1"), (dim2, "1", "2")]:
        runs = {run_cli(["--config", str(cfg), "reconstruct", "nodal", g, n]) for _ in range(3)}
        assert len(runs) == 1
        assert next(iter(runs))[0] == 0


class _PerThreadStdout:
    """A stdout that writes to the calling thread's own buffer."""

    def __init__(self):
        self.local = threading.local()

    def write(self, text):
        return self.local.buf.write(text)

    def flush(self):
        pass


def test_cli_deterministic_across_threads(tmp_path):
    # the memo table main shares between runs (enumerated graphs) only
    # ever holds finished values, so runs on four threads at once print
    # what a run on the main thread prints
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(serialize_config(coherent_spec(random.Random(2), 2, 3)))
    argv = ["--config", str(cfg), "reconstruct", "nodal", "1", "2"]
    serial = run_cli(argv)
    assert serial[0] == 0
    stdout = _PerThreadStdout()
    results = [None] * 4

    def run(i):
        stdout.local.buf = io.StringIO()
        code = main(argv)
        results[i] = (code, stdout.local.buf.getvalue())

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    with redirect_stdout(stdout):
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    assert results == [serial] * 4


def test_cli_usage_errors_exit_1(capsys):
    # 2 is the identity-check failure code, so argparse's own exit status 2
    # is not passed on
    for argv in (
        ["graphs", "enumerate", "x", "1"],
        ["--threads", "2", "graphs", "enumerate", "1", "1"],
        ["graphs", "enumerate", "1", "1", "--bogus"],
        [],
    ):
        code, out = run_cli(argv)
        assert code == 1, argv
        assert out == ""
        assert capsys.readouterr().err.startswith("usage: cohft"), argv
    code, out = run_cli(["--help"])
    assert code == 0
    assert out.startswith("usage: cohft")
    code, out = run_cli(["graphs", "--help"])
    assert code == 0
    assert out.startswith("usage: cohft graphs")


README = Path(__file__).resolve().parent.parent / "README.md"

# sha256 of the stdout of each `cohft ...` line in the README's CLI block,
# run on the README's scalar config, as the earlier engine printed it
README_PINS = {
    "graphs enumerate 1 1": "c40a2bed98d32cc50a8b3f39280761dabfb6e91128b53a25d5ca864781e8deee",
    "strata special 1 2": "86c5bd98c350540f7db96c0e0b28245878ebfb9b6bd4833b3f5d4aaeff06c1d1",
    "--config spec.cfg algebra check": "fe7e9a55b9263fa50d9d7ba3bc2120578f50eeb7e12ac47a8c3a4473da6c53e0",
    "--config spec.cfg classify": "7e1e8563e5ddaec5ae47ca957cbda57fc8f65c257e94097c26836f366a40a7d1",
    "--config spec.cfg reconstruct free 1 1": "93a397b9f1df4e19118eab83d237a6acad29ea89c0a28aac0476f4b0ce53be19",
    "--config spec.cfg reconstruct nodal 1 2": "76647efdd8697a287429c8211c5bd8105a5f52a560604d71306e4ff631812771",
    "--config spec.cfg verify free --max-dim 2": "ed9dc072a2859a23823e9fb25119a70bfddfd882eaf58d2a969c6c3ec100a829",
    "--config spec.cfg correlator 1 1 --psi 1": "fb2743bec153bc6094fb21d0ce07d780c228581dc696d5832809baff35ccc266",
    "oracle graphs": "11777c93d5e2ea228eee8e9651c9bd73d5b41de366136904992d8ee9c54413f2",
    "oracle dvv": "546e7027af2db88175a5ac203051192ba92900bf352e55584be488960d0b7648",
    "--config spec.cfg oracle vertex-sum": "0a045a240205620a977a0c6c82cbc1e4379f86024f1a623120a2e6dfdce16ddb",
    "oracle hodge": "325d201e1417bf43657abbe9c9f6ede1d44a168f86b3b045fea43806890406ed",
    "--config spec.cfg oracle trr": "fdd34e738499cf9c590abb75f7acdaaedc9fa550d0d43e0dfa151c3b4b4bd7fa",
}


def _readme_cli_examples():
    """The README's scalar config and its `cohft ...` lines, comments cut."""
    blocks = re.findall(r"```(\w*)\n(.*?)```", README.read_text(), re.S)
    config = next(body for _, body in blocks if body.startswith("dim:"))
    commands = [
        " ".join(line.split("#")[0].split()[1:])
        for lang, body in blocks
        if lang == "sh"
        for line in body.splitlines()
        if line.startswith("cohft ")
    ]
    return config, commands


def test_readme_cli_examples_byte_identical(tmp_path):
    # all in one process, forward and then reversed: each command starts
    # from an empty memo table, so what ran before it changes nothing
    config, commands = _readme_cli_examples()
    assert commands == list(README_PINS)
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(config)
    for command in commands + commands[::-1]:
        argv = [str(cfg) if tok == "spec.cfg" else tok for tok in command.split()]
        code, out = run_cli(argv)
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == README_PINS[command], command


def test_readme_library_example_runs():
    # the README's `python` block, as written: it holds its own Correlators
    blocks = re.findall(r"```(\w*)\n(.*?)```", README.read_text(), re.S)
    (code,) = [body for lang, body in blocks if lang == "python"]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["value"] == F(1, 12)


def test_cli_dump_table_does_not_depend_on_earlier_runs(tmp_path):
    # the table is the memo of this one command, not of the process
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(SCALAR_CFG)
    argv = ["--config", str(cfg), "correlator", "1", "1", "--psi", "1", "--dump-table"]
    first = run_cli(argv)
    assert first == (0, "1/24\npsi 1 1 = 1/24\n")
    assert run_cli(["--config", str(cfg), "correlator", "0", "5", "--psi", "2,0,0,0,0"])[0] == 0
    assert run_cli(argv) == first


def test_every_bench_tracer_target_resolves():
    # bench/tracer.py's install() reads a method from its class's own
    # __dict__ and a function from its module, so a rename of a target
    # would break `--trace 1` silently
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, module, attr, _, _ in tracer.TARGETS:
        mod = importlib.import_module("cohft." + module)
        if "." in attr:
            cls_name, name = attr.split(".")
            assert name in vars(getattr(mod, cls_name)), attr
        else:
            assert callable(getattr(mod, attr, None)), attr


def test_bench_tracer_installs_on_every_target():
    # install() itself: a method is cls.__dict__[meth] (a traced method that
    # moves to a shared class raises KeyError here), anything else the module
    # attribute; every target is replaced, and uninstall puts each back
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer_install", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def current():
        out = {}
        for _, module, attr, _, _ in tracer.TARGETS:
            mod = importlib.import_module("cohft." + module)
            if "." in attr:
                cls_name, name = attr.split(".")
                out[attr] = vars(getattr(mod, cls_name))[name]
            else:
                out[attr] = getattr(mod, attr)
        return out

    before = current()
    uninstall = tracer.install(tracer.Tracer())
    try:
        during = current()
    finally:
        uninstall()
    assert [a for a in before if during[a] is before[a]] == []
    assert current() == before
