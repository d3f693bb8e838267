"""One digest of what the CLI prints on a fixed set of seeded theories.

The configs are drawn with this tree's own sampling and written with its
own serialize_config: seeds 0-7, dims 1-3, coherent and incoherent.  Each
config is run through cli.main in-process, in text and in --json, on
algebra check, classify, verify fixed|free (and --max-dim 3 at dim 3),
reconstruct fixed|free|nodal, correlator at (1,1), (0,4) and (1,2), and
oracle vertex-sum.  The script prints the number of runs and one sha256
over each run's argv, exit code, stdout and stderr, so two trees that print
the same on every run give the same line.

    python3 tools/cli_digest.py
"""

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cohft import cli  # noqa: E402
from cohft.config import serialize_config  # noqa: E402
from cohft.linalg import frac_str  # noqa: E402
from cohft.sampling import coherent_spec, incoherent_spec, random_vector  # noqa: E402

SEEDS = range(8)
DIMS = (1, 2, 3)
DEGREE = 3
CORRELATORS = [((1, 1), "1"), ((0, 4), "1,0,0,0"), ((1, 2), "1,1")]


def configs():
    """(name, config text, dim, rng for the vectors) in a fixed order."""
    for seed in SEEDS:
        for dim in DIMS:
            for coherent, make in ((True, coherent_spec), (False, incoherent_spec)):
                rng = random.Random("cli-digest:%d:%d:%s" % (seed, dim, coherent))
                text = serialize_config(make(rng, dim, DEGREE))
                name = "s%d-d%d-%s" % (seed, dim, "coh" if coherent else "inc")
                yield name, text, dim, rng


def vectors_arg(rng, dim, n):
    vs = [random_vector(rng, dim) for _ in range(n)]
    return "--vectors=" + ";".join(",".join(frac_str(x) for x in v) for v in vs)


def commands(dim, rng):
    out = [["algebra", "check"], ["classify"]]
    for kind in ("fixed", "free"):
        out.append(["verify", kind])
        if dim == 3:
            out.append(["verify", kind, "--max-dim", "3"])
    for kind in ("fixed", "free", "nodal"):
        out.append(["reconstruct", kind, "1", "2", vectors_arg(rng, dim, 2)])
    for (g, n), psi in CORRELATORS:
        out.append(["correlator", str(g), str(n), "--psi", psi, vectors_arg(rng, dim, n)])
    out.append(["oracle", "vertex-sum"])
    return out


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main():
    digest = hashlib.sha256()
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.cfg")
        for name, text, dim, rng in configs():
            with open(path, "w") as fh:
                fh.write(text)
            for args in commands(dim, rng):
                for json_flag in ([], ["--json"]):
                    argv = json_flag + ["--config", path] + args
                    code, out, err = run(argv)
                    record = "\0".join([name, " ".join(json_flag + args), str(code), out, err])
                    digest.update(record.encode() + b"\1")
                    runs += 1
    print("runs: %d" % runs)
    print("digest: %s" % digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
