"""The benchmark workloads.

Each workload builds a fixed job list from the seed during set-up, as
rounds of a fixed class composition (the seed draws the configs, vectors,
exponents and job order, never the classes), so every seed does comparable
work.  A run makes whole passes over the list, so every run of a workload
has the same mix of jobs.  run() is the timed call: it
receives a config text or an argument list and returns the program's
output.  check() runs outside the timed span, uses an independent path
wherever one exists, and returns {check name: passed} for every check that
applies to the job; with `corrupt` set to a check name, that check's
expected value alone is perturbed.  canon() is the text whose digest is pinned for the
default seed.

The compositions are chosen so that job_p50_s sits inside one job class
rather than on the boundary between two, and the 11th-largest latency of a
run (job_tail_s) inside the heaviest class that has enough jobs.
"""

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

from cohft import cli, config, givental, graphs, intersect, sampling, taut
from cohft.linalg import frac_str

import tracer as tracing


def config_text(rng, dim, degree):
    """A coherent spec as a hand-written file would give it: without the
    weights, basis and phi lines, so the splitting and the coherent phi are
    recomputed when it is parsed.

    R is generic: every entry of every coefficient R_1..R_degree is nonzero.
    With the sampler's defaults a seed may draw R = Id, or a nearly empty R,
    and one job of a class then costs 30 times less than the next, which
    swamps a run's figures.
    """
    algebra, _, _ = sampling.random_semisimple_algebra(rng, dim)
    ss = algebra.semisimplify()
    for _ in range(100):
        r = sampling.random_symplectic_r(rng, algebra, degree, sparsity=1)
        if all(x != 0 for k in range(1, degree + 1) for row in r.coeffs[k] for x in row):
            break
    phi = givental.coherent_phi(algebra, ss, r, degree)
    spec = givental.CohFTSpec(algebra, ss, phi, r, degree, coherent=True)
    lines = config.serialize_config(spec).splitlines()
    keep = [ln for ln in lines if not ln.startswith(("weights:", "basis:", "phi "))]
    return "\n".join(keep) + "\n"


def generic_vector(rng, dim):
    """A vector with no zero coordinate."""
    while True:
        v = sampling.random_vector(rng, dim)
        if all(v):
            return v


def spread(rng, total, n):
    """n nonnegative integers summing to total."""
    out = [0] * n
    for _ in range(total):
        out[rng.randrange(n)] += 1
    return tuple(out)


def render_vectors(vectors):
    return ";".join(" ".join(frac_str(x) for x in v) for v in vectors)


class Workload:
    name = None
    checks = ()  # names of the output checks; --corrupt perturbs one of them
    rounds = 1  # rounds in the job list: a pass takes 5-10 s on 2 cores

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir

    def job_list(self, seed, rounds=None):
        """The first `rounds` rounds (all by default) of the seed's list."""
        rng = random.Random("%s:%d" % (self.name, seed))
        jobs = []
        for index in range(self.rounds if rounds is None else min(rounds, self.rounds)):
            jobs.extend(self.make_round(rng, index))
        return jobs

    def prepare(self, jobs):
        """Warm-up and reference outputs; part of set-up."""

    def reset(self):
        """Called before each pass over the job list."""

    def finish(self):
        """Remove the files set-up and the run wrote."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    def label(self, job):
        return " ".join("%s=%s" % (k, v) for k, v in job.items() if k != "text")

    def memo_lines(self, output):
        """Lines of the job's correlator memo, or None when it owns none."""
        return None

    def cache_file_bytes(self):
        return 0


# -- nodal: the decorated graph sum ------------------------------------------

# (kind, g, n, dim).  The median job falls in the nine-strong (1,2) dim-1
# class, whose cost hardly depends on the seed, with nine cheaper jobs
# below it; the 11th-largest of a pass falls among the middle-sized jobs.
NODAL_ROUND = (
    [("r_action", 1, 1, 1)] * 5
    + [("r_action", 0, 4, 1)] * 4
    + [("r_action", 1, 2, 1)] * 9
    + [
        ("r_action", 1, 1, 3),
        ("correlator", 0, 4, 2),
        ("correlator", 0, 4, 3),
        ("correlator", 1, 2, 2),
        ("r_action", 1, 2, 3),
        ("r_action", 2, 1, 3),
        ("correlator", 2, 1, 3),
        ("r_action", 0, 5, 3),
        ("correlator", 0, 5, 3),
        ("r_action", 1, 3, 3),
        ("correlator", 1, 3, 2),
        ("r_action", 1, 4, 1),
        ("r_action", 2, 2, 1),
    ]
)


class Nodal(Workload):
    name = "nodal"
    checks = ("smooth", "reintegrate")
    rounds = 2

    def make_round(self, rng, index):
        jobs = []
        for kind, g, n, dim in NODAL_ROUND:
            d = 3 * g - 3 + n
            job = {
                "kind": kind,
                "g": g,
                "n": n,
                "text": config_text(rng, dim, d),
                "vectors": [generic_vector(rng, dim) for _ in range(n)],
            }
            if kind == "correlator":
                job["psi"] = spread(rng, rng.randrange(d + 1), n)
            jobs.append(job)
        rng.shuffle(jobs)
        return jobs

    def prepare(self, jobs):
        for g, n in sorted({(j["g"], j["n"]) for j in jobs}):
            graphs.enumerate_stable_graphs(g, n)

    def run(self, job, tracer):
        spec = config.parse_config(job["text"])
        g, n, vectors = job["g"], job["n"], job["vectors"]
        if job["kind"] == "r_action":
            return spec, givental.r_action(spec, g, n, vectors)
        backend = intersect.Correlators()
        value = intersect.correlator_of_theory(spec, g, n, vectors, job["psi"], backend)
        return spec, value, backend

    def check(self, job, output, corrupt):
        spec = output[0]
        g, n, vectors = job["g"], job["n"], job["vectors"]
        if job["kind"] == "r_action":
            expr = output[1]
        else:
            expr = givental.r_action(spec, g, n, vectors)
        want = givental.reconstruct_free(spec, g, n, vectors)
        if corrupt == "smooth":
            want = want + taut.KPPoly.constant(n, want.cap, 1)
        results = {"smooth": givental.restrict_to_smooth(expr) == want}
        if job["kind"] == "correlator":
            want = _integrate(expr, job["psi"], intersect.Correlators())
            if corrupt == "reintegrate":
                want += 1
            results["reintegrate"] = output[1] == want
        return results

    def canon(self, job, output):
        if job["kind"] == "r_action":
            return "\n".join(output[1].render_lines())
        return frac_str(output[1])

    def memo_lines(self, output):
        return len(output[2].dump().splitlines()) if len(output) == 3 else None


def _integrate(expr, psi, backend):
    """The correlator as the benchmark computes it from the class: shift the
    leg psi powers, keep the top-degree terms, and take the product of the
    vertex intersection numbers."""
    top = 3 * expr.g - 3 + expr.n
    total = Fraction(0)
    for key, coeff in expr.terms.items():
        legs = tuple(a + b for a, b in zip(key.leg_psi, psi))
        if key.degree() + sum(psi) != top:
            continue
        graph = key.graph
        value = coeff
        for v in range(graph.num_vertices):
            exps = []
            for half in graph.half_edges(v):
                if half[0] == "leg":
                    exps.append(legs[half[1] - 1])
                else:
                    exps.append(key.edge_psi[half[1]][half[2]])
            value *= backend.kappa_psi_correlator(graph.genera[v], tuple(exps), key.vertex_kappa[v])
        total += value
    return total


# -- intersect: DVV recursion and kappa reduction ----------------------------

# Deterministic deep <tau_{3g-2}>_g queries carry most of the time and
# pin the order statistics: the median job is one of eight g-8 queries, the
# 11th-largest of a pass one of twelve g-10 ones (g 11 only in the first
# round).  Seeded multi-point psi numbers (g 3-7, n <= 8) and kappa
# monomials (g 3-5) come as six small queries and two larger ones per round,
# and two genus-0 multi-point numbers per round give the genus-0 check
# memo entries to test: the recursion from a higher genus never reaches
# genus 0.
INTERSECT_EXTRA = ("deep", 11, None)
INTERSECT_ROUND = (
    [("deep", 10, None)] * 6
    + [("deep", 9, None)]
    + [("deep", 8, None)] * 8
    + [
        ("multi", 0, 7),
        ("multi", 0, 8),
        ("multi", 3, 6),
        ("multi", 4, 4),
        ("multi", 5, 3),
        ("kappa", 3, 1),
        ("kappa", 3, 2),
        ("kappa", 4, 1),
        ("multi", 7, 3),
        ("kappa", 5, 2),
    ]
)


class Intersect(Workload):
    name = "intersect"
    checks = ("closed_form", "pushforward", "genus0", "string_dilaton")
    rounds = 2

    def make_round(self, rng, index):
        jobs = []
        for kind, g, n in INTERSECT_ROUND + ([INTERSECT_EXTRA] if index == 0 else []):
            if kind == "deep":
                jobs.append({"kind": kind, "g": g, "exps": (3 * g - 2,)})
            elif kind == "multi":
                jobs.append({"kind": kind, "g": g, "exps": spread(rng, 3 * g - 3 + n, n)})
            else:
                # two to four kappa factors, the rest of the degree on psi
                d = 3 * g - 3 + n
                m = rng.randrange(2, 5)
                kdeg = rng.randrange(m, d + 1)
                parts = tuple(sorted(1 + x for x in spread(rng, kdeg - m, m)))
                jobs.append({"kind": kind, "g": g, "exps": spread(rng, d - kdeg, n), "parts": parts})
        rng.shuffle(jobs)
        return jobs

    def run(self, job, tracer):
        backend = intersect.Correlators()
        if job["kind"] == "kappa":
            return backend.kappa_psi_correlator(job["g"], job["exps"], job["parts"]), backend
        return backend.psi_correlator(job["g"], job["exps"]), backend

    def check(self, job, output, corrupt):
        value, backend = output
        g, exps = job["g"], job["exps"]
        results = {}
        if job["kind"] == "deep":
            want = Fraction(1, 24**g * factorial(g))
            results["closed_form"] = value == want + (corrupt == "closed_form")
        if job["kind"] == "kappa":
            # kappa_{multi-index} = pushforward of psi^{k_i + 1} at new points
            d = 3 * g - 3 + len(exps)
            multi = taut.kappa_multi_index(job["parts"], d)
            via_kappa = sum(
                (
                    c * (value if key == job["parts"] else backend.kappa_psi_correlator(g, exps, key))
                    for key, c in multi.terms.items()
                ),
                Fraction(0),
            )
            pushed = backend.psi_correlator(g, exps + tuple(p + 1 for p in job["parts"]))
            results["pushforward"] = via_kappa == pushed + (corrupt == "pushforward")
        # every memoized genus-0 number against (n-3)!/prod a_i!
        genus0 = []
        for line in backend.dump().splitlines():
            head, _, val = line.partition(" = ")
            parts = head.split()
            if parts[0] == "psi" and parts[1] == "0":
                a = [int(x) for x in parts[2].split(",")]
                want = Fraction(factorial(len(a) - 3))
                for x in a:
                    want /= factorial(x)
                genus0.append(Fraction(val) == want + (corrupt == "genus0"))
        if genus0:
            results["genus0"] = all(genus0)
        if corrupt == "string_dilaton":
            _corrupt_memo(backend)
        results["string_dilaton"] = backend.check_string_dilaton() == []
        return results

    def canon(self, job, output):
        return frac_str(output[0])

    def memo_lines(self, output):
        return len(output[1].dump().splitlines())


def _corrupt_memo(backend):
    """Store one wrong value that check_string_dilaton reads: the entry
    <exps, tau_0>_g of the first memoized <exps>_g.  Its string-equation
    check compares that entry with a sum of n-point values, whose
    recursion never reaches an (n+1)-point entry of the same genus."""
    head = backend.dump().splitlines()[0].partition(" = ")[0].split()
    g, exps = int(head[1]), tuple(int(x) for x in head[2].split(","))
    value = backend.psi_correlator(g, exps + (0,))
    backend.load("psi %d %s = %s" % (g, ",".join(map(str, exps + (0,))), frac_str(value + 1)))


# -- cli: one subprocess per job ---------------------------------------------

CLI_GRAPHS = [("graphs", 2, 3), ("graphs", 3, 1), ("graphs", 1, 4), ("strata", 2, 2)]


class Cli(Workload):
    name = "cli"
    checks = ("exit_code", "stdout")
    rounds = 3

    def make_round(self, rng, index):
        os.makedirs(self.workdir, exist_ok=True)
        jobs = []
        for kind, g, n in CLI_GRAPHS:
            action = "enumerate" if kind == "graphs" else "special"
            jobs.append({"argv": [kind, action, str(g), str(n)]})

        def write_config(tag, dim, degree):
            path = os.path.join(self.workdir, "%s-%d.cfg" % (tag, index))
            with open(path, "w") as fh:
                fh.write(config_text(rng, dim, degree))
            return os.path.relpath(path, self.root)

        path = write_config("nodal", 2, 3)
        vectors = render_vectors([generic_vector(rng, 2) for _ in range(3)])
        jobs.append({"argv": ["--config", path, "reconstruct", "nodal", "1", "3", "--vectors", vectors]})
        # degree 3: at degree 5 a verify job costs five cli jobs, and the
        # run fits fewer passes (and set-up samples) over the list
        path = write_config("verify", 2, 3)
        mode = "fixed" if index % 2 else "free"
        jobs.append({"argv": ["--config", path, "verify", mode, "--max-dim", "2"]})
        for tag, g, n, dim in [("corr1", 2, 1, 2), ("corr2", 1, 3, 2)]:
            d = 3 * g - 3 + n
            path = write_config(tag, dim, d)
            vectors = render_vectors([generic_vector(rng, dim) for _ in range(n)])
            psi = ",".join(map(str, spread(rng, rng.randrange(d + 1), n)))
            argv = ["--config", path, "correlator", str(g), str(n), "--psi", psi, "--vectors", vectors]
            jobs.append({"argv": argv, "cache": True})
        rng.shuffle(jobs)
        return jobs

    def prepare(self, jobs):
        # the reference: cohft.cli.main in this process, with no cache file
        os.environ.pop("COHFT_CACHE_DIR", None)
        self.reference = {}
        for job in jobs:
            if tuple(job["argv"]) in self.reference:
                continue
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(job["argv"])
            if code != 0:
                raise RuntimeError("reference run failed: %s" % " ".join(job["argv"]))
            self.reference[tuple(job["argv"])] = buf.getvalue().encode()
        self.cache_dir = os.path.join(self.workdir, "cache")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.cache_env = dict(self.env, COHFT_CACHE_DIR=self.cache_dir)
        self.trace_file = os.path.join(self.workdir, "child-trace.json")

    def reset(self):
        # each pass starts without a cache file; its correlator jobs then
        # read and rewrite the file the earlier ones wrote
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def label(self, job):
        return "cohft " + " ".join(job["argv"])

    def run(self, job, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "cohft.cli"]
        else:
            child = os.path.join(self.root, "bench", "cli_child.py")
            cmd = [sys.executable, child, self.trace_file]
        env = self.cache_env if job.get("cache") else self.env
        start = time.perf_counter()
        proc = subprocess.run(
            cmd + job["argv"], env=env, cwd=self.root, capture_output=True, timeout=170
        )
        wall = time.perf_counter() - start
        if tracer is not None:
            with open(self.trace_file) as fh:
                data = json.load(fh)
            tracer.merge(data)
            # the parent's job span covered the whole child; keep only the
            # part no child span covers, as interpreter start and import
            child = data["root_s"]
            tracer.self_s[tracing.JOB] = tracer.self_s.get(tracing.JOB, 0.0) - wall
            tracer.add_self(tracing.STARTUP, wall - child)
            tracer.add("cli.process_s", wall)
        return proc.returncode, proc.stdout

    def check(self, job, output, corrupt):
        code, stdout = output
        want = self.reference[tuple(job["argv"])] + (b"corrupt" if corrupt == "stdout" else b"")
        return {"exit_code": code == (1 if corrupt == "exit_code" else 0), "stdout": stdout == want}

    def canon(self, job, output):
        return output[1].decode()

    def cache_file_bytes(self):
        path = os.path.join(self.cache_dir, "correlators.txt")
        return os.path.getsize(path) if os.path.exists(path) else 0


WORKLOADS = {w.name: w for w in (Nodal, Intersect, Cli)}
