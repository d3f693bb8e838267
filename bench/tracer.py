"""Spans and counters around the calls into each cohft layer.

The wrappers live here, in the benchmark, not in the program: install()
replaces each target below in its class, or in every loaded cohft module
that holds the original function (so `givental.enumerate_stable_graphs`,
`cli.r_action` and `cohft.r_action` are all covered).  A wrapper records
nothing unless a job span is open, so set-up and output checks stay out of
the trace.

Three kinds of target:
  span   each call is kept as (name, start, end, parent, job id)
  timed  count and self time only; these are hot leaf constructors and
         operators, called up to millions of times, whose spans would not
         fit in memory
  count  call count only

A call that re-enters a target already active on the stack (the recursive
psi_correlator and kappa_psi_correlator) is counted but opens no span, so
each query records one outer span.  Self time is a span's duration minus
the time its child spans cover.
"""

import importlib
import json
import sys
import time

# (layer, module, attribute path, metric prefix, kind)
TARGETS = [
    ("frobenius", "frobenius", "FrobeniusAlgebra.semisimplify", "frobenius.semisimplify", "span"),
    ("frobenius", "frobenius", "FrobeniusAlgebra.multiply", "frobenius.multiply", "count"),
    ("series", "series", "EndSeries.invert", "series.invert", "span"),
    ("series", "series", "edge_kernel", "series.edge_kernel", "span"),
    ("config", "config", "parse_config", "config.parse_config", "span"),
    ("kappa", "kappa", "exp_conv", "kappa.exp_conv", "span"),
    ("kappa", "kappa", "KappaPoly.__init__", "kappa.KappaPoly.init", "count"),
    ("kappa", "kappa", "KappaPoly.__mul__", "kappa.KappaPoly.mul", "count"),
    ("graphs", "graphs", "enumerate_stable_graphs", "graphs.enumerate", "span"),
    ("graphs", "graphs", "special_order", "graphs.special_order", "span"),
    ("givental", "givental", "CohFTSpec.__init__", "givental.spec_init", "span"),
    ("givental", "givental", "coherent_phi", "givental.coherent_phi", "span"),
    ("givental", "givental", "r_action", "givental.r_action", "span"),
    ("givental", "givental", "graph_contribution", "givental.graph_contribution", "span"),
    ("givental", "givental", "reconstruct_free", "givental.reconstruct_free", "span"),
    ("givental", "givental", "reconstruct_fixed", "givental.reconstruct_fixed", "span"),
    ("givental", "givental", "verify_axioms", "givental.verify_axioms", "span"),
    ("taut", "taut", "DecoratedGraph.__init__", "taut.DecoratedGraph", "timed"),
    ("taut", "taut", "TautExpr.__add__", "taut.TautExpr.add", "timed"),
    ("taut", "taut", "KPPoly.__init__", "taut.KPPoly.init", "timed"),
    ("taut", "taut", "KPPoly.__add__", "taut.KPPoly.add", "timed"),
    ("taut", "taut", "KPPoly.__mul__", "taut.KPPoly.mul", "timed"),
    ("intersect", "intersect", "Correlators.psi_correlator", "intersect.psi_correlator", "span"),
    ("intersect", "intersect", "Correlators.kappa_psi_correlator", "intersect.kappa_psi_correlator", "span"),
    ("intersect", "intersect", "integrate_taut", "intersect.integrate_taut", "span"),
    ("intersect", "intersect", "Correlators.load_from", "intersect.load_from", "span"),
    ("intersect", "intersect", "Correlators.save_to", "intersect.save_to", "span"),
    ("cli", "cli", "main", "cli.main", "span"),
]

JOB = "job"
# a cli job's wall time outside the child's job span: interpreter start,
# imports and the wrapper installation
STARTUP = "cli.startup"
LAYERS = ["frobenius", "series", "config", "kappa", "graphs", "givental", "taut", "intersect", "cli", "startup"]
LAYER_OF = {prefix: layer for layer, _, _, prefix, _ in TARGETS}
LAYER_OF[STARTUP] = "startup"


def _graphs_out(tracer, args, result):
    graphs = result[0] if isinstance(result, tuple) else result
    tracer.add("graphs.enumerate.graphs_out", len(graphs))
    tracer.keys.add((args[0], args[1]))


def _terms_out(tracer, args, result):
    tracer.add("givental.graph_contribution.terms_out", len(result.terms))


# extra work counters read off a call's arguments and result
POST = {
    "graphs.enumerate": _graphs_out,
    "givental.graph_contribution": _terms_out,
}


class Tracer:
    def __init__(self):
        self.on = False
        self.job_id = None
        self.spans = []  # (name, start, end, parent index or -1, job id)
        self.calls = {}  # prefix -> all calls
        self.outer = {}  # prefix -> calls that were not re-entrant
        self.self_s = {}  # prefix -> self time, JOB included
        self.counters = {}
        self.keys = set()  # distinct (g, n) asked of enumerate_stable_graphs
        self._active = {}
        # frames: [name, start, child time, own or nearest kept span index,
        #          parent kept span index, kept]
        self._stack = []

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def add_self(self, name, seconds):
        self.self_s[name] = self.self_s.get(name, 0.0) + seconds

    def _enter(self, name, keep):
        parent = self._stack[-1][3] if self._stack else -1
        index = parent
        if keep:
            index = len(self.spans)
            self.spans.append(None)
        self._stack.append([name, time.perf_counter(), 0.0, index, parent, keep])

    def _exit(self):
        end = time.perf_counter()
        name, start, child, index, parent, keep = self._stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if keep:
            self.spans[index] = (name, start, end, parent, self.job_id)
        return duration

    def start_job(self, job_id):
        self.job_id = job_id
        self._enter(JOB, True)
        self.on = True

    def end_job(self):
        self.on = False
        return self._exit()

    def wrap(self, fn, name, kind):
        post = POST.get(name)
        tracer = self
        active = self._active
        active[name] = 0
        calls = self.calls
        outer = self.outer

        if kind == "count":

            def counted(*args, **kwargs):
                if tracer.on:
                    calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted

        keep = kind == "span"

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            calls[name] = calls.get(name, 0) + 1
            if active[name]:
                return fn(*args, **kwargs)
            outer[name] = outer.get(name, 0) + 1
            active[name] = 1
            tracer._enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
                active[name] = 0
            if post is not None:
                post(tracer, args, result)
            return result

        return traced

    # -- export and merge (the cli child writes, the parent merges) ----------

    def export(self):
        return {
            "spans": self.spans,
            "calls": self.calls,
            "outer": self.outer,
            "self_s": self.self_s,
            "counters": self.counters,
            "keys": sorted(self.keys),
        }

    def merge(self, data):
        """Add a child process's trace to the job that is open here."""
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            parent = base + parent if parent >= 0 else self._stack[-1][3]
            self.spans.append((name, start, end, parent, self.job_id))
        for field in ("calls", "outer", "self_s", "counters"):
            mine = getattr(self, field)
            for k, v in data[field].items():
                mine[k] = mine.get(k, 0) + v
        self.keys.update(tuple(k) for k in data["keys"])

    def write(self, path, root_s=None):
        data = self.export()
        data["root_s"] = root_s
        with open(path, "w") as fh:
            json.dump(data, fh)


def install(tracer):
    """Replace every target with its wrapper; returns a function that puts
    the originals back."""
    replaced = []  # (namespace, name, original)
    for _, module, attr, prefix, kind in TARGETS:
        mod = importlib.import_module("cohft." + module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(original, prefix, kind))
            replaced.append((cls, meth, original))
            continue
        original = getattr(mod, attr)
        wrapper = tracer.wrap(original, prefix, kind)
        for name, loaded in list(sys.modules.items()):
            if name == "cohft" or name.startswith("cohft."):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)
                        replaced.append((loaded, key, original))

    def uninstall():
        for namespace, name, original in replaced:
            setattr(namespace, name, original)

    return uninstall


def layer_metrics(tracer, jobs, job_time):
    """Per-layer metrics, per job, from a finished traced pass.

    jobs is the number of traced jobs and job_time their summed latency.
    """
    per = 1.0 / max(jobs, 1)
    calls, outer, self_s, ctr = tracer.calls, tracer.outer, tracer.self_s, tracer.counters

    def c(name):
        return calls.get(name, 0) * per

    def s(name):
        return self_s.get(name, 0.0) * per

    kpp_self = s("taut.KPPoly.init") + s("taut.KPPoly.add") + s("taut.KPPoly.mul")
    enum_calls = calls.get("graphs.enumerate", 0)
    created = calls.get("taut.DecoratedGraph", 0)
    out = {
        "frobenius.semisimplify.calls": (c("frobenius.semisimplify"), "1/job"),
        "frobenius.semisimplify.self_s": (s("frobenius.semisimplify"), "s/job"),
        "frobenius.multiply.calls": (c("frobenius.multiply"), "1/job"),
        "series.invert.calls": (c("series.invert"), "1/job"),
        "series.invert.self_s": (s("series.invert"), "s/job"),
        "series.edge_kernel.self_s": (s("series.edge_kernel"), "s/job"),
        "config.parse_config.calls": (c("config.parse_config"), "1/job"),
        "config.parse_config.self_s": (s("config.parse_config"), "s/job"),
        "kappa.exp_conv.calls": (c("kappa.exp_conv"), "1/job"),
        "kappa.exp_conv.self_s": (s("kappa.exp_conv"), "s/job"),
        "kappa.KappaPoly.created": (c("kappa.KappaPoly.init"), "1/job"),
        "kappa.KappaPoly.mul.calls": (c("kappa.KappaPoly.mul"), "1/job"),
        "graphs.enumerate.calls": (c("graphs.enumerate"), "1/job"),
        "graphs.enumerate.self_s": (s("graphs.enumerate"), "s/job"),
        "graphs.enumerate.graphs_out": (ctr.get("graphs.enumerate.graphs_out", 0) * per, "1/job"),
        "graphs.enumerate.hit_ratio": (
            1 - len(tracer.keys) / enum_calls if enum_calls else 0.0,
            "ratio",
        ),
        "graphs.special_order.self_s": (s("graphs.special_order"), "s/job"),
        "givental.spec_init.self_s": (s("givental.spec_init"), "s/job"),
        "givental.coherent_phi.self_s": (s("givental.coherent_phi"), "s/job"),
        "givental.r_action.calls": (c("givental.r_action"), "1/job"),
        "givental.r_action.self_s": (s("givental.r_action"), "s/job"),
        "givental.graph_contribution.calls": (c("givental.graph_contribution"), "1/job"),
        "givental.graph_contribution.self_s": (s("givental.graph_contribution"), "s/job"),
        "givental.graph_contribution.terms_out": (
            ctr.get("givental.graph_contribution.terms_out", 0) * per,
            "1/job",
        ),
        "givental.reconstruct_free.calls": (c("givental.reconstruct_free"), "1/job"),
        "givental.reconstruct_free.self_s": (s("givental.reconstruct_free"), "s/job"),
        "givental.reconstruct_fixed.calls": (c("givental.reconstruct_fixed"), "1/job"),
        "givental.reconstruct_fixed.self_s": (s("givental.reconstruct_fixed"), "s/job"),
        "givental.verify_axioms.self_s": (s("givental.verify_axioms"), "s/job"),
        "taut.DecoratedGraph.created": (created * per, "1/job"),
        "taut.DecoratedGraph.self_s": (s("taut.DecoratedGraph"), "s/job"),
        "taut.TautExpr.add.calls": (c("taut.TautExpr.add"), "1/job"),
        "taut.TautExpr.add.self_s": (s("taut.TautExpr.add"), "s/job"),
        "taut.KPPoly.add.calls": (c("taut.KPPoly.add"), "1/job"),
        "taut.KPPoly.mul.calls": (c("taut.KPPoly.mul"), "1/job"),
        "taut.KPPoly.self_s": (kpp_self, "s/job"),
        "taut.decorated_kept_ratio": (
            ctr.get("givental.graph_contribution.terms_out", 0) / created if created else 0.0,
            "ratio",
        ),
        "intersect.psi_correlator.outer_calls": (
            outer.get("intersect.psi_correlator", 0) * per,
            "1/job",
        ),
        "intersect.psi_correlator.self_s": (s("intersect.psi_correlator"), "s/job"),
        "intersect.kappa_psi_correlator.outer_calls": (
            outer.get("intersect.kappa_psi_correlator", 0) * per,
            "1/job",
        ),
        "intersect.kappa_psi_correlator.self_s": (s("intersect.kappa_psi_correlator"), "s/job"),
        "intersect.integrate_taut.self_s": (s("intersect.integrate_taut"), "s/job"),
        "intersect.load_from.self_s": (s("intersect.load_from"), "s/job"),
        "intersect.save_to.self_s": (s("intersect.save_to"), "s/job"),
        "cli.main.self_s": (s("cli.main"), "s/job"),
        "cli.process_s": (ctr.get("cli.process_s", 0.0) * per, "s/job"),
    }
    # each layer's share of the blocking time: its targets' self time over
    # the summed job latency; what no wrapper covers stays with the job span
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, value in self_s.items():
        if name in LAYER_OF:
            layer_self[LAYER_OF[name]] += value
    for layer in LAYERS:
        out["share." + layer] = (layer_self[layer] / job_time if job_time else 0.0, "ratio")
    out["share.unwrapped"] = (self_s.get(JOB, 0.0) / job_time if job_time else 0.0, "ratio")
    return out
