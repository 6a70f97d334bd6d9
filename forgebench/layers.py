"""Per-layer metrics from the spans of traced requests.

A span's self time is its duration minus the time its child spans cover; a
function's busy time counts only its outermost spans, so recursion is not
counted twice.  Whatever a request's wall time (spawn to reap) holds beyond
the self times of its spans (interpreter start-up, the shim, exit) is the
`unattributed_s` remainder, so per pass the layer self times plus that
remainder add up to the traced `pass_s` exactly.
"""

import json
import statistics
from collections import defaultdict

LAYERS = ("cli", "io", "core", "constructions", "cohomology", "snf",
          "envgroup", "kernels", "knots", "pipeline")

READERS = ("io.read_quandle", "io.read_group", "io.read_cocycle",
           "io.read_knots")

BUSY = ("core.inner_group", "core.inn_image", "core.is_connected",
        "constructions.abelian_extension", "cohomology.cocycle_space_order",
        "cohomology.coboundary_space_order", "cohomology.cocycle",
        "snf.row_reduce", "snf.smith_normal_form",
        "kernels.coset_enumeration", "envgroup.verify_coset_table",
        "kernels.braid_closure_colorings", "knots.parse_braid")

SELF = ("pipeline.constancy_pipeline", "pipeline.power_coefficient_check",
        "pipeline.nonconstancy_certificates", "cohomology.second_cohomology",
        "envgroup.todd_coxeter", "knots.state_sum", "knots.tangle_colorings")

CALLS = ("cohomology.second_cohomology", "snf.row_reduce",
         "snf.smith_normal_form", "kernels.coset_enumeration",
         "kernels.braid_closure_colorings", "knots.state_sum")

COUNTS = {"snf.row_reduce": ("rows_in", "rows_out"),
          "snf.smith_normal_form": ("cells",),
          "kernels.coset_enumeration": ("live_cosets", "capped"),
          "kernels.braid_closure_colorings": ("assignments", "colorings")}

TODD_COXETER = "envgroup.todd_coxeter"


def metric_names():
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += ["unattributed_s", "trace.pass_s", "trace.overhead_frac",
              "cli.import_s", "io.read.busy_s"]
    names += [f"{f}.busy_s" for f in BUSY]
    names += [f"{f}.self_s" for f in SELF]
    names += [f"{f}.calls" for f in CALLS]
    names += [f"{f}.{c}" for f, cs in COUNTS.items() for c in cs]
    names += ["kernels.braid_closure_colorings.hit_ratio",
              f"{TODD_COXETER}.calls_per_request",
              f"{TODD_COXETER}.calls_per_yes", f"{TODD_COXETER}.calls_per_no"]
    return names


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


# The metrics each workload exists to exercise; a traced run fails if one of
# them reads zero.  kernels.coset_enumeration.capped is left out: it counts
# a defect, and reading zero is the goal.
EXERCISED = {
    "h2": ["cohomology.second_cohomology.calls",
           "cohomology.second_cohomology.self_s",
           "cohomology.cocycle_space_order.busy_s",
           "cohomology.coboundary_space_order.busy_s",
           "cohomology.cocycle.busy_s",
           "snf.row_reduce.calls", "snf.row_reduce.busy_s",
           "snf.row_reduce.rows_in", "snf.row_reduce.rows_out",
           "snf.smith_normal_form.calls", "snf.smith_normal_form.busy_s",
           "snf.smith_normal_form.cells"],
    "vendramin": ["kernels.coset_enumeration.calls",
                  "kernels.coset_enumeration.busy_s",
                  "kernels.coset_enumeration.live_cosets",
                  f"{TODD_COXETER}.calls_per_request",
                  f"{TODD_COXETER}.calls_per_yes",
                  f"{TODD_COXETER}.calls_per_no",
                  f"{TODD_COXETER}.self_s",
                  "envgroup.verify_coset_table.busy_s"],
    "invariant": ["kernels.braid_closure_colorings.calls",
                  "kernels.braid_closure_colorings.busy_s",
                  "kernels.braid_closure_colorings.assignments",
                  "kernels.braid_closure_colorings.colorings",
                  "kernels.braid_closure_colorings.hit_ratio",
                  "knots.state_sum.calls", "knots.state_sum.self_s",
                  "knots.tangle_colorings.self_s", "knots.parse_braid.busy_s"],
    "pipeline": ["cli.import_s", "io.read.busy_s",
                 "core.inner_group.busy_s", "core.inn_image.busy_s",
                 "core.is_connected.busy_s",
                 "constructions.abelian_extension.busy_s",
                 "pipeline.constancy_pipeline.self_s",
                 "pipeline.power_coefficient_check.self_s",
                 "pipeline.nonconstancy_certificates.self_s",
                 f"{TODD_COXETER}.calls_per_request", f"{TODD_COXETER}.self_s",
                 "envgroup.verify_coset_table.busy_s",
                 "knots.state_sum.calls", "knots.state_sum.self_s",
                 "knots.tangle_colorings.self_s", "knots.parse_braid.busy_s"],
}


class Totals:
    """Sums over the traced requests of a run."""

    def __init__(self):
        self.wall = 0.0
        self.layer_self = defaultdict(float)
        self.self = defaultdict(float)
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.imports = []
        self.tc_requests = 0
        self.tc_by_verdict = defaultdict(list)

    def add(self, wall, spans, stdout):
        """One request: its wall time, its spans and its output."""
        self.wall += wall
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        tc_calls = 0
        for i, (name, start, end, parent, counts) in enumerate(spans):
            own = end - start - child[i]
            self.layer_self[name.split(".")[0]] += own
            self.self[name] += own
            self.calls[name] += 1
            if not _inside(spans, parent, name):
                self.busy[name] += end - start
            for key, value in (counts or {}).items():
                self.counts[f"{name}.{key}"] += value
            if name == "cli.import":
                self.imports.append(end - start)
            tc_calls += name == TODD_COXETER
        if tc_calls:
            self.tc_requests += 1
            for line in stdout.splitlines():
                rec = json.loads(line) if line.startswith("{") else {}
                if rec.get("record") == "vendramin":
                    self.tc_by_verdict[rec["verdict"]].append(tc_calls)

    def metrics(self, passes, untraced_pass_s, traced_pass_s):
        """Per-pass values of every per-layer metric."""
        out = {f"{layer}.self_s": self.layer_self[layer] / passes
               for layer in LAYERS}
        unknown = set(self.layer_self) - set(LAYERS)
        if unknown:
            raise AssertionError(f"spans outside the layers: {unknown}")
        out["unattributed_s"] = (self.wall - sum(self.layer_self.values())) \
            / passes
        out["trace.pass_s"] = self.wall / passes
        out["trace.overhead_frac"] = traced_pass_s / untraced_pass_s - 1
        out["cli.import_s"] = statistics.fmean(self.imports)
        out["io.read.busy_s"] = sum(self.busy[f] for f in READERS) / passes
        for f in BUSY:
            out[f"{f}.busy_s"] = self.busy[f] / passes
        for f in SELF:
            out[f"{f}.self_s"] = self.self[f] / passes
        for f in CALLS:
            out[f"{f}.calls"] = self.calls[f] / passes
        for f, keys in COUNTS.items():
            for key in keys:
                out[f"{f}.{key}"] = self.counts[f"{f}.{key}"] / passes
        scans = self.counts["kernels.braid_closure_colorings.assignments"]
        out["kernels.braid_closure_colorings.hit_ratio"] = (
            self.counts["kernels.braid_closure_colorings.colorings"] / scans
            if scans else 0.0)
        tc = self.calls[TODD_COXETER]
        out[f"{TODD_COXETER}.calls_per_request"] = (
            tc / self.tc_requests if self.tc_requests else 0.0)
        for verdict in ("yes", "no"):
            calls = self.tc_by_verdict[verdict]
            out[f"{TODD_COXETER}.calls_per_{verdict}"] = (
                statistics.fmean(calls) if calls else 0.0)
        return out


def _inside(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
