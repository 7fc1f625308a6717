"""In-memory span tracer that instruments bdmadapt from outside the package.

Each public name in PATCHES is replaced, where its caller looks it up, by a
wrapper that records a span (name, start, end, parent span).  A name that no
longer exists is recorded as absent and skipped; its work then shows in the
caller's self time or in other_s.  Exact-field evaluations are counted by
wrapping the problem's exact_q / exact_u before it is passed in.
"""

import dataclasses
import functools
import importlib
import time
from collections import defaultdict


def _after_solve(counts, args, kwargs, solution):
    diag = getattr(solution, "diagnostics", {})
    counts["solver.dofs"] += diag.get("n_dofs", 0)
    counts["solver.nnz"] += diag.get("nnz", 0)
    counts["solver.factor_s"] += diag.get("factor_seconds", 0.0)
    counts["solver.rel_residual_max"] = max(
        counts["solver.rel_residual_max"], diag.get("rel_residual", 0.0))


def _after_mark(counts, args, kwargs, marked):
    eta_K = args[0] if args else kwargs["eta_K"]
    counts["adaptivity.marked"] += len(marked)
    counts["adaptivity.mark_candidates"] += len(eta_K)


def _after_refine(counts, args, kwargs, refined):
    mesh = args[0]
    marked = args[1] if len(args) > 1 else kwargs["marked"]
    counts["mesh.refine_calls"] += 1
    counts["mesh.refine_marked"] += len(marked)
    counts["mesh.bisections"] += refined.n_triangles - mesh.n_triangles


# (module, class or None, attribute, span name, count hook)
PATCHES = (
    ("bdmadapt.experiments", None, "run_adaptive",
     "adaptivity.run_adaptive", None),
    ("bdmadapt.experiments", None, "write_convergence_csv",
     "experiments.write", None),
    ("bdmadapt.adaptivity", "AdaptiveRun", "to_json", "experiments.write", None),
    ("bdmadapt.estimators", "EstimatorReport", "save", "experiments.write", None),
    ("bdmadapt.adaptivity", None, "build_initial_mesh", "mesh.build", None),
    ("bdmadapt.adaptivity", None, "assemble", "solver.assemble", None),
    ("bdmadapt.adaptivity", None, "solve", "solver.solve", _after_solve),
    ("bdmadapt.adaptivity", None, "postprocess_resmin", "postprocess.resmin",
     None),
    ("bdmadapt.adaptivity", None, "solve_theta", "postprocess.theta", None),
    ("bdmadapt.adaptivity", None, "full_report", "estimators.full_report",
     None),
    ("bdmadapt.adaptivity", None, "dorfler_mark", "adaptivity.mark",
     _after_mark),
    ("bdmadapt.mesh", "TriMesh", "refine", "mesh.refine", _after_refine),
    ("bdmadapt.estimators", None, "eta_improved", "estimators.eta_improved",
     None),
    ("bdmadapt.estimators", None, "error_norms", "estimators.error_norms",
     None),
    ("bdmadapt.estimators", None, "oscillation_bound",
     "estimators.oscillation", None),
    ("bdmadapt.estimators", None, "saturation_delta", "estimators.saturation",
     None),
    ("bdmadapt.postprocess", None, "stiffness_tensors",
     "fields.stiffness_tensors", None),
    ("bdmadapt.estimators", None, "stiffness_tensors",
     "fields.stiffness_tensors", None),
)

# spans whose whole subtree is exact-error diagnostics rather than the method
DIAGNOSTIC_SPANS = frozenset({
    "estimators.error_norms", "estimators.saturation",
    "estimators.oscillation", "postprocess.theta"})
WRITE_SPANS = frozenset({"experiments.write"})

# per-layer metric -> span whose inclusive time it reports
SPAN_METRICS = {
    "solver.assemble_s": "solver.assemble",
    "solver.solve_s": "solver.solve",
    "estimators.error_norms_s": "estimators.error_norms",
    "estimators.saturation_s": "estimators.saturation",
    "estimators.oscillation_s": "estimators.oscillation",
    "postprocess.theta_s": "postprocess.theta",
    "postprocess.resmin_s": "postprocess.resmin",
    "estimators.eta_improved_s": "estimators.eta_improved",
    "fields.stiffness_tensors_s": "fields.stiffness_tensors",
    "mesh.build_s": "mesh.build",
    "mesh.refine_s": "mesh.refine",
    "adaptivity.mark_s": "adaptivity.mark",
    "experiments.write_s": "experiments.write",
}

# metrics that count work; repeated traced runs must reproduce them exactly
COUNT_METRICS = (
    "solver.dofs", "solver.nnz", "fields.stiffness_tensors_calls",
    "estimators.exact_q_points", "estimators.exact_u_points",
    "mesh.refine_calls",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.absent = []
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        for module, cls, attr, name, after in PATCHES:
            label = ".".join(filter(None, (module, cls, attr)))
            try:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            setattr(owner, attr, self.wrap(name, original, after))
            self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def count_exact(self, problem):
        """Copy of the problem whose exact fields count their points."""
        def counted(key, fn):
            if fn is None:
                return None

            def evaluate(x):
                self.counts[key] += len(x)
                return fn(x)
            return evaluate

        try:
            return dataclasses.replace(
                problem,
                exact_q=counted("estimators.exact_q_points", problem.exact_q),
                exact_u=counted("estimators.exact_u_points", problem.exact_u))
        except TypeError:
            self.absent.append("ProblemSpec.exact_q/exact_u")
            return problem

    def summary(self, start: float, end: float) -> dict:
        """Per-layer metrics of one traced call that ran from start to end.

        Stage times are inclusive span durations summed over calls.  The
        roll-ups split the wall time by self time: a span's self time goes
        to diagnostics_s when it or an ancestor is a diagnostic span, to
        experiments.write_s for writes, else to method_s; other_s is the
        wall time outside every span, so the four add up to the wall time.
        """
        spans = self.spans
        wall = end - start
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        nested = True
        for i, (_, s0, s1, parent) in enumerate(spans):
            lo, hi = (start, end) if parent is None else spans[parent][1:3]
            nested &= lo <= s0 <= s1 <= hi
            if parent is not None:
                child[parent] += dur[i]
        self_time = [d - c for d, c in zip(dur, child)]
        group = []
        for name, _, _, parent in spans:
            inherited = group[parent] if parent is not None else "method"
            group.append("diagnostics" if name in DIAGNOSTIC_SPANS
                         else "write" if name in WRITE_SPANS else inherited)

        def total(name):
            return sum(d for d, s in zip(dur, spans) if s[0] == name)

        def self_of(kind):
            return sum(t for t, g in zip(self_time, group) if g == kind)

        c = self.counts
        metrics = {key: total(name) for key, name in SPAN_METRICS.items()}
        other = wall - sum(d for d, s in zip(dur, spans) if s[3] is None)
        metrics.update({
            "solver.factor_s": c["solver.factor_s"],
            "solver.dofs": int(c["solver.dofs"]),
            "solver.nnz": int(c["solver.nnz"]),
            "solver.rel_residual_max": c["solver.rel_residual_max"],
            "estimators.exact_q_points": int(c["estimators.exact_q_points"]),
            "estimators.exact_u_points": int(c["estimators.exact_u_points"]),
            "fields.stiffness_tensors_calls": sum(
                1 for s in spans if s[0] == "fields.stiffness_tensors"),
            "mesh.refine_calls": int(c["mesh.refine_calls"]),
            "mesh.bisections_per_marked": (
                c["mesh.bisections"] / c["mesh.refine_marked"]
                if c["mesh.refine_marked"] else 0.0),
            "adaptivity.marked_frac": (
                c["adaptivity.marked"] / c["adaptivity.mark_candidates"]
                if c["adaptivity.mark_candidates"] else 0.0),
            "adaptivity.loop_self_s": sum(
                t for t, s in zip(self_time, spans)
                if s[0] == "adaptivity.run_adaptive"),
            "method_s": self_of("method"),
            "diagnostics_s": self_of("diagnostics"),
            "other_s": other,
            "traced_wall_s": wall,
        })
        covered = sum(self_time) + other
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        for d, t, s in zip(dur, self_time, spans):
            entry = by_name[s[0]]
            entry[0] += 1
            entry[1] += d
            entry[2] += t
        return {
            "metrics": metrics,
            "consistent": nested and abs(covered - wall) <= 1e-9 * max(wall, 1),
            "absent": list(self.absent),
            "stages": {name: {"calls": n, "total_s": d, "self_s": t}
                       for name, (n, d, t) in sorted(by_name.items())},
            "spans": [[s[0], s[1] - start, s[2] - start, s[3]] for s in spans],
        }
