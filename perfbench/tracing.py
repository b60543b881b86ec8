"""Spans at the saddlebvp layer boundaries, recorded from outside the library.

Nothing inside ``src/`` is changed.  A public function is wrapped where its
callers look it up: the module global of every saddlebvp module that holds
it, which covers both ``from .problem import grad_i`` bindings and calls
through the defining module's own globals.  ``expressions.evaluate`` is the
exception: it recurses through its own module global, so only its bindings in
other modules are wrapped and one span is one top-level evaluation.

Calls into ``numpy.linalg`` and ``scipy.linalg`` are wrapped on those modules
and on any saddlebvp binding of their functions; a call counts only when the
calling frame belongs to saddlebvp, so library-internal use is not charged.

Hot boundaries (evaluations, field-derived problem functions, linear
algebra) are aggregated per ``(name, parent)`` with a count, a total and a
self time; every other span is also kept individually with its start, end,
parent and run id.  Self time is a span's duration minus the time its child
spans cover.
"""

import os
import sys
import time

# (defining module, function name, span name); a missing name is skipped so
# that a library change that removes a function reads as zero calls.
TARGETS = (
    ("saddlebvp.grid", "laplacian", "grid.laplacian"),
    ("saddlebvp.grid", "embedding_constant", "grid.embedding_constant"),
    ("saddlebvp.expressions", "evaluate", "expressions.evaluate"),
    ("saddlebvp.problem", "problem_from_dict", "problem.problem_from_dict"),
    ("saddlebvp.problem", "grad_i", "problem.grad_i"),
    ("saddlebvp.problem", "action_i", "problem.action_i"),
    ("saddlebvp.problem", "residual_i", "problem.residual_i"),
    ("saddlebvp.problem", "second_partials_i", "problem.second_partials_i"),
    ("saddlebvp.solvers", "saddle_set", "solvers.saddle_set"),
    ("saddlebvp.solvers", "solve", "solvers.solve"),
    ("saddlebvp.solvers", "extragradient", "solvers.extragradient"),
    ("saddlebvp.solvers", "newton", "solvers.newton"),
    ("saddlebvp.solvers", "nested_minimax", "solvers.nested_minimax"),
    ("saddlebvp.solvers", "lipschitz_estimate", "solvers.lipschitz_estimate"),
    ("saddlebvp.solvers", "verify_saddle", "solvers.verify_saddle"),
    ("saddlebvp.hypotheses", "certificate_from_dict", "hypotheses.certificate_from_dict"),
    ("saddlebvp.hypotheses", "ball_radii", "hypotheses.ball_radii"),
    ("saddlebvp.hypotheses", "verify_growth", "hypotheses.verify_growth"),
    ("saddlebvp.hypotheses", "check_convexity_x", "hypotheses.check_curvature"),
    ("saddlebvp.hypotheses", "check_concavity_y", "hypotheses.check_curvature"),
    ("saddlebvp.dependence", "run_sequence", "dependence.run_sequence"),
    ("saddlebvp.dependence", "uniform_gap", "dependence.uniform_gap"),
    ("saddlebvp.dependence", "upper_limit_check", "dependence.upper_limit_check"),
)

# Names that recurse through their own module global: wrap only elsewhere.
RECURSIVE = {("saddlebvp.expressions", "evaluate")}

# The CLI's problem assembly, timed in untraced runs as part of set-up.
SETUP_NAMES = ("problem_from_dict", "certificate_from_dict", "ball_radii", "embedding_constant")

HOT_PREFIXES = ("expressions.", "problem.grad_i", "problem.action_i", "problem.residual_i",
                "problem.second_partials_i", "linalg.")


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "saddlebvp" or name.startswith("saddlebvp."))]


def rebind(original, replacement, skip=None):
    """Replace every saddlebvp module global bound to ``original``; returns the sites."""
    sites = []
    for module in _library_modules():
        if module is skip:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                sites.append(f"{module.__name__}.{attr}")
    return sites


class SetupClock:
    """Wall and CPU time spent in the CLI's problem assembly (untraced runs)."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def install(self):
        """Wrap the assembly functions as the CLI module bound them."""
        cli = sys.modules["saddlebvp.cli"]
        for name in SETUP_NAMES:
            original = getattr(cli, name, None)
            if original is not None:
                setattr(cli, name, self._wrap(original))

    def _wrap(self, fn):
        def timed(*args, **kwargs):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self.wall += time.perf_counter() - w0
                self.cpu += time.process_time() - c0
        return timed


class StartCounter:
    """Attempted starts, failed starts and representatives over every returned ``SaddleSet``.

    One wrapper call per set, cheap enough for untraced runs.  It wraps
    whatever ``saddlebvp.solvers.saddle_set`` is bound to when installed, so
    under a :class:`Tracer` installed first it counts through the traced
    wrapper.
    """

    def __init__(self):
        self.attempts = 0
        self.failures = 0
        self.representatives = 0

    def install(self):
        current = sys.modules["saddlebvp.solvers"].saddle_set

        def counted(*args, **kwargs):
            sset = current(*args, **kwargs)
            self.attempts += int(sset.attempts)
            self.failures += int(sset.failures)
            self.representatives += len(sset.points)
            return sset
        rebind(current, counted)


class Tracer:
    """In-memory span recorder; ``metrics`` turns it into per-layer metrics."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.stack = []     # frames: [name, child_time, stored span index or None]
        self.agg = {}       # (name, parent name) -> [count, total, self]
        self.spans = []     # (name, start, end, parent index, run id)
        self.starts = [0, 0, 0]        # starts, converged starts, iterations
        self.wrapped = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn, observe=None, library_callers_only=False):
        stack, agg, spans, run_id = self.stack, self.agg, self.spans, self.run_id
        clock = time.perf_counter
        hot = name.startswith(HOT_PREFIXES)
        getframe = sys._getframe

        def traced(*args, **kwargs):
            if library_callers_only and not getframe(1).f_globals.get(
                    "__name__", "").startswith("saddlebvp"):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            index = None
            if not hot:
                index = len(spans)
                spans.append(None)
            frame = [name, 0.0, index]
            stack.append(frame)
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                if parent is not None:
                    parent[1] += d
                key = (name, parent[0] if parent is not None else None)
                entry = agg.get(key)
                if entry is None:
                    agg[key] = [1, d, d - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += d
                    entry[2] += d - frame[1]
                if index is not None:
                    stored_parent = next((f[2] for f in reversed(stack) if f[2] is not None),
                                         None)
                    spans[index] = (name, t0, t1, stored_parent, run_id)
                if observe is not None:
                    observe(result, error)
        return traced

    def _observe_start(self, cand, error):
        self.starts[0] += 1
        if error is None and cand is not None:
            self.starts[1] += bool(cand.converged)
            self.starts[2] += int(cand.iterations)

    # -- installation ---------------------------------------------------------

    def install(self):
        # With SADDLEBVP_THREADS > 1 starts run in threads, and one shared
        # span stack would give them wrong parents and self times.
        try:
            threads = int(os.environ.get("SADDLEBVP_THREADS", "1"))
        except ValueError:
            threads = 1
        if threads > 1:
            raise RuntimeError(f"cannot trace with SADDLEBVP_THREADS={threads}: "
                               "the span stack is not thread-safe")
        for module_name, name, span in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, name, None) if module is not None else None
            if original is None:
                continue
            skip = module if (module_name, name) in RECURSIVE else None
            observe = self._observe_start if span == "solvers.solve" else None
            wrapper = self.wrap(span, original, observe=observe)
            self.wrapped += rebind(original, wrapper, skip=skip)
        self._install_from_text()
        self._install_linalg()

    def _install_from_text(self):
        from saddlebvp.expressions import ScalarField
        original = ScalarField.__dict__.get("from_text")
        if isinstance(original, classmethod):
            ScalarField.from_text = classmethod(self.wrap("expressions.parse", original.__func__))
            self.wrapped.append("saddlebvp.expressions.ScalarField.from_text")

    def _install_linalg(self):
        import numpy.linalg
        namespaces = [numpy.linalg]
        if "scipy.linalg" in sys.modules:
            namespaces.append(sys.modules["scipy.linalg"])
        for ns in namespaces:
            for attr in getattr(ns, "__all__", dir(ns)):
                fn = getattr(ns, attr, None)
                if fn is None or isinstance(fn, type) or not callable(fn):
                    continue
                wrapper = self.wrap(f"linalg.{attr}", fn, library_callers_only=True)
                setattr(ns, attr, wrapper)
                rebind(fn, wrapper)

    # -- metrics --------------------------------------------------------------

    def totals(self):
        """``{name: [calls, total_s, self_s]}`` summed over parents."""
        out = {}
        for (name, _), (count, total, self_s) in self.agg.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += count
            acc[1] += total
            acc[2] += self_s
        return out

    def under(self, name, parent_prefix):
        """``[calls, total_s]`` of ``name`` spans whose parent starts with ``parent_prefix``."""
        calls, total = 0, 0.0
        for (n, parent), (count, t, _) in self.agg.items():
            if n == name and parent is not None and parent.startswith(parent_prefix):
                calls += count
                total += t
        return [calls, total]

    def metrics(self):
        """Per-layer metrics of the traced commands, keyed by their benchmark names."""
        t = self.totals()

        def calls(name):
            return t.get(name, [0, 0.0, 0.0])[0]

        def total(name):
            return t.get(name, [0, 0.0, 0.0])[1]

        def self_s(name):
            return t.get(name, [0, 0.0, 0.0])[2]

        starts, converged, iterations = self.starts
        dep_calls, dep_s = self.under("solvers.saddle_set", "dependence.")
        out = {
            "grid.laplacian.s": total("grid.laplacian"),
            "expressions.parse.s": total("expressions.parse"),
            "expressions.evaluate.calls": calls("expressions.evaluate"),
            "expressions.evaluate.s": total("expressions.evaluate"),
            "problem.grad_i.calls": calls("problem.grad_i"),
            "problem.grad_i.self_s": self_s("problem.grad_i"),
            "problem.action_i.calls": calls("problem.action_i"),
            "problem.action_i.self_s": self_s("problem.action_i"),
            "problem.residual_i.calls": calls("problem.residual_i"),
            "problem.second_partials_i.calls": calls("problem.second_partials_i"),
            "solvers.saddle_set.s": total("solvers.saddle_set"),
            "solvers.starts": starts,
            "solvers.starts_converged": converged,
            "solvers.iterations": iterations,
            "solvers.extragradient.self_s": self_s("solvers.extragradient"),
            "solvers.lipschitz_estimate.s": total("solvers.lipschitz_estimate"),
            "solvers.newton.self_s": self_s("solvers.newton"),
            "solvers.nested_minimax.self_s": self_s("solvers.nested_minimax"),
            "solvers.verify_saddle.calls": calls("solvers.verify_saddle"),
            "solvers.verify_saddle.s": total("solvers.verify_saddle"),
            "hypotheses.verify_growth.s": total("hypotheses.verify_growth"),
            "hypotheses.check_curvature.s": total("hypotheses.check_curvature"),
            "dependence.saddle_set.calls": dep_calls,
            "dependence.saddle_set.s": dep_s,
            "dependence.uniform_gap.s": total("dependence.uniform_gap"),
            "dependence.upper_limit_check.s": total("dependence.upper_limit_check"),
            "dependence.self_s": sum((v[2] for n, v in t.items() if n.startswith("dependence.")),
                                     0.0),
            "cli.self_s": self_s("cli.main"),
        }
        for name, (count, seconds, _) in t.items():
            if name.startswith("linalg."):
                out[name + ".calls"] = count
                out[name + ".s"] = seconds
        return out

    def dump(self):
        """Aggregates and stored spans, for the trace file."""
        return {
            "run_id": self.run_id,
            "aggregates": [[name, parent, c, t, s]
                           for (name, parent), (c, t, s) in sorted(
                               self.agg.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))],
            "spans": [list(s) for s in self.spans if s is not None],
            "starts": dict(zip(("starts", "converged", "iterations"), self.starts)),
            "wrapped": self.wrapped,
        }
