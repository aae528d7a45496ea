"""Spans and counters recorded around ``crflab``'s public functions.

The traced run wraps functions from outside the package: each wrapper opens
a span (name, start, end, parent, run id) or bumps a counter, and calls the
original. A function is patched wherever it is looked up, so a caller that
imported it by name (``crflab.elliptic.step`` is ``crflab.flow.step``) sees
the wrapper too. A target that a refactor removed is recorded as absent
instead of failing the run. Spans stay in memory until ``write``.

Self time of a span is its duration minus the part of it that its child
spans cover.
"""

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


class Tracer:
    def __init__(self, run_id="", clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.absent = []
        self._undo = []

    # -- spans -----------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def span_counts(self):
        return Counter(s[0] for s in self.spans)

    def self_times(self):
        """Total self time per span name."""
        children = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(idx, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name] += (end - start) - covered
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")

    # -- patching --------------------------------------------------------------

    def wrap(self, fn, name=None, before=None, after=None):
        """Wrapper that runs ``fn`` inside a span called ``name`` (if given).

        ``before(args, kwargs)`` may return replacement ``(args, kwargs,
        token)``; ``after(token, args, kwargs, result)`` observes the result.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = None
            if before is not None:
                args, kwargs, token = before(args, kwargs)
            idx = tracer.open(name) if name else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer.close(idx)
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return wrapper

    def patch(self, module_name, path, **wrap_kwargs):
        """Replace ``module_name.path`` by a wrapper wherever it is bound.

        ``path`` is ``func`` or ``Class.method``. A module-level function is
        replaced in its own module and in every loaded ``crflab`` module that
        bound the same object by name.
        """
        target = f"{module_name}.{path}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(target)
            return
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not isinstance(owner, type) or attr not in owner.__dict__:
                self.absent.append(target)
                return
            original = owner.__dict__[attr]
            self._set(owner, attr, self.wrap(original, **wrap_kwargs))
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(target)
            return
        wrapper = self.wrap(original, **wrap_kwargs)
        holders = [module] + [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "crflab" or name.startswith("crflab."))
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._set(holder, key, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the crflab layer map --------------------------------------------------

    def install(self):
        """Wrap the public functions of each crflab module (and the two FFT
        entry points the package may use)."""
        import scipy.fft  # noqa: F401  (so its entry points can be counted)

        counts = self.counts

        def count(key, size=None):
            def before(args, kwargs):
                counts[key + ".calls"] += 1
                if size is not None:
                    counts[key + ".points"] += size(args, kwargs)
                return args, kwargs, None
            return before

        def fft_points(args, kwargs):
            data = args[0] if args else next(iter(kwargs.values()))
            return int(getattr(data, "size", 1))

        for mod in ("numpy.fft", "scipy.fft"):
            for fn in FFT_FUNCTIONS:
                self.patch(mod, fn, before=count("geometry.fft", fft_points))
        self.patch("crflab.geometry", "herm_eig_bounds",
                   before=count("geometry.herm_eig_bounds"))
        self.patch("crflab.tensors", "chern_ricci", before=count("tensors.chern_ricci"))

        self.patch("crflab.geometry", "TorusChart.complex_hessian",
                   name="geometry.complex_hessian")
        for cls in ("ScalarField", "VolumeField", "HermitianMatrixField"):
            self.patch("crflab.geometry", f"{cls}.__init__", name="geometry.field_init")

        for cls in ("FlowScenario", "NormalizedScenario"):
            self.patch("crflab.flow", f"{cls}.rhs", name="flow.rhs")
            self.patch("crflab.flow", f"{cls}.__init__", name="flow.scenario_build")
        self.patch("crflab.flow", "scenario_from_metric", name="flow.scenario_build")
        self.patch("crflab.flow", "step", name="flow.step")
        self.patch("crflab.flow", "_monitor_row", name="flow.monitor")

        def trajectory(token, args, kwargs, result):
            rows = result[0].rows
            counts["flow.integrations"] += 1
            counts["flow.steps"] += len(rows) - 1
            counts["flow.sim_time"] += rows[-1][0] - rows[0][0]

        self.patch("crflab.flow", "run", name="flow.run", after=trajectory)
        self.patch("crflab.flow", "run_normalized", name="flow.run_normalized",
                   after=trajectory)

        for cls in ("TorusMetricRecipe", "ScalarRecipe"):
            self.patch("crflab.models", f"{cls}.build", name="models.recipe_build")

        def solve_before(args, kwargs):
            return args, kwargs, counts["elliptic.residual.calls"]

        def solve_after(residuals_before, args, kwargs, solution):
            if solution.method == "gill-flow":
                counts["flow.integrations"] += 1
                counts["flow.steps"] += solution.iterations
                counts["flow.sim_time"] += solution.extras["t_end"]
                counts["elliptic.gill.steps"] += solution.iterations
            else:
                # one residual before the first step and one after
                # normalizing; the rest are line-search trials
                residuals = counts["elliptic.residual.calls"] - residuals_before
                counts["elliptic.linesearch.trials"] += residuals - 2
                counts["elliptic.newton.iterations"] += solution.iterations

        self.patch("crflab.elliptic", "solve_elliptic", name="elliptic.solve",
                   before=solve_before, after=solve_after)
        self.patch("crflab.elliptic", "_residual_field", name="elliptic.residual",
                   before=count("elliptic.residual"))

        def krylov_before(args, kwargs):
            op = args[0]

            def counted(v):
                counts["elliptic.krylov.op_applies"] += 1
                return op(v)

            return (counted,) + tuple(args[1:]), kwargs, None

        self.patch("crflab.elliptic", "_bicgstab", name="elliptic.krylov",
                   before=krylov_before)
        self.patch("crflab.elliptic", "certify_estimates", name="elliptic.certify")

        for fn in ("verify_trace_evolution", "verify_bianchi_vanishing",
                   "verify_schwarz_identity"):
            self.patch("crflab.tensors", fn, name=f"tensors.{fn}")

        def file_bytes(key):
            def after(token, args, kwargs, result):
                path = args[0] if args else kwargs["path"]
                counts[key] += os.path.getsize(path)
            return after

        self.patch("crflab.io", "write_csv", name="io.write_csv",
                   after=file_bytes("io.write_csv.bytes"))
        self.patch("crflab.io", "write_snapshot", name="io.write_snapshot",
                   after=file_bytes("io.write_snapshot.bytes"))

    def layer_metrics(self):
        """Per-layer metrics of everything traced so far."""
        st = self.self_times()
        calls = self.span_counts()
        c = self.counts
        steps = c["flow.steps"]
        trials = c["elliptic.linesearch.trials"]
        return {
            "geometry.complex_hessian.calls": calls["geometry.complex_hessian"],
            "geometry.complex_hessian.self_s": st["geometry.complex_hessian"],
            "geometry.fft.calls": c["geometry.fft.calls"],
            "geometry.fft.points": c["geometry.fft.points"],
            "geometry.field_init.calls": calls["geometry.field_init"],
            "geometry.field_init.self_s": st["geometry.field_init"],
            "geometry.herm_eig_bounds.calls": c["geometry.herm_eig_bounds.calls"],
            "flow.steps": steps,
            "flow.dt_mean": c["flow.sim_time"] / steps if steps else 0.0,
            "flow.rhs.calls": calls["flow.rhs"],
            # every integration evaluates the RHS once for its initial state
            "flow.rhs_per_step": (
                (calls["flow.rhs"] - c["flow.integrations"]) / steps if steps else 0.0
            ),
            "flow.rhs.self_s": st["flow.rhs"],
            # run_normalized steps inline, so its loop counts as step time
            "flow.step.self_s": st["flow.step"] + st["flow.run"] + st["flow.run_normalized"],
            "flow.monitor.self_s": st["flow.monitor"],
            "flow.scenario_build.self_s": st["flow.scenario_build"],
            "models.recipe_build.self_s": st["models.recipe_build"],
            "elliptic.newton.iterations": c["elliptic.newton.iterations"],
            "elliptic.krylov.solves": calls["elliptic.krylov"],
            "elliptic.krylov.op_applies": c["elliptic.krylov.op_applies"],
            "elliptic.krylov.self_s": st["elliptic.krylov"],
            "elliptic.linesearch.trials": trials,
            "elliptic.linesearch.accept_ratio": (
                c["elliptic.newton.iterations"] / trials if trials else 0.0
            ),
            "elliptic.gill.steps": c["elliptic.gill.steps"],
            "elliptic.certify.self_s": st["elliptic.certify"],
            "tensors.verify_trace_evolution.self_s": st["tensors.verify_trace_evolution"],
            "tensors.verify_bianchi_vanishing.self_s": st["tensors.verify_bianchi_vanishing"],
            "tensors.verify_schwarz_identity.self_s": st["tensors.verify_schwarz_identity"],
            "tensors.chern_ricci.calls": c["tensors.chern_ricci.calls"],
            "io.write_csv.bytes": c["io.write_csv.bytes"],
            "io.write_csv.self_s": st["io.write_csv"],
            "io.write_snapshot.calls": calls["io.write_snapshot"],
            "io.write_snapshot.bytes": c["io.write_snapshot.bytes"],
            "io.write_snapshot.self_s": st["io.write_snapshot"],
        }
