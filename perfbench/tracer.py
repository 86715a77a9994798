"""Per-layer tracing of epsode from outside the library.

The tracer replaces public names where the consumer modules look them up
(``from .solver import integrate`` binds ``integrate`` separately in each
module) and the evaluators on the ``SystemDef`` that ``cli.build_system``
returns.  Each wrapper opens a span: name, start, end, parent span and pass
id.  Spans of hot leaves (field, RHS and dense-output calls) are only
aggregated, not stored.  A layer's self time is its spans' duration minus
the time of the spans nested inside them, which matters because
integrations run inside other integrations' fields.

A wrapped name that does not exist (a later refactor removed it) is
recorded as missing and the metrics that need it are reported absent.
``uninstall`` restores every original, so untraced passes run unwrapped.
"""

import importlib
import json
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

# (module, name) pairs wrapped in the module namespace, by span name.
MODULE_TARGETS = {
    "systems.build": [("cli", "build_system")],
    "solver.integrate": [(m, "integrate") for m in
                         ("cli", "systems", "variational", "conditions",
                          "averaging", "periodic")],
    "solver.integrate_checkpoints": [(m, "integrate_checkpoints") for m in
                                     ("variational", "averaging")],
    "solver.quad": [(m, "gauss_legendre_panels")
                    for m in ("variational", "conditions")],
    "variational.defect_many": [("variational", "defect_many")],
    "variational.profile": [("conditions", "defect_profile")],
    "variational.floquet": [("cli", "floquet_condition_A3")],
    "topology.winding": [(m, "winding_number")
                         for m in ("cli", "conditions", "topology")],
    "conditions.check": [("cli", n) for n in ("check_A0", "check_A1", "check_A2")],
    "conditions.melnikov": [("cli", "melnikov_profile")],
    "conditions.resonance": [("cli", "resonance_H")],
    "averaging.averaged_field": [(m, "averaged_field")
                                 for m in ("cli", "averaging")],
    "averaging.solve_averaged": [("averaging", "solve_averaged")],
    "averaging.verify": [("cli", "verify_cauchy")],
    "periodic.shoot": [(m, "shoot") for m in ("cli", "periodic")],
    "periodic.membership": [("periodic", "pullback_membership")],
    "periodic.sweep": [("cli", "eps_sweep")],
    "periodic.equilibria": [("periodic", "equilibrium_candidates")],
}

# (module, class, method) wrapped on the class, by span name.
CLASS_TARGETS = {
    "solver.dense": [("solver", "Trajectory", "eval"),
                     ("solver", "Trajectory", "__call__")],
    "variational.defect": [("variational", "DefectField", "eval_many"),
                           ("variational", "DefectField", "__call__")],
    "averaging.field": [("averaging", "AveragedField", "__call__"),
                        ("averaging", "AveragedField", "eval_many")],
}

# SystemDef evaluators: pointwise take x of shape (k,), batched (n, k).
EVALUATORS = {"phi": False, "psi": False, "phi_jac": False, "psi_jac": False,
              "psi_div": False, "phi_many": True, "psi_many": True,
              "phi_jac_many": True, "psi_jac_many": True, "psi_div_many": True}

# Hot spans that are aggregated but not stored.
UNSTORED = {"solver.field", "systems.rhs", "solver.dense", "solver.quad"}


def _width_bucket(lanes):
    if lanes <= 1:
        return "w1"
    return "w2_64" if lanes <= 64 else "w65_up"


class _Frame:
    __slots__ = ("name", "start", "child", "owner", "keep")


class Tracer:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, pass id]
        self.stack = []
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.installed = set()
        self.missing = set()
        self.pass_id = None
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name, keep=True):
        f = _Frame()
        f.name = name
        f.child = 0.0
        f.keep = keep
        f.owner = self.stack[-1].owner if self.stack else None
        if keep:
            self.spans.append([name, None, None, f.owner, self.pass_id])
            f.owner = len(self.spans) - 1
        self.stack.append(f)
        f.start = _clock()
        return f

    def leave(self, f):
        end = _clock()
        self.stack.pop()
        dur = end - f.start
        self.calls[f.name] += 1
        self.incl[f.name] += dur
        self.self_time[f.name] += dur - f.child
        if self.stack:
            self.stack[-1].child += dur
        if f.keep:
            span = self.spans[f.owner]
            span[1], span[2] = f.start, end
        return dur

    def wrap(self, fn, name, before=None, after=None, on_error=None):
        """``fn`` inside a span; ``before`` may return replacement args."""
        tracer = self
        keep = name not in UNSTORED

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            f = tracer.enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(err)
                raise
            finally:
                tracer.leave(f)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, label, make):
        raw = None if owner is None else owner.__dict__.get(attr)
        if raw is None:
            self.missing.add(label)
            return
        setattr(owner, attr, make(raw))
        self._patches.append((owner, attr, raw))
        self.installed.add(label)

    def install(self, package):
        """Wrap the public names of ``package`` (the imported epsode)."""
        mods = {}
        for m in ("cli", "solver", "systems", "variational", "topology",
                  "conditions", "averaging", "periodic"):
            try:
                mods[m] = importlib.import_module(f"{package.__name__}.{m}")
            except ModuleNotFoundError:
                mods[m] = None
        hooks = self._hooks()
        for span, targets in MODULE_TARGETS.items():
            before, after, on_error = hooks.get(span, (None, None, None))
            for mod, attr in targets:
                self._patch(mods[mod], attr, f"{mod}.{attr}",
                            lambda fn, s=span, b=before, a=after, e=on_error:
                            self.wrap(fn, s, b, a, e))
        for span, targets in CLASS_TARGETS.items():
            before, after, on_error = hooks.get(span, (None, None, None))
            for mod, cls, attr in targets:
                owner = getattr(mods[mod], cls, None)
                if owner is None:
                    self.missing.add(f"{cls}.{attr}")
                    continue
                self._patch(owner, attr, f"{cls}.{attr}",
                            lambda fn, s=span, b=before, a=after:
                            self.wrap(fn, s, b, a))
        self._patch(mods["solver"], "RK45", "solver.RK45", self._counting_stepper)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _counting_stepper(self, base):
        counts = self.counts

        class CountingStepper(base):
            def step(self):
                msg = super().step()
                if self.status != "failed":
                    counts["solver.accepted_steps"] += 1
                return msg

        return CountingStepper

    # -- counting hooks ------------------------------------------------------

    def _hooks(self):
        c = self.counts

        def traced_field(args, kwargs):
            c["solver.state_len"] += np.size(args[3] if len(args) > 3
                                             else kwargs["xi"])
            return (self.wrap(args[0], "solver.field"),) + tuple(args[1:])

        def winding_rounds(args, kwargs):
            def counted(P, F=args[0]):
                c["topology.winding_samples"] += len(P)
                return F(P)
            return (self.wrap(counted, "topology.round"),) + tuple(args[1:])

        def dense_points(args, kwargs):
            c["solver.dense_points"] += np.size(args[1])
            return args

        def count_points(key):
            def before(args, kwargs):  # args[0] is self or the system
                c[key] += np.atleast_2d(args[1]).shape[0]
                return args
            return before

        def doubling(args, result):
            c["averaging.doubling_rounds"] += len(result.history)

        def shoot_ok(args, result):
            c["periodic.shoot_ok"] += bool(result.converged)
            c["periodic.newton_iters"] += len(result.residual_history)

        def shoot_failed(err):
            c["periodic.newton_iters"] += len(getattr(err, "history", ()))

        def instrument_system(args, system):
            for attr, batched in EVALUATORS.items():
                fn = getattr(system, attr, None)
                label = f"SystemDef.{attr}"
                if fn is None:
                    self.missing.add(label)
                    continue
                self.installed.add(label)
                setattr(system, attr, self._rhs(fn, batched))

        return {
            "solver.integrate": (traced_field, None, None),
            "solver.integrate_checkpoints": (traced_field, None, None),
            "topology.winding": (winding_rounds, None, None),
            "solver.dense": (dense_points, None, None),
            "variational.defect": (count_points("variational.defect_requests"),
                                   None, None),
            "variational.defect_many": (count_points("variational.defect_lanes"),
                                        None, None),
            "averaging.averaged_field": (None, doubling, None),
            "periodic.shoot": (None, shoot_ok, shoot_failed),
            "systems.build": (None, instrument_system, None),
        }

    def _rhs(self, fn, batched):
        tracer, c = self, self.counts

        def wrapper(t, x, *rest):
            lanes = np.shape(x)[0] if batched and np.ndim(x) == 2 else 1
            f = tracer.enter("systems.rhs", False)
            try:
                return fn(t, x, *rest)
            finally:
                dur = tracer.leave(f)
                bucket = _width_bucket(lanes)
                c["systems.rhs_lanes"] += lanes
                c[f"rhs.{bucket}.lanes"] += lanes
                c[f"rhs.{bucket}.s"] += dur

        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self, passes):
        """Per-pass per-layer values, and the names absent from this build."""
        n = float(passes)
        calls, incl, own, c = self.calls, self.incl, self.self_time, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        integrations = calls["solver.integrate"] + calls["solver.integrate_checkpoints"]
        shoot_net = incl["periodic.shoot"] - incl["periodic.membership"]
        values = {
            "cli.self_s": (sum(v for k, v in own.items() if k.startswith("cli."))
                           / n, ()),
            "systems.build_s": (incl["systems.build"] / n, ("cli.build_system",)),
            "systems.rhs_calls": (calls["systems.rhs"] / n, "SystemDef."),
            "systems.rhs_lanes": (c["systems.rhs_lanes"] / n, "SystemDef."),
            "systems.rhs_s": (incl["systems.rhs"] / n, "SystemDef."),
            "solver.integrate_calls": (integrations / n, ".integrate"),
            "solver.field_evals": (calls["solver.field"] / n, ".integrate"),
            "solver.accepted_steps": (c["solver.accepted_steps"] / n,
                                      ("solver.RK45",)),
            "solver.state_len_mean": (ratio(c["solver.state_len"], integrations),
                                      ".integrate"),
            "solver.self_s": ((own["solver.integrate"]
                               + own["solver.integrate_checkpoints"]) / n,
                              ".integrate"),
            "solver.dense_calls": (calls["solver.dense"] / n, "Trajectory."),
            "solver.dense_points": (c["solver.dense_points"] / n, "Trajectory."),
            "solver.dense_s": (incl["solver.dense"] / n, "Trajectory."),
            "solver.quad_calls": (calls["solver.quad"] / n, ".gauss_legendre_panels"),
            "solver.quad_s": (incl["solver.quad"] / n, ".gauss_legendre_panels"),
            "variational.defect_requests": (c["variational.defect_requests"] / n,
                                            "DefectField."),
            "variational.defect_lanes": (c["variational.defect_lanes"] / n,
                                         ("variational.defect_many",)),
            "variational.defect_cache_hit_ratio": (
                1.0 - ratio(c["variational.defect_lanes"],
                            c["variational.defect_requests"])
                if c["variational.defect_requests"] else 0.0,
                ("variational.defect_many",)),
            "variational.defect_s": (incl["variational.defect"] / n, "DefectField."),
            "variational.profile_s": (incl["variational.profile"] / n,
                                      ("conditions.defect_profile",)),
            "variational.floquet_self_s": (own["variational.floquet"] / n,
                                           ("cli.floquet_condition_A3",)),
            "topology.winding_calls": (calls["topology.winding"] / n, ".winding_number"),
            "topology.winding_rounds": (calls["topology.round"] / n, ".winding_number"),
            "topology.winding_samples": (c["topology.winding_samples"] / n,
                                         ".winding_number"),
            "topology.samples_per_round": (ratio(c["topology.winding_samples"],
                                                 calls["topology.round"]),
                                           ".winding_number"),
            "topology.winding_self_s": (own["topology.winding"] / n, ".winding_number"),
            "conditions.resonance_s": (incl["conditions.resonance"] / n,
                                       ("cli.resonance_H",)),
            "conditions.melnikov_s": (incl["conditions.melnikov"] / n,
                                      ("cli.melnikov_profile",)),
            "conditions.self_s": (sum(v for k, v in own.items()
                                      if k.startswith("conditions.")) / n, "cli.check_A"),
            "averaging.field_evals": (calls["averaging.field"] / n, "AveragedField."),
            "averaging.field_s": (incl["averaging.field"] / n, "AveragedField."),
            "averaging.doubling_rounds": (c["averaging.doubling_rounds"] / n,
                                          ".averaged_field"),
            "averaging.solve_averaged_s": (incl["averaging.solve_averaged"] / n,
                                           ("averaging.solve_averaged",)),
            "averaging.verify_s": (incl["averaging.verify"] / n, ("cli.verify_cauchy",)),
            "periodic.shoot_calls": (calls["periodic.shoot"] / n, ".shoot"),
            "periodic.shoot_success_ratio": (ratio(c["periodic.shoot_ok"],
                                                   calls["periodic.shoot"]), ".shoot"),
            "periodic.newton_iters": (c["periodic.newton_iters"] / n, ".shoot"),
            "periodic.newton_iter_s": (ratio(shoot_net, c["periodic.newton_iters"]),
                                       ".shoot"),
            "periodic.membership_s": (incl["periodic.membership"] / n,
                                      ("periodic.pullback_membership",)),
            "trace.uncovered_frac": (ratio(own["pass"], incl["pass"]), ()),
        }
        for bucket in ("w1", "w2_64", "w65_up"):
            values[f"systems.rhs_us_per_lane.{bucket}"] = (
                1e6 * ratio(c[f"rhs.{bucket}.s"], c[f"rhs.{bucket}.lanes"]),
                "SystemDef.")
        out, absent = {}, []
        for name, (value, needs) in values.items():
            if self._present(needs):
                out[name] = value
            else:
                absent.append(name)
        return out, sorted(absent)

    def _present(self, needs):
        """``needs`` is a tuple of exact labels (empty: always present) or a
        substring that at least one installed label must contain."""
        if isinstance(needs, str):
            return any(needs in label for label in self.installed)
        return not needs or any(label in self.installed for label in needs)

    def write_spans(self, path):
        """Write the stored spans as JSON lines, times relative to the first."""
        t0 = min((s[1] for s in self.spans if s[1] is not None), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "pass": pass_id}) + "\n")
