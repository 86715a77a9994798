"""The benchmark's workloads: seeded epsode configs and the subcommand
sequence of one pass.

A pass calls ``epsode.cli.run(argv)`` once per subcommand through the
``run_op`` callback it is given.  The seed varies only inputs whose
oracles stay valid:

- the start phase of the e1 cycle on the unit circle in existence-e1 (the
  cycle is the same orbit and the quadrature oracle for M takes the phase);
- the a and theta ranges of the resonance seed grid (both keep the single
  zero (a0, pi/2) inside);
- ``run.seed``, which draws the averaging validation samples;
- the angle of ``xi0`` at the fixed radius |(1, 0.5)|.

All runs use the default integrator tolerances (rel 1e-10, abs 1e-12).
"""

import math
import random
from dataclasses import dataclass

import oracles

E1_CONFIG = """[system]
builtin = e1-circle

[region]
shape = circle(0, 0, 1, 512)

[cycle]
seed = ({c!r}, {s!r})
"""

E2_ORBIT_CONFIG = """[system]
builtin = e2-resonance

[resonance]
g = "(1 - x1^2)*x2 + cos(t)"
a_range = ({a_lo!r}, {a_hi!r})
theta_range = ({th_lo!r}, {th_hi!r})

[shoot]
eps = 1e-3
"""

E1_SWEEP_CONFIG = E1_CONFIG + """
[sweep]
eps = {eps}
strategy = continuation
"""

E2_AVERAGE_CONFIG = """[system]
builtin = e2-resonance

[average]
radius = 4.0

[run]
seed = {run_seed}

[verify]
xi0 = ({x1!r}, {x2!r})
d = 1
eps = {eps}
"""

SWEEP_EPS = (1e-2, 5e-3, 2.5e-3)
VERIFY_EPS = (0.02, 0.01)


@dataclass
class OpResult:
    """One subcommand call: exit code, captured stdout and CSV text."""
    name: str
    rc: object
    stdout: str
    csv: str
    seconds: float
    error: str = None
    failed: bool = False


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed, work_dir):
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.configs = []

    def config(self, filename, text):
        path = _write(self.work_dir / filename, text)
        self.configs.append(path)
        return path

    def run_pass(self, run_op):
        """Run one pass; returns the list of OpResult in call order."""
        raise NotImplementedError

    def check(self, op):
        """Failure messages for one OpResult (empty when correct)."""
        if op.error is not None:
            return [f"{op.name}: {op.error}"]
        return self.checks[op.name](op.rc, op.stdout, op.csv)


class ExistenceE1(Workload):
    name = "existence-e1"
    why = ("wide batches (512 lanes), A2 refinement rounds of 2 lanes and "
           "Floquet dense output inside the RHS")

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        # |2 cos p + sin p| >= 1.4 on this range, so M stays far from 0.
        self.phase = self.rng.uniform(-0.3, 0.7)
        self.cfg = self.config("e1.cfg", E1_CONFIG.format(
            c=math.cos(self.phase), s=math.sin(self.phase)))
        self.checks = {
            "check_A0": oracles.check_a0,
            "check_A1": oracles.check_a1,
            "check_A2": oracles.check_a2,
            "check_A3": oracles.check_a3,
            "melnikov": lambda rc, out, csv: oracles.check_melnikov(
                rc, out, csv, self.phase),
        }

    def run_pass(self, run_op):
        ops = [run_op(f"check_{c}", ["check", c, "--config", self.cfg])
               for c in ("A0", "A1", "A2", "A3")]
        ops.append(run_op("melnikov", ["melnikov", "--config", self.cfg]))
        return ops


class Orbits(Workload):
    name = "orbits"
    why = ("many short integrations of 6-long states, Newton with line "
           "search, equilibrium fallback and membership; bypasses wide batches")

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = self.rng
        self.orbit_cfg = self.config("e2-orbit.cfg", E2_ORBIT_CONFIG.format(
            a_lo=0.5 - rng.uniform(0.0, 0.2), a_hi=3.5 + rng.uniform(0.0, 0.2),
            th_lo=-rng.uniform(0.0, 0.3), th_hi=2 * math.pi - rng.uniform(0.0, 0.3)))
        # The sweep seeds at the cycle point where |M| peaks; M is constant, so
        # that point is set by rounding and moves with the phase, and with it
        # the Newton work.  A fixed phase keeps the work of a pass fixed.
        self.sweep_cfg = self.config("e1-sweep.cfg", E1_SWEEP_CONFIG.format(
            c=1.0, s=0.0,
            eps=", ".join(repr(e) for e in SWEEP_EPS)))
        self.checks = {
            "resonance": oracles.check_resonance,
            "find_periodic": oracles.check_find_periodic,
            "sweep": lambda rc, out, csv: oracles.check_sweep(
                rc, out, csv, SWEEP_EPS),
        }

    def run_pass(self, run_op):
        ops = [run_op("resonance", ["resonance", "--config", self.orbit_cfg])]
        seed = oracles.resonance_seed(ops[0].csv)
        if seed is None:
            ops.append(OpResult("find_periodic", None, "", "", 0.0,
                                "no resonance zero to seed from"))
        else:
            ops.append(run_op("find_periodic", [
                "find-periodic", "--config", self.orbit_cfg,
                "--set", f"shoot.seed=({seed[0]!r}, {seed[1]!r})"]))
        ops.append(run_op("sweep", ["sweep", "--config", self.sweep_cfg]))
        return ops


class AveragingE2(Workload):
    name = "averaging-e2"
    why = ("long horizons d/eps with 1024 checkpoints, period-restarted "
           "pullbacks and nested backward runs in solve_averaged")

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        radius, angle = math.hypot(1.0, 0.5), math.atan2(0.5, 1.0)
        angle += self.rng.uniform(-0.02, 0.02)
        self.xi0 = (radius * math.cos(angle), radius * math.sin(angle))
        self.cfg = self.config("e2-average.cfg", E2_AVERAGE_CONFIG.format(
            run_seed=self.rng.randrange(1, 2 ** 31), x1=self.xi0[0],
            x2=self.xi0[1], eps=", ".join(repr(e) for e in VERIFY_EPS)))
        self.checks = {
            "average": oracles.check_average,
            "verify_cauchy": lambda rc, out, csv: oracles.check_verify_cauchy(
                rc, out, csv, self.xi0, VERIFY_EPS),
        }

    def run_pass(self, run_op):
        return [run_op("average", ["average", "--config", self.cfg]),
                run_op("verify_cauchy", ["verify-cauchy", "--config", self.cfg])]


WORKLOADS = {w.name: w for w in (ExistenceE1, Orbits, AveragingE2)}
