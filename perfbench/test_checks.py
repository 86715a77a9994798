"""Self-tests of the benchmark's checker and tracer.

    python3 -m pytest perfbench -q

A fake command line feeds closed-form outputs through the same pass and
check path the benchmark uses; perturbing one output must make a call
fail, so fail_frac rises above 0.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import fsolve

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SWEEP_EPS, WORKLOADS, ExistenceE1  # noqa: E402

A2_WITNESS = ("A2 inconclusive (point=[ 0.4472136  -0.89442719], "
              "norm=3.1e-12, reason=defect field vanishes on the boundary)")


def _csv(columns, rows):
    head = "# epsode 0.1.0\n# command test\n# config 0\n# seed 1\n"
    return head + ",".join(columns) + "\n" + "".join(
        ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in r)
        + "\n"
        for r in rows)


def e1_outputs(phase):
    """Exit code, stdout and CSV of each existence-e1 call, from closed forms."""
    angles = 2 * np.pi * np.arange(512) / 512
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    s = np.linspace(0.0, 2 * np.pi, 65)
    rad = oracles.e1_defect_radial(0.0, angles)
    min_norm = np.abs(oracles.e1_defect_radial(s[:, None], angles[None, :])).min(axis=1)
    gap = 1.0 - oracles.E1_MU2
    m = oracles.e1_melnikov(phase)
    return {
        "A0": (0, "A0 holds", _csv(("index", "x1", "x2", "residual"),
                                   [(i, *p, 1e-12) for i, p in enumerate(pts)])),
        "A1": (0, "A1 holds", _csv(("s", "min_defect_norm"), zip(s, min_norm))),
        "A2": (3, A2_WITNESS, _csv(("x1", "x2", "F1", "F2", "norm"),
                                   [(*p, *(r * p), abs(r)) for p, r in zip(pts, rad)])),
        "A3": (0, "A3 holds", _csv(("theta", "dist_to_one", "gap", "simple"),
                                   [(t, 1e-13, gap, "true") for t in s])),
        "melnikov": (0, "A3_1 holds", _csv(("theta", "M"), [(t, m) for t in s])),
    }


class FakeCli:
    """Stands in for epsode.cli: prints and writes canned outputs."""

    def __init__(self, outputs):
        self.outputs = outputs

    def run(self, argv):
        rc, out, csv = self.outputs[argv[1] if argv[0] == "check" else argv[0]]
        print(out)
        Path(argv[argv.index("--out") + 1]).write_text(csv, encoding="utf-8")
        return rc


def run_e1(tmp_path, edit=None, passes=1):
    workload = ExistenceE1(7, tmp_path)
    outputs = e1_outputs(workload.phase)
    run = bench.Run(workload, FakeCli(outputs), tmp_path)
    for i in range(passes):
        if edit is not None and i == passes - 1:
            edit(outputs)
        run.one_pass()
    return run


def test_closed_form_outputs_pass(tmp_path):
    run = run_e1(tmp_path, passes=2)
    assert run.failures == []
    assert (run.attempted, run.failed) == (10, 0)


def test_melnikov_off_by_1e5_relative_fails(tmp_path):
    def edit(outputs):
        rc, out, csv = outputs["melnikov"]
        header, rows = oracles.parse_csv(csv)
        rows = [(r["theta"], float(r["M"]) * (1 + 1e-5)) for r in rows]
        outputs["melnikov"] = (rc, out, _csv(header, rows))

    run = run_e1(tmp_path, edit)
    assert run.failed == 1 and run.failed / run.attempted > 0
    assert "melnikov" in run.failures[0]


def test_a2_wrong_exit_code_fails(tmp_path):
    def edit(outputs):
        outputs["A2"] = (0,) + outputs["A2"][1:]

    run = run_e1(tmp_path, edit)
    assert run.failed == 1
    assert "A2 exit 0" in run.failures[0]


def test_a2_witness_off_the_zero_fails(tmp_path):
    def edit(outputs):
        rc, out, csv = outputs["A2"]
        outputs["A2"] = (rc, out.replace("0.4472136 ", "0.6 "), csv)

    assert run_e1(tmp_path, edit).failed == 1


def test_changed_rows_between_passes_fail(tmp_path):
    def edit(outputs):
        rc, out, csv = outputs["A0"]
        outputs["A0"] = (rc, out, csv.replace("1e-12", "2e-12"))

    run = run_e1(tmp_path, edit, passes=2)
    assert run.failed == 1
    assert "differ from the first pass" in run.failures[0]


def test_comment_lines_are_not_compared(tmp_path):
    def edit(outputs):
        rc, out, csv = outputs["A0"]
        outputs["A0"] = (rc, out, "# steps 123\n" + csv)

    assert run_e1(tmp_path, edit, passes=2).failed == 0


def _e1_equilibrium(eps):
    return fsolve(lambda x: oracles.e1_field(eps)(0.0, x), [-eps, 0.0],
                  xtol=1e-14)


def _sweep_csv(converged=(True, True, True)):
    cols = ("eps", "converged", "xi1", "xi2", "residual", "mu1_re", "mu1_im",
            "mu2_re", "mu2_im", "in_region", "dist_to_boundary")
    rows = []
    for eps, ok in zip(SWEEP_EPS, converged):
        xi = _e1_equilibrium(eps)
        rows.append((eps, "true" if ok else "false", *xi, 1e-12,
                     1.0, 0.0, 1.0, 0.0, "true", 0.9))
    return _csv(cols, rows)


def test_sweep_check():
    assert oracles.check_sweep(0, "", _sweep_csv(), SWEEP_EPS) == []
    errs = oracles.check_sweep(2, "", _sweep_csv((True, False, True)), SWEEP_EPS)
    assert any("did not converge" in e for e in errs)
    assert any("exit 2" in e for e in errs)


def test_resonance_zero_oracle():
    a0, th0 = oracles.resonance_zero()
    assert abs(a0 ** 3 - 4 * a0 - 4) < 1e-12 and th0 == pytest.approx(math.pi / 2)
    good = _csv(("a", "theta", "residual", "detH", "local_degree"),
                [(a0, th0, 1e-14, -50.0, -1)])
    assert oracles.check_resonance(0, "", good) == []
    bad = good.replace(repr(a0), repr(a0 + 1e-7))
    assert oracles.check_resonance(0, "", bad)


def test_melnikov_oracle_closed_form():
    assert oracles.e1_melnikov(0.0) == pytest.approx(
        -(2.0 / 5.0) * (math.exp(4 * math.pi) - 1.0), rel=1e-12)


def test_tracer_restores_originals_and_reports_missing(monkeypatch):
    import epsode
    import epsode.averaging
    import epsode.solver
    import epsode.variational

    original_eval = epsode.solver.Trajectory.__dict__["eval"]
    monkeypatch.delattr(epsode.variational, "integrate_checkpoints")
    monkeypatch.delattr(epsode.averaging, "integrate_checkpoints")
    tracer = Tracer()
    tracer.install(epsode)
    assert epsode.solver.Trajectory.__dict__["eval"] is not original_eval
    tracer.uninstall()
    assert epsode.solver.Trajectory.__dict__["eval"] is original_eval
    assert epsode.periodic.integrate is epsode.solver.integrate
    assert {"variational.integrate_checkpoints",
            "averaging.integrate_checkpoints"} <= tracer.missing
    values, absent = tracer.metrics(1)
    assert "solver.integrate_calls" in values
    assert "systems.rhs_calls" in absent  # no system was built


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    present, absent = Tracer().metrics(1)
    layer = set(present) | set(absent) | {f"cli.{op}_s" for op in bench.CLI_OPS}
    layer |= {"process.cpu_s", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: bench.per_layer_unit(name) for name in layer}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
