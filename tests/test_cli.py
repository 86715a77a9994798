import re
import warnings
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

from epsode import resonance_H
from epsode.cli import (ConfigError, config_hash, parse_config, run)

E1_CFG = """
[system]
builtin = e1-circle

[region]
shape = circle(0, 0, 1, 512)

[cycle]
seed = (1, 0)
"""

INLINE_CFG = """
[system]
k = 2
T = 6.283185307179586
phi1 = "-x1"
phi2 = "-x2"
psi1 = "0"
psi2 = "0"

[region]
shape = circle(0, 0, 1, 256)
"""


@pytest.fixture
def e1_cfg(tmp_path):
    p = tmp_path / "e1.cfg"
    p.write_text(E1_CFG)
    return str(p)


@pytest.fixture
def inline_cfg(tmp_path):
    p = tmp_path / "inline.cfg"
    p.write_text(INLINE_CFG)
    return str(p)


def test_describe_builtin(e1_cfg, capsys):
    assert run(["describe", "--config", e1_cfg]) == 0
    out = capsys.readouterr().out
    assert "phi = (1, 0)" in out
    assert "div psi" in out


def test_describe_resonance_slot_note(tmp_path, capsys):
    p = tmp_path / "e2.cfg"
    p.write_text("[system]\nbuiltin = e2-resonance\n")
    assert run(["describe", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "u = -x1, v = x2" in out
    assert "lam=1.0" in out


def test_missing_config_names_path(capsys):
    rc = run(["check", "A0", "--config", "/nonexistent/path.cfg"])
    assert rc == 1
    assert "/nonexistent/path.cfg" in capsys.readouterr().err


def test_unknown_key_lists_valid(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[grids]\nbogus = 3\n")
    rc = run(["describe", "--config", str(p)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "boundary_samples" in err


def test_usage_error_exit_code(capsys):
    assert run(["not-a-command"]) == 1
    assert run([]) == 1


def test_check_a0_holds(e1_cfg, tmp_path, capsys):
    out = tmp_path / "a0.csv"
    rc = run(["check", "A0", "--config", e1_cfg, "--out", str(out)])
    assert rc == 0
    assert "A0 holds" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# epsode ")
    assert lines[1] == "# command check A0"
    assert lines[2].startswith("# config ")
    assert lines[3].startswith("# seed ")
    assert lines[4] == "index,x1,x2,residual"
    assert len(lines) == 5 + 512


def test_check_a1_fails_for_zero_forcing(inline_cfg, tmp_path, capsys):
    rc = run(["check", "A1", "--config", inline_cfg,
              "--set", "system.phi1=0", "--set", "system.phi2=0",
              "--set", "grids.boundary_samples=16",
              "--set", "grids.s_points=3"])
    assert rc == 2
    assert "A1 fails" in capsys.readouterr().out


def test_check_a2_inline_holds(inline_cfg, tmp_path, capsys):
    rc = run(["check", "A2", "--config", inline_cfg,
              "--set", "grids.boundary_samples=64"])
    assert rc == 0
    assert "A2 holds" in capsys.readouterr().out


def test_check_a2_evaluates_the_boundary_once(inline_cfg, tmp_path,
                                              monkeypatch):
    from epsode import variational
    from epsode.cli import build_integrator, build_region, build_system
    from epsode.conditions import check_A2

    real = variational.defect_many
    lanes = []

    def counting(sys_def, Xi, *args):
        lanes.append(len(Xi))
        return real(sys_def, Xi, *args)

    monkeypatch.setattr(variational, "defect_many", counting)
    cfg = parse_config(inline_cfg, ["grids.boundary_samples=64"])
    sys_def, icfg = build_system(cfg), build_integrator(cfg)
    check_A2(sys_def, build_region(cfg), boundary_samples=64, cfg=icfg)
    direct = sum(lanes)
    lanes.clear()
    out = tmp_path / "a2.csv"
    assert run(["check", "A2", "--config", inline_cfg, "--out", str(out),
                "--set", "grids.boundary_samples=64"]) == 0
    assert 0 < sum(lanes) <= direct
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "x1,x2,F1,F2,norm"
    rows = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    # the values of a fresh 64-lane batch over the same boundary grid
    fresh = real(sys_def, rows[:, :2], icfg)
    assert len(rows) == 64 and np.array_equal(rows[:, 2:4], fresh)


def test_check_a2_inconclusive_on_cycle_boundary(e1_cfg, capsys):
    rc = run(["check", "A2", "--config", e1_cfg,
              "--set", "grids.boundary_samples=128"])
    assert rc == 3
    assert "inconclusive" in capsys.readouterr().out


def test_melnikov_csv_values(e1_cfg, tmp_path):
    out = tmp_path / "mel.csv"
    rc = run(["melnikov", "--config", e1_cfg, "--out", str(out)])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "theta,M"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 65
    closed = -(2.0 / 5.0) * (np.exp(4 * np.pi) - 1)
    for _, m in rows:
        assert abs(float(m) - closed) / abs(closed) <= 1e-6


def test_byte_identical_reruns(e1_cfg, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["melnikov", "--config", e1_cfg, "--out", str(a)]) == 0
    assert run(["melnikov", "--config", e1_cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_set_override_changes_hash_and_output(e1_cfg, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(["check", "A0", "--config", e1_cfg, "--out", str(a),
         "--set", "grids.a0_samples=32"])
    run(["check", "A0", "--config", e1_cfg, "--out", str(b),
         "--set", "grids.a0_samples=16"])
    assert a.read_bytes() != b.read_bytes()


def test_svg_plot_valid_xml(e1_cfg, tmp_path):
    svg = tmp_path / "mel.svg"
    out = tmp_path / "mel.csv"
    rc = run(["melnikov", "--config", e1_cfg, "--out", str(out),
              "--plot", str(svg)])
    assert rc == 0
    doc = xml.dom.minidom.parse(str(svg))
    polylines = doc.getElementsByTagName("polyline")
    assert len(polylines) == 1


def test_degree_command(tmp_path, capsys):
    p = tmp_path / "deg.cfg"
    p.write_text("""
[region]
shape = circle(0, 0, 1, 256)

[field]
f1 = "x1^2 - x2^2"
f2 = "2*x1*x2"
""")
    out = tmp_path / "deg.csv"
    rc = run(["degree", "--config", str(p), "--out", str(out)])
    assert rc == 0
    assert "degree 2" in capsys.readouterr().out


def test_degree_of_a_field_not_finite_is_inconclusive_at_once(tmp_path,
                                                               capsys):
    # log(x1) is nan on the left half of the circle; no refinement round
    # can settle its angle, so the first one names the sample
    p = tmp_path / "deg.cfg"
    p.write_text("""
[region]
shape = circle(0, 0, 1, 64)

[field]
f1 = "log(x1) + 5"
f2 = "x2"
""")
    out = tmp_path / "deg.csv"
    with warnings.catch_warnings():  # the verdict says it; numpy does not
        warnings.simplefilter("error")
        rc = run(["degree", "--config", str(p), "--out", str(out)])
    printed = capsys.readouterr()
    assert rc == 3 and "Traceback" not in printed.err
    found = re.search(r"^degree inconclusive \(field not finite at u=\S+, "
                      r"point \((\S+), (\S+)\)", printed.out)
    assert found and float(found.group(1)) < 0
    assert abs(float(found.group(1)) ** 2 + float(found.group(2)) ** 2
               - 1) <= 1e-5


def test_degree_polygon_region(tmp_path, capsys):
    p = tmp_path / "deg.cfg"
    p.write_text("""
[region]
shape = polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])

[field]
f1 = "x1"
f2 = "x2"
""")
    rc = run(["degree", "--config", str(p), "--out",
              str(tmp_path / "o.csv")])
    assert rc == 0
    assert "degree 1" in capsys.readouterr().out


def test_region_star_center_keeps_the_circle(e1_cfg):
    from epsode.cli import build_region
    cfg = parse_config(e1_cfg, ["region.shape=circle(0, 0, 1, 512)",
                                "region.star_center=(0.5, 0)"])
    region = build_region(cfg)
    assert np.array_equal(region.star_center, [0.5, 0.0])
    assert region.distance_to_boundary(np.zeros((1, 2)))[0] == 1.0
    assert region.contains([-0.95, 0.0])


@pytest.mark.parametrize("shape, word", [
    ("circle(0, 0, -1, 512)", "radius r"), ("circle(0, 0, 0, 512)", "radius r"),
    ("circle(0, 0, 1, 2)", "n >= 3")])
def test_bad_circle_is_a_config_error(e1_cfg, tmp_path, capsys, shape, word):
    rc = run(["check", "A0", "--config", e1_cfg, "--out",
              str(tmp_path / "a0.csv"), "--set", f"region.shape={shape}"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error: bad region.shape") and word in err


def test_resonance_command(tmp_path, capsys):
    p = tmp_path / "res.cfg"
    p.write_text("""
[resonance]
g = "(1 - x1^2)*x2 + cos(t)"
a_range = (0.5, 3.5)
theta_range = (0, 6.283185307179586)
grid = (8, 8)
""")
    out = tmp_path / "res.csv"
    rc = run(["resonance", "--config", str(p), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "a=2.38298" in text
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "a,theta,residual,detH,local_degree"
    vals = rows[1].split(",")
    assert float(vals[0]) == pytest.approx(2.3829757679, abs=1e-6)
    assert int(vals[4]) == -1


def test_resonance_rejects_a_jumping_forcing(tmp_path, capsys):
    p = tmp_path / "res.cfg"
    p.write_text("""
[resonance]
g = "(1 - x1^2)*x2 + sign(cos(t))"
""")
    rc = run(["resonance", "--config", str(p), "--out",
              str(tmp_path / "res.csv")])
    assert rc == 1
    assert "jumps at sign(cos(t))" in capsys.readouterr().err


def test_resonance_rejects_a_forcing_not_finite_on_a_seed_circle(tmp_path,
                                                                  capsys):
    # log(x1) is nan on half of every circle; without the check the rule
    # doubled to its cap, every seed stopped as nonfinite and the command
    # reported that it found no zeros
    p = tmp_path / "res.cfg"
    p.write_text("""
[resonance]
g = "log(x1) + cos(t)"
""")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["resonance", "--config", str(p), "--out",
                  str(tmp_path / "res.csv")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: forcing expression is not "
                                      "finite")
    assert "seed a=0.5, theta=0;" in err and "Traceback" not in err


def test_resonance_header_reports_newton_cost(tmp_path):
    p = tmp_path / "res.cfg"
    p.write_text("""
[resonance]
g = "(1 - x1^2)*x2 + cos(t)"
a_range = (0.5, 3.5)
theta_range = (0, 6.283185307179586)
grid = (8, 8)
""")
    texts = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run(["resonance", "--config", str(p), "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    rm = resonance_H("(1 - x1^2)*x2 + cos(t)", (0.5, 3.5),
                     (0.0, 6.283185307179586), grid=(8, 8))
    assert sum(rm.newton.values()) == 64
    header = [l for l in texts[0].splitlines() if l.startswith("#")]
    assert header[-2:] == [
        "# newton " + " ".join(f"{s}={n}" for s, n in rm.newton.items()),
        f"# cost forcing_calls={rm.forcing_calls} "
        f"quad_points={rm.quad_points} quad_nodes={rm.quad_nodes} "
        f"quad_error={rm.quad_error:.3e}"]
    # the orbits forcing is a trigonometric polynomial: the doubling stops
    # at its first comparison
    assert rm.quad_nodes == 32 and rm.quad_error <= 1e-12


def test_average_command_static_flow(tmp_path, capsys, monkeypatch):
    from epsode.averaging import AveragedField

    def refuse(self, Xi):
        raise AssertionError("average evaluated the field again")

    # average prints the values the doubling validated
    monkeypatch.setattr(AveragedField, "eval_many", refuse)
    p = tmp_path / "avg.cfg"
    p.write_text("[system]\nbuiltin = e3-scalar\n\n[average]\nradius = 2.0\n")
    out = tmp_path / "avg.csv"
    rc = run(["average", "--config", str(p), "--out", str(out)])
    assert rc == 0
    assert "n_used=1" in capsys.readouterr().out
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "xi1,Phi1,cauchy_estimate"
    for row in rows[1:]:
        xi, phi, est = map(float, row.split(","))
        assert phi == pytest.approx(-xi, abs=1e-8)


def test_average_command_divergent(tmp_path, capsys):
    p = tmp_path / "avg.cfg"
    p.write_text("[system]\nbuiltin = e1-circle\n\n"
                 "[average]\nradius = 0.8\nn_max = 8\n")
    rc = run(["average", "--config", str(p), "--out",
              str(tmp_path / "x.csv")])
    assert rc == 3
    assert "inconclusive" in capsys.readouterr().out


def test_verify_cauchy_command(tmp_path, capsys):
    p = tmp_path / "ver.cfg"
    p.write_text("""
[system]
builtin = e3-scalar

[verify]
xi0 = (1.0)
d = 0.5
eps = 0.02

[average]
radius = 3.0
""")
    out = tmp_path / "ver.csv"
    rc = run(["verify-cauchy", "--config", str(p), "--out", str(out)])
    assert rc == 0
    assert "1/1 pass" in capsys.readouterr().out
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "eps,t,x1,approx1,error"
    first = rows[1].split(",")
    assert float(first[4]) == pytest.approx(
        abs(float(first[2]) - float(first[3])), abs=1e-12)


def test_find_periodic_command(tmp_path, capsys):
    p = tmp_path / "orb.cfg"
    p.write_text("""
[system]
builtin = e3-scalar

[shoot]
eps = 1.0
seed = (0.9)
""")
    out = tmp_path / "orb.csv"
    rc = run(["find-periodic", "--config", str(p), "--out", str(out)])
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0].startswith("eps,converged,xi1,residual")
    vals = rows[1].split(",")
    assert vals[1] == "true"
    assert float(vals[2]) == pytest.approx(0.5, abs=1e-8)


def test_find_periodic_says_when_it_did_not_converge(tmp_path, capsys):
    # at eps = 0 Newton reaches e1's cycle, where the period map's Jacobian
    # is singular; shoot reports that as not converged instead of raising
    p = tmp_path / "fp.cfg"
    p.write_text("[system]\nbuiltin = e1-circle\n\n"
                 "[shoot]\neps = 0\nseed = (1.2, 0.1)\n")
    out = tmp_path / "fp.csv"
    rc = run(["find-periodic", "--config", str(p), "--out", str(out)])
    printed = capsys.readouterr().out
    assert rc == 2
    assert printed.startswith("find-periodic did not converge: xi*=")
    assert "converged:" not in printed
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[1].split(",")[1] == "false"


def test_find_periodic_writes_the_iterate_of_a_stalled_shot(e1_cfg, tmp_path,
                                                           capsys):
    # from e1's cycle at eps 1e-2 the period map has no fixed point nearby
    out = tmp_path / "fp.csv"
    rc = run(["find-periodic", "--config", e1_cfg, "--out", str(out),
              "--set", "shoot.eps=0.01", "--set", "shoot.seed=(1, 0)"])
    printed = capsys.readouterr().out
    assert rc == 2
    assert printed.startswith("find-periodic did not converge: xi*=")
    assert "shooting Newton stalled (residuals ... " in printed
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0].startswith("eps,converged,xi1,xi2,residual")
    assert "note" not in rows[0]
    assert len(rows) == 2 and rows[1].split(",")[:2] == ["0.01", "false"]


def test_sweep_command(tmp_path, capsys):
    p = tmp_path / "sw.cfg"
    p.write_text("""
[system]
builtin = e1-circle

[region]
shape = circle(0, 0, 1, 256)

[cycle]
seed = (1, 0)

[sweep]
eps = 1e-2, 5e-3
""")
    out = tmp_path / "sw.csv"
    rc = run(["sweep", "--config", str(p), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "2/2 converged" in text
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 3


def test_config_hash_stable():
    cfg = {"a": {"x": "1"}, "b": {"y": "2"}}
    assert config_hash(cfg) == config_hash({"b": {"y": "2"}, "a": {"x": "1"}})
    assert config_hash(cfg) != config_hash({"a": {"x": "2"}, "b": {"y": "2"}})


def test_parse_config_rejects_bad_set(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("[system]\nbuiltin = e3-scalar\n")
    with pytest.raises(ConfigError, match="section.key"):
        parse_config(str(p), ["novalue"])


def test_membership_points_is_an_unknown_key(e1_cfg, capsys):
    rc = run(["describe", "--config", e1_cfg,
              "--set", "grids.membership_points=64"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown key 'membership_points'" in err


@pytest.mark.parametrize("key", ["quad_panels", "quad_order"])
def test_quadrature_keys_are_unknown(e1_cfg, tmp_path, capsys, key):
    # the quadrature rules fix their own nodes; no config sets them
    rc = run(["check", "A0", "--config", e1_cfg, "--out",
              str(tmp_path / "a0.csv"), "--set", f"grids.{key}=64"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error") and f"unknown key '{key}'" in err
    assert "a0_samples" in err and "boundary_samples" in err


def test_max_step_is_an_unknown_key(e1_cfg, tmp_path, capsys):
    # the step controller alone sizes every step; no config bounds it
    rc = run(["check", "A0", "--config", e1_cfg, "--out",
              str(tmp_path / "a0.csv"), "--set", "integrator.max_step=inf"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error") and "unknown key 'max_step'" in err
    assert "max_steps" in err and "rel_tol" in err


def test_empty_number_list_is_rejected(tmp_path, capsys):
    p = tmp_path / "ver.cfg"
    p.write_text("[system]\nbuiltin = e3-scalar\n\n"
                 "[verify]\nxi0 = (1.0)\nd = 0.5\neps = ()\n")
    assert run(["verify-cauchy", "--config", str(p)]) == 1
    assert "verify.eps: not a number list" in capsys.readouterr().err


SWEEP_CFG = E1_CFG + "\n[sweep]\neps = 1e-2\n"


def test_sweep_header_reports_newton_cost(tmp_path):
    # the orbits benchmark's sweep: an equilibrium fallback at 1e-2, then
    # one corrector step from each tangent prediction
    p = tmp_path / "sw.cfg"
    p.write_text(E1_CFG + "\n[sweep]\neps = 1e-2, 5e-3, 2.5e-3\n")
    texts = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run(["sweep", "--config", str(p), "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    header = [l for l in texts[0].splitlines() if l.startswith("#")]
    assert header[-1] == ("# newton iterations=0 1 1 "
                          "seeds=fallback predicted predicted")


def test_quoted_sweep_strategy_sweeps_by_continuation(tmp_path, monkeypatch,
                                                      capsys):
    from epsode import cli
    seen = []
    real = cli.eps_sweep

    def spy(*args, **kwargs):
        seen.append(kwargs.get("seed_strategy", "continuation"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "eps_sweep", spy)
    p = tmp_path / "sw.cfg"
    p.write_text(SWEEP_CFG + 'strategy = "continuation"\n')
    assert run(["sweep", "--config", str(p),
                "--out", str(tmp_path / "sw.csv")]) == 0
    assert seen == ["continuation"]


def test_misspelt_sweep_strategy_exits_1(tmp_path, capsys):
    p = tmp_path / "sw.cfg"
    p.write_text(SWEEP_CFG + "strategy = continuaton\n")
    assert run(["sweep", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert "sweep.strategy" in err
    assert "continuation" in err and "fixed" in err


def test_check_a1_inconclusive_writes_the_library_grid(e1_cfg, tmp_path,
                                                       capsys):
    out = tmp_path / "a1.csv"
    rc = run(["check", "A1", "--config", e1_cfg, "--out", str(out),
              "--set", "integrator.max_steps=2", "--set", "grids.s_points=5"])
    assert rc == 3
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "s,min_defect_norm"
    grid = np.linspace(0.0, 2 * np.pi, 5)
    assert [float(r.split(",")[0]) for r in rows[1:]] == list(grid)
    assert all(r.endswith(",inf") for r in rows[1:])


# Each subcommand that reads defaulted keys, a cheap config for it and its
# keys set to the defaults the CLI used to write out itself.
INTEGRATOR_DEFAULTS = ["integrator.rel_tol=1e-10", "integrator.abs_tol=1e-12",
                       "integrator.max_steps=1000000"]
E3_CFG = """
[system]
builtin = e3-scalar

[shoot]
eps = 1.0
seed = (0.9)

[verify]
xi0 = (1.0)
d = 0.5
eps = 0.02
"""
FIELD_CFG = """
[region]
shape = circle(0, 0, 1, 64)

[field]
f1 = "x1^2 - x2^2"
f2 = "2*x1*x2"

[resonance]
g = "(1 - x1^2)*x2 + cos(t)"
"""
DEFAULTED = {
    "check A0": (E1_CFG, INTEGRATOR_DEFAULTS + [
        "grids.a0_samples=512", "tolerances.a0_tol=1e-7"]),
    "check A1": (E1_CFG, INTEGRATOR_DEFAULTS + [
        "grids.s_points=65", "grids.boundary_samples=512",
        "tolerances.a1_tol=1e-6"]),
    "check A2": (INLINE_CFG, INTEGRATOR_DEFAULTS + [
        "grids.boundary_samples=512", "tolerances.vanish_tol=1e-9"]),
    "check A3": (E1_CFG, INTEGRATOR_DEFAULTS + [
        "grids.theta_points=65", "tolerances.cycle_tol=1e-6"]),
    "melnikov": (E1_CFG, INTEGRATOR_DEFAULTS + [
        "grids.theta_points=65", "tolerances.cycle_tol=1e-6",
        "tolerances.a3_tol=1e-8"]),
    "sweep": (SWEEP_CFG, INTEGRATOR_DEFAULTS + [
        "sweep.strategy=continuation", "grids.theta_points=65",
        "tolerances.cycle_tol=1e-6", "tolerances.shoot_tol=1e-9"]),
    "degree": (FIELD_CFG, ["grids.boundary_samples=512",
                           "tolerances.vanish_tol=1e-9"]),
    "resonance": (FIELD_CFG, [
        "resonance.a_range=(0.5, 3.5)",
        "resonance.theta_range=(0, 6.283185307179586)",
        "resonance.grid=(12, 12)"]),
    "average": (E3_CFG, INTEGRATOR_DEFAULTS + [
        "average.radius=2.0", "average.n_max=256", "tolerances.phi_tol=1e-7",
        "average.samples=17", "run.seed=12345"]),
    "verify-cauchy": (E3_CFG, INTEGRATOR_DEFAULTS + [
        "tolerances.gamma_tol=0.1", "average.radius=2.0", "average.n_max=256",
        "tolerances.phi_tol=1e-7", "average.samples=17", "run.seed=12345"]),
    "find-periodic": (E3_CFG, INTEGRATOR_DEFAULTS + [
        "tolerances.shoot_tol=1e-9"]),
}


@pytest.mark.parametrize("command", sorted(DEFAULTED))
def test_unset_keys_keep_their_former_defaults(command, tmp_path, capsys):
    text, explicit = DEFAULTED[command]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    results = []
    for overrides in ([], explicit):
        out = tmp_path / f"{len(overrides)}.csv"
        argv = command.split() + ["--config", str(cfg), "--out", str(out)]
        rc = run(argv + [a for o in overrides for a in ("--set", o)])
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("# config ")]
        results.append((rc, lines, capsys.readouterr().out))
    assert results[0] == results[1]


SMALL = {
    "describe": (E1_CFG, []),
    "check A0": (E1_CFG, ["grids.a0_samples=16"]),
    "check A1": (INLINE_CFG, ["grids.boundary_samples=16",
                              "grids.s_points=3"]),
    "check A2": (INLINE_CFG, ["grids.boundary_samples=64"]),
    "check A3": (E1_CFG, ["grids.theta_points=5"]),
    "melnikov": (E1_CFG, ["grids.theta_points=5"]),
    "degree": (FIELD_CFG, ["grids.boundary_samples=64"]),
    "resonance": (FIELD_CFG, ["resonance.grid=(3, 3)"]),
    "average": (E3_CFG, []),
    "verify-cauchy": (E3_CFG, []),
    "find-periodic": (E3_CFG, []),
    "sweep": (SWEEP_CFG, []),
}


@pytest.mark.parametrize("command", sorted(SMALL))
def test_every_command_ends_in_a_word_of_the_exit_table(command, tmp_path,
                                                        capsys):
    from epsode import cli
    assert {c.split()[0] for c in SMALL} == set(cli._COMMANDS)
    text, overrides = SMALL[command]
    p = tmp_path / "c.cfg"
    p.write_text(text)
    args = cli._build_parser().parse_args(
        command.split() + ["--config", str(p), "--out",
                           str(tmp_path / "o.csv")]
        + [a for o in overrides for a in ("--set", o)])
    cfg = cli.parse_config(args.config, args.overrides)
    word = cli._COMMANDS[args.command](args, cfg,
                                       cli.Output(args, cfg, command))
    assert word in cli._EXIT


def test_average_and_verify_cauchy_build_the_same_field(tmp_path, monkeypatch):
    from epsode import cli
    seen = []
    real = cli.averaged_field

    def spy(sys_def, *args, **kwargs):
        seen.append((sys_def.name, args, kwargs))
        return real(sys_def, *args, **kwargs)

    monkeypatch.setattr(cli, "averaged_field", spy)
    p = tmp_path / "both.cfg"
    p.write_text(E3_CFG + "\n[average]\nradius = 3.0\nn_max = 64\n"
                 "samples = 5\n\n[tolerances]\nphi_tol = 1e-6\n\n"
                 "[run]\nseed = 7\n")
    for command in ("average", "verify-cauchy"):
        assert run([command, "--config", str(p),
                    "--out", str(tmp_path / "out.csv")]) == 0
    assert len(seen) == 2 and seen[0] == seen[1]
    assert {key: seen[0][2][key] for key in
            ("r", "n_max", "n_samples", "phi_tol", "seed")} == {
        "r": 3.0, "n_max": 64, "n_samples": 5, "phi_tol": 1e-6, "seed": 7}


def _usage_error(argv, capsys):
    """Exit code and stderr of a run that must print one error line and no
    CSV."""
    rc = run(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    return rc, captured.err


@pytest.mark.parametrize("override, message", [
    ("verify.eps=0", "eps values must be positive"),
    ("verify.d=0", "d must be positive"),
    ("verify.d=-1", "d must be positive"),
])
def test_verify_cauchy_bad_input_is_a_usage_error(override, message,
                                                  tmp_path, capsys):
    p = tmp_path / "v.cfg"
    p.write_text(E3_CFG)
    rc, err = _usage_error(["verify-cauchy", "--config", str(p),
                            "--set", override], capsys)
    assert rc == 1 and message in err


def test_verify_cauchy_ball_escape_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "v.cfg"
    p.write_text(E3_CFG)
    rc, err = _usage_error(["verify-cauchy", "--config", str(p),
                            "--set", "average.radius=0.5"], capsys)
    assert rc == 1 and "larger radius" in err


@pytest.mark.parametrize("command", ["average", "verify-cauchy"])
@pytest.mark.parametrize("override", [
    "average.radius=0", "average.radius=-1", "average.samples=0"])
def test_degenerate_averaging_ball_is_a_usage_error(command, override,
                                                   tmp_path, capsys):
    p = tmp_path / "v.cfg"
    p.write_text(E3_CFG)
    rc, _ = _usage_error([command, "--config", str(p), "--set", override],
                         capsys)
    assert rc == 1


@pytest.mark.parametrize("command", ["average", "verify-cauchy"])
def test_one_averaging_level_is_a_usage_error(command, tmp_path, capsys):
    # n_max = 1 leaves no two levels for the Cauchy rule to compare
    p = tmp_path / "v.cfg"
    p.write_text(E3_CFG)
    rc, err = _usage_error([command, "--config", str(p), "--set",
                            "average.n_max=1"], capsys)
    assert rc == 1 and err.startswith("error:") and "n_max" in err


def test_parser_is_built_once_and_keeps_no_overrides(tmp_path, monkeypatch):
    from epsode import cli
    seen = []
    real = cli.parse_config

    def spy(path, overrides=()):
        seen.append(list(overrides))
        return real(path, overrides)

    monkeypatch.setattr(cli, "parse_config", spy)
    cli._build_parser.cache_clear()
    p = tmp_path / "d.cfg"
    p.write_text(E3_CFG)
    assert run(["describe", "--config", str(p), "--set", "run.seed=7"]) == 0
    assert run(["describe", "--config", str(p)]) == 0
    assert seen == [["run.seed=7"], []]
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("command, key", [
    ("check A1", "grids.s_points"),
    ("check A1", "grids.boundary_samples"),
    ("check A2", "grids.boundary_samples"),
    ("check A3", "grids.theta_points"),
    ("melnikov", "grids.theta_points"),
])
def test_empty_grid_is_a_usage_error(command, key, e1_cfg, capsys):
    rc, err = _usage_error(command.split() + ["--config", e1_cfg,
                                              "--set", f"{key}=0"], capsys)
    assert rc == 1 and "error:" in err


@pytest.mark.parametrize("argv, text", [
    (["degree"], FIELD_CFG),
    (["check", "A2"], INLINE_CFG),
], ids=["degree", "check-A2"])
def test_one_boundary_sample_is_a_usage_error(argv, text, tmp_path, capsys):
    p = tmp_path / "one.cfg"
    p.write_text(text)
    out = tmp_path / "o.csv"
    argv = argv + ["--config", str(p), "--out", str(out),
                   "--set", "grids.boundary_samples=1"]
    rc, err = _usage_error(argv, capsys)
    assert rc == 1 and "n0 must be at least 3" in err
    assert not out.exists()


BLOWUP_CFG = Path(__file__).with_name("blowup.cfg")


@pytest.mark.parametrize("command, rc", [
    ("check A0", 3), ("check A1", 3), ("check A2", 3), ("check A3", 3),
    ("melnikov", 3), ("find-periodic", 3), ("average", 3),
    ("verify-cauchy", 3), ("sweep", 2),
])
def test_flow_failure_exit_codes(command, rc, tmp_path, capsys):
    text = BLOWUP_CFG.read_text()
    if command == "sweep":  # with a cycle the sweep fails building it
        text = re.sub(r"\[cycle\][^[]*", "", text)
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert run(command.split() + ["--config", str(cfg), "--out", str(out)]) \
        == rc
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "np.float64" not in captured.out
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    if command == "sweep":  # the CSV has no column for the failure
        printed = captured.out.splitlines()
        assert printed[-1] == "sweep: 0/2 converged, distance slope n/a"
        assert [l.split(" failed: ")[0] for l in printed[:-1]] == [
            "eps=0.1", "eps=0.05"]
        assert all(" failed: step failed (" in l for l in printed[:-1])
        assert [l.split(",")[:2] for l in lines[1:]] == [
            ["0.1", "false"], ["0.05", "false"]]
    elif command in ("check A0", "check A1", "check A2"):
        assert captured.out.startswith(f"{command[-2:]} inconclusive (error=")
    else:  # ended by the library failure: its message is the one note
        assert captured.out.startswith(f"{command} inconclusive (step failed")
        assert lines[0] == "note" and lines[1].startswith("step failed")


def test_sweep_shoots_each_start_once_per_eps(tmp_path, monkeypatch, capsys):
    # without a seed or a cycle the sweep starts from the star center, and
    # its last fallback is the star center again
    from epsode import periodic
    starts = []
    real = periodic.shoot

    def spy(sys, eps, seed, **kwargs):
        starts.append((eps, tuple(seed)))
        return real(sys, eps, seed, **kwargs)

    monkeypatch.setattr(periodic, "shoot", spy)
    cfg = tmp_path / "nocycle.cfg"
    cfg.write_text(re.sub(r"\[cycle\][^[]*", "", BLOWUP_CFG.read_text()))
    rc = run(["sweep", "--config", str(cfg), "--out",
              str(tmp_path / "sweep.csv")])
    assert rc == 2
    assert capsys.readouterr().out.count(" failed: step failed (") == 2
    assert starts == [(0.1, (0.0, 0.0)), (0.05, (0.0, 0.0))]


E2_VERIFY_CFG = """
[system]
builtin = e2-resonance

[verify]
xi0 = (1, 0.5)
d = 1
eps = 0.02
"""


MALFORMED = [
    ("check A3", E1_CFG, "cycle.seed=(1, 0, 0)"),
    ("find-periodic", E1_CFG + "\n[shoot]\neps = 0.01\n",
     "shoot.seed=(1, 0, 0)"),
    ("sweep", SWEEP_CFG, "sweep.seed=(1, 0, 0)"),
    ("verify-cauchy", E2_VERIFY_CFG, "verify.xi0=(1, 2, 3)"),
    ("check A0", E1_CFG, "region.star_center=(0, 0, 1)"),
    ("resonance", FIELD_CFG, "resonance.a_range=(1)"),
    ("resonance", FIELD_CFG, "resonance.theta_range=(0, 1, 2)"),
    ("resonance", FIELD_CFG, "resonance.a_range=(3.5, 0.5)"),
    ("resonance", FIELD_CFG, "resonance.theta_range=(6.0, 0.2)"),
    ("resonance", FIELD_CFG, "resonance.a_range=(1.0, 1.0)"),
    ("resonance", FIELD_CFG, "resonance.grid=(0, 5)"),
    ("resonance", FIELD_CFG, "resonance.grid=(5)"),
    ("describe", E2_VERIFY_CFG, "system.param.lam=abc"),
    # numbers that are not finite
    ("verify-cauchy", E2_VERIFY_CFG, "verify.d=inf"),
    ("verify-cauchy", E2_VERIFY_CFG, "verify.eps=inf"),
    ("verify-cauchy", E2_VERIFY_CFG, "verify.xi0=(nan, 0.5)"),
    ("resonance", FIELD_CFG, "resonance.a_range=(0.5, inf)"),
    ("resonance", FIELD_CFG, "resonance.grid=(inf, 5)"),
    ("describe", INLINE_CFG, "system.T=inf"),
    ("describe", E2_VERIFY_CFG, "system.param.lam=inf"),
    ("find-periodic", E1_CFG + "\n[shoot]\nseed = (1, 0)\n", "shoot.eps=inf"),
    ("find-periodic", E1_CFG + "\n[shoot]\nseed = (1, 0)\n", "shoot.eps=nan"),
    # keys the command would not read
    ("describe", E2_VERIFY_CFG, "system.T=3"),
    ("describe", E2_VERIFY_CFG, "system.phi1=x1"),
    ("describe", INLINE_CFG, 'system.phi3="junk("'),
    ("degree", FIELD_CFG, "field.f3=x1"),
    ("describe", E2_VERIFY_CFG, "system.param.lamda=2"),
    ("describe", INLINE_CFG, "system.param.mu=1"),
]


def test_an_overflowing_literal_is_a_config_error(inline_cfg, capsys):
    rc, err = _usage_error(["check", "A0", "--config", inline_cfg,
                            "--set", "system.phi1=1e400"], capsys)
    assert rc == 1 and "number 1e400 overflows a float at offset 0" in err


def test_readme_inline_system_example_is_accepted(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    # the commented inline definition in place of the builtin
    text = re.sub(r"builtin = .*\n# or an inline definition:\n", "", block)
    text = re.sub(r"^# ((k|T|phi\d|psi\d|param\.\w+) = )", r"\1", text,
                  flags=re.M)
    assert "builtin" not in text and "param.mu" in text
    p = tmp_path / "readme.cfg"
    p.write_text(text)
    assert run(["describe", "--config", str(p)]) == 0
    assert "parameters: mu=1.0" in capsys.readouterr().out


@pytest.mark.parametrize("command, text, override", MALFORMED,
                         ids=[case[2] for case in MALFORMED])
def test_malformed_value_is_a_config_error_naming_its_key(
        command, text, override, tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text(text)
    out = tmp_path / "o.csv"
    rc, err = _usage_error(command.split() + ["--config", str(p), "--out",
                                              str(out), "--set", override],
                           capsys)
    key = override.split("=")[0]
    assert rc == 1 and err.startswith(f"config error: {key}: ")
    assert not out.exists()
