"""Failure paths of ``python -m epsode.cli``, run through the entry point.

No tier-1 test reaches ``main()`` and its ``sys.exit``, so each case here
runs one subcommand in a subprocess and checks its exit code, that stderr
holds no traceback, and the patterns its output must (or must not) hold.
Each case adds a second or so; the module sits outside ``testpaths`` so
that the tier-1 suite does not pay for it.  Run it with

    python -m pytest entrypoint -q
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOWUP = (ROOT / "tests" / "blowup.cfg").read_text()

E1 = "[system]\nbuiltin = e1-circle\n\n[region]\nshape = circle(0, 0, 1, 512)\n"
E2 = "[system]\nbuiltin = e2-resonance\n\n[average]\nradius = 4.0\n"
RES = ('[system]\nbuiltin = e2-resonance\n\n[resonance]\n'
       'g = "(1 - x1^2)*x2 + cos(t)"\n')
VERIFY = E2 + "\n[verify]\nxi0 = (1, 0.5)\nd = 1\neps = 0.02\n"


def _field(f1, f2):
    return (f'[region]\nshape = circle(0, 0, 1, 64)\n\n[field]\nf1 = "{f1}"\n'
            f'f2 = "{f2}"\n')


def _inline(phi, psi, rest=""):
    return ("[system]\nk = 2\nT = 6.283185307179586\n"
            f'phi1 = "{phi[0]}"\nphi2 = "{phi[1]}"\n'
            f'psi1 = "{psi[0]}"\npsi2 = "{psi[1]}"\n' + rest)


# (id, config text, subcommand arguments, exit code, checks).  A check is
# (stream, pattern, count): stream "out", "err" or "csv", a regular
# expression searched line by line, and how many matches it wants (None
# for at least one).
CASES = [
    # a flow that escapes to infinity makes A2 inconclusive
    ("check-A2-blowup", BLOWUP, ["check", "A2"], 3, []),
    # without [cycle] each of the two eps values names its step failure
    ("sweep-without-cycle",
     re.sub(r"^\[cycle\]\n(?:.*\n)*?\n", "", BLOWUP, flags=re.M),
     ["sweep"], 2, [("out", "failed: step failed", 2)]),
    ("check-A0-negative-radius", E1,
     ["check", "A0", "--set", "region.shape=circle(0, 0, -1, 512)"], 1,
     [("err", "config error", None)]),
    ("check-A0-removed-key", E1,
     ["check", "A0", "--set", "grids.quad_panels=64"], 1,
     [("err", "config error", None)]),
    ("check-A3-seed-of-three", E1,
     ["check", "A3", "--set", "cycle.seed=(1, 0, 0)"], 1,
     [("err", "config error", None)]),
    # n_max = 1 leaves no two levels to compare
    ("average-n_max-1", E2, ["average", "--set", "average.n_max=1"], 1,
     [("err", "^error:", None)]),
    ("resonance-reversed-a_range", RES,
     ["resonance", "--set", "resonance.a_range=(3.5, 0.5)"], 1,
     [("err", "config error", None)]),
    # nan on half the circle
    ("degree-log-field", _field("log(x1) + 5", "x2"), ["degree"], 3,
     [("err", "RuntimeWarning", 0)]),
    ("resonance-nan-forcing", RES,
     ["resonance", "--set", 'resonance.g="log(x1) + cos(t)"'], 1,
     [("err", "^error:", None), ("err", "RuntimeWarning", 0)]),
    # Newton stops on the cycle with a singular Jacobian
    ("find-periodic-singular", E1,
     ["find-periodic", "--set", "shoot.eps=0",
      "--set", "shoot.seed=(1.2, 0.1)"], 2,
     [("out", "did not converge", None)]),
    # Newton stalls; the CSV holds the iterate's row, not a note line
    ("find-periodic-stalled", E1,
     ["find-periodic", "--set", "shoot.eps=0.01",
      "--set", "shoot.seed=(1, 0)"], 2,
     [("out", "did not converge", None), ("out", "stalled", None),
      ("csv", "^note", 0)]),
    # ran toward max_steps before non-finite numbers were config errors;
    # the case's timeout is 60 s
    ("verify-cauchy-d-inf", VERIFY, ["verify-cauchy", "--set", "verify.d=inf"],
     1, [("err", "config error", None)]),
    # a builtin does not read system.T
    ("describe-builtin-with-T", E2, ["describe", "--set", "system.T=3"], 1,
     [("err", "system.T", None)]),
    ("degree-vanishing-field", _field("x1", "x2 - 1"), ["degree"], 3,
     [("out", re.escape("degree inconclusive (field vanishes on the "
                        "boundary near"), None)]),
    # psi1 is inf at every sample of the periodicity check
    ("describe-infinite-field",
     _inline(("0", "0"), ("1e300*x1*1e300", "-x1")), ["describe"], 1,
     [("err", "config error: .*not finite at the periodicity sample t=.*, "
       r"x=\[", None), ("err", "RuntimeWarning", 0)]),
    ("degree-unbound-parameter", _field("a*x1", "x2"), ["degree"], 1,
     [("err", "config error", None)]),
    ("check-A0-infinite-centre", E1,
     ["check", "A0", "--set", "region.shape=circle(1e999, 0, 1, 64)"], 1,
     [("err", "config error: .*region.shape", None)]),
    # the orbit converges near the cycle, outside the disk of radius 0.5
    ("sweep-orbit-outside-region",
     _inline(("cos(t)", "0"), ("-x2 + x1*(1 - x1^2 - x2^2)",
                               "x1 + x2*(1 - x1^2 - x2^2)"),
             "\n[region]\nshape = circle(0, 0, 0.5, 512)\n\n[sweep]\n"
             "eps = 1e-2\n"),
     ["sweep"], 2,
     [("out", "orbit outside the region", None),
      ("csv", r"^0\.01,true,.*,false,[0-9.e-]+$", 1)]),
]


@pytest.mark.parametrize("config,argv,code,checks",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_entry_point(tmp_path, config, argv, code, checks):
    cfg, csv = tmp_path / "case.cfg", tmp_path / "case.csv"
    cfg.write_text(config)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "epsode.cli", *argv, "--config", str(cfg),
         "--out", str(csv)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    streams = {"out": run.stdout, "err": run.stderr,
               "csv": csv.read_text() if csv.exists() else ""}
    shown = f"exit {run.returncode}\n{run.stdout}{run.stderr}"
    assert run.returncode == code, shown
    assert "Traceback" not in run.stderr, shown
    for stream, pattern, count in checks:
        found = len(re.findall(pattern, streams[stream], re.M))
        assert found >= 1 if count is None else found == count, (
            f"{stream} has {found} matches of {pattern!r}\n{shown}")
