"""perfbench's tracer wraps epsode names from outside the library; a name
that a refactor drops makes every metric that needs it absent, which the
benchmark's traced run reports only after full passes.  This test reports
it in seconds."""

import importlib.util
from pathlib import Path

import epsode
from epsode import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_reports_every_metric(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    cfg = tmp_path / "e1.cfg"
    cfg.write_text("[system]\nbuiltin = e1-circle\n")
    tracer = tracer_module.Tracer()
    tracer.install(epsode)
    try:
        # a build through the wrapped name instruments the system's evaluators
        cli.build_system(cli.parse_config(str(cfg)))
    finally:
        tracer.uninstall()
    assert tracer.metrics(1)[1] == []
