"""One fresh-interpreter set-up of the epsode command line.

Imports ``epsode.cli``, then parses each config given on the command line
and builds its system, region and cycle: the fixed cost a CLI user pays
before numerical work.  ``run.py`` times this whole process from outside.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import epsode.cli as cli  # noqa: E402


def main(paths):
    for path in paths:
        cfg = cli.parse_config(path)
        system = cli.build_system(cfg)
        if "region" in cfg:
            cli.build_region(cfg)
        if "cycle" in cfg:
            cli.build_cycle(cfg, system, cli.build_integrator(cfg))


if __name__ == "__main__":
    main(sys.argv[1:])
