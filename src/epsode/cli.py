"""Command-line front end.

Subcommands: describe, check (A0|A1|A2|A3), melnikov, degree, resonance,
average, verify-cauchy, find-periodic, sweep.  Configuration is a
sectioned key-value text file; ``--set section.key=value`` overrides
individual entries.  A key left unset takes the default of the library
function it feeds, unless ``_KEYS`` states the CLI's own.  CSV output
starts with comment lines recording the tool version, the config hash and
the seed, so identical configurations give byte-identical files.  Every
command ends in a word, its verdict or "inconclusive" for a library failure
in ``_FAILURES``, and ``run`` returns the word's exit code from ``_EXIT``.
"""

import argparse
import ast
import configparser
import functools
import hashlib
import io
import re
import sys

import numpy as np

from . import __version__
from .averaging import NoConvergenceError, averaged_field, verify_cauchy
from .conditions import (check_A0, check_A1, check_A2, floquet_condition_A3,
                         melnikov_profile, resonance_H)
from .expressions import (ParseError, compile_expr, free_names,
                          parse as parse_expr)
from .solver import IntegrationError, IntegratorConfig
from .svgplot import write_svg
from .systems import builtin_system, system_from_expressions
from .topology import PlanarRegion, winding_number
from .periodic import eps_sweep, shoot
from .variational import cycle_residual, flow_omega_dense

__all__ = ["run", "main", "ConfigError", "DEFAULT_SEED"]

DEFAULT_SEED = 12345

# The exit code of each word a command can end in: a verdict, or "usage"
# for a command line or config that does not parse.  _FAILURES are the
# library failures that end a command without an answer, in the word
# "inconclusive": the flow blew up or the averaging did not settle.
_EXIT = {"holds": 0, "usage": 1, "fails": 2, "inconclusive": 3}
_FAILURES = (IntegrationError, NoConvergenceError)


class ConfigError(ValueError):
    pass


# -- config keys ------------------------------------------------------------

def _unquote(text):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def _parser(convert, failure):
    """Parser that unquotes the raw text and converts it, or names
    ``failure``."""
    def parse(key, raw):
        try:
            return convert(_unquote(raw))
        except ValueError as err:
            raise ConfigError(f"{key}: {failure}: {raw!r}") from err
    return parse


def _finite(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError("not finite")
    return value


def _numbers(text):
    vals = [_finite(p) for p in text.strip("()[]").split(",") if p.strip()]
    if not vals:
        raise ValueError("no numbers")
    return vals


def _two(text):
    vals = _numbers(text)
    if len(vals) != 2:
        raise ValueError("not two numbers")
    return tuple(vals)


def _increasing(text):
    lo, hi = _two(text)
    if not lo < hi:
        raise ValueError("lo >= hi")
    return lo, hi


def _two_counts(text):
    counts = tuple(int(v) for v in _two(text))
    if min(counts) < 1:
        raise ValueError("a count below 1")
    return counts


def _strategy_name(text):
    if text not in ("continuation", "fixed"):
        raise ValueError(text)
    return text


_float = _parser(_finite, "not a finite number")
_int = _parser(int, "not an integer")
_list = _parser(_numbers, "not a number list")
_range = _parser(_increasing, "not two numbers lo < hi")
_counts = _parser(_two_counts, "not two positive counts")
_point = _parser(lambda text: np.asarray(_numbers(text)), "not a number list")
_strategy = _parser(_strategy_name, "not continuation or fixed")
_text = _parser(str, "not text")

# Every fixed key and its parser.  A (parser, default) pair marks a key
# whose default belongs to the CLI, because the library has none or a
# different one; every other key is passed on only when the config sets it.
_KEYS = {
    "system.builtin": _text, "system.k": _int, "system.T": _float,
    "region.shape": _text, "region.star_center": _point,
    "integrator.rel_tol": _float, "integrator.abs_tol": _float,
    "integrator.max_steps": _int,
    "grids.s_points": _int, "grids.theta_points": _int,
    "grids.a0_samples": _int,
    # for degree; winding_number would start from the region's n_hint
    "grids.boundary_samples": (_int, 512),
    "tolerances.a0_tol": _float, "tolerances.a1_tol": _float,
    "tolerances.a3_tol": _float, "tolerances.vanish_tol": _float,
    "tolerances.shoot_tol": _float, "tolerances.phi_tol": _float,
    "tolerances.gamma_tol": _float,
    "tolerances.cycle_tol": (_float, 1e-6),  # the closure test of build_cycle
    "cycle.seed": _point,
    # the CSV header and the averaged field's validation samples
    "run.seed": (_int, DEFAULT_SEED),
    "shoot.eps": _float, "shoot.seed": _point,
    "sweep.eps": _list, "sweep.strategy": _strategy, "sweep.seed": _point,
    "average.radius": (_float, 2.0),  # for average and verify-cauchy
    "average.n_max": _int, "average.samples": _int,
    "verify.xi0": _point, "verify.d": _float, "verify.eps": _list,
    "resonance.g": _text, "resonance.a_range": (_range, (0.5, 3.5)),
    "resonance.theta_range": (_range, (0.0, 2 * np.pi)),
    "resonance.grid": _counts,
}
_KEYS = {key: spec if isinstance(spec, tuple) else (spec, None)
         for key, spec in _KEYS.items()}

_DYNAMIC_KEY = {
    "system": re.compile(r"^(phi[1-9][0-9]*|psi[1-9][0-9]*|param\.\w+)$"),
    "field": re.compile(r"^f[1-9][0-9]*$"),
}


def _reject_unread(cfg, section, read, reader):
    """A config error naming the first key of ``section`` not in ``read``,
    the keys that ``reader`` reads."""
    for key in cfg.get(section, {}):
        if key not in read:
            raise ConfigError(f"{section}.{key}: not read by {reader}")


def _check_keys(cfg):
    sections = {key.split(".")[0] for key in _KEYS} | set(_DYNAMIC_KEY)
    for section in cfg:
        if section not in sections:
            raise ConfigError(
                f"unknown config section [{section}]; valid sections: "
                + ", ".join(sorted(sections)))
        allowed = {key.split(".", 1)[1] for key in _KEYS
                   if key.startswith(section + ".")}
        dyn = _DYNAMIC_KEY.get(section)
        for key in cfg[section]:
            if key in allowed or (dyn and dyn.match(key)):
                continue
            valid = sorted(allowed) + ([dyn.pattern] if dyn else [])
            raise ConfigError(
                f"unknown key {key!r} in section [{section}]; valid keys: "
                + ", ".join(valid))


def _value(cfg, key):
    """The parsed value of a fixed key; None when the config leaves it unset."""
    section, name = key.split(".", 1)
    raw = cfg.get(section, {}).get(name)
    return None if raw is None else _KEYS[key][0](key, raw)


def _get(cfg, key):
    """The value of a fixed key, else its CLI default, else an error."""
    for value in (_value(cfg, key), _KEYS[key][1]):
        if value is not None:
            return value
    raise ConfigError(f"missing {key}")


def _point_at(cfg, key, k):
    """The value of a point key, as :func:`_get` gives it, which must have
    ``k`` entries."""
    point = _get(cfg, key)
    if len(point) != k:
        raise ConfigError(f"{key}: needs {k} numbers, not {len(point)}")
    return point


def _given(cfg, **params):
    """Keyword arguments for the library parameters whose key the config
    sets; every other parameter keeps the default of its signature."""
    return {name: value for name, key in params.items()
            if (value := _value(cfg, key)) is not None}


def _phase_grid(cfg, key, T):
    """``linspace(0, T, n)`` for a set key, else None: the library's grid."""
    n = _value(cfg, key)
    return None if n is None else np.linspace(0.0, T, n)


def parse_config(path, overrides=()):
    """Read the sectioned key-value config, applying overrides."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path!r}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed config file {path!r}: {err}") from err
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(
                f"bad --set {item!r}; expected section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)
    cfg = {s: dict(cp[s]) for s in cp.sections()}
    _check_keys(cfg)
    return cfg


def config_hash(cfg):
    canon = "\n".join(f"{s}.{k}={v}" for s in sorted(cfg)
                      for k, v in sorted(cfg[s].items()))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


# -- builders ---------------------------------------------------------------

def build_system(cfg):
    """The configured system.  A key of [system] that it does not read,
    such as a ``param.`` value that no phi or psi expression reads, is a
    config error."""
    sec = cfg.get("system", {})
    params = {k.split(".", 1)[1]: _float(f"system.{k}", v)
              for k, v in sec.items() if k.startswith("param.")}
    if "builtin" in sec:
        name = _get(cfg, "system.builtin")
        try:
            sys_def = builtin_system(name, params or None)
        except KeyError as err:
            raise ConfigError(str(err)) from err
        read, reader = {"builtin"}, f"builtin {name}"
    elif "k" not in sec:
        raise ConfigError("section [system] needs either builtin or an "
                          "inline definition (k, T, phiN, psiN)")
    else:
        k = _get(cfg, "system.k")
        T = _get(cfg, "system.T")
        names = [f"{f}{i + 1}" for f in ("phi", "psi") for i in range(k)]
        comps = [_unquote(sec.get(name, "")) for name in names]
        if not all(comps):
            raise ConfigError(
                f"inline system needs phi1..phi{k} and psi1..psi{k}")
        try:
            sys_def = system_from_expressions("config-system", k, T,
                                              comps[:k], comps[k:], params)
        except (ParseError, ValueError) as err:
            raise ConfigError(f"bad system definition: {err}") from err
        read, reader = {"k", "T", *names}, f"an inline system of k={k}"
    exprs = sys_def.phi_exprs.components + sys_def.psi_exprs.components
    used = set().union(*map(free_names, exprs))
    _reject_unread(cfg, "system", read | {f"param.{p}" for p in used}, reader)
    return sys_def


_SHAPE_RE = re.compile(r"^\s*(circle|polygon)\s*\((.*)\)\s*$", re.S)


def build_region(cfg):
    sec = cfg.get("region", {})
    if "shape" not in sec:
        raise ConfigError("missing region.shape "
                          "(circle(cx, cy, r, n) or polygon([...]))")
    m = _SHAPE_RE.match(_get(cfg, "region.shape"))
    if not m:
        raise ConfigError(f"bad region.shape {sec['shape']!r}; expected "
                          "circle(cx, cy, r, n) or polygon([(x, y), ...])")
    kind, args = m.group(1), m.group(2)
    try:
        if kind == "circle":
            vals = ast.literal_eval(f"({args},)")
            cx, cy, r = (float(v) for v in vals[:3])
            n = int(vals[3]) if len(vals) > 3 else 512
            region = PlanarRegion.circle(cx, cy, r, n)
        else:
            verts = ast.literal_eval(args)
            region = PlanarRegion.polygon(verts)
    except (ValueError, SyntaxError) as err:
        raise ConfigError(f"bad region.shape {sec['shape']!r}: {err}") from err
    if "star_center" in sec:
        region.star_center = _point_at(cfg, "region.star_center", 2)
    return region


def build_integrator(cfg):
    return IntegratorConfig(**_given(
        cfg, rel_tol="integrator.rel_tol", abs_tol="integrator.abs_tol",
        max_steps="integrator.max_steps"))


def build_cycle(cfg, sys, icfg):
    cycle = flow_omega_dense(sys, 0.0, sys.T,
                             _point_at(cfg, "cycle.seed", sys.k), icfg)
    tol = _get(cfg, "tolerances.cycle_tol")
    res = cycle_residual(cycle, sys.T)
    if res > tol:
        raise ConfigError(
            f"cycle.seed does not close up: residual {res:.3e} > {tol:g}")
    return cycle


# -- output helpers ---------------------------------------------------------

def _fmt_value(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


class Output:
    def __init__(self, args, cfg, command):
        self.out_path = args.out
        self.plot_path = args.plot
        self.header = [
            f"# epsode {__version__}",
            f"# command {command}",
            f"# config {config_hash(cfg)}",
            f"# seed {_get(cfg, 'run.seed')}",
        ]

    def write_csv(self, columns, rows):
        buf = io.StringIO()
        for line in self.header:
            buf.write(line + "\n")
        buf.write(",".join(columns) + "\n")
        for row in rows:
            buf.write(",".join(_fmt_value(v) for v in row) + "\n")
        data = buf.getvalue()
        if self.out_path:
            with open(self.out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(data)
        else:
            sys.stdout.write(data)

    def note(self, command, text):
        """End ``command`` without an answer: write ``text`` as the CSV's
        one ``note``, print it and return the word "inconclusive"."""
        self.write_csv(("note",), [(text,)])
        print(f"{command} inconclusive ({text})")
        return "inconclusive"

    def write_plot(self, series, title, xlabel, ylabel):
        if self.plot_path:
            write_svg(self.plot_path, series, title, xlabel, ylabel)


# -- commands ---------------------------------------------------------------
# Each command prints its answer and returns its verdict, a key of _EXIT.

def _cmd_describe(args, cfg, out):
    sys_def = build_system(cfg)
    for line in sys_def.describe_lines():
        print(line)
    if sys_def.phi_exprs is not None:
        jac = sys_def.psi_exprs.jacobian_exprs()
        from .expressions import to_string
        for i, row in enumerate(jac):
            print(f"dpsi{i + 1}/dx = (" + ", ".join(to_string(e) for e in row)
                  + ")")
    note = getattr(sys_def, "note", None)
    if note:
        print(f"note: {note}")
    if "region" in cfg:
        region = build_region(cfg)
        kind = "circle/curve" if region.curve is not None else "polygon"
        print(f"region: {kind}, star_center={region.star_center}, "
              f"n_hint={region.n_hint}")
    return "holds"


def _cmd_check(args, cfg, out):
    sys_def = build_system(cfg)
    icfg = build_integrator(cfg)
    if args.condition == "A3":
        rep = floquet_condition_A3(
            sys_def, build_cycle(cfg, sys_def, icfg),
            _phase_grid(cfg, "grids.theta_points", sys_def.T),
            cfg=icfg, **_given(cfg, cycle_tol="tolerances.cycle_tol"))
        cols = ("theta", "dist_to_one", "gap", "simple")
        out.write_csv(cols, zip(*(rep.data.get(c, ()) for c in cols)))
        out.write_plot([(rep.data.get("theta", ()), rep.data.get("gap", ()),
                         "gap")],
                       "Floquet simplicity gap", "theta", "|mu_j - 1|")
    elif args.condition == "A0":
        rep = check_A0(sys_def, build_region(cfg), cfg=icfg, **_given(
            cfg, n_samples="grids.a0_samples", a0_tol="tolerances.a0_tol"))
        pts = rep.data.get("points", np.zeros((0, sys_def.k)))
        res = rep.data.get("residuals", np.zeros(0))
        rows = [(i, *pts[i], float(res[i])) for i in range(len(pts))]
        out.write_csv(("index",) + tuple(f"x{j + 1}" for j in range(sys_def.k))
                      + ("residual",), rows)
        out.write_plot([(np.arange(len(res)), res, "residual")],
                       "Period-map residual on the boundary", "sample",
                       "relative residual")
    elif args.condition == "A1":
        rep = check_A1(
            sys_def, build_region(cfg),
            _phase_grid(cfg, "grids.s_points", sys_def.T),
            cfg=icfg, **_given(cfg, boundary_samples="grids.boundary_samples",
                               a1_tol="tolerances.a1_tol"))
        s_grid = rep.data["s_grid"]
        per_s = rep.data.get("min_norm_per_s", np.full(len(s_grid), rep.margin))
        out.write_csv(("s", "min_defect_norm"),
                      list(zip(map(float, s_grid), map(float, per_s))))
        out.write_plot([(s_grid, per_s, "min defect")],
                       "Smallest defect norm per anchor", "s", "min |defect|")
    else:
        rep = check_A2(sys_def, build_region(cfg), cfg=icfg, **_given(
            cfg, boundary_samples="grids.boundary_samples",
            vanish_tol="tolerances.vanish_tol"))
        pts = rep.data.get("points", np.zeros((0, 2)))
        vals = rep.data.get("values", np.zeros((0, 2)))
        norms = np.linalg.norm(vals, axis=1)
        out.write_csv(("x1", "x2", "F1", "F2", "norm"),
                      [(p[0], p[1], v[0], v[1], float(n))
                       for p, v, n in zip(pts, vals, norms)])
        out.write_plot([(np.arange(len(norms)), norms, "|defect|")],
                       "Defect field norm on the boundary", "sample", "|F|")
    print(rep.summary())
    return rep.verdict


def _cmd_melnikov(args, cfg, out):
    sys_def = build_system(cfg)
    icfg = build_integrator(cfg)
    cycle = build_cycle(cfg, sys_def, icfg)
    prof = melnikov_profile(
        sys_def, cycle, _phase_grid(cfg, "grids.theta_points", sys_def.T),
        **_given(cfg, cycle_tol="tolerances.cycle_tol"))
    out.write_csv(("theta", "M"),
                  list(zip(prof.thetas, prof.values)))
    out.write_plot([(prof.thetas, prof.values, "M(theta)")],
                   "Cycle integral profile", "theta", "M")
    rep = prof.check_A3_1(**_given(cfg, a3_tol="tolerances.a3_tol"))
    print(rep.summary())
    return rep.verdict


def _cmd_degree(args, cfg, out):
    region = build_region(cfg)
    sec = cfg.get("field", {})
    _reject_unread(cfg, "field", {"f1", "f2"}, "degree")
    comps = [sec.get("f1"), sec.get("f2")]
    if not all(comps):
        raise ConfigError("section [field] needs f1 and f2 expressions")
    try:
        fns = [compile_expr(parse_expr(_unquote(c)), arrays=True)
               for c in comps]
    except ParseError as err:
        raise ConfigError(f"bad field expression: {err}") from err

    def F(P):
        # winding_number names a point where the field is not finite, so
        # numpy's warning about it only repeats that on stderr
        with np.errstate(all="ignore"):
            cols = [np.broadcast_to(f(0.0, (P[:, 0], P[:, 1])), (len(P),))
                    for f in fns]
        return np.column_stack(cols)

    rep = winding_number(
        F, region, n0=_get(cfg, "grids.boundary_samples"),
        **_given(cfg, vanish_tol="tolerances.vanish_tol"))
    if rep.degree is None:
        return out.note("degree", rep.failure)
    pts = region.boundary_points(min(rep.samples_used, 1024))
    vals = F(pts)
    out.write_csv(("x1", "x2", "F1", "F2"),
                  [(p[0], p[1], v[0], v[1]) for p, v in zip(pts, vals)])
    out.write_plot([(np.arange(len(vals)),
                     np.arctan2(vals[:, 1], vals[:, 0]), "angle")],
                   "Boundary field angle", "sample", "atan2(F2, F1)")
    print(f"degree {rep.degree} (min |F| = {rep.min_field_norm:.6g}, "
          f"{rep.samples_used} samples)")
    return "holds" if rep.degree != 0 else "fails"


def _cmd_resonance(args, cfg, out):
    g = _value(cfg, "resonance.g")
    if g is None:
        raise ConfigError("section [resonance] needs the forcing expression g")
    try:
        rm = resonance_H(g, _get(cfg, "resonance.a_range"),
                         _get(cfg, "resonance.theta_range"),
                         **_given(cfg, grid="resonance.grid"))
    except ParseError as err:
        raise ConfigError(f"bad forcing expression: {err}") from err
    rows = []
    for z in rm.zeros:
        local = winding_number(lambda P: rm.evaluate_many(P[:, 0], P[:, 1]),
                               rm.box(z), n0=256).degree or 0
        rows.append((z.a, z.theta, z.residual, z.det, local))
    out.header.append(" ".join(["# newton"] + [f"{s}={n}" for s, n
                                               in rm.newton.items()]))
    out.header.append(f"# cost forcing_calls={rm.forcing_calls} "
                      f"quad_points={rm.quad_points} "
                      f"quad_nodes={rm.quad_nodes} "
                      f"quad_error={rm.quad_error:.3e}")
    out.write_csv(("a", "theta", "residual", "detH", "local_degree"), rows)
    if rm.degenerate:
        print("resonance map degenerate (H vanishes identically on the grid)")
        return "inconclusive"
    good = [z for z in rm.zeros if z.det != 0]
    if good:
        z = good[0]
        print(f"resonance zeros: {len(rm.zeros)} "
              f"(first at a={z.a:.6g}, theta={z.theta:.6g}, det {z.det:.6g})")
        return "holds"
    print("no resonance zeros found in the given ranges")
    return "fails"


def _averaged(cfg, sys_def, icfg):
    """The averaged field that ``average`` reports and ``verify-cauchy``
    checks."""
    return averaged_field(
        sys_def, r=_get(cfg, "average.radius"), seed=_get(cfg, "run.seed"),
        cfg=icfg, **_given(cfg, n_max="average.n_max",
                           phi_tol="tolerances.phi_tol",
                           n_samples="average.samples"))


def _cmd_average(args, cfg, out):
    sys_def = build_system(cfg)
    av = _averaged(cfg, sys_def, build_integrator(cfg))
    vals = av.values
    cols = (tuple(f"xi{j + 1}" for j in range(sys_def.k))
            + tuple(f"Phi{j + 1}" for j in range(sys_def.k))
            + ("cauchy_estimate",))
    rows = [tuple(s) + tuple(v) + (e,)
            for s, v, e in zip(av.samples, vals, av.estimates)]
    out.write_csv(cols, rows)
    out.write_plot([(np.arange(len(vals)), np.linalg.norm(vals, axis=1),
                     "|Phi|")], "Averaged field at validation samples",
                   "sample", "|Phi|")
    print(f"averaged field converged (n_used={av.n_used}, evaluator "
          f"n={av.n_eval}, worst Cauchy estimate "
          f"{max(h for _, h in av.history[-1:]):.3g})")
    return "holds"


def _cmd_verify_cauchy(args, cfg, out):
    sys_def = build_system(cfg)
    icfg = build_integrator(cfg)
    xi0 = _point_at(cfg, "verify.xi0", sys_def.k)
    d = _get(cfg, "verify.d")
    eps_list = _get(cfg, "verify.eps")
    verdicts = verify_cauchy(
        sys_def, xi0, d, eps_list, _averaged(cfg, sys_def, icfg),
        cfg=icfg, **_given(cfg, gamma_tol="tolerances.gamma_tol"))
    k = sys_def.k
    rows = []
    series = []
    for v in verdicts:
        stride = max(1, len(v.times) // 256)
        for i in range(0, len(v.times), stride):
            rows.append((v.eps, float(v.times[i]))
                        + tuple(v.x_values[i]) + tuple(v.approx_values[i])
                        + (float(v.errors[i]),))
        series.append((v.times, v.errors, f"eps={v.eps:g}"))
    cols = (("eps", "t") + tuple(f"x{j + 1}" for j in range(k))
            + tuple(f"approx{j + 1}" for j in range(k)) + ("error",))
    out.write_csv(cols, rows)
    out.write_plot(series, "Averaging error over the slow horizon",
                   "t", "|x_eps - prediction|")
    for v in verdicts:
        print(v.summary())
    n_pass = sum(v.verdict == "holds" for v in verdicts)
    print(f"verify-cauchy: {n_pass}/{len(verdicts)} pass at gamma "
          f"{verdicts[0].gamma_tol:g}")
    return "holds" if n_pass == len(verdicts) else "fails"


def _cmd_find_periodic(args, cfg, out):
    sys_def = build_system(cfg)
    region = build_region(cfg) if "region" in cfg else None
    res = shoot(sys_def, _get(cfg, "shoot.eps"),
                _point_at(cfg, "shoot.seed", sys_def.k),
                cfg=build_integrator(cfg), region=region,
                **_given(cfg, shoot_tol="tolerances.shoot_tol"))
    out.write_csv(_orbit_columns(sys_def), [_orbit_row(sys_def, res)])
    if res.orbit is not None and sys_def.k == 2:
        ts = np.linspace(0.0, sys_def.T, 256)
        pts = res.orbit.eval(ts)
        out.write_plot([(pts[:, 0], pts[:, 1], "orbit")],
                       "Periodic orbit", "x1", "x2")
    state = "converged" if res.converged else "did not converge"
    print(f"find-periodic {state}: xi*={res.xi_star} residual "
          f"{res.residual:.3g} ({res.iterations} iterations)"
          + ("" if res.converged else f"; {res.failure}"))
    return "holds" if res.converged else "fails"


def _orbit_columns(sys_def):
    k = sys_def.k
    mu_cols = sum(((f"mu{j + 1}_re", f"mu{j + 1}_im") for j in range(k)), ())
    return (("eps", "converged") + tuple(f"xi{j + 1}" for j in range(k))
            + ("residual",) + mu_cols + ("in_region", "dist_to_boundary"))


def _orbit_row(sys_def, r):
    mus = sorted(r.multipliers, key=lambda m: -abs(m))
    mu_vals = sum(((float(m.real), float(m.imag)) for m in mus), ())
    return ((r.eps, r.converged) + tuple(r.xi_star) + (r.residual,)
            + mu_vals
            + ("" if r.in_region is None else r.in_region,
               "" if r.boundary_distance is None else r.boundary_distance))


def _cmd_sweep(args, cfg, out):
    sys_def = build_system(cfg)
    icfg = build_integrator(cfg)
    region = build_region(cfg) if "region" in cfg else None
    eps_list = _get(cfg, "sweep.eps")
    seed = (_point_at(cfg, "sweep.seed", sys_def.k)
            if "seed" in cfg.get("sweep", {}) else None)
    cycle = prof = None
    if "cycle" in cfg:
        cycle = build_cycle(cfg, sys_def, icfg)
        if sys_def.k == 2:
            prof = melnikov_profile(
                sys_def, cycle,
                _phase_grid(cfg, "grids.theta_points", sys_def.T),
                **_given(cfg, cycle_tol="tolerances.cycle_tol"))
    sw = eps_sweep(sys_def, region, eps_list, seed=seed, cycle=cycle,
                   melnikov=prof, cfg=icfg,
                   **_given(cfg, seed_strategy="sweep.strategy",
                            shoot_tol="tolerances.shoot_tol"))
    # the converged shoot's Newton iterations and the kind of its start
    out.header.append(
        "# newton iterations="
        + " ".join(str(r.iterations) for r in sw.results)
        + " seeds=" + " ".join(sw.seed_kinds))
    out.write_csv(_orbit_columns(sys_def),
                  [_orbit_row(sys_def, r) for r in sw.results])
    conv = sw.converged()
    if conv and region is not None:
        out.write_plot([([r.eps for r in conv],
                         [r.boundary_distance for r in conv], "distance")],
                       "Orbit distance to the reference boundary", "eps",
                       "distance")
    for r in sw.results:  # not in the CSV: failure texts hold commas
        if not r.converged:
            print(f"eps={r.eps:g} failed: {r.failure}")
    slope_txt = "n/a" if sw.slope is None else f"{sw.slope:.3f}"
    print(f"sweep: {len(conv)}/{len(sw.results)} converged, "
          f"distance slope {slope_txt}")
    return "holds" if len(conv) == len(sw.results) else "fails"


_COMMANDS = {
    "describe": _cmd_describe,
    "check": _cmd_check,
    "melnikov": _cmd_melnikov,
    "degree": _cmd_degree,
    "resonance": _cmd_resonance,
    "average": _cmd_average,
    "verify-cauchy": _cmd_verify_cauchy,
    "find-periodic": _cmd_find_periodic,
    "sweep": _cmd_sweep,
}


@functools.cache
def _build_parser():
    """The argument parser, built once per process; ``parse_args`` leaves it
    unchanged."""
    p = argparse.ArgumentParser(
        prog="epsode",
        description="numerical checks for periodic orbits and averaging of "
                    "periodically forced systems with a small parameter")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        if name == "check":
            sp.add_argument("condition", choices=["A0", "A1", "A2", "A3"])
        sp.add_argument("--config", required=True)
        sp.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="SECTION.KEY=VALUE")
        sp.add_argument("--out", default=None)
        sp.add_argument("--plot", default=None)
    return p


def run(argv):
    """Entry point; returns the exit code, from ``_EXIT``, of the word the
    command ends in.  A library failure in ``_FAILURES`` is written as the
    CSV's one ``note`` and printed."""
    try:
        args = _build_parser().parse_args(argv)
        command = args.command
        if command == "check":
            command += f" {args.condition}"
        cfg = parse_config(args.config, args.overrides)
        out = Output(args, cfg, command)
        word = _COMMANDS[args.command](args, cfg, out)
    except SystemExit as err:  # argparse printed the help or the error
        word = "holds" if err.code == 0 else "usage"
    except _FAILURES as err:
        word = out.note(command, str(err))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        word = "usage"
    except (ParseError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        word = "usage"
    return _EXIT[word]


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
