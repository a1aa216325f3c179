"""Command-line front end.

Exit codes: 0 success, 1 configuration/validation error, 2 numerical
acceptance failure.  All numeric stdout uses 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .mittag_leffler import mittag_leffler_neg
from .noise import CovarianceSpec, LevyLaw, hs_condition
from .propagators import EquationKind, cq_weights
from .spectral import _is_whole, dirichlet_spectrum
from .studies import (
    SLOPE_TOL,
    StudyConfig,
    _fmt,
    _kernel_order,
    _preset_fields,
    emit_csv,
    representation_sweep,
    run_study,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _real(v, key: str) -> float:
    """A JSON number as a float; float() would take true as 1.0 and "1.5" as
    1.5, and end in an OverflowError on an integer past the float range."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or abs(v) > sys.float_info.max:
        raise ConfigError(f"{key} takes JSON numbers in the float range, got {json.dumps(v)}")
    return float(v)


def _reals(v, key: str, depth: int = 1) -> tuple:
    """A JSON array of numbers as a tuple of floats; at depth 2 its entries may be such arrays (the wave's x0)."""
    if not isinstance(v, list):
        raise ConfigError(f"{key} takes a JSON array, got {json.dumps(v)}")
    return tuple(_reals(x, key) if depth > 1 and isinstance(x, list) else _real(x, key) for x in v)


# JSON key -> (name load_config passes on, conversion(value, key); None keeps
# the value), or the table of a nested JSON object.  equation, rho and scheme
# build the EquationKind; the law object's names are LevyLaw's.
_SCHEMA = {
    "schema_version": ("schema_version", None),
    "name": ("name", None),
    "equation": ("equation", None),
    "rho": ("rho", _real),
    "scheme": ("scheme", None),
    "axis": ("axis", None),
    "beta": ("beta", _real),
    "horizon": ("T", _real),
    "modes": ("modes", None),
    "ladder": ("ladder", _reals),
    "covariance": {"amplitude": ("cov_amplitude", _real), "decay": ("cov_decay", _real)},
    "law": {"kind": ("kind", None), "intensity": ("intensity", _real), "jumps": ("jumps", None)},
    "x0": ("x0", lambda v, key: _reals(v, key, depth=2)),
    "g": ("g", None),
    "g_mode": ("g_mode", None),
    "mc": {"paths": ("mc_paths", None), "seed": ("mc_seed", None)},
}


def _fields(obj, schema: dict, where: str) -> dict:
    """The converted values of a JSON object under its schema table, by name;
    a nested object's values come as a dict under its key, and a key given
    as null is absent.  A non-object, unknown keys and bad values are refused."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {where} keys {sorted(unknown)}")
    out = {}
    for key, value in obj.items():
        entry = schema[key]
        if value is None:
            continue
        if isinstance(entry, dict):
            out[key] = _fields(value, entry, key)
        else:
            name, convert = entry
            out[name] = value if convert is None else convert(value, key)
    return out


def load_config(path: str) -> StudyConfig:
    """Parse the strict JSON study schema (_SCHEMA); unknown keys are
    rejected.  Only the keys the file gives are passed on, so every default is
    StudyConfig's; the one default of the schema itself is 1000 paths for an
    "mc" object without "paths"."""
    with open(path) as f:
        raw = json.load(f)
    try:
        kw = _fields(raw, _SCHEMA, "config")
        if not _is_whole(version := kw.pop("schema_version", None)) or version != SCHEMA_VERSION:  # true == 1
            raise ConfigError(f"schema_version must be the integer {SCHEMA_VERSION}, got {json.dumps(version)}")
        for key in ("equation", "axis", "beta", "ladder"):
            if key not in kw:
                raise ConfigError(f"missing required key {key!r}")
        kind = EquationKind(kw.pop("equation"), rho=kw.pop("rho", None), scheme=kw.pop("scheme", None))
        kw.update(kw.pop("covariance", {}))
        if "mc" in kw:
            kw.update({"mc_paths": 1000, **kw.pop("mc")})
        if "law" in kw:
            kw["law"] = LevyLaw(**{"kind": "compound_poisson", **kw["law"]})
        kw.setdefault("name", os.path.splitext(os.path.basename(path))[0])
        return StudyConfig(kind=kind, **kw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def cmd_study(args) -> int:
    if args.preset:
        presets = _preset_fields()  # the named preset alone: building the Monte Carlo one loads the sampler
        if args.preset not in presets:
            print(f"unknown preset {args.preset!r}; available: {', '.join(sorted(presets))}", file=sys.stderr)
            return 1
        config = StudyConfig(name=args.preset, **presets[args.preset])
    else:
        config = load_config(args.config)
    try:
        result = run_study(config)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    out = args.output or "."
    path = out if out.endswith(".csv") else os.path.join(out, f"{config.name}.csv")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    emit_csv(result, path)
    s = result.summary()
    print(f"study {config.name}: wrote {path}")
    weak = _fmt(s["weak_slope"])
    if config.expected().weak_log:
        weak = f"{_fmt(s['weak_bound_slope'])} of |weak|/log(T/dt), plain {weak}"
    verdict = "pass" if s["weak_ok"] else "FAIL"
    print(f"  weak slope   {weak} (guaranteed >= {_fmt(s['weak_expected'])} - {SLOPE_TOL:g}): {verdict}")
    print(
        f"  strong slope {_fmt(s['strong_slope'])} (expected {_fmt(s['strong_expected'])} +- {SLOPE_TOL:g}): "
        f"{'pass' if s['strong_ok'] else 'FAIL'}"
    )
    if not s["beta_in_range"]:
        print("  warning: regularity target outside the covered range for this family")
    return 0 if s["weak_ok"] and s["strong_ok"] else 2


def cmd_check_condition(args) -> int:
    kind = EquationKind(args.equation, rho=args.rho)
    spec = dirichlet_spectrum(args.modes)
    cov = CovarianceSpec(amplitude=args.amplitude, decay=args.decay)
    rep = hs_condition(spec, cov, args.beta, _kernel_order(kind))
    print(f"hs_partial_sum {_fmt(rep.partial_sum)}")
    print(f"hs_norm {_fmt(rep.norm)}")
    print(f"hs_tail_bound {_fmt(rep.tail_bound)}")
    print(f"summability_exponent {_fmt(rep.exponent)}")
    print(f"converges {rep.converges}")
    return 0


def cmd_verify_representation(args) -> int:
    rows = representation_sweep()
    worst = 0.0
    for r in rows:
        print(
            f"{r['equation']:9s} n_cells={r['n_cells']:3d} decay={r['decay']:.2f} "
            f"weak={_fmt(r['weak'])} rep={_fmt(r['representation'])} rel={_fmt(r['rel_discrepancy'])}"
        )
        worst = max(worst, r["rel_discrepancy"])
    print(f"max_relative_discrepancy {_fmt(worst)}")
    if worst <= 1e-8:
        print("representation identity: pass")
        return 0
    print("representation identity: FAIL")
    return 2


def cmd_ml_eval(args) -> int:
    for x in args.x:
        print(f"{_fmt(x)} {_fmt(mittag_leffler_neg(args.rho, x))}")
    return 0


def cmd_cq_weights(args) -> int:
    for k, wk in enumerate(cq_weights(args.rho, args.dt, args.count)):
        print(f"{k} {_fmt(wk)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="levyspde", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    st = sub.add_parser("study", help="run a convergence study and write its CSV")
    group = st.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="name of a shipped preset")
    group.add_argument("--config", help="path to a JSON study config")
    st.add_argument("--output", help="output directory or .csv path (default the working directory)")
    st.set_defaults(func=cmd_study)

    cc = sub.add_parser("check-condition", help="print the regularity functionals")
    cc.add_argument("--equation", required=True, choices=["heat", "volterra", "wave"])
    cc.add_argument("--beta", type=float, required=True)
    cc.add_argument("--rho", type=float, default=None)
    cc.add_argument("--decay", type=float, required=True, help="covariance decay exponent")
    cc.add_argument("--amplitude", type=float, default=1.0)
    cc.add_argument("--modes", type=int, default=4096)
    cc.set_defaults(func=cmd_check_condition)

    vr = sub.add_parser("verify-representation", help="check the error-representation identity (gate 1e-8 relative)")
    vr.set_defaults(func=cmd_verify_representation)

    ml = sub.add_parser("ml-eval", help="evaluate the fractional resolvent kernel")
    ml.add_argument("rho", type=float)
    ml.add_argument("x", type=float, nargs="+")
    ml.set_defaults(func=cmd_ml_eval)

    cq = sub.add_parser("cq-weights", help="print convolution quadrature weights")
    cq.add_argument("rho", type=float)
    cq.add_argument("dt", type=float)
    cq.add_argument("count", type=int)
    cq.set_defaults(func=cmd_cq_weights)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
