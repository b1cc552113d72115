"""Command-line surface: builders, algebra operations, verification suites.

Every run echoes its fully resolved configuration and the library version;
identical configuration and seed give byte-identical reports.  Exit codes:
0 success or pass, 1 check failure, 2 configuration error.

The CLI checks only the bounds of the flags that no library constructor
reads; ``Tower`` and the builders behind it reject a bad tower with their
own typed errors.  One table, ``_CHECKS``, serves both the parser and the
dispatch of the verification suites.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import CloseHeckeError, ConfigError, json_field
from .matrices import cochar_window
from .tate import linkage_check, module_from_json, tate_cohomology
from .transfer import (
    Tower,
    check_galois_equivariance,
    check_kaz_hom,
    check_lemma_conv,
    check_main_diagram,
)


def _parse_lambda_image(text):
    if not text:
        return None
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise ConfigError(f"--lambda-image needs comma-separated integers, not {text!r}") from None


def _add_tower_args(p, need_case=False):
    p.add_argument("--p", type=int, required=True, help="residue characteristic")
    p.add_argument("--l", type=int, default=None, help="extension degree / coefficient prime")
    p.add_argument("--m", type=int, default=1, help="closeness and congruence level")
    p.add_argument("--n", type=int, default=2, help="matrix rank")
    p.add_argument("--k", type=int, default=1, help="coefficient field degree over F_l")
    p.add_argument("--case", choices=["unramified", "ramified"],
                   required=need_case, default=None)
    p.add_argument("--pair-mode", choices=["mixed-equal", "equal-equal"],
                   default="mixed-equal")
    p.add_argument("--lambda-image", default=None,
                   help="comma-separated F_p coefficients of the image of t (equal-equal)")
    p.add_argument("--budget", type=int, default=10 ** 7)
    p.add_argument("--pair-budget", type=int, default=10 ** 4)


def _add_output_args(p):
    p.add_argument("--out", default=None, help="write the JSON document here")
    p.add_argument("--json", action="store_true", help="stream the JSON document to stdout")


def _tower(args):
    """The tower of ``args`` and the run configuration its document echoes,
    after the checks that no library constructor makes."""
    for flag in ("window", "samples"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise ConfigError(f"--{flag} must not be negative, got {value}")
    for flag in ("n", "budget", "pair_budget"):
        value = getattr(args, flag)
        if value < 1:
            raise ConfigError(f"--{flag.replace('_', '-')} must be at least 1, got {value}")
    lambda_image = _parse_lambda_image(args.lambda_image)
    cfg = {"p": args.p, "l": args.l, "m": args.m, "n": args.n, "k": args.k,
           "case": args.case, "pairMode": args.pair_mode, "lambdaImage": lambda_image,
           "seed": getattr(args, "seed", None), "window": getattr(args, "window", None),
           "samples": getattr(args, "samples", None), "budget": args.budget,
           "pairBudget": args.pair_budget}
    tower = Tower(args.p, args.m, n=args.n, case=args.case, l=args.l,
                  pair_mode=args.pair_mode, coeff_k=args.k, unif_image=lambda_image,
                  budget=args.budget, pair_budget=args.pair_budget)
    return tower, cfg


def _emit(doc, args):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    if args.json or not args.out:
        sys.stdout.write(text)


def _wrap(command, config, payload):
    doc = {"command": command, "config": config, "library_version": __version__}
    doc.update(payload)
    return doc


def _load(path, parse):
    """Read the JSON object in ``path`` and hand it to ``parse``.  A file
    that cannot be read, is not a JSON object or lacks a key is a
    ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} does not hold a JSON object")
    try:
        return parse(doc)
    except KeyError as exc:
        raise ConfigError(f"{path} lacks the key {exc.args[0]!r}") from None


def _br_generators(doc):
    """The generator map of a --br file: an object of string -> string, under
    "generators" or at the top level."""
    gens = json_field(doc.get("generators", doc), dict, "generators")
    for name, image in gens.items():
        json_field(image, str, f"generators.{name}")
    return gens


def _algebra_for_element(tower, doc):
    side = doc.get("side", "F")
    if side not in tower.alg:
        raise ConfigError(f"side {side!r} not present (need --case for E/E')")
    return tower.alg[side]


def _load_element(path, tower):
    """(algebra, element) for the Hecke element in ``path``."""
    def parse(doc):
        alg = _algebra_for_element(tower, doc)
        return alg, alg.from_json(doc)
    return _load(path, parse)


# -- command handlers ---------------------------------------------------------

def _cmd_fields_build(args):
    tower, cfg = _tower(args)
    payload = {"result": {
        "F": tower.pair.F.to_json(),
        "F'": tower.pair.Fp.to_json(),
        "E": tower.extpair.E.to_json(),
        "E'": tower.extpair.Ep.to_json(),
        "e": tower.extpair.E.e,
        "lambda": tower.pair.lam.to_json(),
        "pi": tower.extpair.pi.to_json(),
    }}
    _emit(_wrap("fields build", cfg, payload), args)
    return 0


def _cmd_cosets_enumerate(args):
    if args.mu_lo > args.mu_hi:
        raise ConfigError(f"--mu-lo {args.mu_lo} exceeds --mu-hi {args.mu_hi}")
    tower, cfg = _tower(args)
    if args.side not in tower.ctx:
        raise ConfigError("this command needs --case unramified|ramified")
    ctx = tower.ctx[args.side]
    mus = cochar_window(args.n, args.mu_lo, args.mu_hi, max_spread=args.window)
    labels = ctx.enumerate_labels(mus)
    payload = {"result": {"side": args.side, "count": len(labels),
                          "labels": [ctx.label_to_json(lab) for lab in labels]}}
    cfg.update(muLo=args.mu_lo, muHi=args.mu_hi, side=args.side)
    _emit(_wrap("cosets enumerate", cfg, payload), args)
    return 0


def _cmd_hecke_convolve(args):
    tower, cfg = _tower(args)
    alg, f = _load_element(args.a, tower)
    g = _load(args.b, alg.from_json)
    out = alg.convolve(f, g)
    _emit(_wrap("hecke convolve", cfg, {"result": out.to_json()}), args)
    return 0


def _cmd_hecke_brauer(args):
    tower, cfg = _tower(args)
    _, f = _load_element(args.infile, tower)
    out = tower.brauer(f)
    _emit(_wrap("hecke brauer", cfg, {"result": out.to_json()}), args)
    return 0


def _cmd_hecke_sigma(args):
    tower, cfg = _tower(args)
    alg, f = _load_element(args.infile, tower)
    if args.orbit_sum:
        supports = f.support()
        if len(supports) != 1:
            raise ConfigError("--orbit-sum expects a single basis element")
        out = alg.sigma_orbit_sum(supports[0])
    else:
        out = alg.sigma_act(f)
    _emit(_wrap("hecke sigma", cfg, {"result": out.to_json()}), args)
    return 0


def _cmd_kaz_map(args):
    tower, cfg = _tower(args)
    _, f = _load_element(args.infile, tower)
    out = tower.kaz(f)
    _emit(_wrap("kaz map", cfg, {"result": out.to_json()}), args)
    return 0


# check name -> (needs --case, default --samples, the suite run on a tower)
_CHECKS = {
    "kaz-hom": (False, 10, lambda tower, args: check_kaz_hom(
        tower, window_spread=args.window, samples=args.samples, seed=args.seed)),
    "galois-equivariance": (True, 50, lambda tower, args: check_galois_equivariance(
        tower, window_spread=args.window, samples=args.samples, seed=args.seed)),
    "main-diagram": (True, 25, lambda tower, args: check_main_diagram(
        tower, mu_spread=args.window, samples=args.samples, seed=args.seed)),
    "lemma-conv": (False, 20, lambda tower, args: check_lemma_conv(
        tower, window_spread=args.window, elements=args.samples, seed=args.seed)),
}


def _cmd_check(args):
    tower, cfg = _tower(args)
    _, _, run = _CHECKS[args.check_command]
    rep = run(tower, args)
    doc = rep.to_json()
    doc["config"] = {**cfg, **doc["config"]}
    _emit(doc, args)
    return 0 if rep.passed else 1


def _cmd_tate_cohomology(args):
    M = _load(args.module, module_from_json)
    res = tate_cohomology(M, args.i)
    cfg = {"module": args.module, "i": args.i, "l": M.field.l, "k": M.field.k,
           "dim": M.dim}
    _emit(_wrap("tate cohomology", cfg, {"result": res.to_json(M.field)}), args)
    return 0


def _cmd_linkage_check(args):
    Xi = _load(args.xi, module_from_json)
    rho = _load(args.rho, module_from_json)
    mapping = _load(args.br, _br_generators)
    res = linkage_check(Xi, rho, mapping, seed=args.seed)
    cfg = {"xi": args.xi, "rho": args.rho, "br": args.br,
           "l": Xi.field.l, "k": Xi.field.k, "seed": args.seed}
    _emit(_wrap("linkage check", cfg,
                {"result": {"linked": {str(i): res[i] for i in sorted(res)}}}), args)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="closehecke",
        description="Congruence-level Hecke algebras over close local fields: "
                    "builders, transfers, and exact verification suites.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fields", help="build field towers")
    psub = p.add_subparsers(dest="fields_command", required=True)
    pb = psub.add_parser("build", help="build a close pair with matched extensions")
    _add_tower_args(pb, need_case=True)
    _add_output_args(pb)
    pb.set_defaults(func=_cmd_fields_build)

    p = sub.add_parser("cosets", help="double-coset enumeration")
    psub = p.add_subparsers(dest="cosets_command", required=True)
    pe = psub.add_parser("enumerate", help="enumerate double-coset labels in a window")
    _add_tower_args(pe)
    pe.add_argument("--side", default="F", choices=["F", "F'", "E", "E'"])
    pe.add_argument("--mu-lo", type=int, default=0)
    pe.add_argument("--mu-hi", type=int, default=1)
    pe.add_argument("--window", type=int, default=None, help="max spread filter")
    _add_output_args(pe)
    pe.set_defaults(func=_cmd_cosets_enumerate)

    p = sub.add_parser("hecke", help="Hecke algebra operations")
    psub = p.add_subparsers(dest="hecke_command", required=True)
    pc = psub.add_parser("convolve")
    _add_tower_args(pc)
    pc.add_argument("--a", required=True, help="left element JSON file")
    pc.add_argument("--b", required=True, help="right element JSON file")
    _add_output_args(pc)
    pc.set_defaults(func=_cmd_hecke_convolve)
    pbr = psub.add_parser("brauer")
    _add_tower_args(pbr, need_case=True)
    pbr.add_argument("--in", dest="infile", required=True)
    _add_output_args(pbr)
    pbr.set_defaults(func=_cmd_hecke_brauer)
    ps = psub.add_parser("sigma")
    _add_tower_args(ps, need_case=True)
    ps.add_argument("--in", dest="infile", required=True)
    ps.add_argument("--orbit-sum", action="store_true")
    _add_output_args(ps)
    ps.set_defaults(func=_cmd_hecke_sigma)

    p = sub.add_parser("kaz", help="Kazhdan transfer")
    psub = p.add_subparsers(dest="kaz_command", required=True)
    pm = psub.add_parser("map")
    _add_tower_args(pm)
    pm.add_argument("--in", dest="infile", required=True)
    _add_output_args(pm)
    pm.set_defaults(func=_cmd_kaz_map)

    p = sub.add_parser("check", help="verification suites")
    psub = p.add_subparsers(dest="check_command", required=True)
    for name, (needs_case, samples, _) in _CHECKS.items():
        pc = psub.add_parser(name)
        _add_tower_args(pc, need_case=needs_case)
        pc.add_argument("--window", type=int, default=2, help="cocharacter spread")
        pc.add_argument("--samples", type=int, default=samples)
        pc.add_argument("--seed", type=int, default=0)
        _add_output_args(pc)
        pc.set_defaults(func=_cmd_check)

    p = sub.add_parser("tate", help="Tate cohomology")
    psub = p.add_subparsers(dest="tate_command", required=True)
    pt = psub.add_parser("cohomology")
    pt.add_argument("--module", required=True)
    pt.add_argument("--i", type=int, choices=[0, 1], required=True)
    _add_output_args(pt)
    pt.set_defaults(func=_cmd_tate_cohomology)

    p = sub.add_parser("linkage", help="linkage predicate")
    psub = p.add_subparsers(dest="linkage_command", required=True)
    pl = psub.add_parser("check")
    pl.add_argument("--xi", required=True)
    pl.add_argument("--rho", required=True)
    pl.add_argument("--br", required=True)
    pl.add_argument("--seed", type=int, default=0)
    _add_output_args(pl)
    pl.set_defaults(func=_cmd_linkage_check)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CloseHeckeError as exc:
        sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
