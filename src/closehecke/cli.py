"""Command-line surface: builders, algebra operations, verification suites.

Every run echoes its fully resolved configuration and the library version;
identical configuration and seed give byte-identical reports.  Exit codes:
0 success or pass, 1 check failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

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
        return tuple(int(c) for c in text.split(","))
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
    p.add_argument("--precision-cap", type=int, default=64)


def _add_output_args(p):
    p.add_argument("--out", default=None, help="write the JSON document here")
    p.add_argument("--json", action="store_true", help="stream the JSON document to stdout")


def _tower(args, need_ext=False):
    case = _run_config(args).case  # reject a bad configuration before any work
    if need_ext and case is None:
        raise ConfigError("this command needs --case unramified|ramified")
    return Tower(args.p, args.m, n=args.n, case=case, l=args.l,
                 pair_mode=args.pair_mode, coeff_k=args.k,
                 unif_image=_parse_lambda_image(args.lambda_image),
                 budget=args.budget, pair_budget=args.pair_budget,
                 precision_cap=args.precision_cap)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters, echoed into every output document."""
    p: int
    l: int | None
    m: int
    n: int
    k: int
    case: str | None
    pair_mode: str
    lambda_image: tuple | None
    seed: int | None
    window: int | None
    samples: int | None
    budget: int
    pair_budget: int
    precision_cap: int

    def validate(self):
        if self.case is not None and self.l is None:
            raise ConfigError("--case needs --l, the extension degree")
        if self.l is not None and self.l == self.p:
            raise ConfigError("l must differ from p")
        if self.pair_mode == "mixed-equal" and self.m != 1:
            raise ConfigError("mixed-equal pairs exist only at m = 1")
        if self.case == "ramified" and self.l is not None \
                and (self.p - 1) % self.l != 0:
            raise ConfigError("ramified extensions need l | p - 1")
        for name, value in (("--window", self.window), ("--samples", self.samples)):
            if value is not None and value < 0:
                raise ConfigError(f"{name} must not be negative, got {value}")
        for name, value in (("--n", self.n), ("--budget", self.budget),
                            ("--pair-budget", self.pair_budget),
                            ("--precision-cap", self.precision_cap)):
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        return self

    def to_json(self):
        return {"p": self.p, "l": self.l, "m": self.m, "n": self.n, "k": self.k,
                "case": self.case, "pairMode": self.pair_mode,
                "lambdaImage": list(self.lambda_image) if self.lambda_image else None,
                "seed": self.seed, "window": self.window, "samples": self.samples,
                "budget": self.budget, "pairBudget": self.pair_budget,
                "precisionCap": self.precision_cap}


def _run_config(args):
    return RunConfig(
        p=args.p, l=args.l, m=args.m, n=args.n, k=args.k,
        case=getattr(args, "case", None), pair_mode=args.pair_mode,
        lambda_image=_parse_lambda_image(args.lambda_image),
        seed=getattr(args, "seed", None), window=getattr(args, "window", None),
        samples=getattr(args, "samples", None), budget=args.budget,
        pair_budget=args.pair_budget, precision_cap=args.precision_cap,
    ).validate()


def _config_echo(args, extra=None):
    cfg = _run_config(args).to_json()
    if extra:
        cfg.update(extra)
    return cfg


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
    tower = _tower(args, need_ext=True)
    payload = {"result": {
        "F": tower.pair.F.to_json(),
        "F'": tower.pair.Fp.to_json(),
        "E": tower.extpair.E.to_json(),
        "E'": tower.extpair.Ep.to_json(),
        "e": tower.extpair.E.e,
        "lambda": tower.pair.lam.to_json(),
        "pi": tower.extpair.pi.to_json(),
    }}
    _emit(_wrap("fields build", _config_echo(args), payload), args)
    return 0


def _cmd_cosets_enumerate(args):
    if args.mu_lo > args.mu_hi:
        raise ConfigError(f"--mu-lo {args.mu_lo} exceeds --mu-hi {args.mu_hi}")
    tower = _tower(args, need_ext=args.side in ("E", "E'"))
    ctx = tower.ctx[args.side]
    mus = cochar_window(args.n, args.mu_lo, args.mu_hi, max_spread=args.window)
    labels = ctx.enumerate_labels(mus)
    payload = {"result": {"side": args.side, "count": len(labels),
                          "labels": [ctx.label_to_json(lab) for lab in labels]}}
    cfg = _config_echo(args, {"muLo": args.mu_lo, "muHi": args.mu_hi, "side": args.side})
    _emit(_wrap("cosets enumerate", cfg, payload), args)
    return 0


def _cmd_hecke_convolve(args):
    tower = _tower(args, need_ext=args.case is not None)
    alg, f = _load_element(args.a, tower)
    g = _load(args.b, alg.from_json)
    out = alg.convolve(f, g)
    _emit(_wrap("hecke convolve", _config_echo(args), {"result": out.to_json()}), args)
    return 0


def _cmd_hecke_brauer(args):
    tower = _tower(args, need_ext=True)
    _, f = _load_element(args.infile, tower)
    out = tower.brauer(f)
    _emit(_wrap("hecke brauer", _config_echo(args), {"result": out.to_json()}), args)
    return 0


def _cmd_hecke_sigma(args):
    tower = _tower(args, need_ext=True)
    alg, f = _load_element(args.infile, tower)
    if args.orbit_sum:
        supports = f.support()
        if len(supports) != 1:
            raise ConfigError("--orbit-sum expects a single basis element")
        out = alg.sigma_orbit_sum(supports[0])
    else:
        out = alg.sigma_act(f)
    _emit(_wrap("hecke sigma", _config_echo(args), {"result": out.to_json()}), args)
    return 0


def _cmd_kaz_map(args):
    tower = _tower(args, need_ext=args.case is not None)
    _, f = _load_element(args.infile, tower)
    out = tower.kaz(f)
    _emit(_wrap("kaz map", _config_echo(args), {"result": out.to_json()}), args)
    return 0


def _cmd_check(args):
    name = args.check_command
    if name == "kaz-hom":
        tower = _tower(args)
        rep = check_kaz_hom(tower, window_spread=args.window, samples=args.samples,
                            seed=args.seed)
    elif name == "galois-equivariance":
        tower = _tower(args, need_ext=True)
        rep = check_galois_equivariance(tower, window_spread=args.window,
                                        samples=args.samples, seed=args.seed)
    elif name == "main-diagram":
        tower = _tower(args, need_ext=True)
        rep = check_main_diagram(tower, mu_spread=args.window,
                                 samples=args.samples, seed=args.seed)
    elif name == "lemma-conv":
        tower = _tower(args)
        rep = check_lemma_conv(tower, window_spread=args.window,
                               elements=args.samples, seed=args.seed)
    else:
        raise ConfigError(f"unknown check {name!r}")
    doc = rep.to_json()
    doc["config"] = _config_echo(args, doc["config"])
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
    for name, needs_case in [("kaz-hom", False), ("galois-equivariance", True),
                             ("main-diagram", True), ("lemma-conv", False)]:
        pc = psub.add_parser(name)
        _add_tower_args(pc, need_case=needs_case)
        pc.add_argument("--window", type=int, default=2, help="cocharacter spread")
        pc.add_argument("--samples", type=int, default=None)
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


_DEFAULT_SAMPLES = {"kaz-hom": 10, "galois-equivariance": 50,
                    "main-diagram": 25, "lemma-conv": 20}


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "samples", None) is None and hasattr(args, "samples"):
        args.samples = _DEFAULT_SAMPLES.get(getattr(args, "check_command", ""), 10)
    try:
        return args.func(args)
    except CloseHeckeError as exc:
        sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
