"""Command-line surface: builders, algebra operations, verification suites.

Every run echoes its fully resolved configuration and the library version;
identical configuration and seed give byte-identical reports.  Exit codes:
0 success or pass, 1 check failure, 2 configuration error.

One table, ``_COMMANDS``, declares each subcommand once: its help, its tower
flags, its own arguments and the function that computes its result.  One
loop turns the table into the parser, and one handler runs every command
that builds a tower: it reads the tower flags, computes, echoes the
configuration and emits the document.  ``tate cohomology`` and
``linkage check`` build no tower and keep their own handlers.  The CLI
checks only the bounds of the flags that no library constructor reads;
``Tower`` and the builders behind it reject a bad tower with their own
typed errors.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys

from . import __version__
from .errors import CloseHeckeError, ConfigError, json_field
from .matrices import cochar_window
from .tate import linkage_check, module_from_json, tate_cohomology
from .transfer import (
    Report,
    Tower,
    check_galois_equivariance,
    check_kaz_hom,
    check_lemma_conv,
    check_main_diagram,
)


def _add_tower_args(p, need_case):
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


def _tower(args):
    """The tower of ``args`` and the run configuration its document echoes,
    after the checks that no library constructor makes."""
    if getattr(args, "mu_lo", 0) > getattr(args, "mu_hi", 0):
        raise ConfigError(f"--mu-lo {args.mu_lo} exceeds --mu-hi {args.mu_hi}")
    for flag in ("window", "samples"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise ConfigError(f"--{flag} must not be negative, got {value}")
    for flag in ("n", "budget", "pair_budget"):
        value = getattr(args, flag)
        if value < 1:
            raise ConfigError(f"--{flag.replace('_', '-')} must be at least 1, got {value}")
    lambda_image = None
    if args.lambda_image:
        try:
            lambda_image = [int(c) for c in args.lambda_image.split(",")]
        except ValueError:
            raise ConfigError("--lambda-image needs comma-separated integers, "
                              f"not {args.lambda_image!r}") from None
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
    return {"command": command, "config": config, "library_version": __version__, **payload}


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


def _load_element(path, tower):
    """The Hecke element in ``path``, on the algebra of its "side" (F by
    default)."""
    def parse(doc):
        side = doc.get("side", "F")
        if side not in tower.alg:
            raise ConfigError(f"side {side!r} not present (need --case for E/E')")
        return tower.alg[side].from_json(doc)
    return _load(path, parse)


# -- what each tower command computes -------------------------------------------

def _fields(tower, args):
    pair, ext = tower.pair, tower.extpair
    return {"F": pair.F.to_json(), "F'": pair.Fp.to_json(), "E": ext.E.to_json(),
            "E'": ext.Ep.to_json(), "e": ext.E.e, "lambda": pair.lam.to_json(),
            "pi": ext.pi.to_json()}


def _cosets(tower, args):
    if args.side not in tower.ctx:
        raise ConfigError("this command needs --case unramified|ramified")
    ctx = tower.ctx[args.side]
    labels = ctx.enumerate_labels(
        cochar_window(args.n, args.mu_lo, args.mu_hi, max_spread=args.window))
    return {"side": args.side, "count": len(labels),
            "labels": [ctx.label_to_json(lab) for lab in labels]}


def _convolve(tower, args):
    f = _load_element(args.a, tower)
    return f.algebra.convolve(f, _load(args.b, f.algebra.from_json)).to_json()


def _sigma(tower, args):
    f = _load_element(args.infile, tower)
    if not args.orbit_sum:
        return f.algebra.sigma_act(f).to_json()
    supports = f.support()
    if len(supports) != 1:
        raise ConfigError("--orbit-sum expects a single basis element")
    return f.algebra.sigma_orbit_sum(supports[0]).to_json()


def _run_tower(args):
    """Every command that builds a tower: the tower, the result, the echoed
    configuration with the command's own keys, and the document.  A check
    suite's report merges the configuration into its own and exits 1 when
    the check fails."""
    tower, cfg = _tower(args)
    out = args.spec.run(tower, args)
    if isinstance(out, Report):
        doc = out.to_json()
        doc["config"] = {**cfg, **doc["config"]}
        _emit(doc, args)
        return 0 if out.passed else 1
    cfg.update({key: getattr(args, dest) for key, dest in args.spec.echo})
    _emit(_wrap(args.name, cfg, {"result": out}), args)
    return 0


# -- the commands that build no tower -----------------------------------------------

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


# -- the command table ------------------------------------------------------------------

_NO_TOWER, _CASE_OPTIONAL, _CASE_REQUIRED = None, False, True


# One subcommand: its help text (None leaves it out of its group's listing),
# its tower flags, its own arguments, and ``run``, which computes the result
# from (tower, args), or is the whole handler of a command without a tower;
# ``echo`` lists the (config key, dest) pairs its document adds to the
# tower configuration.
_Command = collections.namedtuple("_Command", "help tower args run echo", defaults=((),))


def _arg(*flags, **kw):
    return flags, kw


def _check(case, samples, suite, window="window_spread", count="samples"):
    """A verification suite: --window, --samples and --seed, passed to
    ``suite`` under its own keyword names, and its report."""
    def run(tower, args):
        return suite(tower, **{window: args.window, count: args.samples}, seed=args.seed)
    return _Command(None, case, [
        _arg("--window", type=int, default=2, help="cocharacter spread"),
        _arg("--samples", type=int, default=samples),
        _arg("--seed", type=int, default=0)], run)


_IN = _arg("--in", dest="infile", required=True)
_GROUPS = {"fields": "build field towers", "cosets": "double-coset enumeration",
           "hecke": "Hecke algebra operations", "kaz": "Kazhdan transfer",
           "check": "verification suites", "tate": "Tate cohomology",
           "linkage": "linkage predicate"}
_COMMANDS = {
    ("fields", "build"): _Command(
        "build a close pair with matched extensions", _CASE_REQUIRED, [], _fields),
    ("cosets", "enumerate"): _Command(
        "enumerate double-coset labels in a window", _CASE_OPTIONAL, [
            _arg("--side", default="F", choices=["F", "F'", "E", "E'"]),
            _arg("--mu-lo", type=int, default=0),
            _arg("--mu-hi", type=int, default=1),
            _arg("--window", type=int, default=None, help="max spread filter")],
        _cosets, echo=(("muLo", "mu_lo"), ("muHi", "mu_hi"), ("side", "side"))),
    ("hecke", "convolve"): _Command(None, _CASE_OPTIONAL, [
        _arg("--a", required=True, help="left element JSON file"),
        _arg("--b", required=True, help="right element JSON file")], _convolve),
    ("hecke", "brauer"): _Command(None, _CASE_REQUIRED, [_IN], lambda tower, args:
                                  tower.brauer(_load_element(args.infile, tower)).to_json()),
    ("hecke", "sigma"): _Command(None, _CASE_REQUIRED, [
        _IN, _arg("--orbit-sum", action="store_true")], _sigma),
    ("kaz", "map"): _Command(None, _CASE_OPTIONAL, [_IN], lambda tower, args:
                             tower.kaz(_load_element(args.infile, tower)).to_json()),
    ("check", "kaz-hom"): _check(_CASE_OPTIONAL, 10, check_kaz_hom),
    ("check", "galois-equivariance"): _check(_CASE_REQUIRED, 50, check_galois_equivariance),
    ("check", "main-diagram"): _check(_CASE_REQUIRED, 25, check_main_diagram, window="mu_spread"),
    ("check", "lemma-conv"): _check(_CASE_OPTIONAL, 20, check_lemma_conv, count="elements"),
    ("tate", "cohomology"): _Command(None, _NO_TOWER, [
        _arg("--module", required=True),
        _arg("--i", type=int, choices=[0, 1], required=True)], _cmd_tate_cohomology),
    ("linkage", "check"): _Command(None, _NO_TOWER, [
        _arg("--xi", required=True), _arg("--rho", required=True), _arg("--br", required=True),
        _arg("--seed", type=int, default=0)], _cmd_linkage_check),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="closehecke",
        description="Congruence-level Hecke algebras over close local fields: "
                    "builders, transfers, and exact verification suites.")
    sub = ap.add_subparsers(dest="command", required=True)
    groups = {}
    for (command, name), spec in _COMMANDS.items():
        if command not in groups:
            group = sub.add_parser(command, help=_GROUPS[command])
            groups[command] = group.add_subparsers(dest=f"{command}_command", required=True)
        p = groups[command].add_parser(name, **({"help": spec.help} if spec.help else {}))
        if spec.tower is not _NO_TOWER:
            _add_tower_args(p, need_case=spec.tower)
        for flags, kw in spec.args:
            p.add_argument(*flags, **kw)
        p.add_argument("--out", default=None, help="write the JSON document here")
        p.add_argument("--json", action="store_true", help="stream the JSON document to stdout")
        p.set_defaults(func=spec.run if spec.tower is _NO_TOWER else _run_tower,
                       spec=spec, name=f"{command} {name}")
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
