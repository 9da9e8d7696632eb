"""Command-line front end.

Subcommands: kernel, berezin, norm, br-scan, blowup, reproduce.  Reports are
deterministic (seeded grids, fixed formatting: 17 significant digits in JSON
payloads, 12 in CSV).  Exit codes: 0 success, 1 reproduction failure, 2
configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from bergman import transforms as bz
from bergman import domains as dom
from bergman import hartogs as ht
from bergman import jsonfmt
from bergman import opnorm as on
from bergman import quadrature as quad
from bergman import reproduce
from .errors import BergmanError


def _parse_point(text: str, dim: int):
    try:
        coords = tuple(complex(tok.replace("i", "j")) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse point {text!r}") from None
    if len(coords) != dim:
        raise ValueError(f"point {text!r} has {len(coords)} coordinates, domain needs {dim}")
    return coords


_SYMBOLS = {
    "one": lambda w: np.ones(len(w)),
    "abs2": lambda w: (np.sum(np.abs(w) ** 2, axis=1) if w.ndim > 1 else np.abs(w) ** 2),
}


def _symbol(name: str):
    if name in _SYMBOLS:
        return _SYMBOLS[name]
    if name.startswith("blowup:"):
        eps = float(name.split(":", 1)[1])
        return lambda w: ht.blowup_symbol_values(eps, w if w.ndim > 1 else w[:, None])
    raise ValueError(f"unknown symbol {name!r}; use one, abs2, or blowup:<eps>")


def _given(value, default):
    """The flag's value, or ``default`` when it was not given (0 is given, not unset)."""
    return default if value is None else value


def _rule_for(domain, args):
    radial, angular = domain.default_grid
    return quad.build_rule(domain, _given(args.radial_n, radial), _given(args.angular_n, angular),
                           args.grading)


def _emit(payload: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    print(payload, end="" if payload.endswith("\n") else "\n")


def cmd_kernel(args):
    domain = dom.domain_by_name(args.domain)
    z = _parse_point(args.z, domain.dim)
    w = _parse_point(args.w, domain.dim)
    val = dom.kernel(domain, z, w)
    payload = jsonfmt.dumps({"domain": args.domain, "z": list(z), "w": list(w),
                             "kernel": val}) + "\n"
    _emit(payload, args.out)
    return 0


def cmd_berezin(args):
    domain = dom.domain_by_name(args.domain)
    z = _parse_point(args.z, domain.dim)
    rule = _rule_for(domain, args)
    val = bz.berezin(domain, _symbol(args.symbol), z, rule)
    payload = jsonfmt.dumps({"domain": args.domain, "symbol": args.symbol,
                             "z": list(z), "berezin": val,
                             "rule": list(rule.meta.shape)}) + "\n"
    _emit(payload, args.out)
    return 0


def cmd_norm(args):
    domain = dom.domain_by_name(args.domain)
    p = float(args.p)  # "inf" and "infinity" included
    if domain.kind != "disc":
        raise ValueError("norm estimation is wired for the disc discretizations")
    if math.isinf(p):
        radial, angular = reproduce.ROWS_GRID
        rule = quad.build_rule(domain, _given(args.radial_n, radial), _given(args.angular_n, angular))
        matrix = on.discretize_berezin(domain, rule, row_nodes=reproduce.row_nodes(rule))
    elif args.angular_n is not None:
        raise ValueError("--angular-n applies to --p inf; the finite-p matrix has no angular grid")
    else:
        matrix = on.discretize_berezin_radial(_given(args.radial_n, on.BEREZIN_RADIAL[0]))
    _emit(on.estimate_norm(matrix, p).to_json() + "\n", args.out)
    return 0


def cmd_br_scan(args):
    domain = dom.domain_by_name(args.domain)
    rep = on.br_scan(domain)
    _emit(rep.to_json() + "\n", args.out)
    return 0


def cmd_blowup(args):
    eps_list = [float(tok) for tok in args.eps.split(",")]
    table = ht.blowup_table(eps_list, _given(args.radial_n, ht.L2_NODES))
    _emit(table.to_csv(), args.out)
    print(f"fitted log-log slope: {table.slope:.6f}", file=sys.stderr)
    return 0


def cmd_reproduce(args):
    results = reproduce.run_all()
    width = max(len(r.name) for r in results)
    print(f"{'id':>3}  {'check':<{width}}  status  seconds")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.ident:>3}  {r.name:<{width}}  {status:<6}  {r.seconds:7.2f}")
        for key, val in r.measured.items():
            print(f"     - {key} = {val}  (tolerance: {r.tolerance})")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if args.out:
        if args.format == "csv":
            # no seconds column: the report must be byte-identical across runs
            lines = ["id,name,passed"] + [f"{r.ident},{r.name},{int(r.passed)}" for r in results]
            payload = "\n".join(lines) + "\n"
        else:
            payload = jsonfmt.dumps([r.row() for r in results]) + "\n"
        with open(args.out, "w") as fh:
            fh.write(payload)
    return 1 if failed else 0


def build_parser():
    """Each subcommand declares only the flags it reads; any other flag exits 2."""
    ap = argparse.ArgumentParser(prog="bergman", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *flags):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default=None)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(fn=fn)

    command("kernel", cmd_kernel, "evaluate the Bergman kernel at (z, w)", "domain", "z", "w")
    command("berezin", cmd_berezin, "Berezin transform of a symbol at z", "domain", "z",
            "symbol", "radial-n", "angular-n", "grading")
    command("norm", cmd_norm, "discrete L^p operator norm estimate", "domain", "p",
            "radial-n", "angular-n")
    command("br-scan", cmd_br_scan, "kernel-ratio scan with divergence flag", "domain")
    command("blowup", cmd_blowup, "Hartogs blow-up table as CSV", "eps", "radial-n")
    command("reproduce", cmd_reproduce, "run the full reproduction suite", "format")
    return ap


_FLAGS = {
    "domain": dict(default="disc"),
    "z": dict(required=True),
    "w": dict(required=True),
    "symbol": dict(default="one"),
    "p": dict(default="2"),
    "eps": dict(default=",".join(map(repr, ht.BLOWUP_EPS))),
    "radial-n": dict(type=int, default=None),
    "angular-n": dict(type=int, default=None),
    "grading": dict(type=float, default=quad.GRADING),
    "format": dict(choices=("json", "csv"), default="json"),
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (BergmanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
