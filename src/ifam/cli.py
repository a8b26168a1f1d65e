"""Command-line front end.

Subcommands: gen, check, sunflower, kernel, classify, enumerate,
verify.  Exit code 0 reports success (a passing check, a found witness,
a produced artifact), 1 reports a negative outcome (failed statement,
no witness, no containing template), and 2 reports a usage error such
as unparsable input or parameters outside a contract.

Each call is a fresh process, so this module imports only the standard
library and ``hypergraph`` at the top (``import ifam`` adds
``verify``); each subcommand handler imports the modules it runs.
``check`` loads ``io`` only; ``enumerate``, ``classify``,
``kernel`` and ``sunflower`` load their engines when they start.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any

from .hypergraph import Hypergraph, cover_number, is_intersecting, mask_of, matching_number

if TYPE_CHECKING:
    from .classifier import Verdict
    from .kernel import ThresholdScheme


def _read_hypergraph(path: str) -> Hypergraph:
    from .io import parse_hypergraph

    with open(path, encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(data: Any) -> None:
    _emit(json.dumps(data, indent=2, sort_keys=True))


def _verdict_json(v: Verdict) -> dict[str, Any]:
    out: dict[str, Any] = {"verdict": v.describe(), "kind": v.kind.value}
    if v.t is not None:
        out["t"] = v.t
    if v.i is not None:
        out["i"] = v.i
    out["witness"] = dict(v.embedding.roles) if v.embedding is not None else None
    return out


def _print_verdict(v: Verdict) -> None:
    _emit(f"verdict: {v.describe()}")
    if v.embedding is not None:
        roles = " ".join(f"{role}={vertex}" for role, vertex in v.embedding.roles)
        _emit(f"witness: {roles or '(no distinguished vertices)'}")


# -- subcommand handlers ----------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    from .constructions import (
        ConstructionId,
        ConstructionParams,
        build_construction,
        layout_table,
    )
    from .io import hypergraph_to_json, serialize_hypergraph

    if args.layout:
        _emit(layout_table())
        return 0
    if args.id is None:
        raise ValueError("gen needs a construction id (or --layout)")
    cid = ConstructionId(args.id.upper())
    p = ConstructionParams(args.n, args.r, s=args.s, t=args.t, i=args.i)
    h = build_construction(cid, p)
    if args.format == "json":
        text = json.dumps(hypergraph_to_json(h), indent=2, sort_keys=True) + "\n"
    else:
        text = serialize_hypergraph(h)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(f"wrote {len(h)} edges to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    h = _read_hypergraph(args.file)
    inter = is_intersecting(h)
    nu = matching_number(h)
    tau = cover_number(h)
    if args.json:
        _emit_json({"n": h.n, "r": h.r, "edges": len(h), "intersecting": inter,
                    "matching_number": nu, "cover_number": tau})
    else:
        _emit(f"n: {h.n}  r: {h.r}  edges: {len(h)}")
        _emit(f"intersecting: {'yes' if inter else 'no'}")
        _emit(f"matching number: {nu}")
        _emit(f"cover number: {tau}")
    return 0 if inter else 1


def _cmd_sunflower(args: argparse.Namespace) -> int:
    from .io import parse_set_family
    from .sunflower import find_sunflower, find_sunflower_with_core

    with open(args.file, encoding="utf-8") as fh:
        fam = parse_set_family(fh.read())
    if args.core is not None:
        flower = find_sunflower_with_core(fam, mask_of(args.core), args.k)
    else:
        flower = find_sunflower(fam, args.k)
    if flower is None:
        _emit("none")
        return 1
    if args.json:
        _emit_json({"core": list(flower.core_vertices()),
                    "members": [list(vs) for vs in flower.member_sets()]})
    else:
        _emit(f"core: {' '.join(map(str, flower.core_vertices())) or '(empty)'}")
        for vs in flower.member_sets():
            _emit("  " + " ".join(map(str, vs)))
    return 0


def _parse_scheme(text: str) -> ThresholdScheme:
    from .kernel import paper_r, paper_rs

    if text == "paper":
        return paper_r()
    if text.startswith("rs:"):
        try:
            s = int(text[3:])
        except ValueError:
            raise ValueError(f"--scheme {text!r}: expected 'rs:S' with an integer S >= 1") from None
        return paper_rs(s)
    raise ValueError(f"--scheme: unknown scheme {text!r}; expected 'paper' or 'rs:S'")


def _cmd_kernel(args: argparse.Namespace) -> int:
    from .kernel import b_kernel, kernel_bound

    h = _read_hypergraph(args.file)
    scheme = _parse_scheme(args.scheme)
    d = b_kernel(h, scheme)
    bound = kernel_bound(h, d)
    sizes = {k: len(d.by_size[k]) for k in sorted(d.by_size)}
    if args.json:
        _emit_json({
            "scheme": scheme.name,
            "b_prime": [list(vs) for vs in d.b_prime.vertex_sets()],
            "b_dprime": [list(vs) for vs in d.b_dprime.vertex_sets()],
            "by_size": {str(k): v for k, v in sizes.items()},
            "counting_bound": bound,
            "edges": len(h),
        })
    else:
        _emit(f"scheme: {scheme.name}")
        _emit(f"B': {len(d.b_prime)} sets")
        for vs in d.b_prime.vertex_sets():
            _emit("  " + " ".join(map(str, vs)))
        _emit(f"B'': {len(d.b_dprime)} sets")
        for vs in d.b_dprime.vertex_sets():
            _emit("  " + " ".join(map(str, vs)))
        _emit("B_i sizes: " + (" ".join(f"{k}:{v}" for k, v in sizes.items()) or "(empty)"))
        _emit(f"counting bound: {bound} (family has {len(h)} edges)")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from .classifier import VerdictKind, classify, decompose_matching

    h = _read_hypergraph(args.file)
    if args.s is not None:
        zs, v = decompose_matching(h, args.s)
        if args.json:
            out = _verdict_json(v)
            out["z"] = list(zs) if zs is not None else None
            _emit_json(out)
        else:
            _print_verdict(v)
            if zs is None:
                _emit("Z: no decomposition")
            else:
                _emit("Z: " + (" ".join(map(str, zs)) or "(empty)"))
        return 0 if zs is not None and v.kind is not VerdictKind.NONE else 1
    v = classify(h)
    if args.json:
        _emit_json(_verdict_json(v))
    else:
        _print_verdict(v)
    return 0 if v.kind is not VerdictKind.NONE else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .enumeration import DEFAULT_CEILING, EnumerationFilter, enumerate_intersecting
    from .io import hypergraph_to_json, serialize_hypergraph

    f = EnumerationFilter(
        tau_le=args.tau_le,
        tau_ge=args.tau_ge,
        min_edges=args.min_edges,
        max_edges=args.max_edges,
        maximal_only=args.maximal,
    )
    ceiling = DEFAULT_CEILING if args.ceiling is None else args.ceiling
    fams = enumerate_intersecting(args.n, args.r, f, ceiling=ceiling)
    if args.count_only:
        _emit(str(len(fams)))
        return 0
    if args.json:
        _emit_json([hypergraph_to_json(h) for h in fams])
        return 0
    for idx, h in enumerate(fams):
        if idx:
            _emit("")
        sys.stdout.write(serialize_hypergraph(h))
    _emit(f"# {len(fams)} classes")
    return 0


def _ints(sep: str | None, form: str):
    """An argparse type: the integers of a text split at sep."""
    def parse(text: str) -> tuple[int, ...]:
        try:
            return tuple(int(tok) for tok in text.split(sep))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
    return parse


# the keyword parameters of ``verify``, each set by the flag of its name:
# name -> (argument type, help text)
_VERIFY_PARAMS = {
    **dict.fromkeys(("n", "max_support", "ceiling", "count", "seed", "n_max"), (int, None)),
    "r_values": (_ints(",", "comma-separated integers, e.g. 3,4,5"),
                 "comma-separated, e.g. 3,4,5"),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import verify

    kwargs = {k: getattr(args, k) for k in _VERIFY_PARAMS if getattr(args, k) is not None}
    rep = verify(args.statement, **kwargs)
    _emit(rep.summary())
    if args.json_report:
        with open(args.json_report, "w", encoding="utf-8") as fh:
            json.dump(rep.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        _emit(f"report written to {args.json_report}")
    return 0 if rep.passed else 1


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from .verify import STATEMENTS

    parser = argparse.ArgumentParser(
        prog="ifam",
        description="Intersecting set-family toolkit: constructions, covers, "
                    "kernels, classification, enumeration, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build a named construction")
    p.add_argument("id", nargs="?", help="construction id (EM, HM_T, HM0, HM_DP, FP, H3FAM, H3LIFT)")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--out", help="write to this file instead of stdout")
    p.add_argument("--format", choices=("txt", "json"), default="txt")
    p.add_argument("--layout", action="store_true",
                   help="print the vertex-layout table and exit")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="report intersecting status and cover/matching numbers")
    p.add_argument("--file", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sunflower", help="search a set family for a k-petal sunflower")
    p.add_argument("--file", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--core", type=_ints(None, 'vertex labels separated by spaces, e.g. "1 2"'),
                   help="restrict to this core, e.g. \"1 2\"")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sunflower)

    p = sub.add_parser("kernel", help="compute the kernel decomposition of a family")
    p.add_argument("--file", required=True)
    p.add_argument("--scheme", default="paper", help="'paper' or 'rs:S'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("classify", help="find a containing template, optionally after peeling")
    p.add_argument("--file", required=True)
    p.add_argument("--s", type=int, help="matching bound; peel s-1 vertices first")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="list intersecting families up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--tau-le", type=int)
    p.add_argument("--tau-ge", type=int)
    p.add_argument("--min-edges", type=int, default=0)
    p.add_argument("--max-edges", type=int)
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--ceiling", type=int,
                   help="largest n accepted (default: ifam.DEFAULT_CEILING)")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run one statement check")
    p.add_argument("statement", help="one of " + ", ".join(STATEMENTS))
    for name, (kind, text) in _VERIFY_PARAMS.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind, help=text)
    p.add_argument("--json-report", help="write the full report to this file")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"ifam: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
