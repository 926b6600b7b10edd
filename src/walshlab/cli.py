"""Command-line front end.

Subcommands: field, spectrum, table, verify, kloosterman, anf, export.
Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 capability
overflow.  Identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import boolfun as bf
from . import constructions as C
from . import kloosterman as kl
from . import walsh
from .gf2n import (
    FieldCtx,
    FieldError,
    TooLarge,
    check_n,
    create_ctx,
    create_field,
    default_ctx,
)
from .suites import SUITES, check_cap
from .suites import run_suite as _run_suite  # the benchmark wraps cli._run_suite


class UsageError(Exception):
    pass


# ------------------------------------------------------------- plumbing ----


def _emit(data: str | bytes, out: str | None) -> None:
    """Write text or bytes to the --out file, or to stdout without one."""
    binary = isinstance(data, bytes)
    if not out:
        (sys.stdout.buffer if binary else sys.stdout).write(data)
        return
    try:
        with open(out, "wb" if binary else "w") as fh:
            fh.write(data)
    except OSError as exc:
        raise UsageError(f"--out {out}: {exc.strerror or exc}") from None


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _int_arg(text: str, flag: str, base: int = 16, low: int | None = None) -> int:
    """Parse one command-line integer (hex by default); bad input is a usage error."""
    try:
        value = int(text, base)
    except ValueError:
        raise UsageError(f"{flag}: {text!r} is not a base-{base} integer") from None
    if low is not None and value < low:
        raise UsageError(f"{flag} must be at least {low}, got {value}")
    return value


def _ctx_for(args) -> FieldCtx:
    """The field of --m and --poly; --max-n can only lower the library's cap."""
    poly = _int_arg(args.poly, "--poly") if args.poly is not None else None
    if args.max_n is not None:
        check_n(2 * args.m, args.max_n)
    return default_ctx(args.m) if poly is None else create_ctx(args.m, poly)


def _mu_arg(ctx: FieldCtx, text: str) -> int:
    """--mu as a hex element, or idx:K for generator^((2^m+1) K) with K >= 0;
    either way a nonzero subfield element."""
    if text.startswith("idx:"):
        k = _int_arg(text[4:], "--mu idx:K", base=10, low=0)
        mu = ctx.pow(ctx.generator, ((1 << ctx.m) + 1) * k)
    else:
        mu = _int_arg(text, "--mu")
    ctx.check_mu(mu)
    return mu


def _resolve_mus(ctx: FieldCtx, selector: str) -> list[int]:
    if selector == "all":
        return ctx.subgroup("subfield_units")
    if selector == "k=-1":
        return C.mus_with_k(ctx, -1)
    return [_mu_arg(ctx, selector)]


def _parse_m_range(args) -> range:
    if args.m_range is not None:
        lo, _, hi = args.m_range.partition("..")
        lo_i = _int_arg(lo, "--m-range", base=10)
        hi_i = _int_arg(hi, "--m-range", base=10)
        if lo_i > hi_i:
            raise UsageError("--m-range lower bound exceeds upper bound")
    elif args.m is not None:
        lo_i = hi_i = args.m
    else:
        lo_i, hi_i = 3, 6
    if lo_i < 1:
        raise UsageError("m must be at least 1")
    return range(lo_i, hi_i + 1)


# ------------------------------------------------------------- spectrum ----


def _one_spectrum_report(ctx: FieldCtx, which: str, mu: int, all_mu: bool = False) -> dict:
    dist, w0 = C.walsh_summary(ctx, which, mu, all_mu)
    weight = (ctx.q - w0) // 2
    return {
        "construction": which,
        "m": ctx.m,
        "n": ctx.n,
        "mu": format(mu, "#x"),
        "lambda": format(C.find_lambda(ctx), "#x"),
        "distribution": [{"value": v, "count": c} for v, c in dist.items()],
        "nonlinearity": walsh.nonlinearity(dist),
        "classification": walsh.classify(dist, ctx.m),
        "balanced": 2 * weight == ctx.q,
        "weight": weight,
        "algebraic_degree": C.degree(ctx, which, mu),
    }


def cmd_spectrum(args) -> int:
    ctx = _ctx_for(args)
    mus = _resolve_mus(ctx, args.mu)
    if not mus:
        raise UsageError(f"no subfield mu matches selector {args.mu!r}")
    reports = [_one_spectrum_report(ctx, args.construction, mu, len(mus) > 1) for mu in mus]

    if args.format == "json":
        payload = reports[0] if len(reports) == 1 else {"reports": reports}
        _emit(_json(payload), args.out)
    elif args.format == "csv":
        if len(reports) == 1:
            lines = ["value,count"]
            lines += [f"{row['value']},{row['count']}" for row in reports[0]["distribution"]]
        else:
            lines = ["mu,value,count"]
            for rep in reports:
                lines += [f"{rep['mu']},{row['value']},{row['count']}"
                          for row in rep["distribution"]]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        blocks = []
        for rep in reports:
            rows = "\n".join(f"  {row['value']:>8} {row['count']:>8}"
                             for row in rep["distribution"])
            blocks.append(
                f"{rep['construction']} m={rep['m']} mu={rep['mu']} lambda={rep['lambda']}\n"
                f"  {'W(a)':>8} {'freq':>8}\n{rows}\n"
                f"  nonlinearity={rep['nonlinearity']} classification={rep['classification']}\n"
                f"  balanced={rep['balanced']} weight={rep['weight']}"
                f" degree={rep['algebraic_degree']}\n")
        _emit("\n".join(blocks), args.out)
    return 0


# ---------------------------------------------------------------- table ----


def _computed_column(which: str, ctx: FieldCtx):
    if which == "remark-f":
        return C.walsh_summary(ctx, "f", 1, True)[0], 1
    mus = C.mus_with_k(ctx, -1)
    # the first qualifying mu that reproduces the column, else the first of them
    mu = next((mu for mu in mus
               if C.walsh_summary(ctx, "g", mu, True)[0] == C.G_REFERENCE[ctx.m]), mus[0])
    return C.walsh_summary(ctx, "g", mu, True)[0], mu


def cmd_table(args) -> int:
    # each reference column lists its values in the order the text table prints
    reference = C.F_REFERENCE if args.which == "remark-f" else C.G_REFERENCE
    ms = sorted(reference)
    # a --poly override applies to the column whose degree it matches; the
    # regenerated table must be identical either way (representation
    # independence)
    poly = _int_arg(args.poly, "--poly") if args.poly is not None else None
    degree = poly.bit_length() - 1 if poly is not None else None
    if poly is not None and degree not in [2 * m for m in ms]:
        raise UsageError(f"--poly {args.poly} matches no column: its degree must be one of "
                         + ", ".join(str(2 * m) for m in ms))
    columns, mus = {}, {}
    for m in ms:
        ctx = create_field(2 * m, poly_override=poly) if degree == 2 * m else default_ctx(m)
        columns[m], mus[m] = _computed_column(args.which, ctx)
    ok = all(columns[m] == reference[m] for m in ms)

    if args.format == "json":
        payload = {
            "which": args.which,
            "columns": [
                {
                    "m": m,
                    "mu": format(mus[m], "#x"),
                    "distribution": [{"value": v, "count": c}
                                     for v, c in columns[m].items()],
                    "matches_reference": columns[m] == reference[m],
                }
                for m in ms
            ],
            "passed": ok,
        }
        _emit(_json(payload), args.out)
    elif args.format == "csv":
        lines = ["m,mu,value,count"]
        for m in ms:
            for v, c in columns[m].items():
                lines.append(f"{m},{format(mus[m], '#x')},{v},{c}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        header = "   ".join(f"{'m=' + str(m):^21}" for m in ms)
        sub = "   ".join(f"{'W(a)':>10} {'freq':>10}" for _ in ms)
        lines = [header, sub]
        for row in zip(*(reference[m] for m in ms)):
            lines.append("   ".join(f"{v:>10} {columns[m].get(v, 0):>10}"
                                    for m, v in zip(ms, row)))
        lines.append("")
        lines.append("mu per column: " + ", ".join(
            f"m={m}: {format(mus[m], '#x')}" for m in ms))
        lines.append(f"reference match: {'yes' if ok else 'NO'}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------- verify ---


def cmd_verify(args) -> int:
    ms = _parse_m_range(args)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    check_cap(suites, ms)
    results = []
    for suite in suites:
        results += _run_suite(suite, ms)
    gated = [r for r in results if not r["info"]]
    # recursion runs fixed (m, s) pairs, so its gated checks can all lie outside ms
    if not any(r["m"] in ms for r in gated):
        raise UsageError(f"suite {args.suite} has no gated check"
                         f" for m = {ms.start}..{ms.stop - 1}")
    passed = all(r["pass"] for r in gated)
    payload = {
        "suite": args.suite,
        "m_range": [ms.start, ms.stop - 1],
        "checks": results,
        "passed": passed,
    }
    if args.format == "json":
        _emit(_json(payload), args.out)
    else:
        lines = []
        for r in results:
            status = "PASS" if r["pass"] else ("info(miss)" if r["info"] else "FAIL")
            mu = f" mu={r['mu']}" if r["mu"] else ""
            lines.append(f"[{status:>10}] {r['suite']} m={r['m']}{mu} {r['name']} {r['detail']}")
        lines.append(f"overall: {'PASS' if passed else 'FAIL'}"
                     f" ({len(gated)} gated checks)")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if passed else 1


# ------------------------------------------------------------- the rest ----


def cmd_field(args) -> int:
    ctx = _ctx_for(args)
    payload = {
        "m": ctx.m,
        "n": ctx.n,
        "reduction_poly": format(ctx.reduction_poly, "#x"),
        "generator": format(ctx.generator, "#x"),
        "dual_basis": [format(g, "#x") for g in ctx.dual_basis],
        "lambda": format(C.find_lambda(ctx), "#x"),
    }
    if args.format == "json":
        _emit(_json(payload), args.out)
    else:
        _emit("".join(f"{k}: {v}\n" for k, v in payload.items()), args.out)
    return 0


def cmd_kloosterman(args) -> int:
    if args.m < 1:
        raise UsageError("m must be at least 1")
    if args.scan:
        values = kl.scan(args.m).tolist()
        value_set = sorted(set(values[1:]))
        if args.format == "json":
            payload = {"m": args.m,
                       "values": [{"lambda": format(lam, "#x"), "k": k}
                                  for lam, k in enumerate(values)],
                       "value_set": value_set}
            _emit(_json(payload), args.out)
        elif args.format == "csv":
            lines = ["lambda,k"]
            lines += [f"{format(lam, '#x')},{k}" for lam, k in enumerate(values)]
            _emit("\n".join(lines) + "\n", args.out)
        else:
            rows = "\n".join(f"  {format(lam, '#x'):>8} {k:>6}"
                             for lam, k in enumerate(values))
            _emit(f"k_{args.m} scan\n  {'lambda':>8} {'k':>6}\n{rows}\n"
                  f"value set: {value_set}\n", args.out)
        return 0
    if args.target is not None:
        mus = kl.find_mu(args.m, args.target)
        payload = {"m": args.m, "target": args.target,
                   "mus": [format(mu, "#x") for mu in mus]}
        if args.format == "json":
            _emit(_json(payload), args.out)
        else:
            _emit(f"k_{args.m} = {args.target}: {' '.join(payload['mus']) or '(none)'}\n",
                  args.out)
        return 0
    if args.a is None:
        raise UsageError("kloosterman needs one of --scan, --target, --a")
    ctx = create_field(args.m)
    a = _int_arg(args.a, "--a")
    b = _int_arg(args.b, "--b")
    k = kl.kloosterman_sum(ctx, a, b)
    payload = {"m": args.m, "a": format(a, "#x"), "b": format(b, "#x"), "k": k}
    if args.format == "json":
        _emit(_json(payload), args.out)
    else:
        _emit(f"k_{args.m}({payload['a']}, {payload['b']}) = {k}\n", args.out)
    return 0


def cmd_anf(args) -> int:
    ctx = _ctx_for(args)
    mu = _mu_arg(ctx, args.mu)
    build = C.build_f if args.construction == "f" else C.build_g
    monos = bf.anf_monomials_hex(bf.anf(build(ctx, mu)))
    payload = {
        "construction": args.construction,
        "m": ctx.m,
        "n": ctx.n,
        "mu": format(mu, "#x"),
        "algebraic_degree": C.degree(ctx, args.construction, mu),
        "monomials": monos,
    }
    if args.format == "json":
        _emit(_json(payload), args.out)
    elif args.format == "csv":
        _emit("monomial\n" + "\n".join(monos) + "\n", args.out)
    else:
        _emit(f"{args.construction} m={ctx.m} mu={payload['mu']}"
              f" degree={payload['algebraic_degree']}\n"
              + "\n".join(monos) + "\n", args.out)
    return 0


def cmd_export(args) -> int:
    ctx = _ctx_for(args)
    mu = _mu_arg(ctx, args.mu)
    build = C.build_f if args.construction == "f" else C.build_g
    table = build(ctx, mu)
    if args.what == "anf":
        payload = "\n".join(bf.anf_monomials_hex(bf.anf(table))) + "\n"
        _emit(payload, args.out)
        return 0
    if args.encoding == "bits":
        _emit(bf.table_to_bytes(table), args.out)
    else:
        _emit(bf.table_to_hex(table) + "\n", args.out)
    return 0


# ----------------------------------------------------------------- main ----


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="walshlab",
                                  description="Walsh spectra and Kloosterman machinery "
                                              "for the f/g constructions on GF(2^2m)")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "csv", "text")):
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--poly", help="reduction polynomial override (hex)")
        p.add_argument("--max-n", type=int, dest="max_n")
        if formats:  # only the forms the command renders
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out")

    p = sub.add_parser("field", help="construct a field and print its data")
    common(p, formats=("json", "text"))
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("spectrum", help="Walsh spectrum report for f or g")
    common(p)
    p.add_argument("--construction", choices=("f", "g"), required=True)
    p.add_argument("--mu", required=True,
                   help="hex element | idx:K (generator index) | all | k=-1")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("table", help="regenerate the published frequency tables")
    p.add_argument("--which", choices=("remark-f", "remark-g"), required=True)
    p.add_argument("--poly", help="reduction polynomial override for the matching column (hex)")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=(*SUITES, "all"), required=True)
    span = p.add_mutually_exclusive_group()
    span.add_argument("--m", type=int)
    span.add_argument("--m-range", dest="m_range", help="A..B inclusive (default 3..6)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kloosterman", help="Kloosterman sums and scans")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--scan", action="store_true")
    p.add_argument("--target", type=int)
    p.add_argument("--a", help="hex element")
    p.add_argument("--b", default="0x1", help="hex element (default 0x1)")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_kloosterman)

    p = sub.add_parser("anf", help="algebraic normal form of f or g")
    common(p)
    p.add_argument("--construction", choices=("f", "g"), required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_anf)

    p = sub.add_parser("export", help="write a truth table or ANF to a file")
    common(p, formats=())
    p.add_argument("--construction", choices=("f", "g"), required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--what", choices=("table", "anf"), default="table")
    p.add_argument("--encoding", choices=("bits", "hex"), default="bits")
    p.set_defaults(func=cmd_export)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
