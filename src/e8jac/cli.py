"""Command-line interface: q-expansions, lattice queries, tables, verification.

Exit codes: 0 success, 1 a verification suite found a failure, 2 usage or
resource errors (a command line argparse rejects, a budget that is not a
positive integer, unknown form, insufficient order, budget exceeded, a
request the catalog cannot serve, stdout closed before the output was
written), 3 a failed certification
(CertificationError: a result the library checks on every call did not
hold) or any other internal RuntimeError.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial

from .catalog import (
    Q2_SIGMA16_CANCELLED,
    REGISTRY,
    CatalogError,
    build,
    dimension_bound_table,
    holomorphic_subspace,
    parse_recipe,
    pullback_max_table,
    rank_series,
    solve_cascade,
    verify_free_module,
)
from .e8 import (
    BUDGET_ENV,
    BudgetError,
    element_budget,
    max_coset_min_norm,
    shell,
)
from .invring import sigma_label
from .jacobi import (
    check_quasi_periodicity,
    classify,
    weight0_identity,
)
from .qseries import format_rational, sigma_pow

__all__ = ["main"]


# ---------------------------------------------------------------------------
# commands: each returns (exit code, JSON payload, text lines); main prints
# one of the two


def _cmd_expand(args):
    form = build(args.form, args.order)
    if args.format == "text":  # the payload serializes every term
        return 0, None, form.display_lines()
    return 0, {
        "name": args.form,
        "form": form.to_json(),
        "display": {
            str(n): form.term(n).display_str() for n in range(form.order + 1)
        },
    }, None


def _cmd_orbits(args):
    rows = [
        {"fw": list(m.fw), "size": size, "label": sigma_label(m)}
        for m, size in shell(args.norm)
    ]
    total = sum(r["size"] for r in rows)
    lines = [f"{r['label']}: fw={tuple(r['fw'])} size={r['size']}" for r in rows]
    lines.append(f"total {total}")
    return 0, {"norm": args.norm, "orbits": rows, "total": total}, lines


def _cmd_coset_minima(args):
    value = max_coset_min_norm(args.t)
    return 0, {"t": args.t, "max_min_norm": value}, [str(value)]


def _cmd_rank(args):
    r = rank_series(args.max)[1:]
    return 0, {"max": args.max, "ranks": r}, [" ".join(str(x) for x in r)]


def _cmd_bounds(args):
    table = dimension_bound_table(args.max)
    rows = [{"weight": k, "bound": b, "note": note} for k, b, note in table]
    lines = [f"{k}: {b}" + (f"  ({note})" if note else "") for k, b, note in table]
    return 0, {"max": args.max, "rows": rows}, lines


def _cmd_pullback_max(args):
    table = pullback_max_table()
    rows = [{"label": lab, "max": v} for lab, v in table]
    return 0, {"rows": rows}, [f"{lab}: {v}" for lab, v in table]


def _cmd_solve_cascade(args):
    norms = []
    for item in args.norms.split(","):
        try:
            norms.append(int(item))
        except ValueError:
            raise ValueError(f"--norms item {item!r} is not an integer") from None
    sys_ = solve_cascade(args.t, args.w0, norms)
    payload = {
        "t": sys_.index,
        "w0": sys_.start_weight,
        "norms": list(sys_.norms),
        "matrix": [[format_rational(x) for x in row] for row in sys_.matrix],
        "nullspace": [list(v) for v in sys_.nullspace],
    }
    lines = [f"nullspace: {' '.join(str(x) for x in v)}" for v in sys_.nullspace]
    return 0, payload, lines or ["nullspace: trivial"]


# ---------------------------------------------------------------------------
# verification suites: each returns a list of (check name, ok, detail)

def _check_pins(t: int) -> list[tuple[str, bool, str]]:
    """Check every registry pin of the index-t forms."""
    out = []
    for name, entry in REGISTRY.items():
        if entry.index != t:
            continue
        for n, want in entry.pins:
            got = build(name).term(n).display_str()
            ok = got == want
            out.append((f"index{t}: {name} q^{n}", ok,
                        "" if ok else f"got {got!r}"))
    return out


def _suite_index4():
    out = _check_pins(4)
    for name, entry in REGISTRY.items():
        if entry.normalization != Q2_SIGMA16_CANCELLED:
            continue
        ok = not build(name).term(2).display_map().get("Σ_{16'}", 0)
        out.append((f"index4: {name} q² Σ_{{16'}} cancelled", ok,
                    "" if ok else "survived"))
    return out


def _suite_systems():
    cases = [
        ((3, -8, (0, 2, 4, 6, 8)), ((1, -4, 6, -4, 1),)),
        ((4, -16, tuple(range(0, 18, 2))),
         ((1, -8, 28, -56, 70, -56, 28, -8, 1),)),
        ((3, -10, (0, 2, 4, 6, 8)), ()),
        ((3, -6, (0, 2, 4, 6)), ()),
        ((4, -18, tuple(range(0, 18, 2))), ()),
        ((4, -14, tuple(range(0, 16, 2))), ()),
    ]
    out = []
    for (t, w0, norms), want in cases:
        got = solve_cascade(t, w0, norms).nullspace
        ok = got == want
        out.append((f"systems: ({t}, {w0})", ok, "" if ok else f"got {got}"))
    return out


def _suite_identities():
    N = 10
    lhs = parse_recipe("theta_e8·theta_e8")(N)
    rhs = parse_recipe(
        "1/360 E4^2 phi_0_2", "-1/1080 E4^3 phi_-4_2",
        "-1/1080 E4 E6 phi_-2_2", "Δ phi_-4_2",
    )(N)
    ok = lhs == rhs
    return [("identities: θ² relation through q^10", ok,
             "" if ok else "mismatch")]


def _suite_lf():
    out = []
    for name, entry in REGISTRY.items():
        if not entry.buildable or entry.weight != 0:
            continue
        ok = weight0_identity(build(name))
        out.append((f"lf: weight-0 identity for {name}", ok,
                    "" if ok else "2t·f(0) != 3·norm moment"))
    for name, entry in sorted(REGISTRY.items()):
        if not entry.buildable:
            continue
        f = build(name)
        ok, bad = f.term(0).t_support_check(f.index)
        out.append((f"lf: q^0 support T(m) <= {f.index} for {name}", ok,
                    "" if ok else f"violated at fw={bad[0].fw}"))
    return out


def _suite_lattice():
    out = []
    expected_reps = {
        2: [(0, 0, 0, 0, 0, 0, 0, 1)],
        4: [(1, 0, 0, 0, 0, 0, 0, 0)],
        6: [(0, 0, 0, 0, 0, 0, 1, 0)],
        8: [(0, 0, 0, 0, 0, 0, 0, 2), (0, 1, 0, 0, 0, 0, 0, 0)],
        10: [(1, 0, 0, 0, 0, 0, 0, 1)],
        12: [(0, 0, 0, 0, 0, 1, 0, 0)],
        14: [(0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1, 1)],
        16: [(2, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 1)],
        18: [(1, 0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 0, 3)],
        20: [(0, 0, 0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 2)],
        22: [(0, 0, 0, 0, 0, 1, 0, 1), (1, 1, 0, 0, 0, 0, 0, 0)],
        24: [(0, 0, 0, 0, 0, 0, 2, 0), (0, 0, 1, 0, 0, 0, 0, 1)],
    }
    for two_n, reps in expected_reps.items():
        got = shell(two_n)
        ok_reps = sorted(m.fw for m, _ in got) == sorted(reps)
        total = sum(s for _, s in got)
        ok_total = total == 240 * sigma_pow(two_n // 2, 3)
        ok = ok_reps and ok_total
        out.append((f"lattice: shell {two_n}", ok,
                    "" if ok else f"reps {[m.fw for m, _ in got]} total {total}"))
    for t, want in ((2, 4), (3, 8), (4, 16), (5, 22)):
        got = max_coset_min_norm(t)
        out.append((f"lattice: coset maxima t={t}", got == want,
                    "" if got == want else f"got {got}"))
    return out


def _suite_bounds():
    out = []
    r = rank_series(14)[1:]
    want_r = [1, 3, 5, 10, 15, 27, 39, 63, 90, 135, 187, 270, 364, 505]
    out.append(("bounds: rank table", r == want_r,
                "" if r == want_r else f"got {r}"))
    want_b = [1, 0, 1, 1, 2, 1, 3, 2, 4, 4, 6, 5, 9, 8, 12, 13, 17, 17, 24]
    got_b = [b for _, b, _ in dimension_bound_table(40)]
    out.append(("bounds: dimension bounds 4..40", got_b == want_b,
                "" if got_b == want_b else f"got {got_b}"))
    want_p = [2, 4, 4, 5, 4, 6, 6, 7, 6, 8, 7, 8, 6, 8, 8, 9, 8, 8, 9, 10,
              9, 10, 10, 11, 10, 12]
    got_p = [v for _, v in pullback_max_table()]
    out.append(("bounds: pullback maxima", got_p == want_p,
                "" if got_p == want_p else f"got {got_p}"))
    return out


def _suite_structure():
    out = []
    for t, want in ((1, 1), (2, 1), (3, 1), (4, 2)):
        got = len(holomorphic_subspace(4, t, 2))
        out.append((f"structure: dim weight-4 holomorphic, t={t}",
                    got == want, "" if got == want else f"got {got}"))
    for t in (1, 2, 3, 4):
        rep = verify_free_module(t, 16)
        bad = [r for r in rep.rows if not r[3]]
        out.append((f"structure: free module t={t} through weight 16",
                    rep.ok, "" if rep.ok else f"failures {bad}"))
    return out


def _suite_properties():
    out = []
    for name, entry in sorted(REGISTRY.items()):
        if not entry.buildable:
            continue
        f = build(name)
        kind = classify(f).kind
        ok = kind == entry.expected_class
        out.append((f"properties: classify {name}", ok,
                    "" if ok else f"got {kind}, registered {entry.expected_class}"))
        try:
            # each stored (n, m) has 480 shifts, so this is at least K: exhaustive
            done = check_quasi_periodicity(
                f, samples=480 * sum(len(term.num) for term in f.terms))
            out.append((f"properties: quasi-periodicity {name} ({done} checks)",
                        True, ""))
        except AssertionError as exc:
            out.append((f"properties: quasi-periodicity {name}", False,
                        str(exc)))
    return out


_SUITES = {
    "index2": partial(_check_pins, 2),
    "index3": partial(_check_pins, 3),
    "index4": _suite_index4,
    "systems": _suite_systems,
    "identities": _suite_identities,
    "lf": _suite_lf,
    "lattice": _suite_lattice,
    "bounds": _suite_bounds,
    "structure": _suite_structure,
    "properties": _suite_properties,
}


def _cmd_verify(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks = [check for nm in names for check in _SUITES[nm]()]
    ok_all = all(ok for _, ok, _ in checks)
    payload = {
        "suite": args.suite,
        "ok": ok_all,
        "checks": [
            {"name": nm, "ok": ok, "detail": detail} for nm, ok, detail in checks
        ],
    }
    lines = [f"{'ok  ' if ok else 'FAIL'} {nm}" + (f" — {detail}" if detail else "")
             for nm, ok, detail in checks]
    lines.append(f"{sum(ok for _, ok, _ in checks)}/{len(checks)} checks passed")
    return 0 if ok_all else 1, payload, lines


# ---------------------------------------------------------------------------


class _UsageError(Exception):
    """A command line argparse rejects; main reports it as one error line."""


class _Parser(argparse.ArgumentParser):
    # subparsers are built with the parent's class, so one override covers all
    def error(self, message):
        raise _UsageError(message)


@cache
def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="e8jac",
        description="Exact q-expansions of W(E8)-invariant Jacobi forms.",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"element budget of every enumeration: orbits, shells, cosets, "
             f"the rank table and the theta quotient's product rows "
             f"(default 2000000; mirrors ${BUDGET_ENV})",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def fmt(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("expand", help="print a catalog form's q-expansion")
    sp.add_argument("--form", required=True, help="registry name, e.g. phi_-4_2")
    sp.add_argument("--order", type=int, default=None,
                    help="truncation order (default 3, or 2 at index 4)")
    fmt(sp)
    sp.set_defaults(fn=_cmd_expand)

    sp = sub.add_parser("orbits", help="orbit decomposition of a shell")
    sp.add_argument("--norm", type=int, required=True, help="shell norm 2n")
    fmt(sp)
    sp.set_defaults(fn=_cmd_orbits)

    sp = sub.add_parser("coset-minima",
                        help="max over E8/tE8 cosets of the minimal norm")
    sp.add_argument("--t", type=int, required=True)
    fmt(sp)
    sp.set_defaults(fn=_cmd_coset_minima)

    sp = sub.add_parser("rank", help="free-module ranks r(1)..r(max)")
    sp.add_argument("--max", type=int, default=14)
    fmt(sp)
    sp.set_defaults(fn=_cmd_rank)

    sp = sub.add_parser("bounds", help="dimension upper bounds for even weights")
    sp.add_argument("--max", type=int, default=40)
    fmt(sp)
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("pullback-max",
                        help="largest norm-4-shell pairing per dictionary orbit")
    fmt(sp)
    sp.set_defaults(fn=_cmd_pullback_max)

    sp = sub.add_parser("solve-cascade",
                        help="q^0 cascade linear system and its nullspace")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--w0", type=int, required=True)
    sp.add_argument("--norms", required=True,
                    help="comma-separated even norms starting at 0")
    fmt(sp)
    sp.set_defaults(fn=_cmd_solve_cascade)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=sorted(_SUITES) + ["all"],
                    required=True)
    fmt(sp)
    sp.set_defaults(fn=_cmd_verify)

    return p


def main(argv=None) -> int:
    saved = os.environ.get(BUDGET_ENV)
    try:
        args = _parser().parse_args(argv)
        element_budget(args.budget)  # a bad --budget or $E8JAC_BUDGET is a usage error
        if args.budget is not None:
            os.environ[BUDGET_ENV] = str(args.budget)
        code, payload, lines = args.fn(args)
        if args.format == "json":
            print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        print("error: stdout closed before the output was written",
              file=sys.stderr)
        return 2
    except (_UsageError, BudgetError, CatalogError, KeyError, ValueError,
            IndexError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # CertificationError or another internal error
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        # the budget holds for this call only
        if saved is None:
            os.environ.pop(BUDGET_ENV, None)
        else:
            os.environ[BUDGET_ENV] = saved


if __name__ == "__main__":
    sys.exit(main())
