"""Command-line frontend.

Subcommands cover every pipeline: gens, resolve, gr-betti, gr-hilbert,
lin-check, construct, koszul, ses-check, and sweep.  Machine-readable output
(json, csv) is byte-stable across runs: keys are sorted and timings are kept
out of those formats.

Exit codes: 0 all requested verdicts true; 1 some verdict outright false;
3 verdicts clean but inconclusive at the chosen bound; 2 usage errors
(argparse default, bad ring descriptions, bad --bound or --char); 4 internal
failures (a non-minimal resolution, a degree window overrun, inhomogeneous
generators, a resolution past its level cap), reported as
"internal error (<ExceptionClass>): ...".
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .assoc_graded import OrdContext, gr_betti, gr_hilbert
from .complexes import BettiTable, resolve_module
from .construction import construct_gr_betti, ses_hilbert_check
from .egm import DegreeRangeError
from .gb import InhomogeneousInput, monomial_elements
from .koszul_check import (
    EXIT_FALSE,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    NotMinimal,
    Verdict,
    exit_status,
    koszul_verdict,
    linear_part,
    lin_acyclicity,
    recommended_bound,
)
from .ring import RingSpec, check_characteristic, default_characteristic
from .sweep import rows_to_csv, rows_to_dicts, run_sweep, sweep_exit_status
from .truncation import trunc_gens

EXIT_USAGE = 2
EXIT_INTERNAL = 4

# Failures of the program rather than of its input.
INTERNAL_ERRORS = (NotMinimal, DegreeRangeError, InhomogeneousInput, RuntimeError)


class RingSpecParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


def parse_ring_spec(s: str) -> RingSpec:
    """Parse 'name=weight,name=weight[,...][@char]', e.g. 'x=1,y=3@32003'."""
    s = s.strip()
    char = default_characteristic()
    body = s
    if "@" in s:
        body, _, tail = s.partition("@")
        pos = len(body) + 1
        try:
            char = int(tail)
        except ValueError:
            raise RingSpecParseError(f"bad characteristic {tail!r}", pos) from None
        try:
            check_characteristic(char)
        except ValueError as exc:
            raise RingSpecParseError(str(exc), pos) from None
    names, weights = [], []
    pos = 0
    for part in body.split(","):
        if "=" not in part:
            raise RingSpecParseError(f"expected name=weight, got {part!r}", pos)
        name, _, wtext = part.partition("=")
        name = name.strip()
        if not name.isidentifier():
            raise RingSpecParseError(f"bad variable name {name!r}", pos)
        if name in names:
            raise RingSpecParseError(f"duplicate variable name {name!r}", pos)
        try:
            w = int(wtext)
        except ValueError:
            raise RingSpecParseError(f"bad weight {wtext.strip()!r}", pos) from None
        if w < 1:
            raise RingSpecParseError(f"weight must be positive, got {w}", pos)
        names.append(name)
        weights.append(w)
        pos += len(part) + 1
    if not names:
        raise RingSpecParseError("empty ring description", 0)
    return RingSpec(tuple(weights), tuple(names), char)


def render_ring_spec(spec: RingSpec) -> str:
    body = ",".join(f"{n}={w}" for n, w in zip(spec.names, spec.weights))
    return f"{body}@{spec.char}"


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        out = text if text.endswith("\n") else text + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _ring_dict(spec: RingSpec) -> dict:
    return {
        "names": list(spec.names),
        "weights": list(spec.weights),
        "char": spec.char,
    }


def _betti_list(table: BettiTable) -> list:
    return [{"i": i, "j": j, "rank": r} for i, j, r in table.entries]


def _bound(args, spec: RingSpec) -> int:
    if args.bound is not None:
        if args.bound < 0:
            raise ValueError("bound must be >= 0")
        return args.bound
    return recommended_bound(spec, args.e)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_gens(args) -> int:
    spec = parse_ring_spec(args.ring)
    gens = trunc_gens(spec, args.e)
    payload = {
        "ring": _ring_dict(spec),
        "e": args.e,
        "generators": [
            {"monomial": list(m), "degree": spec.wdeg(m), "text": spec.render_monomial(m)}
            for m in gens
        ],
    }
    lines = [f"generators of the degree >= {args.e} truncation:"]
    for m in gens:
        lines.append(f"  {spec.render_monomial(m)}  (degree {spec.wdeg(m)})")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_resolve(args) -> int:
    spec = parse_ring_spec(args.ring)
    gens = trunc_gens(spec, args.e)
    C = resolve_module(monomial_elements(spec, gens), minimize=not args.raw)
    table = C.betti_from_twists()
    payload = {
        "ring": _ring_dict(spec),
        "e": args.e,
        "modules": [list(m.twists) for m in C.modules],
        "betti": _betti_list(table),
    }
    lines = [f"resolution of the degree >= {args.e} truncation:"]
    for i, m in enumerate(C.modules):
        lines.append(f"  F_{i}: twists {tuple(m.twists)}")
    if args.show_differentials:
        payload["differentials"] = [
            [[repr(entry) for entry in row] for row in mat] for mat in C.diffs
        ]
        for k, mat in enumerate(C.diffs):
            lines.append(f"  d_{k + 1}:")
            for row in mat:
                lines.append("    [" + ", ".join(repr(e) for e in row) + "]")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _ord_context(spec: RingSpec, e: int) -> OrdContext:
    return OrdContext(spec, tuple((0, m) for m in trunc_gens(spec, e)))


def cmd_gr_betti(args) -> int:
    spec = parse_ring_spec(args.ring)
    bound = _bound(args, spec)
    table = gr_betti(_ord_context(spec, args.e), bound)
    payload = {
        "ring": _ring_dict(spec),
        "e": args.e,
        "bound": bound,
        "betti": _betti_list(table),
    }
    _emit(args, payload, table.render())
    return EXIT_OK


def cmd_gr_hilbert(args) -> int:
    spec = parse_ring_spec(args.ring)
    bound = _bound(args, spec)
    dims = gr_hilbert(_ord_context(spec, args.e), bound)
    payload = {
        "ring": _ring_dict(spec),
        "e": args.e,
        "bound": bound,
        "hilbert": dims,
    }
    text = "\n".join(f"degree {d}: {v}" for d, v in enumerate(dims))
    _emit(args, payload, text)
    return EXIT_OK


def cmd_lin_check(args) -> int:
    spec = parse_ring_spec(args.ring)
    bound = _bound(args, spec)
    gens = trunc_gens(spec, args.e)
    F = resolve_module(monomial_elements(spec, gens), minimize=True)
    L = linear_part(F, spec)
    acyclic, nonzero = lin_acyclicity(L, bound)
    verdict = Verdict.at_bound(acyclic, bound, recommended_bound(spec, args.e))
    payload = {
        "ring": _ring_dict(spec),
        "e": args.e,
        "bound": bound,
        "verdicts": {"lin_acyclic": str(verdict)},
        "nonzero_homology": [
            {"i": i, "j": j, "dim": d} for (i, j), d in sorted(nonzero.items())
        ],
    }
    text = f"lin acyclic up to degree {bound}: {verdict}"
    _emit(args, payload, text)
    return exit_status([verdict])


def cmd_construct(args) -> int:
    spec = parse_ring_spec(args.ring)
    table, trace = construct_gr_betti(spec.weights, args.e)
    payload = {
        "ring": _ring_dict(spec),
        "e": args.e,
        "betti": _betti_list(table),
    }
    lines = [f"constructed table: {table.entries}"]
    if args.trace:
        payload["trace"] = trace.to_dict()
        lines.append(f"N = {trace.N}, eliminated variable index {trace.variable}")
        for s in trace.steps:
            lines.append(
                f"  layer {s.layer}: sub weights {s.sub_weights} threshold {s.sub_threshold}"
            )
            lines.append(f"    sub table       {s.sub_table.entries}")
            lines.append(f"    after tensor    {s.after_tensor.entries}")
            lines.append(f"    after horseshoe {s.after_horseshoe.entries}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


M2_TEMPLATE = """\
-- cross-validation script for an external computer algebra system
R = ZZ/{char}[{names}, Degrees => {{{degrees}}}];
I = ideal({gens});
C = res I;
betti C
"""


def cmd_koszul(args) -> int:
    spec = parse_ring_spec(args.ring)
    bound = _bound(args, spec)
    start = time.perf_counter()
    report = koszul_verdict(spec, args.e, bound)
    elapsed = time.perf_counter() - start
    payload = report.to_dict()
    lines = [
        f"ring {render_ring_spec(spec)}, e = {args.e}, bound = {bound}",
        f"  generators: {', '.join(spec.render_monomial(m) for m in report.generators)}",
        f"  lin_acyclic:        {report.lin_acyclic}",
        f"  gr_linear:          {report.gr_linear}",
        f"  construction_match: {report.construction_match}",
        f"  gr Betti: {report.gr_table.entries}",
        f"  elapsed: {elapsed * 1000:.1f} ms",
    ]
    if args.emit_cas:
        gens = [spec.render_monomial(m) for m in report.generators]
        script = M2_TEMPLATE.format(
            char=spec.char,
            names=",".join(spec.names),
            degrees=",".join(str(w) for w in spec.weights),
            gens=", ".join(gens),
        )
        with open(args.emit_cas, "w", encoding="utf-8") as fh:
            fh.write(script)
        lines.append(f"  wrote cross-validation script to {args.emit_cas}")
    _emit(args, payload, "\n".join(lines))
    return exit_status(report.verdicts().values())


def cmd_ses_check(args) -> int:
    spec = parse_ring_spec(args.ring)
    bound = _bound(args, spec)
    from math import ceil

    d = max(spec.weights)
    N = ceil(max(args.e, 1) / d)
    layers = [args.layer] if args.layer is not None else list(range(N))
    results = []
    for i in layers:
        ok, lhs, rhs = ses_hilbert_check(spec.weights, args.e, i, bound, spec.char)
        results.append({"layer": i, "ok": ok, "lhs": lhs, "rhs": rhs})
    payload = {
        "ring": _ring_dict(spec),
        "e": args.e,
        "bound": bound,
        "layers": results,
    }
    text = "\n".join(
        f"layer {r['layer']}: {'ok' if r['ok'] else 'MISMATCH'}" for r in results
    )
    _emit(args, payload, text)
    return EXIT_OK if all(r["ok"] for r in results) else EXIT_FALSE


def cmd_sweep(args) -> int:
    rows = run_sweep(args.max_vars, args.max_weight, args.max_e, args.char, jobs=args.jobs)
    status = sweep_exit_status(rows)
    if args.format == "json":
        _emit(args, {"rows": rows_to_dicts(rows)}, "")
        return status
    if args.format == "csv":
        _emit(args, {}, rows_to_csv(rows, max_hom=args.max_vars))
        return status
    lines = []
    bad = [r for r in rows if not r.report.all_true]
    for r in bad + [r for r in rows if r.report.all_true]:
        verdicts = r.report.verdicts()
        lines.append(
            f"weights {'+'.join(map(str, r.case.weights))} e={r.case.e} "
            f"bound={r.case.bound} "
            f"lin={verdicts['lin_acyclic']} gr={verdicts['gr_linear']} "
            f"construct={verdicts['construction_match']} "
            f"betti={[r.report.gr_table.total(i) for i in range(len(r.case.weights) + 1)]} "
            f"({r.elapsed * 1000:.0f} ms)"
        )
    lines.append(f"{len(rows)} cases, exit status {status}")
    _emit(args, {}, "\n".join(lines))
    return status


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nskoszul",
        description=(
            "Exact truncations, minimal free resolutions, and Koszulness "
            "certificates for weighted graded polynomial rings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_e=True):
        p.add_argument("--ring", required=True, help="e.g. x=1,y=3 or x=1,y=3@101")
        if need_e:
            p.add_argument("--e", type=int, required=True, help="truncation threshold")
        p.add_argument("--bound", type=int, default=None, help="certification degree bound")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("gens", help="minimal truncation generators")
    common(p)
    p.set_defaults(func=cmd_gens)

    p = sub.add_parser("resolve", help="minimal free resolution over the weighted ring")
    common(p)
    p.add_argument("--raw", action="store_true", help="skip minimization")
    p.add_argument("--show-differentials", action="store_true")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("gr-betti", help="Betti table of the associated graded module")
    common(p)
    p.set_defaults(func=cmd_gr_betti)

    p = sub.add_parser("gr-hilbert", help="Hilbert function of the associated graded module")
    common(p)
    p.set_defaults(func=cmd_gr_hilbert)

    p = sub.add_parser("lin-check", help="acyclicity of the linear part of the resolution")
    common(p)
    p.set_defaults(func=cmd_lin_check)

    p = sub.add_parser("construct", help="layer-by-layer predicted Betti table")
    common(p)
    p.add_argument("--trace", action="store_true", help="include the derivation trace")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("koszul", help="full three-pipeline verdict")
    common(p)
    p.add_argument("--emit-cas", default=None, metavar="FILE",
                   help="write a cross-validation script for an external CAS")
    p.set_defaults(func=cmd_koszul)

    p = sub.add_parser("ses-check", help="graded Hilbert additivity of the layer sequences")
    common(p)
    p.add_argument("--layer", type=int, default=None, help="single layer index (default: all)")
    p.set_defaults(func=cmd_ses_check)

    p = sub.add_parser("sweep", help="batch verification over a weight/threshold grid")
    p.add_argument("--max-vars", type=int, default=3)
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--max-e", type=int, default=12)
    p.add_argument("--char", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INTERNAL_ERRORS as exc:
        print(f"internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
