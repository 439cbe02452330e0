"""Command-line frontend.

Subcommands cover every pipeline: gens, resolve, gr-betti, gr-hilbert,
lin-check, construct, koszul, ses-check, and sweep.  Machine-readable output
(json, csv) is byte-stable across runs: keys are sorted and timings are kept
out of those formats.

Each handler computes and returns (payload, text, status); main writes the
output once.  A ring command's handler takes (args, spec), spec the parsed
--ring, and main puts "ring" and "e" in front of its json payload.  sweep,
the one command with no ring, takes args alone and gets no header.  The
json form of a ring, a Betti table and a list of lin witnesses is each one
function (RingSpec.to_dict, BettiTable.records, witness_records), which
KoszulReport.to_dict uses too.

Verdicts are true or false with no degree bound (see koszul_check), and a
false lin verdict lists its witness cells in full.  --bound exists only where
the output is infinite: it caps the degrees that gr-hilbert and ses-check
list.

Exit codes: 0 all requested verdicts true; 1 some verdict false; 2 usage
errors (argparse default, bad ring descriptions, bad --bound, --char or
--jobs, an --out or --emit-cas file that cannot be written, and --out and
--emit-cas naming the same file, refused before any computation); 4
internal failures (a non-minimal resolution, a degree window overrun,
a non-monomial generator, a resolution past its level cap, a linear part
with a multi-term entry, and any other exception that is not a
ValueError), reported as "internal error (<ExceptionClass>): ...".  Exit 1
is only ever a false verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .assoc_graded import OrdContext, gr_betti, gr_hilbert
from .complexes import GradedFreeComplex, resolve_module
from .construction import construct_gr_betti, layer_count, ses_hilbert_check
from .egm import DegreeRangeError
from .gb import NotMonomial, monomial_elements
from .koszul_check import (
    EXIT_FALSE,
    EXIT_OK,
    NotMinimal,
    Verdict,
    exit_status,
    koszul_verdict,
    linear_part,
    lin_acyclicity,
    recommended_bound,
    witness_records,
)
from .ring import DEFAULT_CHAR, RingSpec, check_characteristic
from .sweep import rows_to_csv, rows_to_dicts, run_sweep, sweep_exit_status
from .truncation import trunc_gens

EXIT_USAGE = 2
EXIT_INTERNAL = 4

# ValueErrors that are failures of the program; other ValueErrors are bad input.
INTERNAL_ERRORS = (NotMinimal, DegreeRangeError, NotMonomial)


class RingSpecParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


def _parse_number(text: str, what: str, pos: int) -> int:
    """A run of ASCII digits, spaces around it allowed; int() alone would also
    take signs, underscores and non-ASCII digits."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise RingSpecParseError(f"bad {what} {digits!r}", pos)
    return int(digits)


def parse_ring_spec(s: str) -> RingSpec:
    """Parse 'name=weight,name=weight[,...][@char]', e.g. 'x=1,y=3@32003'."""
    s = s.strip()
    char = DEFAULT_CHAR
    body = s
    if "@" in s:
        body, _, tail = s.partition("@")
        pos = len(body) + 1
        char = _parse_number(tail, "characteristic", pos)
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
        w = _parse_number(wtext, "weight", pos)
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


def _check_output_path(path: str) -> None:
    """Refuse an output file in a missing directory, or one that is a
    directory, before any work is done."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ValueError(f"cannot write {path}: no directory {folder}")
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        out = text if text.endswith("\n") else text + "\n"
    if getattr(args, "out", None):
        _write_file(args.out, out)
    else:
        sys.stdout.write(out)


def _bound(args, spec: RingSpec) -> int:
    if args.bound is not None:
        if args.bound < 0:
            raise ValueError("bound must be >= 0")
        return args.bound
    return recommended_bound(spec, args.e)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_gens(args, spec):
    gens = trunc_gens(spec, args.e)
    payload = {
        "generators": [
            {"monomial": list(m), "degree": spec.wdeg(m), "text": spec.render_monomial(m)}
            for m in gens
        ],
    }
    lines = [f"generators of the degree >= {args.e} truncation:"]
    for m in gens:
        lines.append(f"  {spec.render_monomial(m)}  (degree {spec.wdeg(m)})")
    return payload, "\n".join(lines), EXIT_OK


def differential_strings(C: GradedFreeComplex) -> list:
    """Each differential of C as its rows of entry strings, "0" where a
    column has no term in the row: the dense view that resolve
    --show-differentials prints."""
    out = []
    for k, columns in enumerate(C.diffs):
        rows = [["0"] * len(columns) for _ in range(C.modules[k].rank)]
        for c, column in enumerate(columns):
            entries = {}
            for (r, m), v in column.items():
                entries.setdefault(r, {})[m] = v
            for r, terms in entries.items():
                rows[r][c] = C.spec.render_terms(terms)
        out.append(rows)
    return out


def cmd_resolve(args, spec):
    C = resolve_module(monomial_elements(spec, trunc_gens(spec, args.e)))
    payload = {
        "modules": [list(m.twists) for m in C.modules],
        "betti": C.betti_from_twists().records(),
    }
    lines = [f"resolution of the degree >= {args.e} truncation:"]
    for i, m in enumerate(C.modules):
        lines.append(f"  F_{i}: twists {tuple(m.twists)}")
    if args.show_differentials:
        payload["differentials"] = differential_strings(C)
        for k, mat in enumerate(payload["differentials"]):
            lines.append(f"  d_{k + 1}:")
            for row in mat:
                lines.append("    [" + ", ".join(row) + "]")
    return payload, "\n".join(lines), EXIT_OK


def cmd_gr_betti(args, spec):
    table = gr_betti(OrdContext(spec, trunc_gens(spec, args.e)))
    return {"betti": table.records()}, table.render(), EXIT_OK


def cmd_gr_hilbert(args, spec):
    bound = _bound(args, spec)
    dims = gr_hilbert(OrdContext(spec, trunc_gens(spec, args.e)), bound)
    text = "\n".join(f"degree {d}: {v}" for d, v in enumerate(dims))
    return {"bound": bound, "hilbert": dims}, text, EXIT_OK


def cmd_lin_check(args, spec):
    F = resolve_module(monomial_elements(spec, trunc_gens(spec, args.e)))
    acyclic, witnesses = lin_acyclicity(linear_part(F, spec))
    verdict = Verdict.of(acyclic)
    payload = {
        "verdicts": {"lin_acyclic": str(verdict)},
        "nonzero_homology": witness_records(witnesses),
    }
    return payload, f"lin acyclic: {verdict}", exit_status([verdict])


def cmd_construct(args, spec):
    table, trace = construct_gr_betti(spec.weights, args.e)
    payload = {"betti": table.records()}
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
    return payload, "\n".join(lines), EXIT_OK


M2_TEMPLATE = """\
-- cross-validation script for an external computer algebra system
R = ZZ/{char}[{names}, Degrees => {{{degrees}}}];
I = ideal({gens});
C = res I;
betti C
"""


def cmd_koszul(args, spec):
    start = time.perf_counter()
    report = koszul_verdict(spec, args.e)
    elapsed = time.perf_counter() - start
    gens = [spec.render_monomial(m) for m in report.generators]
    lines = [
        f"ring {render_ring_spec(spec)}, e = {args.e}",
        f"  generators: {', '.join(gens)}",
        f"  lin_acyclic:        {report.lin_acyclic}",
        f"  gr_linear:          {report.gr_linear}",
        f"  construction_match: {report.construction_match}",
        f"  gr Betti: {report.gr_table.entries}",
        f"  elapsed: {elapsed * 1000:.1f} ms",
    ]
    if args.emit_cas:
        script = M2_TEMPLATE.format(
            char=spec.char,
            names=",".join(spec.names),
            degrees=",".join(str(w) for w in spec.weights),
            gens=", ".join(gens),
        )
        _write_file(args.emit_cas, script)
        lines.append(f"  wrote cross-validation script to {args.emit_cas}")
    return report.to_dict(), "\n".join(lines), exit_status(report.verdicts().values())


def cmd_ses_check(args, spec):
    bound = _bound(args, spec)
    layers = [args.layer] if args.layer is not None else range(layer_count(spec.weights, args.e))
    results = []
    for i in layers:
        ok, lhs, rhs = ses_hilbert_check(spec.weights, args.e, i, bound, spec.char)
        results.append({"layer": i, "ok": ok, "lhs": lhs, "rhs": rhs})
    text = "\n".join(
        f"layer {r['layer']}: {'ok' if r['ok'] else 'MISMATCH'}" for r in results
    ) or f"no layers at e = {args.e}"
    status = EXIT_OK if all(r["ok"] for r in results) else EXIT_FALSE
    return {"bound": bound, "layers": results}, text, status


def cmd_sweep(args):
    for flag in ("max_vars", "max_weight", "max_e", "jobs"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= 1")
    rows = run_sweep(args.max_vars, args.max_weight, args.max_e, args.char, jobs=args.jobs)
    status = sweep_exit_status(rows)
    if args.format == "json":
        return {"rows": rows_to_dicts(rows)}, "", status
    if args.format == "csv":
        return {}, rows_to_csv(rows, max_hom=args.max_vars), status
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
    return {}, "\n".join(lines), status


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

    def common(p, bound=False):
        p.add_argument("--ring", required=True, help="e.g. x=1,y=3 or x=1,y=3@101")
        p.add_argument("--e", type=int, required=True, help="truncation threshold")
        if bound:
            p.add_argument("--bound", type=int, default=None, help="cap on listed degrees")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("gens", help="minimal truncation generators")
    common(p)
    p.set_defaults(func=cmd_gens)

    p = sub.add_parser("resolve", help="minimal free resolution over the weighted ring")
    common(p)
    p.add_argument("--show-differentials", action="store_true")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("gr-betti", help="Betti table of the associated graded module")
    common(p)
    p.set_defaults(func=cmd_gr_betti)

    p = sub.add_parser("gr-hilbert", help="Hilbert function of the associated graded module")
    common(p, bound=True)
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
    common(p, bound=True)
    p.add_argument("--layer", type=int, default=None, help="single layer index (default: all)")
    p.set_defaults(func=cmd_ses_check)

    p = sub.add_parser("sweep", help="batch verification over a weight/threshold grid")
    p.add_argument("--max-vars", type=int, default=3)
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--max-e", type=int, default=12)
    p.add_argument("--char", type=int, default=DEFAULT_CHAR)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        paths = [getattr(args, name, None) for name in ("out", "emit_cas")]
        for path in filter(None, paths):
            _check_output_path(path)
        if all(paths) and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
            raise ValueError(f"--out and --emit-cas both name {paths[0]}")
        if args.command == "sweep":
            payload, text, status = args.func(args)
        else:
            spec = parse_ring_spec(args.ring)
            payload, text, status = args.func(args, spec)
            payload = {"ring": spec.to_dict(), "e": args.e, **payload}
        _emit(args, payload, text)
        return status
    except Exception as exc:
        if isinstance(exc, ValueError) and not isinstance(exc, INTERNAL_ERRORS):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
