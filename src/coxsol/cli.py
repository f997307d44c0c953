"""Command line interface tying the algebra modules together.

Subcommands:
  group    order, conjugacy classes, cuspidal classes and shapes
  descent  subset incidence matrix, idempotent coefficients, ideal characters
  os       dimensions, component characters, dihedral hyperplane angles
  verify   run one of the verifications (a, b or c) and emit its report
  table    the dihedral character table of both families

Exit status is 0 on success (for verify: when the run verified), 1 when a
verification fails, 2 on usage errors and an unwritable --out, 3 on an
internal error, whose traceback goes to stderr, and 4 when a verify search is
exhausted (status search-exhausted): the search meets in the middle, and the
larger of its two halves has more than conjectures.SEARCH_CAP combinations.
Output is JSON except for the table subcommand, which defaults to markdown;
--format selects explicitly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import traceback
from fractions import Fraction

from .coxeter import (DEFAULT_MAX_ELEMENTS, InfiniteOrTooLarge, InvalidMatrix,
                      build_group, subset_label)
from .cyclo import Cyclo, scalar_json


class UsageError(ValueError):
    """Bad arguments that argparse cannot catch on its own."""


class CommandOutput:
    """Structured payload plus tabular views of one subcommand run."""

    def __init__(self, payload, tables=(), notes=(), code=0):
        self.payload = payload
        self.tables = list(tables)
        self.notes = list(notes)
        self.code = code


def _pretty(v) -> str:
    if isinstance(v, Cyclo):
        q = v.as_rational()
        return str(q) if q is not None else repr(v)
    return str(Fraction(v))


def _parse_subset(text: str, rank: int):
    """A subset given as generator names, e.g. "s1,s3"."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part.startswith("s") or not part[1:].isdigit():
            raise UsageError(f"bad generator name {part!r} in --L")
        i = int(part[1:]) - 1
        if not 0 <= i < rank:
            raise UsageError(f"generator {part} out of range for rank {rank}")
        out.append(i)
    if len(set(out)) != len(out):
        raise UsageError("--L lists a generator twice")
    return tuple(sorted(out))


def _build(args):
    try:
        return build_group(args.spec, args.max_elements)
    except (InvalidMatrix, InfiniteOrTooLarge) as exc:
        raise UsageError(str(exc))


# -- subcommands ------------------------------------------------------------------------


def cmd_group(args) -> CommandOutput:
    W = _build(args)
    cuspidal = W.cuspidal_classes(range(W.rank))
    classes = [{"rep": W.word_str(c.rep), "size": c.size,
                "length": W.length(c.rep), "cuspidal": c in cuspidal}
               for c in W.classes]
    shapes = []
    for sh in W.shapes():
        shapes.append({
            "canonical": subset_label(sh.canonical),
            "members": [subset_label(J) for J in sorted(sh.members)],
            "bulky": W.is_bulky(sh.canonical),
            "parabolic_order": W.parabolic(sh.canonical).order,
            "normalizer_order": W.normalizer_of_parabolic(sh.canonical).order,
        })
    payload = {
        "group": W.spec,
        "rank": W.rank,
        "order": W.order,
        "conductor": W.conductor,
        "reflections": len(W.reflections),
        "longest": W.word_str(W.longest),
        "classes": classes,
        "cuspidal_classes": [c["rep"] for c in classes if c["cuspidal"]],
        "shapes": shapes,
    }
    tables = [
        ("classes", ["rep", "size", "length", "cuspidal"],
         [[c["rep"], c["size"], c["length"], c["cuspidal"]] for c in classes]),
        ("shapes", ["canonical", "members", "bulky", "|W_L|", "|N_W(W_L)|"],
         [[s["canonical"] or "-", " ".join(m or "-" for m in s["members"]),
           s["bulky"], s["parabolic_order"], s["normalizer_order"]]
          for s in shapes]),
    ]
    notes = [f"group: {W.spec}", f"order: {W.order}", f"rank: {W.rank}",
             f"reflections: {len(W.reflections)}",
             f"cuspidal classes: {len(payload['cuspidal_classes'])}"]
    return CommandOutput(payload, tables, notes)


def cmd_descent(args) -> CommandOutput:
    from .descent import descent_algebra
    W = _build(args)
    L = _parse_subset(args.L, W.rank) if args.L is not None else None
    D = descent_algebra(W, L)
    labels = [subset_label(J) for J in D.subsets]
    m_rows = [[int(v) for v in row] for row in D.m_matrix]
    idempotents = {}
    for J in D.subsets:
        e = D.e(J)
        idempotents[subset_label(J)] = {
            W.word_str(w): str(e.coeffs[w]) for w in e.support()}
    classes = [W.word_str(c.rep) for c in D.universe.classes]
    characters = []
    char_rows = []
    for sh in D.shapes:
        cf = D.ideal_character(sh)
        characters.append({"shape": subset_label(sh.canonical),
                           "values": [scalar_json(v) for v in cf.values]})
        char_rows.append([f"Phi[{subset_label(sh.canonical)}]"]
                         + [_pretty(v) for v in cf.values])
    payload = {
        "group": W.spec,
        "L": subset_label(D.L),
        "subsets": labels,
        "m_matrix": m_rows,
        "idempotents": idempotents,
        "classes": classes,
        "characters": characters,
    }
    tables = [
        ("m-matrix", ["K\\J"] + [lab or "-" for lab in labels],
         [[labels[i] or "-"] + m_rows[i] for i in range(len(labels))]),
        ("idempotents", ["subset", "terms"],
         [[lab or "-", len(idempotents[lab])] for lab in labels]),
        ("characters", ["shape"] + classes, char_rows),
    ]
    notes = [f"group: {W.spec}", f"L: {subset_label(D.L)}",
             f"subsets: {len(labels)}"]
    return CommandOutput(payload, tables, notes)


def cmd_os(args) -> CommandOutput:
    from . import orlik_solomon
    W = _build(args)
    alg = orlik_solomon.os_algebra(W)
    full = W.full()
    dims = alg.dimensions
    classes = [W.word_str(c.rep) for c in full.classes]
    characters = []
    char_rows = []
    for sh in W.shapes():
        cf = orlik_solomon.shape_component_character(W, sh)
        characters.append({"shape": subset_label(sh.canonical),
                           "values": [scalar_json(v) for v in cf.values]})
        char_rows.append([f"Psi[{subset_label(sh.canonical)}]"]
                         + [_pretty(v) for v in cf.values])
    whole = alg.whole_character(full)
    payload = {
        "group": W.spec,
        "dimensions": dims,
        "total_dimension": sum(dims),
        "classes": classes,
        "characters": characters,
        "whole": [scalar_json(v) for v in whole.values],
    }
    tables = [
        ("dimensions", ["degree", "dimension"],
         [[d, dims[d]] for d in range(len(dims))]),
        ("characters", ["shape"] + classes,
         char_rows + [["omega"] + [_pretty(v) for v in whole.values]]),
    ]
    if W.rank == 2:
        angles = orlik_solomon.dihedral_hyperplane_angles(W)
        ordered = sorted(angles.items(), key=lambda kv: kv[1])
        payload["angle_unit"] = f"pi/{W.matrix[0, 1]}"
        payload["angles"] = [{"hyperplane": W.word_str(t), "angle": j}
                             for t, j in ordered]
        tables.append(("angles", ["hyperplane", "angle"],
                       [[W.word_str(t), j] for t, j in ordered]))
    notes = [f"group: {W.spec}", f"dimensions: {dims}",
             f"total: {sum(dims)}"]
    return CommandOutput(payload, tables, notes)


def cmd_verify(args) -> CommandOutput:
    from .conjectures import UnsupportedCase, verify
    W = _build(args)
    L = _parse_subset(args.L, W.rank) if args.L is not None else None
    name = args.conjecture.lower()
    if name == "c" and L is None:
        raise UsageError("verify c needs --L")
    if name != "c" and L is not None:
        raise UsageError(f"--L does not apply to verify {name}")
    try:
        report = verify(W, name, L)
    except UnsupportedCase as exc:
        raise UsageError(str(exc))
    payload = report.as_dict()
    checks = [[lab, ok, detail] for lab, ok, detail in report.checks]
    tables = [("checks", ["check", "ok", "detail"], checks)]
    for sub in report.subreports:
        tables.append((f"case L={subset_label(sub.L) or '-'}",
                       ["check", "ok", "detail"],
                       [[lab, ok, detail] for lab, ok, detail in sub.checks]))
    if report.ok:
        code = 0
    else:
        code = 4 if report.status == "search-exhausted" else 1
    return CommandOutput(payload, tables, report.lines(), code=code)


def cmd_table(args) -> CommandOutput:
    from .conjectures import dihedral_table
    W = _build(args)
    if W.rank != 2:
        raise UsageError("the table subcommand needs a dihedral group")
    data = dihedral_table(W)
    rows = [[r["label"]] + r["values"] for r in data["rows"]]
    tables = [("characters", ["character"] + data["columns"], rows)]
    notes = [f"group: {W.spec}", f"order: {data['order']}"]
    return CommandOutput(data, tables, notes)


# -- rendering --------------------------------------------------------------------------


def render_json(out: CommandOutput) -> str:
    return json.dumps(out.payload, indent=2) + "\n"


def render_markdown(out: CommandOutput) -> str:
    parts = []
    if out.notes:
        parts += [f"- {line}" for line in out.notes]
        parts.append("")
    for title, headers, rows in out.tables:
        parts.append(f"## {title}")
        parts.append("")
        parts.append("| " + " | ".join(str(h) for h in headers) + " |")
        parts.append("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            parts.append("| " + " | ".join(str(c) for c in row) + " |")
        parts.append("")
    return "\n".join(parts)


def render_csv(out: CommandOutput) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for title, headers, rows in out.tables:
        writer.writerow([f"# {title}"])
        writer.writerow([str(h) for h in headers])
        for row in rows:
            writer.writerow([str(c) for c in row])
        writer.writerow([])
    return buf.getvalue()


RENDERERS = {"json": render_json, "markdown": render_markdown, "csv": render_csv}


# -- argument parsing -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxsol",
        description="finite Coxeter groups, descent algebras, "
                    "Orlik-Solomon algebras and their character identities")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_L=False):
        p.add_argument("--format", choices=sorted(RENDERERS), default=None)
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS)
        if with_L:
            p.add_argument("--L", default=None, metavar="s1,s2",
                           help="generator subset, e.g. s1,s3")

    p = sub.add_parser("group", help="order, classes and shapes")
    p.add_argument("spec")
    common(p)

    p = sub.add_parser("descent", help="descent algebra data")
    p.add_argument("spec")
    common(p, with_L=True)

    p = sub.add_parser("os", help="Orlik-Solomon algebra data")
    p.add_argument("spec")
    common(p)

    p = sub.add_parser("verify", help="verify one of the conjectures")
    p.add_argument("conjecture", choices=["a", "b", "c"])
    p.add_argument("spec")
    common(p, with_L=True)

    p = sub.add_parser("table", help="dihedral character table")
    p.add_argument("spec")
    common(p)
    return parser


COMMANDS = {
    "group": cmd_group,
    "descent": cmd_descent,
    "os": cmd_os,
    "verify": cmd_verify,
    "table": cmd_table,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    fmt = args.format or ("markdown" if args.command == "table" else "json")
    try:
        out = COMMANDS[args.command](args)
        text = RENDERERS[fmt](out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
