"""Command line driver: xi tables, hypertor, d2, recovery, orbits, validation.

Every subcommand reads either a .mfc multifiltered complex or (for xi and
resolve) a JSON presentation and returns one report; main parses the command
line, runs the subcommand and serializes its report to stdout.  JSON is the
machine format; text renders aligned tables; csv is available where the
report is a flat table.  Exit codes: 0 ok, 1 invalid input (a malformed
command line included), 2 an internal cross-check failed or any other
exception escaped (those indicate a bug, not bad input).  Errors are one
JSON object on stderr.
"""

import argparse
import functools
import json
import re
import sys

import numpy as np

from torpers import InternalCheckError, ValidationError
from torpers import complexes as cxm
from torpers import grading as gr
from torpers import hypertor as ht
from torpers import modules as md
from torpers import orbits as ob
from torpers import tor


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError("cannot serialize %r" % type(obj))


def _dumps(data):
    return (
        json.dumps(data, sort_keys=True, separators=(",", ":"), default=_json_default)
        + "\n"
    )


def fmt_multiset(ms):
    """Compact text form of a degree multiset: {(2,3):1,(3,2):1}."""
    pairs = gr.multiset_to_sorted_pairs(ms)
    if not pairs:
        return "{}"
    body = ",".join(
        "(%s):%d" % (",".join(str(c) for c in deg), mult) for deg, mult in pairs
    )
    return "{" + body + "}"


def _csv(header, rows):
    """CSV text: the header, then one line per row; a cell with a comma is quoted."""
    return "".join(
        ",".join('"%s"' % c if "," in c else c for c in map(str, row)) + "\n"
        for row in [header] + rows
    )


def _json_int(x):
    """x when it is a JSON integer; a float, a boolean or a string is refused.

    int() would read 2.9 as 2 and true as 1, so numbers are checked here,
    where the JSON is read, and never coerced.
    """
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValidationError("expected a JSON integer, got %s" % json.dumps(x))
    return x


def _json_degree(d):
    return tuple(_json_int(c) for c in d)


def _json_index(key):
    """The generator index a coefficient key names, when it is canonical decimal.

    int() would read "00", " +0" and "0_0" as 0, so two keys could name one
    generator and one coefficient silently replace the other.
    """
    if not re.fullmatch(r"0|[1-9][0-9]*", key):
        raise ValidationError(
            "coefficient key must be a generator index, got %s" % json.dumps(key)
        )
    return int(key)


def _unique_keys(pairs):
    """A JSON object as a dict; a key repeated inside it is refused."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError("repeated key %s in a JSON object" % json.dumps(key))
        obj[key] = value
    return obj


def _json_multiset(text):
    """A degree multiset from JSON [[degree, mult], ...] of integers."""
    return gr.multiset((_json_degree(d), _json_int(m)) for d, m in json.loads(text))


def _load_chains(args):
    """The ChainData of the .mfc input over the field: parsed and validated.
    Where the command builds a module on its grid and Koszul layouts on it,
    widened by --widen, either too large is refused here, before any is built."""
    try:
        cx = cxm.load_mfc(args.input)
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError("cannot read %s: %s" % (args.input, e))
    data = md.ChainData(cx, args.field)
    widen = getattr(args, "widen", 0)
    if args.command not in ("validate", "resolve") and widen >= 0:
        md.check_grid(data.n, data.bound)
        tor.check_layouts(data.n, [b + widen for b in data.bound])
    return data


def _load_module(args):
    """The module a xi/resolve run works on: H_q of a complex, or a cokernel."""
    path = args.input
    if path.endswith(".mfc"):
        return md.homology_module(_load_chains(args), args.q)
    try:
        with open(path) as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise ValidationError("cannot read %s: %s" % (path, e))
    except ValueError as e:
        raise ValidationError("%s is not valid JSON: %s" % (path, e))
    try:
        gens = [_json_degree(g) for g in data["gens"]]
        relations = [
            (_json_degree(d), {_json_index(k): _json_int(c) for k, c in coeffs.items()})
            for d, coeffs in data["relations"]
        ]
        pres = cxm.Presentation(_json_int(data["n"]), gens, relations)
    except (KeyError, TypeError) as e:
        raise ValidationError(
            "presentation JSON needs n, gens, relations fields: %s" % e
        )
    except (ValueError, AttributeError, OverflowError) as e:
        raise ValidationError("malformed presentation JSON: %s" % e)
    return md.present_cokernel(pres, args.field)


# -- subcommands ---------------------------------------------------------------
#
# Each _cmd_* returns its report as (data, text lines, csv table): data is the
# JSON object, the text lines any iterable (a generator when a line costs work
# that only the text format needs), the csv table is (header, rows), or None
# for a report that is not a flat table.  main picks the format and writes it.


def _rendered_lines(rendered):
    """The text lines "label  multiset" of a rendered table, in its order."""
    return ["%s  %s" % item for item in rendered.items()]


def _graded_report(args, key, label, index, tables, head=()):
    """The report of one degree multiset per index k: xi, resolve, hypertor.

    tables is [(k, multiset), ...]; data[key] is [[k, multiset], ...] and
    data["rendered"] maps label % k to its text form.  The text lines are
    the field, the head lines, then "label  multiset" per k; the csv table
    has one (index, degree, mult) row per degree.
    """
    table = [[k, gr.multiset_to_json(ms)] for k, ms in tables]
    rendered = {label % k: fmt_multiset(ms) for k, ms in tables}
    data = {"field": args.field, "input": args.input, key: table, "rendered": rendered}
    text = ["field %d" % args.field, *head] + _rendered_lines(rendered)
    rows = [
        [k, "(%s)" % " ".join(str(c) for c in deg), mult]
        for k, pairs in table
        for deg, mult in pairs
    ]
    return data, text, ([index, "degree", "mult"], rows)


def _cmd_xi(args):
    M = _load_module(args)
    tables = tor.xi(M, widen=args.widen).tables
    return _graded_report(
        args, "xi", "xi_%d", "j", [(j, tables.get(j, {})) for j in range(M.n + 1)]
    )


def _cmd_resolve(args):
    res = tor.minimal_resolution(_load_module(args))
    tables = [(j, res.xi(j)) for j in range(res.length + 1)]
    data, text, csv = _graded_report(
        args, "betti", "F_%d", "j", tables, head=["length %d" % res.length]
    )
    data["length"] = res.length
    return data, text, csv


def _cmd_hypertor(args):
    tables = ht.hypertor_dims(_load_chains(args))
    return _graded_report(
        args, "hypertor", "l=%d", "l", [(ell, tables[ell]) for ell in sorted(tables)]
    )


def _cmd_e1(args):
    page = ht.e1_page(_load_chains(args))
    data = {"field": args.field, "input": args.input}
    data.update(page.to_json())
    data["rendered"] = {
        "E1[%d,%d]" % (row["i"], row["q"]): fmt_multiset(
            gr.multiset_from_json(row["dims"])
        )
        for row in data["e1"]
    }
    text = [
        "field %d" % args.field,
        "degenerate %s" % ("yes" if page.verdict else "no"),
    ] + _rendered_lines(data["rendered"])
    return data, text, None


def _cmd_d2(args):
    result = ht.d2(_load_chains(args), args.q)
    data = {"field": args.field, "input": args.input}
    data.update(result.to_json())

    def text():  # lazy: the rank is computed only when the text is written
        yield "field %d" % args.field
        yield "d2 on row q=%d, total rank %d" % (args.q, result.rank())
        for block in data["blocks"]:
            yield "at %s:" % (tuple(block["degree"]),)
            for row in block["matrix"]:
                yield "  [%s]" % " ".join(str(c) for c in row)
        yield data["interpretation"]

    return data, text(), None


def _cmd_recover(args):
    report = ht.recovered_homology(_load_chains(args))
    report["input"] = args.input
    text = [
        "field %d" % args.field,
        "betti %s" % (tuple(report["betti"]),),
        "direct %s" % (tuple(report["direct"]),),
        "MATCH" if report["match"] else "MISMATCH",
        "T dims %s" % (report["t_dims"],),
        "Q dims %s" % (report["q_dims"],),
    ]
    return report, text, None


def _cmd_orbits(args):
    try:
        xi0 = _json_multiset(args.xi0)
        xi1 = _json_multiset(args.xi1) if args.xi1 else {}
    except (ValueError, TypeError) as e:
        raise ValidationError("xi0/xi1 must be JSON [[degree, mult], ...]: %s" % e)
    report = ob.classify(xi0, xi1, args.field, limit=args.limit)
    data = report.to_json()
    for row in data["orbits"]:
        row["xi_rendered"] = {
            "xi_%d" % j: fmt_multiset(gr.multiset_from_json(pairs))
            for j, pairs in row["xi"]
        }
    uppers = sorted(
        {j for row in data["orbits"] for j, _ in row["xi"] if j >= 2}
    )
    rows = []
    for row in data["orbits"]:
        xi_by_j = {j: gr.multiset_from_json(pairs) for j, pairs in row["xi"]}
        y = ";".join(
            "x%d@(%s)=%s"
            % (
                e["j"],
                ",".join(str(c) for c in e["degree"]),
                "|".join(",".join(str(c) for c in r) for r in e["rows"]),
            )
            for e in row["y"]
        )
        rows.append(
            [str(row["id"]), str(row["size"])]
            + [fmt_multiset(xi_by_j.get(j, {})) for j in uppers]
            + [y, row["label"] or ""]
        )
    header = ["orbit", "size"] + ["xi_%d" % j for j in uppers] + ["y", "label"]
    widths = [max(len(r[k]) for r in rows + [header]) for k in range(len(header))]
    text = [
        "field %d, %d families, %d orbits"
        % (args.field, data["family_count"], data["orbit_count"]),
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
    ]
    for r in rows:
        text.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    for g in data["groups"]:
        key = " ".join(
            "xi_%d=%s" % (j, fmt_multiset(gr.multiset_from_json(pairs)))
            for j, pairs in g["xi_upper"]
        )
        text.append(
            "class %s: orbits %s, phi_bar %s"
            % (
                key or "(no xi beyond xi_1)",
                g["orbits"],
                "injective" if g["phi_bar_injective"] else "not injective",
            )
        )
    return data, text, (header, rows)


def _cmd_validate(args):
    chains = _load_chains(args)
    cx = chains.cx
    ok, violation = md.single_step_check(chains)
    data = {
        "field": args.field,
        "input": args.input,
        "ok": True,
        "params": cx.n,
        "cells": len(cx.cells),
        "bound": list(cx.natural_bound()),
        "one_at_a_time": ok,
    }
    text = [
        "ok: %d cells over %d parameters, bound %s"
        % (data["cells"], data["params"], tuple(data["bound"])),
        "one cell at a time: %s" % ("yes" if ok else "no (step %s)" % (violation,)),
    ]
    return data, text, None


# -- wiring --------------------------------------------------------------------


def _add_common(sub, q=False, widen=False):
    sub.add_argument("--input", required=True, help="input file")
    sub.add_argument(
        "--field", type=int, default=2, help="field characteristic (default 2)"
    )
    sub.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="json",
        help="output format (default json)",
    )
    if q:
        sub.add_argument(
            "--q", type=int, default=0, help="homology degree (default 0)"
        )
    if widen:
        sub.add_argument(
            "--widen",
            type=int,
            default=0,
            help="enlarge the grid by this many steps per axis before computing",
        )


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reports a malformed command line as bad input."""

    def error(self, message):
        raise ValidationError("%s: %s" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="torpers",
        description="Tor tables, hypertor and orbit reports for "
        "multifiltered complexes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("xi", help="xi table of H_q or of a presentation")
    _add_common(s, q=True, widen=True)
    s.set_defaults(func=_cmd_xi)

    s = subs.add_parser("resolve", help="minimal resolution Betti table")
    _add_common(s, q=True)
    s.set_defaults(func=_cmd_resolve)

    s = subs.add_parser("hypertor", help="hypertor dimension table")
    _add_common(s)
    s.set_defaults(func=_cmd_hypertor)

    s = subs.add_parser("e1", help="first page of the chains-by-Koszul grid")
    _add_common(s)
    s.set_defaults(func=_cmd_e1)

    s = subs.add_parser("d2", help="second differential out of row q")
    _add_common(s, q=True)
    s.set_defaults(func=_cmd_d2)

    s = subs.add_parser("recover", help="homology recovery report")
    _add_common(s)
    s.set_defaults(func=_cmd_recover)

    s = subs.add_parser("orbits", help="orbit classification of relation families")
    s.add_argument("--xi0", required=True, help="generator multiset as JSON")
    s.add_argument("--xi1", default="", help="relation multiset as JSON")
    s.add_argument("--field", type=int, default=2)
    s.add_argument("--format", choices=("json", "csv", "text"), default="json")
    s.add_argument(
        "--limit", type=int, default=ob.FAMILY_LIMIT, help="enumeration budget"
    )
    s.set_defaults(func=_cmd_orbits)

    s = subs.add_parser("validate", help="check a .mfc file")
    _add_common(s)
    s.set_defaults(func=_cmd_validate)

    return parser


# the commands whose report is not a flat table
_NO_CSV = frozenset(("e1", "d2", "recover", "validate"))


@functools.cache
def _parser():
    """The one parser of the process, built on first use (not at import)."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        if args.format == "csv" and args.command in _NO_CSV:
            raise ValidationError(
                "csv output is not available for %s" % args.command
            )
        data, text, table = args.func(args)
    except (ValidationError, MemoryError) as e:  # MemoryError: too large an input
        message = str(e) or type(e).__name__
        sys.stderr.write(_dumps({"error": "validation", "message": message}))
        return 1
    except InternalCheckError as e:
        sys.stderr.write(_dumps({"error": "internal-check", "message": str(e)}))
        return 2
    except Exception as e:  # any other exception is a bug too
        message = "%s: %s" % (type(e).__name__, e)
        sys.stderr.write(_dumps({"error": "internal", "message": message}))
        return 2
    if args.format == "json":
        sys.stdout.write(_dumps(data))
    elif args.format == "csv":
        sys.stdout.write(_csv(*table))
    else:
        sys.stdout.write("\n".join(text) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
