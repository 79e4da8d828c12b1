"""Command line interface.

Subcommands: verify, count, series, normal-form, charpoly.  Output is
plain text or JSON (--format json); every number prints exactly, as an
integer or a rational p/q, and identical invocations produce identical
bytes.  Exit codes: 0 for success/pass, 1 for a violated identity or a
method disagreement, 2 for usage errors (including malformed matrix
files), 141 when the reader closes stdout before the output ends (as
`macmahon ... | head` does; the code of a process killed by SIGPIPE),
with nothing on stderr.

JSON output is the text `json.dumps(obj, indent=2, sort_keys=True)`
writes for the library's object form (`to_json_obj` / `to_json_terms`),
plus a newline.  With `indent` set, CPython formats in pure Python, which
on the multi-megabyte `series`, `normal-form` and `charpoly` tables took
longer than computing them.  So those three documents are written here
directly, one small writer per term shape (`_poly_json`,
`_combination_json`), with keys in `sort_keys` order: a monomial's
variables are sorted by their name string, so "t_10" comes before "t_2".
The documents are streamed: each writer passes the text of every term to
stdout's `write` as soon as it is formed, so memory grows with the
result, not with copies of its text (`charpoly --m 8 --matrix symbolic`
writes 40 MB from a CPython 3.11 process that peaks at about 46 MB).
The text mode of `series` and `charpoly` is streamed the same way:
`_poly_text` writes each term of a polynomial as `Poly.__str__` joins it.
Every term is one `%` format.  `_poly_json` fills a template with the
coefficient and the monomial's entries, and forms the text `"name": exp`
of each (variable, exponent) pair once per call; `_combination_json`
fills one with the coefficient and a field per letter, since all words
of a combination have one length.  The text of an int, Fraction or Poly
coefficient has no character that JSON escapes, so it goes between the
quotes as it is.  Keys go through `json`'s own escaper, other scalar
fields through `json.dumps`, and the small `verify` and `count`
documents through `json.dumps` whole.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Optional, Sequence

from .charpoly import (
    MatrixFormatError,
    SymMatrix,
    char_coeffs,
    matrix_from_json_obj,
    scale_rows_by_t,
)
from .counting import DP, SERIES, TRANSFER, count_admissible, f_series
from .identity import max_sweep_cap, verify_master
from .polyring import Poly, var_name
from .rewrite import NCombination, normal_form
from .words import STRICT, WEAK, AlgebraParams

_Write = Callable[[str], object]

_MATRIX_HELP = "identity | ones | symbolic | random | path to a JSON matrix file"


def _algebra_params(args, parser: argparse.ArgumentParser) -> AlgebraParams:
    try:
        return AlgebraParams(args.m, args.k)
    except ValueError as exc:
        parser.error(str(exc))


def _nonnegative(value: int, name: str, parser: argparse.ArgumentParser) -> int:
    if value < 0:
        parser.error(f"{name} must be nonnegative")
    return value


def _load_matrix(args, parser: argparse.ArgumentParser) -> SymMatrix:
    spec = args.matrix
    if spec == "identity":
        return SymMatrix.identity(args.m)
    if spec == "ones":
        return SymMatrix.ones(args.m)
    if spec == "symbolic":
        return SymMatrix.symbolic(args.m)
    if spec == "random":
        if args.seed is None:
            parser.error("--matrix random requires --seed")
        try:
            return SymMatrix.random(args.m, args.seed)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        with open(spec, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        parser.error(f"cannot read matrix file {spec}: {exc}")
    except (ValueError, RecursionError) as exc:
        # UnicodeDecodeError and JSONDecodeError are both ValueErrors
        parser.error(f"matrix file {spec} is not valid JSON: {exc}")
    # a symbolic file is a few bytes for any m, so compare the declared size
    # before building; an invalid size is left to matrix_from_json_obj
    declared = obj.get("m") if isinstance(obj, dict) else None
    if type(declared) is int and declared >= 1 and declared != args.m:
        parser.error(f"matrix file {spec} has m={declared}, expected m={args.m}")
    try:
        return matrix_from_json_obj(obj)
    except MatrixFormatError as exc:
        parser.error(f"matrix file {spec}: {exc}")


def _parse_word(text: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    letters = []
    for piece in text.split(","):
        try:
            letters.append(int(piece.strip()))
        except ValueError:
            parser.error(f"invalid word {text!r}: {piece.strip()!r} is not an integer")
    return tuple(letters)


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# Writers of the indented text for one object shape at nesting `level`
# (the top-level document is level 0, its values level 1).  Each hands the
# output's `write` every item as soon as its text is formed, so neither a
# table nor the document is ever held as one string.

def _json_list(write: _Write, items: Iterable[str], level: int) -> None:
    """Write the list of the item texts `items` at `level`, one `write` per item."""
    pad = "\n" + "  " * (level + 1)
    head, sep = "[" + pad, "," + pad
    for item in items:
        write(head + item)
        head = sep
    write("\n" + "  " * level + "]" if head is sep else "[]")


def _json_document(write: _Write, fields: dict) -> None:
    """Write the top-level object and its final newline.

    Each value of `fields` is either the text of a scalar or a function
    that writes the value at level 1 through the `write` it is given.
    """
    head = "{\n  "
    for key in sorted(fields):
        write(head + _quote(key) + ": ")
        value = fields[key]
        if isinstance(value, str):
            write(value)
        else:
            value(write)
        head = ",\n  "
    write("\n}\n")


class _Fragments(dict):
    """The text `form(var, exp)` of each (var, exp) pair, formed once per writer call."""

    def __init__(self, form: Callable[[tuple, int], str]):
        super().__init__()
        self.form = form

    def __missing__(self, pair: tuple) -> str:
        text = self[pair] = self.form(*pair)
        return text


def _poly_text(write: _Write, poly: Poly) -> None:
    """Write `str(poly)`, one `write` per term."""
    if not poly.terms:
        write("0")
        return
    # as `Poly.__str__` writes a factor
    fragment = _Fragments(lambda var, exp: var_name(var) + (f"^{exp}" if exp > 1 else "")).__getitem__
    minus, plus = "-", ""
    for mono, coeff in poly.sorted_terms():
        sign = plus
        if coeff < 0:
            sign, coeff = minus, -coeff
        if not mono:
            write("%s%s" % (sign, coeff))
        elif coeff == 1:
            write(sign + "*".join(map(fragment, mono)))
        else:
            write("%s%s*%s" % (sign, coeff, "*".join(map(fragment, mono))))
        minus, plus = " - ", " + "


def _poly_json(write: _Write, poly: Poly, level: int) -> None:
    """Write `poly.to_json_terms()` at `level`."""
    pad = "\n" + "  " * (level + 1)
    key_pad = pad + "  "
    # one `%` format per term; the text of an int or Fraction needs no escape
    head = "{" + key_pad + '"coeff": "%s",' + key_pad + '"monomial": '
    term = head + "{" + key_pad + "  %s" + key_pad + "}" + pad + "}"
    constant = head + "{}" + pad + "}"
    var_sep = "," + key_pad + "  "
    fragment = _Fragments(lambda var, exp: f"{_quote(var_name(var))}: {exp}").__getitem__

    def terms():
        for mono, coeff in poly.sorted_terms():
            if mono:
                # a name has only letters, digits and "_", all above the closing
                # quote, so sorting the entries sorts by name string
                yield term % (coeff, var_sep.join(sorted(map(fragment, mono))))
            else:
                yield constant % (coeff,)

    _json_list(write, terms(), level)


def _poly_list_json(write: _Write, polys: Sequence[Poly], level: int) -> None:
    """Write `[poly.to_json_terms() for poly in polys]` at `level`."""
    pad = "\n" + "  " * (level + 1)
    head, sep = "[" + pad, "," + pad
    for poly in polys:
        write(head)
        _poly_json(write, poly, level + 1)
        head = sep
    write("\n" + "  " * level + "]" if polys else "[]")


def _combination_json(write: _Write, combination: NCombination, level: int) -> None:
    """Write `combination.to_json_obj()` at `level`."""
    items = combination.sorted_items()
    pad = "\n" + "  " * (level + 1)
    key_pad = pad + "  "
    # all words of a combination have one length: one field per letter.  The
    # text of an int, Fraction or Poly coefficient needs no JSON escape
    length = len(items[0][0]) if items else 0
    word = ("[" + ",".join([key_pad + "  %d"] * length) + key_pad + "]") if length else "[]"
    term = "{" + key_pad + '"coeff": "%s",' + key_pad + '"word": ' + word + pad + "}"
    _json_list(write, (term % ((coeff,) + w) for w, coeff in items), level)


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    params = _algebra_params(args, parser)
    _nonnegative(args.cap, "--cap", parser)
    if args.cap > max_sweep_cap():
        # refused before any work: exit 1 would mean "identity violated"
        parser.error(f"--cap {args.cap} is deeper than the sweep can recurse (at most {max_sweep_cap()})")
    matrix = _load_matrix(args, parser)
    report = verify_master(matrix, params, args.cap)
    if args.format == "json":
        _emit_json(report.to_json_obj())
    else:
        print(f"verify m={params.m} k={params.k} cap={args.cap} "
              f"matrix={args.matrix} mode={report.mode}")
        for check in report.per_degree:
            status = "ok" if check.ok else "FAIL"
            print(f"  degree {check.degree}: {status} (residual terms: {check.residual_terms})")
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_count(args, parser: argparse.ArgumentParser) -> int:
    params = _algebra_params(args, parser)
    _nonnegative(args.len, "--len", parser)
    tables = [count_admissible(params, args.len, args.variant, method)
              for method in (DP, TRANSFER, SERIES)]
    agree = tables[0].values == tables[1].values == tables[2].values
    if args.format == "json":
        _emit_json({"tables": [table.to_json_obj() for table in tables], "agree": agree})
    else:
        print(f"count m={params.m} k={params.k} variant={args.variant} len={args.len}")
        width = max(len(str(v)) for table in tables for v in table.values)
        width = max(width, len("transfer"))
        print(f"  {'l':>3} {'dp':>{width}} {'transfer':>{width}} {'series':>{width}}")
        for l in range(args.len + 1):
            row = [table.values[l] for table in tables]
            print(f"  {l:>3} " + " ".join(f"{v:>{width}}" for v in row))
        print("agreement: " + ("yes" if agree else "NO"))
    return 0 if agree else 1


def _cmd_series(args, parser: argparse.ArgumentParser) -> int:
    params = _algebra_params(args, parser)
    _nonnegative(args.cap, "--cap", parser)
    result = f_series(params, args.cap, args.variant)
    if args.format == "json":
        _json_document(sys.stdout.write, {
            "m": json.dumps(params.m),
            "k": json.dumps(params.k),
            "variant": json.dumps(result.variant),
            "cap": json.dumps(result.cap),
            "denominator": lambda write: _poly_json(write, result.denominator, 1),
            "lhs": lambda write: _poly_json(write, result.lhs.poly, 1),
            "rhs": lambda write: _poly_json(write, result.rhs.poly, 1),
            "equal": json.dumps(result.equal),
        })
    else:
        write = sys.stdout.write
        write(f"series m={params.m} k={params.k} variant={args.variant} cap={args.cap}\n")
        for label, poly in (("denominator", result.denominator),
                            ("lhs", result.lhs.poly), ("rhs", result.rhs.poly)):
            write(f"  {label}: ")
            _poly_text(write, poly)
            write("\n")
        write("equal: " + ("yes" if result.equal else "NO") + "\n")
    return 0 if result.equal else 1


def _cmd_normal_form(args, parser: argparse.ArgumentParser) -> int:
    params = _algebra_params(args, parser)
    word = _parse_word(args.word, parser)
    try:
        combination = normal_form(word, params)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "json":
        _json_document(sys.stdout.write, {
            "m": json.dumps(params.m),
            "k": json.dumps(params.k),
            "word": lambda write: _json_list(write, map(str, word), 1),
            "terms": lambda write: _combination_json(write, combination, 1),
        })
    else:
        print(f"normal-form m={params.m} k={params.k} word={args.word}")
        for term_word, coeff in combination.sorted_items():
            print(f"  {','.join(str(c) for c in term_word)}: {coeff}")
        print(f"terms: {len(combination)}")
    return 0


def _cmd_charpoly(args, parser: argparse.ArgumentParser) -> int:
    if args.m < 1:
        parser.error("--m must be positive")
    matrix = _load_matrix(args, parser)
    coeffs = char_coeffs(scale_rows_by_t(matrix))
    if args.format == "json":
        _json_document(sys.stdout.write, {
            "m": json.dumps(args.m),
            "coeffs": lambda write: _poly_list_json(write, coeffs, 1),
        })
    else:
        write = sys.stdout.write
        write(f"charpoly m={args.m} matrix={args.matrix}\n")
        for r, coeff in enumerate(coeffs):
            write(f"  c_{r} = ")
            _poly_text(write, coeff)
            write("\n")
    return 0


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default: text)")


def _add_matrix(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--matrix", default="identity", help=_MATRIX_HELP)
    sub.add_argument("--seed", type=int, default=None,
                     help="64-bit seed, required for --matrix random")


def _add_verify(sub) -> None:
    verify = sub.add_parser("verify", help="check first factor times second factor = 1")
    verify.add_argument("--m", type=int, required=True, help="number of generators")
    verify.add_argument("--k", type=int, required=True, help="relation degree, 2 <= k <= m")
    verify.add_argument("--cap", type=int, required=True, help="t-degree truncation cap")
    _add_matrix(verify)
    _add_format(verify)
    verify.set_defaults(handler=_cmd_verify)


def _add_count(sub) -> None:
    count = sub.add_parser("count", help="count admissible words by three methods")
    count.add_argument("--m", type=int, required=True)
    count.add_argument("--k", type=int, required=True)
    count.add_argument("--len", type=int, required=True, help="largest word length")
    count.add_argument("--variant", choices=(STRICT, WEAK), default=STRICT)
    _add_format(count)
    count.set_defaults(handler=_cmd_count)


def _add_series(sub) -> None:
    series = sub.add_parser("series", help="compare the admissible-word series with its closed form")
    series.add_argument("--m", type=int, required=True)
    series.add_argument("--k", type=int, required=True)
    series.add_argument("--cap", type=int, required=True)
    series.add_argument("--variant", choices=(STRICT, WEAK), default=STRICT)
    _add_format(series)
    series.set_defaults(handler=_cmd_series)


def _add_normal_form(sub) -> None:
    nform = sub.add_parser("normal-form", help="rewrite a word into the admissible basis")
    nform.add_argument("--m", type=int, required=True)
    nform.add_argument("--k", type=int, required=True)
    nform.add_argument("--word", required=True, help="comma-separated letters, e.g. 3,2,1")
    _add_format(nform)
    nform.set_defaults(handler=_cmd_normal_form)


def _add_charpoly(sub) -> None:
    charpoly = sub.add_parser("charpoly", help="characteristic coefficients of the row-scaled matrix")
    charpoly.add_argument("--m", type=int, required=True)
    _add_matrix(charpoly)
    _add_format(charpoly)
    charpoly.set_defaults(handler=_cmd_charpoly)


# each subcommand's parser, in the order of the usage line
_COMMANDS = {"verify": _add_verify, "count": _add_count, "series": _add_series,
             "normal-form": _add_normal_form, "charpoly": _add_charpoly}


class _OneCommandParser(argparse.ArgumentParser):
    """The top level with one subcommand only.  Its own errors (unrecognized
    arguments, and those the handlers raise) print the usage line of every
    subcommand, so they are left to the full parser, built only then."""

    def error(self, message: str):
        build_parser().error(message)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the subcommand `command` alone.

    The subcommand's own parser, its help and its usage errors are the
    same in both."""
    parser = (argparse.ArgumentParser if command is None else _OneCommandParser)(
        prog="macmahon",
        description="Exact checks of a master identity for algebras with degree-k relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)
    for name, add in _COMMANDS.items():
        if command is None or name == command:
            add(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the chosen subcommand's parser is built; an unknown command,
    # top-level help and an empty command line take the full one
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        code = args.handler(args, parser)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`macmahon ... | head`): exit as a process
        # killed by SIGPIPE does, without a traceback.  Python flushes stdout
        # once more at exit, so a real descriptor is pointed at devnull first
        # (the recipe in the `signal` module's documentation).
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, io.UnsupportedOperation):
            pass  # an in-memory stdout: nothing is flushed to a pipe at exit
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
