import errno
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from macmahon import cli
from macmahon.charpoly import SymMatrix, char_coeffs, scale_rows_by_t
from macmahon.counting import f_series
from macmahon.identity import _report_from_residuals
from macmahon.polyring import Poly, avar, tvar
from macmahon.rewrite import NCombination, normal_form
from macmahon.words import AlgebraParams


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_verify_text_pass(capsys):
    code, out = run_cli(capsys, "verify", "--m", "2", "--k", "2", "--cap", "4")
    assert code == 0
    assert "PASS" in out
    assert "degree 4: ok" in out
    assert "mode=numeric" in out


def test_verify_json_schema(capsys):
    code, out = run_cli(capsys, "verify", "--m", "3", "--k", "3", "--cap", "3",
                        "--matrix", "random", "--seed", "11", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["params"] == {"m": 3, "k": 3}
    assert obj["pass"] is True
    assert obj["mode"] == "numeric"
    assert len(obj["per_degree"]) == 4
    assert obj["first_failure"] is None


def test_verify_symbolic(capsys):
    code, out = run_cli(capsys, "verify", "--m", "2", "--k", "2", "--cap", "3",
                        "--matrix", "symbolic")
    assert code == 0
    assert "mode=symbolic" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    # the identity itself cannot fail, so fake a failing report to pin the
    # exit-code contract
    bad = _report_from_residuals(AlgebraParams(2, 2), 1, "numeric",
                                 [Poly.zero(), Poly.variable(tvar(1))])
    monkeypatch.setattr(cli, "verify_master", lambda *args: bad)
    code, out = run_cli(capsys, "verify", "--m", "2", "--k", "2", "--cap", "1")
    assert code == 1
    assert "FAIL" in out


def test_verify_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--m", "2", "--k", "3", "--cap", "2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--m", "2", "--k", "2", "--cap", "2",
                  "--matrix", "random"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--m", "2", "--k", "2", "--cap", "-1"])
    assert err.value.code == 2


@pytest.mark.parametrize("seed", [str(2 ** 64), "-1"])
def test_verify_seed_outside_64_bits_exits_2(capsys, seed):
    # masked to 64 bits, these would alias the seeds 0 and 2**64 - 1
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--m", "2", "--k", "2", "--cap", "2", "--matrix", "random", "--seed", seed])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: ")
    assert error == f"macmahon: error: seed {seed} is not an integer in 0..2**64 - 1"


@pytest.mark.parametrize("argv", [["--m", "0", "--matrix", "symbolic"], ["--m", "-1"]])
def test_charpoly_nonpositive_m_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(["charpoly", *argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: ")
    assert error == "macmahon: error: --m must be positive"


def test_matrix_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({
        "m": 2, "mode": "numeric", "entries": [["1/2", "-1"], ["0", "2/3"]],
    }))
    code, out = run_cli(capsys, "verify", "--m", "2", "--k", "2", "--cap", "5",
                        "--matrix", str(path))
    assert code == 0
    assert "PASS" in out


def test_matrix_file_errors(tmp_path, capsys):
    bad_entry = tmp_path / "bad.json"
    bad_entry.write_text(json.dumps({
        "m": 2, "mode": "numeric", "entries": [["1", "2"], ["0.5", "4"]],
    }))
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--m", "2", "--k", "2", "--cap", "2",
                  "--matrix", str(bad_entry)])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "(2,1)" in stderr

    wrong_size = tmp_path / "size.json"
    wrong_size.write_text(json.dumps({
        "m": 3, "mode": "numeric", "entries": [["1"] * 3] * 3,
    }))
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--m", "2", "--k", "2", "--cap", "2",
                  "--matrix", str(wrong_size)])
    assert err.value.code == 2

    not_json = tmp_path / "broken.json"
    not_json.write_text("{")
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--m", "2", "--k", "2", "--cap", "2",
                  "--matrix", str(not_json)])
    assert err.value.code == 2

    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--m", "2", "--k", "2", "--cap", "2",
                  "--matrix", str(tmp_path / "missing.json")])
    assert err.value.code == 2

    # exit 1 means "identity violated", so undecodable bytes and a document
    # nested too deep for the decoder must also be usage errors
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"m": 2, "entries": [["\xe9"]]}')
    too_deep = tmp_path / "deep.json"
    too_deep.write_text("[" * 200_000)
    for path in (not_utf8, too_deep):
        for argv in (["verify", "--m", "2", "--k", "2", "--cap", "2"],
                     ["charpoly", "--m", "2"]):
            with pytest.raises(SystemExit) as err:
                cli.main(argv + ["--matrix", str(path)])
            assert err.value.code == 2
            assert "is not valid JSON" in capsys.readouterr().err


def test_verify_sparse_m10_finishes(capsys):
    # finishes only if the second factor skips the zero entries of the
    # matrix: a dense expansion of the 10x10 case runs for about a minute
    code, out = run_cli(capsys, "verify", "--m", "10", "--k", "2", "--cap", "1",
                        "--matrix", "identity")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


@pytest.mark.parametrize("argv", [
    ["--m", "2", "--k", "2", "--cap", "1200"],
    ["--m", "3", "--k", "3", "--cap", "100000"],
])
def test_verify_cap_beyond_the_recursion_exits_2(capsys, argv):
    # these used to die with a RecursionError traceback and exit 1, which
    # means "identity violated"
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", *argv, "--matrix", "identity"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(
        f"macmahon: error: --cap {argv[-1]} is deeper than the sweep can recurse")


def test_verify_on_a_large_identity_matrix_at_a_small_cap(capsys):
    # the second factor used to be built whole, over all 2**30 leaves of
    # the identity matrix's expansion, although verify reads t-degree <= 1
    code, out = run_cli(capsys, "verify", "--m", "30", "--k", "2", "--cap", "1")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_verify_on_a_large_random_matrix_at_a_small_cap(capsys):
    # the bounded second factor stops a walk once the entries it must still
    # take pass the cap; without that it visited every row for every
    # partial assignment, and this took about three times as long
    code, out = run_cli(capsys, "verify", "--m", "16", "--k", "3", "--cap", "4", "--matrix", "random",
                        "--seed", "1")
    assert code == 0
    assert out.splitlines() == ["verify m=16 k=3 cap=4 matrix=random mode=numeric",
                                *(f"  degree {d}: ok (residual terms: 0)" for d in range(5)), "PASS"]


def test_matrix_file_bool_size_exits_2(tmp_path, capsys):
    # "m": true used to load as a 1x1 matrix, since bool is an int
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"m": True, "mode": "numeric", "entries": [["1"]]}))
    with pytest.raises(SystemExit) as err:
        cli.main(["charpoly", "--m", "1", "--matrix", str(path)])
    assert err.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err


def test_matrix_file_size_checked_before_building(tmp_path, capsys, monkeypatch):
    # a few-byte symbolic file can declare any m; building it before the
    # comparison with --m would take memory quadratic in m
    def refuse(obj):
        raise AssertionError("matrix built before its size was checked")

    monkeypatch.setattr(cli, "matrix_from_json_obj", refuse)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"m": 1000000, "mode": "symbolic"}))
    for argv in (["verify", "--m", "2", "--k", "2", "--cap", "2"], ["charpoly", "--m", "2"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv + ["--matrix", str(path)])
        assert err.value.code == 2
        assert "has m=1000000, expected m=2" in capsys.readouterr().err


def test_count_text(capsys):
    code, out = run_cli(capsys, "count", "--m", "3", "--k", "3", "--len", "6")
    assert code == 0
    assert "agreement: yes" in out
    assert "622" in out


def test_count_json(capsys):
    code, out = run_cli(capsys, "count", "--m", "3", "--k", "2", "--len", "4",
                        "--variant", "weak", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["agree"] is True
    assert len(obj["tables"]) == 3
    assert obj["tables"][0] == {
        "m": 3, "k": 2, "variant": "weak", "method": "dp",
        "values": ["1", "3", "3", "1", "0"],
    }


def test_series_text_and_exit(capsys):
    code, out = run_cli(capsys, "series", "--m", "2", "--k", "2", "--cap", "3")
    assert code == 0
    assert "equal: yes" in out
    assert "denominator: 1 - t_1 - t_2 + t_1*t_2" in out


def test_series_json(capsys):
    code, out = run_cli(capsys, "series", "--m", "3", "--k", "3", "--cap", "4",
                        "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["equal"] is True
    assert obj["denominator"][0] == {"coeff": "1", "monomial": {}}


def test_normal_form_text(capsys):
    code, out = run_cli(capsys, "normal-form", "--m", "3", "--k", "3",
                        "--word", "3,2,1")
    assert code == 0
    assert "1,2,3: 1" in out
    assert "1,3,2: -1" in out
    assert "terms: 5" in out


def test_normal_form_json(capsys):
    code, out = run_cli(capsys, "normal-form", "--m", "3", "--k", "3",
                        "--word", "3,2,1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["word"] == [3, 2, 1]
    assert obj["terms"][0] == {"word": [1, 2, 3], "coeff": "1"}
    assert len(obj["terms"]) == 5


def test_normal_form_word_errors(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["normal-form", "--m", "3", "--k", "3", "--word", "3,x,1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["normal-form", "--m", "3", "--k", "3", "--word", "3,4,1"])
    assert err.value.code == 2


def test_charpoly_text(capsys):
    code, out = run_cli(capsys, "charpoly", "--m", "2", "--matrix", "symbolic")
    assert code == 0
    assert "c_0 = 1" in out
    assert "c_1 = -a_1_1*t_1 - a_2_2*t_2" in out


def test_charpoly_json(capsys):
    code, out = run_cli(capsys, "charpoly", "--m", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["coeffs"]) == 3
    assert obj["coeffs"][0] == [{"coeff": "1", "monomial": {}}]


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def full_parser_main(argv):
    # `cli.main` as it was with one parser of every subcommand
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    return args.handler(args, parser)


def exit_and_output(capsys, run, argv):
    with pytest.raises(SystemExit) as err:
        run(argv)
    captured = capsys.readouterr()
    return err.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate", "--m", "3"],
    ["--format", "json", "verify"],
    ["-h"],
    ["verify", "--help"],
    ["charpoly", "-h"],
    ["verify", "--m", "3"],
    ["count", "--m", "3", "--k", "3", "--len", "4", "--variant", "lax"],
    ["series", "--m", "3", "--k", "3", "--cap", "2", "--bogus"],
    ["verify", "--m", "3", "--k", "2", "--cap", "2", "extra"],
    ["verify", "--m", "2", "--k", "3", "--cap", "2"],
    ["verify", "--m", "3", "--k", "2", "--cap", "2", "--matrix", "random"],
    ["normal-form", "--m", "3", "--k", "2", "--word", "1,x"],
    ["charpoly", "--m", "0"],
], ids=["empty", "unknown-command", "option-before-command", "top-level-help", "command-help",
        "command-short-help", "missing-option", "invalid-choice", "unrecognized-option",
        "unrecognized-positional", "handler-params-error", "handler-seed-error", "handler-word-error",
        "handler-m-error"])
def test_one_command_parser_keeps_exit_and_output(capsys, argv):
    # main builds only the chosen subcommand's parser; every exit it takes
    # through argparse prints what the parser of all subcommands prints
    expected = exit_and_output(capsys, full_parser_main, argv)
    assert expected[0] in (0, 2) and expected[1] + expected[2]
    assert exit_and_output(capsys, cli.main, argv) == expected


def test_main_builds_only_the_chosen_subcommand(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def recording(command=None):
        built.append(command)
        return real(command)

    monkeypatch.setattr(cli, "build_parser", recording)
    assert run_cli(capsys, "count", "--m", "3", "--k", "3", "--len", "4")[0] == 0
    assert built == ["count"]
    assert real("count").format_usage() == "usage: macmahon [-h] {count} ...\n"
    with pytest.raises(SystemExit):
        cli.main(["count", "--m", "3", "--k", "3", "--len", "4", "--bogus"])
    assert built == ["count", "count", None]


def test_output_is_deterministic(capsys):
    argv = ["verify", "--m", "3", "--k", "2", "--cap", "4",
            "--matrix", "random", "--seed", "3", "--format", "json"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second


def test_module_invocation_bytes_identical():
    argv = [sys.executable, "-m", "macmahon", "count",
            "--m", "3", "--k", "3", "--len", "8", "--format", "json"]
    runs = [subprocess.run(argv, capture_output=True) for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout  # nonempty


GOLDEN_SHA256 = {
    ("series", "--m", "3", "--k", "3", "--cap", "6"): (
        "69d47fc99a682ca95fa71ed206d57210bc1ddd97c46998c1cb397d587280f125",
        "912534f7077ca65383d61ae08661d5efa21384f8fa33528db6299c2494516d83"),
    ("series", "--m", "3", "--k", "3", "--cap", "6", "--variant", "weak"): (
        "e08b7a9654a6fefb81449283c779870e21ce16dec0630fcccb1671e97d81fa9c",
        "55f18eba116050190542e7c64c4e2e2f6c5aeb86666046308585009d8e714df5"),
    ("charpoly", "--m", "4", "--matrix", "symbolic"): (
        "ca73e13bafe5bfac680cccf1dd617f37d3d6dd4af587dcd92e391f84e9034498",
        "5646f3e3d05103f47e115e3d7e9f8e8fc910394d9723c4a0bd1fbb0d196e8a3c"),
    ("normal-form", "--m", "4", "--k", "4", "--word", "4,3,2,1,4,3,2,1"): (
        "7cb07ee9fd1a779480d2415ee11dfcee62d1ae146812d8985daddd0537ddd428",
        "d2921c6bc47fdf67f794245c431ba4d50b2fc9c5852caf4eb8e7b60525acced1"),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256), ids=" ".join)
def test_golden_table_bytes(argv, capsys):
    # stdout pinned byte for byte, as (json, text) sha256 digests
    digests = []
    for fmt in ("json", "text"):
        code, out = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == GOLDEN_SHA256[argv]


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def written(fields: dict) -> str:
    """The text `cli._json_document` writes for `fields`, its writes joined."""
    pieces = []
    cli._json_document(pieces.append, fields)
    return "".join(pieces)


# indices up to 12, so that "t_10" sorts before "t_2" and "a_1_12" before
# "a_1_2": name order differs from variable-key order
_indices = st.integers(1, 12)
_variables = st.one_of(st.builds(tvar, _indices), st.builds(avar, _indices, _indices))
_coeffs = st.one_of(st.integers(-5, 5), st.fractions(max_denominator=7)).filter(bool)
_monomials = st.dictionaries(_variables, st.integers(1, 3), max_size=4).map(
    lambda exps: tuple(sorted(exps.items())))
_polys = st.dictionaries(_monomials, _coeffs, max_size=6).map(Poly)


@given(st.lists(_polys, max_size=4))
@example([Poly.zero()])
@example([Poly.constant(Fraction(-3, 2)), Poly({((tvar(2), 1), (tvar(10), 1)): 1, ((tvar(2), 2),): -1})])
@settings(max_examples=80)
def test_poly_writer_matches_dumps(polys):
    # level 1: a field of the series document; level 2: an entry of the
    # charpoly "coeffs" list
    for poly in polys:
        assert written({"lhs": lambda write: cli._poly_json(write, poly, 1)}) == dumps(
            {"lhs": poly.to_json_terms()}) + "\n"
    assert written({
        "coeffs": lambda write: cli._poly_list_json(write, polys, 1),
        "m": "3",
    }) == dumps({"coeffs": [poly.to_json_terms() for poly in polys], "m": 3}) + "\n"


@given(_polys)
@example(Poly.zero())
@example(Poly({(): Fraction(-3, 2), ((tvar(2), 2), (tvar(10), 1)): Fraction(1, 3),
               ((avar(1, 12), 3),): -1, ((avar(1, 2), 1),): 1}))
@settings(max_examples=80)
def test_poly_text_writer_matches_str(poly):
    # the streamed text mode writes, term by term, what `Poly.__str__` joins
    pieces = []
    cli._poly_text(pieces.append, poly)
    assert "".join(pieces) == str(poly)
    assert len(pieces) == max(len(poly.terms), 1)


_combinations = st.integers(2, 4).flatmap(lambda m: st.tuples(
    st.builds(AlgebraParams, st.just(m), st.integers(2, m)),
    st.lists(st.integers(1, m), max_size=6),
    _coeffs))


@given(_combinations)
@example((AlgebraParams(3, 3), [], Fraction(-1, 2)))
@settings(max_examples=60)
def test_combination_writer_matches_dumps(case):
    params, letters, scale = case
    terms = {w: c * scale for w, c in normal_form(letters, params).terms.items()}
    for combination in (NCombination(terms, params), NCombination({}, params)):
        assert written({
            "terms": lambda write: cli._combination_json(write, combination, 1),
            "word": lambda write: cli._json_list(write, map(str, letters), 1),
        }) == dumps({"terms": combination.to_json_obj(), "word": letters}) + "\n"


def _series_obj(m, k, cap):
    return f_series(AlgebraParams(m, k), cap, "strict").to_json_obj()


def _normal_form_obj(m, k, word):
    params = AlgebraParams(m, k)
    return {"m": m, "k": k, "word": list(word),
            "terms": normal_form(word, params).to_json_obj()}


def _charpoly_obj(matrix):
    coeffs = char_coeffs(scale_rows_by_t(matrix))
    return {"m": matrix.m, "coeffs": [c.to_json_terms() for c in coeffs]}


JSON_TABLES = {
    ("series", "--m", "10", "--k", "2", "--cap", "2"): lambda: _series_obj(10, 2, 2),
    ("series", "--m", "3", "--k", "3", "--cap", "0"): lambda: _series_obj(3, 3, 0),
    ("normal-form", "--m", "3", "--k", "3", "--word", ""): lambda: _normal_form_obj(3, 3, ()),
    ("charpoly", "--m", "1"): lambda: _charpoly_obj(SymMatrix.identity(1)),
    ("charpoly", "--m", "3", "--matrix", "ones"): lambda: _charpoly_obj(SymMatrix.ones(3)),
    # t_2 and t_10 in one monomial: the walk's rank keys follow variable-key
    # order, the writer name order
    ("charpoly", "--m", "10", "--matrix", "identity"): lambda: _charpoly_obj(SymMatrix.identity(10)),
}


@pytest.mark.parametrize("argv", sorted(JSON_TABLES), ids=" ".join)
def test_json_tables_equal_object_form(argv, capsys):
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == dumps(JSON_TABLES[argv]()) + "\n"
    if argv[2] == "10":
        assert '"t_10"' in out and '"t_2"' in out


class RecordingStdout:
    """A stdout that keeps each `write` apart."""

    def __init__(self):
        self.writes = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


STREAMED_TABLES = {
    ("charpoly", "--m", "5", "--matrix", "symbolic"): lambda: _charpoly_obj(SymMatrix.symbolic(5)),
    ("normal-form", "--m", "4", "--k", "4", "--word", "4,3,2,1,4,3,2,1"):
        lambda: _normal_form_obj(4, 4, (4, 3, 2, 1, 4, 3, 2, 1)),
    ("series", "--m", "4", "--k", "3", "--cap", "6"): lambda: _series_obj(4, 3, 6),
}


@pytest.mark.parametrize("argv", sorted(STREAMED_TABLES), ids=" ".join)
def test_json_tables_are_written_term_by_term(argv, monkeypatch):
    # the tables reach stdout in pieces no longer than a few terms, so no
    # whole table or document is held as one string
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main([*argv, "--format", "json"]) == 0
    text = "".join(stdout.writes)
    assert text == dumps(STREAMED_TABLES[argv]()) + "\n"
    assert max(map(len, stdout.writes)) <= 2048 < len(text) // 20


class ClosedPipe(io.StringIO):
    def write(self, text: str) -> int:
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_exits_141_in_process(fmt, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(["charpoly", "--m", "3", "--matrix", "symbolic", "--format", fmt]) == 141
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_exits_141_quietly():
    # `macmahon ... | head -c 100`: the reader goes away mid-document
    argv = [sys.executable, "-m", "macmahon", "charpoly", "--m", "7",
            "--matrix", "symbolic", "--format", "json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert head.startswith(b'{\n  "coeffs": [') and len(head) == 100
    assert (code, stderr) == (141, b"")
