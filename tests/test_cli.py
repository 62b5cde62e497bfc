import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validate

import qal
import qal.cli as cli
import qal.graph_basis as gb
import qal.pvb_family as pvb_family
import qal.pvh_checker as pvh_checker
from qal.cli import run
from qal.exact_core import Generator, _Echelon
from tests.test_quad_algebra import NON_KOSZUL

try:
    from importlib.resources import files
    SCHEMA = json.loads(files("qal").joinpath("report.schema.json").read_text())
except Exception:  # pragma: no cover
    import os
    here = os.path.join(os.path.dirname(__file__), "..", "src", "qal")
    SCHEMA = json.load(open(os.path.join(here, "report.schema.json")))


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def test_lah_table_row():
    code, text = invoke("lah", "--n", "4")
    assert code == 0
    lines = text.splitlines()
    assert any(line.split() == ["4", "2", "36"] for line in lines)


def test_lah_json_schema():
    code, text = invoke("lah", "--n", "5", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    validate(doc, SCHEMA)
    assert {"n": 5, "k": 3, "lah": 120} in doc["rows"]


def test_stirling_csv():
    code, text = invoke("stirling", "--n", "4", "--format", "csv")
    assert code == 0
    assert text.splitlines()[0] == "n,k,stirling1,stirling2"
    assert "4,2,11,7" in text.splitlines()


def test_basis_empty_listing():
    code, text = invoke("basis", "chain-gangs", "--n", "3", "--degree", "3")
    assert code == 0
    assert text.strip().splitlines() == ["index  monomial"]


def test_basis_json_and_dot():
    code, text = invoke("basis", "updown", "--n", "3", "--degree", "1",
                        "--format", "json")
    doc = json.loads(text)
    validate(doc, SCHEMA)
    assert len(doc["rows"]) == 6
    code, text = invoke("basis", "down", "--n", "3", "--degree", "2",
                        "--emit-dot")
    assert code == 0
    assert text.count("digraph") == 1 and "2 -> 1;" in text


def test_basis_updown_n9_lists_lah_rows():
    code, text = invoke("basis", "updown", "--n", "9", "--degree", "2",
                        "--format", "json")
    assert code == 0
    assert len(json.loads(text)["rows"]) == 2016  # L(9, 7)


def test_reduce_prune():
    code, text = invoke("reduce", "prune", "1>2,1>3", "--format", "csv")
    assert code == 0
    rows = set(text.strip().splitlines()[1:])
    assert rows == {'1,"1>2,2>3"', '-1,"1>3,3>2"'}


def test_reduce_loop_is_empty():
    code, text = invoke("reduce", "prune", "1>2,2>3,3>1", "--format", "json")
    assert code == 0
    assert json.loads(text)["rows"] == []


def test_reduce_respects_input_order_parity():
    _, a = invoke("reduce", "lex", "1>3,2>3", "--format", "json")
    _, b = invoke("reduce", "lex", "2>3,1>3", "--format", "json")
    ra = {r["monomial"]: r["coeff"] for r in json.loads(a)["rows"]}
    rb = {r["monomial"]: r["coeff"] for r in json.loads(b)["rows"]}
    assert set(ra) == set(rb)
    assert all(ra[m] == str(-int(rb[m])) for m in ra)


def test_verify_pvh_json_schema_and_exit():
    code, text = invoke("verify", "pvh", "--family", "pvb", "--n", "4",
                        "--format", "json")
    assert code == 0
    doc = json.loads(text)
    validate(doc, SCHEMA)
    assert doc["verdict"] == "PASS"
    assert doc["degree2"] == {"relators": 36, "rank": 36, "pass": True}
    assert doc["degree3"]["kernel_dim"] == 24


def test_verify_euler_json_schema():
    code, text = invoke("verify", "euler", "--family", "pvb", "--n", "3",
                        "--max-degree", "4", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    validate(doc, SCHEMA)
    assert doc["pass"] is True


def test_failing_check_exits_one(tmp_path):
    pres = tmp_path / "nk.json"
    pres.write_text(json.dumps(NON_KOSZUL))
    code, text = invoke("verify", "euler", "--presentation", str(pres),
                        "--max-degree", "4", "--format", "json")
    assert code == 1
    doc = json.loads(text)
    validate(doc, SCHEMA)
    assert doc["pass"] is False


def test_euler_ranks_the_dual_by_tensor_elimination_only_when_it_must(
        tmp_path, monkeypatch):
    # pvb's relations are sums of commutators, so its dual is ranked in the
    # exterior algebra; NON_KOSZUL has square words, so it builds R-perp
    calls = []
    annihilator = qal.quad_algebra.annihilator
    monkeypatch.setattr(qal.quad_algebra, "annihilator",
                        lambda p: calls.append(p) or annihilator(p))
    code, text = invoke("hilbert", "--family", "pvb", "--n", "5",
                        "--max-degree", "3")
    assert code == 0 and calls == []
    assert text.splitlines()[-1].split() == ["3", "3440", "240"]
    pres = tmp_path / "nk.json"
    pres.write_text(json.dumps(NON_KOSZUL))
    code, text = invoke("verify", "euler", "--presentation", str(pres),
                        "--max-degree", "4", "--format", "json")
    assert code == 1 and len(calls) == 1
    assert json.loads(text)["payload"] == {"primal_dims": [1, 3, 6, 9, 12],
                                           "dual_dims": [1, 3, 3, 0, 0]}


def test_presentation_file_degree2(tmp_path):
    pres = tmp_path / "pvb3.json"
    pres.write_text(json.dumps({"family": "pvb", "n": 3}))
    code, text = invoke("verify", "degree2", "--presentation", str(pres))
    assert code == 0 and "[PASS]" in text


@pytest.mark.parametrize("suite", ["degree2", "pvh", "euler"])
def test_presentation_generator_outside_n_exits_two(suite, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "n": 3, "generators": ["r1_2", "r2_1", "r7_8"],
        "relations": [{"terms": [
            {"word": ["r1_2", "r2_1"], "coeff": "1"},
            {"word": ["r2_1", "r1_2"], "coeff": "-1"}]}]}))
    code, text = invoke("verify", suite, "--presentation", str(path))
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        f"error: presentation file {path}: generator r7_8 invalid for n=3\n")


def test_pvh_with_presentation_runs_degree2_only(tmp_path):
    pres = tmp_path / "pvb3.json"
    pres.write_text(json.dumps({"family": "pvb", "n": 3}))
    code, text = invoke("verify", "pvh", "--presentation", str(pres),
                        "--format", "json")
    assert code == 0
    doc = json.loads(text)
    validate(doc, SCHEMA)
    assert doc["check"] == "pvh-degree2"


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        run(["basis", "nonsense", "--n", "3", "--degree", "1"])
    assert exc.value.code == 2
    assert run(["verify", "psi"]) == 2          # missing --n
    assert run(["verify", "coproduct", "--n", "3"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["lah", "--n", "-1"], "--n must be >= 0"),
    (["reduce", "prune", "1>1"], "generator indices must differ"),
    (["reduce", "prune", "1>2>3"], "bad wedge factor '1>2>3'"),
    (["verify", "euler", "--n", "3", "--max-degree", "-2"],
     "--max-degree must be >= 1"),
    (["verify", "euler", "--n", "3", "--max-degree", "0"],
     "--max-degree must be >= 1"),
    (["hilbert", "--n", "3", "--max-degree", "-1"],
     "--max-degree must be >= 0"),
    (["reduce", "prune", "1>2", "--n", "1"], "out of range for n=1"),
])
def test_bad_input_exits_two_with_message(argv, message, capsys):
    code, text = invoke(*argv)
    assert code == 2
    assert text == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (None, "cannot read presentation file {path}: No such file or directory"),
    ("not json", "presentation file {path} is not JSON: Expecting value"),
    ([1, 2], "presentation file {path}: expected a JSON object, got list"),
    ({"family": "pvb"}, "presentation file {path}: missing field 'n'"),
    ({"family": "pvb", "n": [4]},
     "presentation file {path}: field 'n' must be an integer, got [4]"),
    ({"family": "pvb", "n": 4.5},
     "presentation file {path}: field 'n' must be an integer, got 4.5"),
    ({"family": 3, "n": 4},
     "presentation file {path}: field 'family' must be a string, got 3"),
    ({"generators": 3}, "presentation file {path}: missing field 'n'"),
    ({"n": 3, "generators": 3, "relations": []},
     "presentation file {path}: field 'generators' must be a list of "
     "strings, got 3"),
    ({"n": 3, "generators": ["r1_2"],
      "relations": [{"terms": [{"word": ["r1_2", "r1_2"], "coeff": [1]}]}]},
     "presentation file {path}: field 'coeff' must be an integer or a string, "
     "got [1]"),
    ({"n": 3, "generators": ["r1_2"],
      "relations": [{"terms": [{"word": ["r1_2", "r1_2"], "coeff": "1/0"}]}]},
     "presentation file {path}: field 'coeff' is not a rational number, "
     "got '1/0'"),
    ({"n": 3, "generators": ["r1_2"],
      "relations": [{"terms": [{"word": ["r1_2", "r1_2"], "coeff": 0.1}]}]},
     "presentation file {path}: field 'coeff' must be an integer or a string, "
     "got 0.1"),
])
def test_bad_presentation_file_exits_two(content, message, tmp_path, capsys):
    path = tmp_path / "p.json"
    if content is not None:
        path.write_text(content if isinstance(content, str)
                        else json.dumps(content))
    code, text = invoke("verify", "degree2", "--presentation", str(path))
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(path=path))
    assert err.count("\n") == 1


@pytest.mark.parametrize("suite", ["degree2", "euler"])
def test_shorthand_file_with_explicit_fields_exits_two(suite, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"family": "pvb", "n": 3,
                                "generators": ["r1_2"], "relations": []}))
    assert invoke("verify", suite, "--presentation", str(path)) == (2, "")
    assert capsys.readouterr().err == (
        f"error: presentation file {path}: unknown field 'generators', "
        "expected only 'family', 'n'\n")


@pytest.mark.parametrize("suite", ["degree2", "euler"])
def test_explicit_file_with_a_misspelt_field_exits_two(suite, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "n": 3, "generators": ["r1_2", "r2_1"], "relations": [],
        "relatons": [{"terms": [{"word": ["r1_2", "r2_1"], "coeff": "1"},
                                {"word": ["r2_1", "r1_2"], "coeff": "-1"}]}]}))
    assert invoke("verify", suite, "--presentation", str(path)) == (2, "")
    assert capsys.readouterr().err == (
        f"error: presentation file {path}: unknown field 'relatons', "
        "expected only 'n', 'generators', 'relations'\n")


@pytest.mark.parametrize("what", ["lahstirling", "psi", "coproduct",
                                  "confluence"])
def test_presentation_is_refused_where_it_is_ignored(what, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"family": "pvb", "n": 3}))
    with pytest.raises(SystemExit) as exc:
        invoke("verify", what, "--presentation", str(path), "--n", "4")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --presentation" in err


#: Every option some verify suite reads, with a value it accepts.
_OPTION_VALUES = {"--n": "4", "--family": "pvb", "--presentation": "p.json",
                  "--max-degree": "3", "--seed": "0", "--trials": "3",
                  "--budget": "200000"}


def _foreign_options():
    """Each verify suite with each option another suite reads, and with
    --format csv; and reduce with --budget."""
    for what, (_, names, budget) in sorted(cli._VERIFIERS.items()):
        reads = set(names) | ({"--budget"} if budget else set())
        for flag in sorted(set(_OPTION_VALUES) - reads):
            yield ["verify", what, "--n", "4", flag, _OPTION_VALUES[flag]]
        yield ["verify", what, "--n", "4", "--format", "csv"]
    yield ["reduce", "prune", "1>2,1>3", "--budget", "0"]


@pytest.mark.parametrize("argv", list(_foreign_options()),
                         ids=" ".join)
def test_options_a_command_does_not_read_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv, out=io.StringIO())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and argv[-2] in err


@pytest.mark.parametrize("what", ["pvh", "degree2", "euler"])
@pytest.mark.parametrize("given", [["--family", "pvb"], ["--n", "3"],
                                   ["--family", "pfb", "--n", "3"]])
def test_presentation_refuses_family_and_n(what, given, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"family": "pvb", "n": 3}))
    code, text = invoke("verify", what, "--presentation", str(path), *given)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        "error: --presentation replaces --family and --n\n"


@pytest.mark.parametrize("rules, system", [("prune", "pruning"),
                                           ("lex", "lex rewriting")])
def test_rewrite_step_bound_exits_two(rules, system, monkeypatch, capsys):
    monkeypatch.setattr(gb, "REWRITE_STEP_BOUND", 3)
    code, text = invoke("reduce", rules, "1>4,2>4,3>4")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        f"error: {system} did not terminate within 3 steps\n")


def test_budget_exit_two():
    assert run(["hilbert", "--family", "pvb", "--n", "4",
                "--max-degree", "4", "--budget", "100"]) == 2


def test_budget_is_checked_before_any_elimination(monkeypatch, capsys):
    def no_elimination(self, row):
        raise AssertionError("elimination started before the budget check")

    monkeypatch.setattr(_Echelon, "insert", no_elimination)
    code, text = invoke("hilbert", "--family", "pvb", "--n", "4",
                        "--max-degree", "5")
    assert code == 2 and text == ""
    assert "tensor space of dimension 248832 exceeds budget 200000" \
        in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(cli._BASIS_ENUM))
def test_basis_budget_is_checked_before_enumerating(kind, monkeypatch, capsys):
    def no_enumeration(n, degree):
        raise AssertionError("enumeration started before the budget check")

    monkeypatch.setitem(cli._BASIS_ENUM, kind, no_enumeration)
    code, text = invoke("basis", kind, "--n", "11", "--degree", "6",
                        "--budget", "10")
    count = cli._BASIS_COUNT[kind](11, 5)
    assert code == 2 and text == ""
    assert f"{kind} basis of {count} monomials exceeds budget 10" \
        in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(cli._BASIS_ENUM))
def test_basis_count_is_the_listing_length(kind):
    for n in range(0, 7):
        for degree in range(0, n + 2):
            count = len(cli._BASIS_ENUM[kind](n, degree))
            assert count == (cli._BASIS_COUNT[kind](n, n - degree)
                             if degree <= n else 0)
            argv = ["basis", kind, "--n", str(n), "--degree", str(degree),
                    "--format", "csv"]
            assert invoke(*argv, "--budget", str(count))[0] == 0
            if count:
                assert invoke(*argv, "--budget", str(count - 1))[0] == 2


@pytest.mark.parametrize("n", range(2, 7))
def test_pvh_budget_error_text_for_small_n(n, capsys):
    dim = (n * (n - 1)) ** 3
    code, text = invoke("verify", "pvh", "--family", "pvb", "--n", str(n),
                        "--budget", str(dim - 1))
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        f"error: tensor space of dimension {dim} exceeds budget {dim - 1}\n"


def test_pvh_budget_is_the_largest_block(monkeypatch, capsys):
    def no_block(s):
        raise AssertionError("a block was built before the budget check")

    monkeypatch.setattr(pvh_checker, "_certify_block", no_block)
    code, text = invoke("verify", "pvh", "--family", "pvb", "--n", "12",
                        "--budget", "26999")
    assert code == 2 and text == ""
    assert "tensor space of dimension 27000 exceeds budget 26999" \
        in capsys.readouterr().err


def test_verify_pvh_n9_passes_on_blocks():
    code, text = invoke("verify", "pvh", "--family", "pvb", "--n", "9",
                        "--format", "json")
    doc = json.loads(text)
    assert code == 0 and doc["verdict"] == "PASS"
    assert gb.lah(9, 6) == 28224
    assert doc["degree3"] == {"kernel_dim": 28224, "image_rank": 28224,
                              "candidates": 48384, "pass": True}


@pytest.mark.parametrize("argv", [
    ["lah", "--n", "1200"],
    ["stirling", "--n", "1200"],
    *[["basis", kind, "--n", "1200", "--degree", degree]
      for kind in sorted(cli._BASIS_ENUM) for degree in ("0", "1")],
])
def test_large_n_never_recurses_per_strand(argv, capsys):
    code, text = invoke(*argv)
    err = capsys.readouterr().err
    if code == 2:
        assert text == "" and "exceeds budget" in err
    else:
        assert code == 0 and text and err == ""


@pytest.mark.parametrize("what, count, message", [
    ("lahstirling", sum(gb.lah(n, k) for n in range(10) for k in range(n + 1)),
     "lahstirling check of {} ordered partitions exceeds budget 1"),
    ("coproduct", 14 * math.perm(9, 4),
     "coproduct check of {} reductions exceeds budget 1"),
])
def test_verify_budget_is_checked_before_enumerating(what, count, message,
                                                     monkeypatch, capsys):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumeration started before the budget check")

    monkeypatch.setattr(gb, "lah_by_enumeration", no_enumeration)
    monkeypatch.setattr(gb, "coproduct_table_check", no_enumeration)
    code, text = invoke("verify", what, "--n", "9", "--budget", "1")
    assert code == 2 and text == ""
    assert message.format(count) in capsys.readouterr().err


@pytest.mark.parametrize("kind, count", [
    ("chain-gangs", math.comb(19999, 2) * 20000 * 19999),
    ("updown", math.comb(19999, 2) * 20000 * 19999),
    ("down", math.comb(20000, 3) + 3 * math.comb(20000, 4)),
    ("up", 2 * math.comb(20000, 3) + 3 * math.comb(20000, 4)),
])
def test_basis_budget_needs_no_long_triangle_row(kind, count, monkeypatch, capsys):
    row = gb._triangle_row

    def short_row(name, n):
        if n > 4:
            raise AssertionError(f"triangle row {n} built for a degree-2 count")
        return row(name, n)

    monkeypatch.setattr(gb, "_triangle_row", short_row)
    code, text = invoke("basis", kind, "--n", "20000", "--degree", "2")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (f"error: {kind} basis of {count} "
                                       "monomials exceeds budget 200000\n")


@pytest.mark.parametrize("n, degree, count", [
    (4000, 3998, 2 ** 3999 - 1),  # S(n, 2): two nonempty blocks
    (3000, 2997, (3 ** 2999 - 2 ** 3000 + 1) // 2),  # S(n, 3)
])
def test_small_k_is_counted_from_the_capped_rows(n, degree, count,
                                                 monkeypatch, capsys):
    # counting down --n 4000 --degree 3998 near the diagonal took 10 s
    def no_near_diagonal(*args):
        raise AssertionError("counted near the diagonal")

    monkeypatch.setattr(cli, "_near_diagonal", no_near_diagonal)
    code, text = invoke("basis", "down", "--n", str(n), "--degree", str(degree))
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (f"error: down basis of {count} "
                                       "monomials exceeds budget 200000\n")


@pytest.mark.parametrize("kind, triangle", [
    ("chain-gangs", gb.lah), ("updown", gb.lah),
    ("down", gb.stirling2), ("up", gb.stirling1),
])
def test_basis_count_is_the_triangle_entry(kind, triangle):
    for n in range(0, 41):
        for k in range(0, n + 1):
            assert cli._BASIS_COUNT[kind](n, k) == triangle(n, k), (n, k)


@pytest.mark.parametrize("n", [800, 1600])
def test_lahstirling_budget_needs_no_triangle_row(n, monkeypatch, capsys):
    def no_row(*args, **kwargs):
        raise AssertionError("a Lah triangle row was built for the count")

    monkeypatch.setattr(gb, "_triangle_row", no_row)
    code, text = invoke("verify", "lahstirling", "--n", str(n))
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: lahstirling check of ")
    assert err.endswith(" ordered partitions exceeds budget 200000\n")


@pytest.mark.parametrize("n, digits", [(1559, 4302), (100000, 456573)])
def test_lahstirling_names_a_long_count_by_its_digits(n, digits, capsys):
    # the count exceeds n! > 10^digits; summing it for n = 100000 and
    # writing it in full took 18 s
    assert 10 ** digits < math.factorial(n) < 10 ** (digits + 1)
    code, text = invoke("verify", "lahstirling", "--n", str(n))
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        f"error: lahstirling check of more than 10^{digits} ordered "
        "partitions exceeds budget 200000\n")


def test_lahstirling_writes_the_count_when_n_factorial_has_4300_digits(capsys):
    # 1558! has 4300 digits, so the count is summed and written in full
    code, text = invoke("verify", "lahstirling", "--n", "1558")
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    prefix, suffix = "error: lahstirling check of ", " ordered partitions"
    assert err.startswith(prefix) and suffix in err
    count = err[len(prefix):err.index(suffix)]
    assert count.isdigit() and len(count) > len(str(math.factorial(1558)))


@pytest.mark.parametrize("kind", sorted(cli._BASIS_ENUM))
@pytest.mark.parametrize("n, degree, digits", [(10000, 5000, 18494),
                                               (5000, 2500, 8494)])
def test_basis_names_a_long_count_by_its_digits(kind, n, degree, digits,
                                                monkeypatch, capsys):
    # the count exceeds k^(n-k) > 10^digits, k = n - degree; counting
    # down --n 10000 --degree 5000 near the diagonal ran over 60 s
    def no_count(n, k):
        raise AssertionError("the count was computed")

    k = n - degree
    assert 10 ** digits < k ** (n - k) < 10 ** (digits + 1)
    monkeypatch.setitem(cli._BASIS_COUNT, kind, no_count)
    argv = ["basis", kind, "--n", str(n), "--degree", str(degree)]
    assert invoke(*argv) == (2, "")
    assert capsys.readouterr().err == (
        f"error: {kind} basis of more than 10^{digits} monomials exceeds "
        "budget 200000\n")


@pytest.mark.parametrize("what, n, count", [
    ("lahstirling", 7, sum(gb.lah(n, k) for n in range(8) for k in range(n + 1))),
    ("coproduct", 4, 14 * 24),
])
def test_verify_budget_admits_its_count(what, n, count):
    argv = ["verify", what, "--n", str(n)]
    assert invoke(*argv, "--budget", str(count))[0] == 0
    assert invoke(*argv, "--budget", str(count - 1))[0] == 2


@pytest.mark.parametrize("command, triangles", [("lah", 1), ("stirling", 2)])
def test_triangle_budget_is_checked_before_any_row(command, triangles,
                                                   monkeypatch, capsys):
    def no_row(kind, n):
        raise AssertionError("a row was built before the budget check")

    monkeypatch.setattr(gb, "_triangle_row", no_row)
    count = triangles * 1201 * 1202 // 2
    code, text = invoke(command, "--n", "1200")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (f"error: {command} table of {count} "
                                       "triangle entries exceeds budget 200000\n")


@pytest.mark.parametrize("command, triangles", [("lah", 1), ("stirling", 2)])
def test_triangle_budget_admits_its_count(command, triangles):
    for n in (0, 5, 40):
        count = triangles * (n + 1) * (n + 2) // 2
        argv = [command, "--n", str(n), "--format", "csv"]
        assert invoke(*argv, "--budget", str(count))[0] == 0
        assert invoke(*argv, "--budget", str(count - 1))[0] == 2


@pytest.mark.parametrize("command", ["lah", "stirling"])
def test_triangle_tables_run_under_the_default_budget(command):
    code, text = invoke(command, "--n", "400", "--format", "csv")
    assert code == 0 and len(text.splitlines()) == 402


def _no_build(*args, **kwargs):
    raise AssertionError("relators built before the budget check")


@pytest.mark.parametrize("argv, dim, budget", [
    (["verify", "euler", "--family", "pvb", "--n", "25", "--max-degree", "13"],
     600 ** 2, 200000),
    (["verify", "euler", "--family", "pvb", "--n", "4", "--max-degree", "4",
      "--budget", "10000"], 12 ** 4, 10000),
    (["hilbert", "--family", "pvb", "--n", "25", "--max-degree", "13"],
     600 ** 2, 200000),
    (["verify", "degree2", "--family", "pfb", "--n", "20", "--budget", "10"],
     190 ** 2, 10),
    (["verify", "pvh", "--family", "pfb", "--n", "20", "--budget", "10"],
     190 ** 2, 10),
    (["verify", "pvh", "--family", "pvb", "--n", "22"], 462 ** 2, 200000),
    (["verify", "psi", "--n", "22"], 462 ** 2, 200000),
    # budgeted on the sectors of [8], pvb_8's V^(x)4, not on pvb_21's
    (["hilbert", "--family", "pvb", "--n", "21", "--max-degree", "4"],
     56 ** 4, 200000),
])
def test_budget_is_checked_before_relators_are_built(argv, dim, budget,
                                                     monkeypatch, capsys):
    monkeypatch.setattr(cli.fam, "presentation", _no_build)
    monkeypatch.setattr(cli.fam, "quadratic_relators", _no_build)
    monkeypatch.setattr(pvh_checker, "quadratic_relators", _no_build)
    code, text = invoke(*argv)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        f"error: tensor space of dimension {dim} exceeds budget {budget}\n"


@pytest.mark.parametrize("family, n, rows", [
    ("pvb", 9, ["72,72", "3168,2016", "111168,28224"]),
    ("pfb", 12, ["66,66", "2651,1705", "84711,22275"]),
    ("pb", 12, ["66,66", "2431,1925", "66066,32670"]),
])
def test_sectors_are_budgeted_not_the_whole_family(family, n, rows):
    # V^(x)3 of the whole family exceeds the default budget (72^3, 66^3),
    # that of its sectors on [6] does not; the dims are those printed when
    # the budget admitted the whole family
    want = "degree,dim_algebra,dim_dual\n0,1,1\n" + "".join(
        f"{m},{row}\n" for m, row in enumerate(rows, 1))
    argv = ["hilbert", "--family", family, "--n", str(n), "--format", "csv"]
    assert invoke(*argv) == (0, want)
    assert invoke(*argv, "--budget", str(10 ** 10)) == (0, want)


def test_large_n_budget_errors_do_not_list_the_generators(tmp_path,
                                                          monkeypatch, capsys):
    def no_listing(self):
        raise AssertionError("generators listed before the budget check")

    monkeypatch.setattr(pvb_family.AlgebraFamily, "generators",
                        property(no_listing))
    path = tmp_path / "pvb100000.json"
    path.write_text(json.dumps({"family": "pvb", "n": 100000}))
    for argv in (["hilbert", "--n", "100000", "--max-degree", "50000"],
                 ["verify", "pvh", "--n", "100000"],
                 ["verify", "degree2", "--presentation", str(path)]):
        assert invoke(*argv) == (2, "")
        assert capsys.readouterr().err == (
            "error: tensor space of dimension 99998000010000000000 "
            "exceeds budget 200000\n")


def test_presentation_file_family_is_budgeted(tmp_path, monkeypatch, capsys):
    path = tmp_path / "pvb25.json"
    path.write_text(json.dumps({"family": "pvb", "n": 25}))
    monkeypatch.setattr(cli.fam, "presentation", _no_build)
    code, text = invoke("verify", "degree2", "--presentation", str(path))
    assert code == 2 and text == ""
    assert "tensor space of dimension 360000 exceeds budget 200000" \
        in capsys.readouterr().err


@pytest.mark.parametrize("max_degree", ["1", "2"])
def test_presentation_file_is_budgeted_before_the_dual(max_degree, tmp_path,
                                                       monkeypatch, capsys):
    # the 506 generators of pvb_23 and no relations: V (x) V has 256,036 words
    path = tmp_path / "free506.json"
    path.write_text(json.dumps({"n": 23, "relations": [], "generators": [
        g.token() for g in pvb_family.AlgebraFamily.parse("pvb", 23).generators]}))
    monkeypatch.setattr(qal.quad_algebra, "annihilator", _no_build)
    code, text = invoke("verify", "euler", "--presentation", str(path),
                        "--max-degree", max_degree)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        "error: tensor space of dimension 256036 exceeds budget 200000\n"


@pytest.mark.parametrize("what, family, dim", [
    ("degree2", "pvb", 6 ** 2), ("degree2", "pb", 3 ** 2),
    ("pvh", "pfb", 3 ** 2), ("psi", None, 6 ** 2),
    ("euler", "pfb", 3 ** 3)])
def test_degree2_budget_admits_its_dimension(what, family, dim):
    argv = ["verify", what, "--n", "3"] + (["--family", family] if family
                                           else [])
    assert invoke(*argv, "--budget", str(dim))[0] == 0
    assert invoke(*argv, "--budget", str(dim - 1))[0] == 2


def test_closed_pipe_exits_without_traceback():
    src = os.path.dirname(os.path.dirname(qal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # about 140 KB of JSON: more than a pipe holds, so qal is still writing
    # when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "qal.cli", "basis", "updown", "--n", "9",
         "--degree", "2", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(300)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert head.startswith(b"{")
    assert err == b"", err.decode()  # no traceback, no shutdown warning


_WORDS = ["1>2,2>3", "1>2,2>3,3>1", "2>1,1>2", "1>2>3", "a>b", "1>1", "",
          "9>1", "3>1,1>4"]


_rarely_false = st.sampled_from([True] * 9 + [False])


@st.composite
def cli_argv(draw):
    """A random command line over every subcommand and verify suite, with
    small values; mostly the options the command reads."""
    command = draw(st.sampled_from(
        ["lah", "stirling", "basis", "reduce", "verify", "hilbert"]))
    argv = [command]
    options = ["--n", "--budget"]
    formats = ["table", "json", "csv"]
    if command == "basis":
        argv += [draw(st.sampled_from(sorted(cli._BASIS_ENUM))),
                 "--degree", str(draw(st.integers(-1, 8)))]
        if draw(st.booleans()):
            argv.append("--emit-dot")
    elif command == "reduce":
        argv += [draw(st.sampled_from(["prune", "lex"])),
                 draw(st.sampled_from(_WORDS))]
        options = ["--n"]
    elif command == "verify":
        what = draw(st.sampled_from(sorted(cli._VERIFIERS)))
        _, options, budget = cli._VERIFIERS[what]
        options = [o for o in options if o != "--presentation"]
        options += ["--budget"] if budget else []
        argv.append(what)
        formats = ["table", "json"]
    elif command == "hilbert":
        options += ["--family", "--max-degree"]
    values = {"--n": st.integers(-3, 7), "--budget": st.integers(0, 2000),
              "--family": st.sampled_from(["pvb", "pfb", "pb"]),
              "--max-degree": st.integers(-2, 4),
              "--trials": st.integers(1, 3), "--seed": st.integers(0, 3)}
    for flag in options:
        if flag != "--n" or draw(_rarely_false):  # --n is mostly required
            argv += [flag, str(draw(values[flag]))]
    argv += ["--format", draw(st.sampled_from(formats))]
    if not draw(_rarely_false):
        argv.append("--bogus")
    return argv


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cli_argv())
def test_cli_exit_codes_property(argv):
    try:
        code = run(argv, out=io.StringIO())
    except SystemExit as exc:  # argparse rejects the command line
        assert exc.code == 2
    else:
        assert code in (0, 1, 2)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int digit limit")
@pytest.mark.parametrize("what, values", [
    ("lah", {"lah": gb.lah}),
    ("stirling", {"stirling1": gb.stirling1, "stirling2": gb.stirling2})])
def test_rows_are_written_past_the_int_digit_limit(what, values):
    # 400! has 869 digits, over the smallest limit Python allows
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, text = invoke(what, "--n", "400", "--format", "json")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    rows = json.loads(text)["rows"]
    assert [r["k"] for r in rows] == list(range(401))
    for key, f in values.items():
        assert [r[key] for r in rows] == [f(400, k) for k in range(401)]


PINNED = os.path.join(os.path.dirname(__file__), "cli_output.sha256")


def test_cli_output_is_pinned(capsys):
    """Every command line of the pinned matrix prints the recorded stdout,
    stderr and exit code: verify pvh, degree2, euler, psi, confluence,
    coproduct and lahstirling, hilbert, every basis kind, reduce on the
    overlap shapes, lah, stirling and budget errors."""
    changed = []
    with open(PINNED) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    for line in lines:
        digest, command = line.split("  ", 1)
        code, text = invoke(*command.split())
        err = capsys.readouterr().err
        got = hashlib.sha256(f"{code}\0{text}\0{err}".encode()).hexdigest()
        if got != digest:
            changed.append(command)
    assert len(lines) > 200
    assert changed == []


def test_output_deterministic():
    a = invoke("verify", "confluence", "--n", "4", "--trials", "25",
               "--seed", "5", "--format", "json")
    b = invoke("verify", "confluence", "--n", "4", "--trials", "25",
               "--seed", "5", "--format", "json")
    assert a == b
    a = invoke("hilbert", "--family", "pvb", "--n", "3", "--max-degree", "3",
               "--format", "json")
    b = invoke("hilbert", "--family", "pvb", "--n", "3", "--max-degree", "3",
               "--format", "json")
    assert a == b


def test_hilbert_table():
    code, text = invoke("hilbert", "--family", "pvb", "--n", "3",
                        "--max-degree", "2")
    assert code == 0
    assert any(line.split() == ["2", "30", "6"] for line in text.splitlines())


#: sha256 of `verify pvh` stdout, recorded from the Fraction-coefficient
#: block certificate before coefficients were kept as ints
PVH_STDOUT_SHA256 = {
    ("pvb", 2, "table"): "e31969541366df3e5868f6b4fbe50178cfa5f1b47982331182e127777695ff02",
    ("pvb", 2, "json"): "f489189ddbcb9a4037c23728ede759a0aa3298696267b27cfdad2b309d30a2e7",
    ("pvb", 3, "table"): "3ce58d2cd07ed1ce3f2e40f991df6e1513a1b61ea396b5296b240a757745930b",
    ("pvb", 3, "json"): "1624e70c93193978881a8d5befe0fa98636779bc25948eaa263caefad7de069d",
    ("pvb", 4, "table"): "cc14b478f98cb421b9c916beb9ac14ebf01b366eec998b1f4c04cbdb9966f233",
    ("pvb", 4, "json"): "37ff7ca97ebf853a722fe9c9c6e3ec75dbd7e912e9c1987cd0ff758aef156f54",
    ("pvb", 5, "table"): "78148b5fde7dfef59d0702604f484d97ff7336c4a78a5f9d9e30dd53f4fef534",
    ("pvb", 5, "json"): "23c2443a7060798ad6dbdc14defbc62889e7f3755d5dbe4e770b5dabfcd6bb4c",
    ("pvb", 6, "table"): "74839f6762e3fc673507824ecccaf8bc7c3c5c2a413d34a5b5e12c02b3cbe9aa",
    ("pvb", 6, "json"): "d1dc44900fb77822e9f147e5fa29d258bdd1915f2ce204b5a47a8da1a45d24be",
    ("pvb", 7, "table"): "d857c39276166ab305b100a7997c7235b839935250363053bd4457c07ac814d2",
    ("pvb", 7, "json"): "7f7a5b45ae680a38c4754a320610e65a5e8170140968b1bfb3751e7f0d657092",
    ("pfb", 2, "table"): "fc618f8f1e76bb082ceb2a616c25c8790a565cfb2e0e2074bee33955e23d2663",
    ("pfb", 2, "json"): "f1fd7e10735ce58ed3a56296f7026a57f749776d4ffc1ea72601f6d54a552819",
    ("pfb", 3, "table"): "cc57eecc2cbfd3822e0bce871612256a2dc8f9bed4fb2a8ef99cc147cec5d810",
    ("pfb", 3, "json"): "26ddeace55856fafa796ebaaee7787e8407f406b7b3fd7bca8a163314ebe3f62",
    ("pfb", 4, "table"): "ceeed190111fa1270e6c2df72900f08fbef7520de94702c6802be444db8f93f8",
    ("pfb", 4, "json"): "7073733f480250901f575680096d6915580879025113bea5589bfb71b94c3422",
    ("pfb", 5, "table"): "7baaf03047e94514951b9501530f6fd246682dea57d515839316f61175a1c63e",
    ("pfb", 5, "json"): "2235b84e993df3580c32447210bbac12d9a6dc002ee44260dc67bcde9de4e766",
    ("pfb", 6, "table"): "0ed83be3c20bc2bf685d38433d7a39bd3cbc83113b77499bd54b98c5ddaaf14d",
    ("pfb", 6, "json"): "62cbe52e92af6914c53d662c0f99c7dba7c46d9168a581593e105b4f901fbc65",
    ("pfb", 7, "table"): "ee2ac93a5787b996af56564a80e07284d6ca74622e7fc9f097e0417eef4b61b4",
    ("pfb", 7, "json"): "9ada63236cff3d3960994e5958ebab42877a31bf89bf2f58671876d0498fe569",
}


@pytest.mark.parametrize("family, n, fmt", sorted(PVH_STDOUT_SHA256))
def test_verify_pvh_output_is_pinned(family, n, fmt):
    code, text = invoke("verify", "pvh", "--family", family, "--n", str(n),
                        "--format", fmt)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PVH_STDOUT_SHA256[family, n, fmt]


@pytest.mark.parametrize("argv", [
    ["verify", "pvh", "--n", "1" * 1100],
    ["verify", "coproduct", "--n", "1" * 1100],
    ["hilbert", "--n", "1" * 1100, "--max-degree", "1" * 1100],
    ["basis", "down", "--n", "2500", "--degree", "1250"],
])
def test_budget_counts_past_the_digit_limit_are_written_in_full(argv, capsys):
    # each count has more than the 4300 digits Python writes by default
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert invoke(*argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(" exceeds budget 200000\n")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv, counts", [
    (["verify", "pvh", "--n", "1" + "0" * 1000, "--budget", "1" + "0" * 4290],
     lambda doc: doc["degree3"].values()),
    (["verify", "euler", "--family", "pvb", "--n", "1" * 1100],
     lambda doc: doc["payload"]["primal_dims"]),
])
def test_verify_writes_counts_past_the_digit_limit(argv, counts, fmt):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, text = invoke(*argv, "--format", fmt)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    assert code == 0 and text.startswith("[PASS]" if fmt == "table" else "{")
    if fmt == "json":
        # the whole document, read without converting its integers
        doc = json.loads(text, parse_int=str)
        assert max(len(str(c)) for c in counts(doc)) > 4300


def test_a_presentation_is_ranked_once(tmp_path, monkeypatch):
    eliminations = []

    class Counted(_Echelon):
        def __init__(self, rows=()):
            eliminations.append(1)
            super().__init__(rows)

    monkeypatch.setattr(qal.exact_core, "_Echelon", Counted)
    shorthand = tmp_path / "pvb3.json"
    shorthand.write_text(json.dumps({"family": "pvb", "n": 3}))
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps(
        pvb_family.presentation(pvb_family.AlgebraFamily.parse("pvb", 3))
        .to_json()))
    for path in (shorthand, explicit):
        for what in ("degree2", "pvh"):
            eliminations.clear()
            assert invoke("verify", what, "--presentation", str(path))[0] == 0
            assert len(eliminations) == 1


@pytest.mark.parametrize("family", ["pvb", "pfb", "pb"])
def test_a_shorthand_file_prints_what_its_flags_print(family, tmp_path):
    for n in (2, 3, 4, 7):
        path = tmp_path / f"{family}{n}.json"
        path.write_text(json.dumps({"family": family, "n": n}))
        for argv in (["verify", "degree2", "--format", "json"],
                     ["verify", "euler", "--max-degree", "3"]):
            assert invoke(*argv, "--presentation", str(path)) == \
                invoke(*argv, "--family", family, "--n", str(n))


def test_a_shorthand_file_builds_no_family_for_degree2(tmp_path, monkeypatch):
    built = []
    init = qal.quad_algebra.QuadraticPresentation.__init__

    def spy(self, n, generators, relations):
        built.append(n)
        init(self, n, generators, relations)

    monkeypatch.setattr(qal.quad_algebra.QuadraticPresentation, "__init__",
                        spy)
    monkeypatch.setattr(pvb_family, "_block_copies", _no_build)
    path = tmp_path / "pvb30.json"
    path.write_text(json.dumps({"family": "pvb", "n": 30}))
    for what in ("pvh", "degree2"):
        assert invoke("verify", what, "--presentation", str(path),
                      "--budget", "1000000") == \
            (0, "[PASS] pvh-degree2 n=30 dim_v=870\n")
    assert max(built, default=0) <= 4


def test_family_graded_dims_build_nothing_past_2d_strands(tmp_path,
                                                          monkeypatch):
    # degree 3 reaches 6 strands: building pvb_20 and its dual whole, and
    # checking its split at run time, took over 10 s
    built = []
    init = qal.quad_algebra.QuadraticPresentation.__init__
    copies = pvb_family._block_copies

    def spy_init(self, n, generators, relations):
        built.append(n)
        init(self, n, generators, relations)

    def spy_copies(n, *args):
        built.append(n)
        return copies(n, *args)

    monkeypatch.setattr(qal.quad_algebra.QuadraticPresentation, "__init__",
                        spy_init)
    monkeypatch.setattr(pvb_family, "_block_copies", spy_copies)
    path = tmp_path / "pvb20.json"
    path.write_text(json.dumps({"family": "pvb", "n": 20}))
    budget = ["--max-degree", "3", "--budget", "100000000"]
    code, text = invoke("hilbert", "--family", "pvb", "--n", "20", *budget)
    assert code == 0
    assert text.splitlines()[-1].split() == ["3", "12115160", "6627960"]
    code, text = invoke("verify", "euler", "--presentation", str(path),
                        *budget, "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["params"] == {"n": 20, "dim_v": 380, "max_degree": 3}
    assert doc["payload"]["dual_dims"] == [1, 380, 64980, 6627960]
    assert built and max(built) == 6


def test_failing_pvh_names_its_first_failures(monkeypatch):
    # every y-commutation syzygy of the block of [5] replaced by a bare
    # relator term: 120 candidates fail, and the first five are named
    def bare(x, st, n=None):
        sym = x[0] if type(x) is tuple else x
        return pvh_checker.SyzygyElement(n, {((Generator(*st),), sym, ()): 1})

    monkeypatch.setattr(pvh_checker, "commutation_syzygy", bare)
    code, text = invoke("verify", "pvh", "--n", "5", "--format", "json")
    doc = json.loads(text)
    validate(doc, SCHEMA)
    assert code == 1 and doc["verdict"] == "FAIL"
    first = [f"comm5.{t}" for t in range(5)]
    assert doc["failures"]["delta_k_nonzero"] == {"count": 120, "first": first}
    code, text = invoke("verify", "pvh", "--n", "5")
    lines = text.splitlines()
    assert code == 1 and lines[0] == "[FAIL] pvh family=pvb n=5"
    assert f"  delta_k_nonzero (120): {', '.join(first)}, ..." in lines


def test_failing_coproduct_keeps_its_one_line(monkeypatch):
    # its actual["failures"] is a count, which names no failure
    monkeypatch.setattr(gb, "prune_normal_form", lambda element: {})
    code, text = invoke("verify", "coproduct", "--n", "4")
    assert (code, text) == (1, "[FAIL] coproduct-table n=4 formulas=14\n")
    code, text = invoke("verify", "coproduct", "--n", "4", "--format", "json")
    assert code == 1 and json.loads(text)["actual"] == {"failures": 14 * 24}


@pytest.mark.parametrize("kind, digits", [("chain-gangs", 456568),
                                          ("updown", 456568), ("up", 456568)])
def test_basis_refuses_degree_n_minus_1_by_a_factorial_bound(kind, digits,
                                                            monkeypatch, capsys):
    # T(n, 1) >= (n-1)!, while k^(n-k) = 1; counting it first took 7.5 s
    def no_count(n, k):
        raise AssertionError("the count was computed")

    assert 10 ** digits < math.factorial(99999) < 10 ** (digits + 1)
    monkeypatch.setitem(cli._BASIS_COUNT, kind, no_count)
    argv = ["basis", kind, "--n", "100000", "--degree", "99999"]
    assert invoke(*argv) == (2, "")
    assert capsys.readouterr().err == (
        f"error: {kind} basis of more than 10^{digits} monomials exceeds "
        "budget 200000\n")
