import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from dunklstar.cli import main
from dunklstar.formatting import format_element
from dunklstar.parser import GammaPlacementError, ParseError, parse
from dunklstar.poly import MultiPoly
from dunklstar.randgen import random_crossed
from dunklstar.rational import GaussianRational
from dunklstar.star import CrossedElement


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing ------------------------------------------------------------------


def test_parse_examples():
    got = parse("p^2*x^2")
    assert got.plain == MultiPoly.var("p") ** 2 * MultiPoly.var("x") ** 2
    assert got.gamma.is_zero()

    got = parse("(1 + gamma)")
    assert got.plain == MultiPoly.const(1)
    assert got.gamma == MultiPoly.const(1)


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse("x^")
    assert err.value.offset == 3
    assert "natural number" in str(err.value)


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2 x")


def test_parse_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse("2/0")


def test_parse_unknown_name_lists_expected():
    with pytest.raises(ParseError) as err:
        parse("x * q")
    assert "gamma" in str(err.value)


def test_gamma_placement_errors():
    with pytest.raises(GammaPlacementError):
        parse("gamma^2")
    with pytest.raises(GammaPlacementError):
        parse("gamma*gamma")
    with pytest.raises(GammaPlacementError):
        parse("(1+gamma)*(1-gamma)")
    # a single gamma factor anywhere in the product is fine
    got = parse("2*gamma*x")
    assert got.gamma == MultiPoly.var("x").scale(2)


def test_parse_format_round_trip_seeded():
    rng = random.Random(424242)
    for _ in range(100):
        elem = random_crossed(rng, 3)
        text = format_element(elem)
        assert parse(text) == elem, text


_parts = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_exponents = st.fixed_dictionaries({v: st.integers(0, 4) for v in ("x", "p", "h1", "h2")})
_polys = st.lists(st.tuples(_exponents, st.builds(GaussianRational, _parts, _parts)),
                  max_size=6).map(lambda terms: sum(
                      (MultiPoly.monomial(e, c) for e, c in terms), MultiPoly.zero()))


@settings(max_examples=150, deadline=None)
@given(st.builds(CrossedElement, _polys, _polys))
def test_parse_format_round_trip_property(elem):
    assert parse(format_element(elem)) == elem


def test_round_trip_with_rational_and_complex_coefficients():
    from fractions import Fraction

    elem = CrossedElement(
        MultiPoly.monomial({"x": 1}, GaussianRational(Fraction(1, 2), Fraction(-3, 4)))
        + MultiPoly.const(GaussianRational(0, 1)),
        MultiPoly.monomial({"p": 2}, GaussianRational(Fraction(-7, 3))))
    assert parse(format_element(elem)) == elem


def test_format_zero():
    assert format_element(CrossedElement.zero()) == "0"
    assert parse(format_element(CrossedElement.zero())) == CrossedElement.zero()


def test_json_schema_example():
    elem = CrossedElement(MultiPoly.monomial({"h1": 1}, GaussianRational(0, -1)),
                          MultiPoly.zero())
    got = json.loads(format_element(elem, "json"))
    assert got == {"plain": [[0, 0, 1, 0, [0, 1], [-1, 1]]], "gamma": []}


def test_json_byte_stable():
    rng = random.Random(99)
    for _ in range(25):
        elem = random_crossed(rng, 3)
        one = format_element(elem, "json")
        two = format_element(parse(format_element(elem)), "json")
        assert one == two


# -- subcommands ---------------------------------------------------------------


def test_star_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["star", "--a", "p^2", "--b", "x^2"])
    assert code == 0
    assert out.strip() == "x^2*p^2 - 4*i*x*p*h1 - 2*h1^2 - 4*h1^2*h2*gamma"


def test_star_subcommand_latex(capsys):
    code, out, _ = run_cli(capsys, ["star", "--a", "p", "--b", "x", "--format", "latex"])
    assert code == 0
    assert "\\hbar_1" in out and "\\gamma" in out


def test_cterm_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["cterm", "--j", "1", "--l", "1",
                                    "--family", "1", "--a", "p", "--b", "x"])
    assert (code, out.strip()) == (0, "-2*i")


def test_compositions_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["compositions", "--m", "1", "--n", "1"])
    assert code == 0
    assert out == "(0,1)\n(1,0)\n"


def test_cnu_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["cnu", "--nu", "2", "--s", "3"])
    assert (code, out.strip()) == (0, "10")  # binom(2+3, 3)


def test_verify_assoc_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["verify-assoc", "--trials", "10",
                                    "--degree", "3", "--seed", "7"])
    assert code == 0
    assert "10 trials" in out and "seed 7" in out


def test_verify_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["verify-oracle", "--max-degree", "1"])
    assert code == 0
    assert "16 monomial pairs" in out


def test_weights_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["weights", "--expr", "x^2*p"])
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run_cli(capsys, ["weights", "--expr", "x + p"])
    assert (code, out.strip()) == (0, "mixed")


def _jets_file(tmp_path):
    from dunklstar.jets import jets_of
    from fractions import Fraction

    f = MultiPoly.var("x") ** 3
    jd = jets_of(f, 1, 0, 1, 1)
    rows = []
    for (idx, i, j), v in sorted(jd.values.items()):
        re = Fraction(v.re)
        im = Fraction(v.im)
        rows.append([idx, i, j, [re.numerator, re.denominator],
                     [im.numerator, im.denominator]])
    path = tmp_path / "jets.json"
    path.write_text(json.dumps({"point": [1, 1, 0, 1], "m": 1, "n": 1,
                                "values": rows}))
    return path


def test_jet_match_subcommand(capsys, tmp_path):
    path = _jets_file(tmp_path)
    code, out, _ = run_cli(capsys, ["jet-match", "--point", "1,0",
                                    "--m", "1", "--n", "1", "--jets", str(path)])
    assert (code, out.strip()) == (0, "x^3")


def test_jet_match_flag_mismatch_is_usage_error(capsys, tmp_path):
    path = _jets_file(tmp_path)
    code, _, err = run_cli(capsys, ["jet-match", "--point", "2,0", "--jets", str(path)])
    assert code == 1 and "disagrees" in err


@pytest.mark.parametrize("field, value", [("point", [1, 0, 0, 1]),  # zero denominator
                                          ("m", -1)])
def test_jet_match_bad_file_is_usage_error(capsys, tmp_path, field, value):
    path = _jets_file(tmp_path)
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, ["jet-match", "--jets", str(path)])
    assert (code, out) == (1, "") and err.startswith("error: ")


# -- exit codes -----------------------------------------------------------------


def test_exit_code_usage(capsys):
    assert run_cli(capsys, ["star", "--a", "p"])[0] == 1
    assert run_cli(capsys, ["cnu", "--nu", "1,0,1", "--s", "0"])[0] == 1
    assert run_cli(capsys, ["nonsense"])[0] == 1
    assert run_cli(capsys, ["verify-assoc", "--degree", "-1"])[0] == 1
    assert run_cli(capsys, ["verify-assoc", "--trials", "-3"])[0] == 1


def test_exit_code_parse(capsys):
    code, _, err = run_cli(capsys, ["star", "--a", "p^", "--b", "x"])
    assert code == 2 and "offset 3" in err
    code, _, err = run_cli(capsys, ["star", "--a", "gamma*gamma", "--b", "x"])
    assert code == 2
    deep = "(" * 3000 + "x" + ")" * 3000
    code, _, err = run_cli(capsys, ["star", "--a", deep, "--b", "x"])
    assert code == 2 and "offset 101" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, ["star", "--a", "(" * 100 + "x" + ")" * 100, "--b", "x"])
    assert code == 0 and out.strip() == "x^2"


def test_exit_code_verification(capsys, monkeypatch):
    """A product regression must surface as exit 3 with a replayable report."""
    import dunklstar.cli as cli_mod

    real_star = cli_mod.star
    calls = []

    def broken_star(A, B, max_j=None):
        calls.append(1)
        out = real_star(A, B, max_j)
        if len(calls) == 3:  # corrupt one intermediate product
            return CrossedElement(out.plain + MultiPoly.const(1), out.gamma)
        return out

    monkeypatch.setattr(cli_mod, "star", broken_star)
    code, out, _ = run_cli(capsys, ["verify-assoc", "--trials", "5",
                                    "--degree", "2", "--seed", "3"])
    assert code == 3
    assert "FAILED" in out and "seed 3" in out


def _jets_variant(tmp_path, name, edit):
    """A copy of the valid jets file with ``edit`` applied to its data."""
    data = json.loads(_jets_file(tmp_path).read_text())
    edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _text_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _verify_mismatch(tmp_path, monkeypatch):
    """verify-assoc with the third star product corrupted."""
    import dunklstar.cli as cli_mod

    real_star = cli_mod.star
    calls = []

    def broken_star(A, B, max_j=None):
        calls.append(1)
        out = real_star(A, B, max_j)
        if len(calls) == 3:
            return CrossedElement(out.plain + MultiPoly.const(1), out.gamma)
        return out

    monkeypatch.setattr(cli_mod, "star", broken_star)
    return ["verify-assoc", "--trials", "5", "--degree", "2", "--seed", "3"]


# each case: (argv, or a function of tmp_path and monkeypatch that sets up
# and returns argv; expected exit code)
ERROR_PATHS = {
    "no-command": ([], 1),
    "unknown-command": (["nonsense"], 1),
    "missing-flag": (["star", "--a", "p"], 1),
    "unknown-flag": (["star", "--a", "p", "--b", "x", "--bogus", "1"], 1),
    "bad-format": (["star", "--a", "p", "--b", "x", "--format", "yaml"], 1),
    "non-integer-flag": (["cterm", "--j", "one", "--l", "0", "--family", "0",
                          "--a", "p", "--b", "x"], 1),
    "bad-family": (["cterm", "--j", "1", "--l", "0", "--family", "2",
                    "--a", "p", "--b", "x"], 1),
    "negative-degree": (["verify-assoc", "--degree", "-1"], 1),
    "negative-trials": (["verify-assoc", "--trials", "-3"], 1),
    "negative-max-degree": (["verify-oracle", "--max-degree", "-1"], 1),
    "negative-j": (["cterm", "--j", "-1", "--l", "0", "--family", "0",
                    "--a", "p", "--b", "x"], 1),
    "negative-n": (["compositions", "--m", "1", "--n", "-1"], 1),
    "negative-s": (["cnu", "--nu", "1", "--s", "-1"], 1),
    "bad-tuple": (["cnu", "--nu", "1,a", "--s", "0"], 1),
    "bad-composition": (["cnu", "--nu", "1,0,1", "--s", "0"], 1),
    "gamma-in-cterm": (["cterm", "--j", "0", "--l", "0", "--family", "0",
                        "--a", "gamma", "--b", "x"], 1),
    "h1-in-cterm": (["cterm", "--j", "0", "--l", "0", "--family", "0",
                     "--a", "h1", "--b", "x"], 1),
    "gamma-in-weights": (["weights", "--expr", "x*gamma"], 1),
    "zero-weights": (["weights", "--expr", "0"], 1),
    "parse-dangling-power": (["star", "--a", "p^", "--b", "x"], 2),
    "parse-double-gamma": (["star", "--a", "gamma*gamma", "--b", "x"], 2),
    "parse-zero-denominator": (["star", "--a", "2/0", "--b", "x"], 2),
    "parse-unknown-name": (["star", "--a", "x", "--b", "q"], 2),
    "parse-unbalanced": (["weights", "--expr", "(x+p"], 2),
    "parse-in-cterm": (["cterm", "--j", "0", "--l", "0", "--family", "0",
                        "--a", "x^", "--b", "x"], 2),
    "nesting-101": (["star", "--a", "(" * 101 + "x" + ")" * 101, "--b", "x"], 2),
    "jets-absent": (lambda tmp, mp: ["jet-match", "--jets", str(tmp / "absent.json")], 1),
    "jets-not-json": (lambda tmp, mp: ["jet-match", "--jets",
                                       _text_file(tmp, "bad.json", "{not json")], 1),
    "jets-missing-key": (lambda tmp, mp: ["jet-match", "--jets", _jets_variant(
        tmp, "nokey.json", lambda d: d.pop("values"))], 1),
    "jets-zero-denominator": (lambda tmp, mp: ["jet-match", "--jets", _jets_variant(
        tmp, "zero.json", lambda d: d.update(point=[1, 0, 0, 1]))], 1),
    "jets-negative-order": (lambda tmp, mp: ["jet-match", "--jets", _jets_variant(
        tmp, "neg.json", lambda d: d.update(m=-1))], 1),
    "jets-bad-row": (lambda tmp, mp: ["jet-match", "--jets", _jets_variant(
        tmp, "row.json", lambda d: d["values"].append([0, 0]))], 1),
    "jets-point-mismatch": (lambda tmp, mp: ["jet-match", "--point", "2,0", "--jets",
                                             str(_jets_file(tmp))], 1),
    "jets-bad-point": (lambda tmp, mp: ["jet-match", "--point", "a,b", "--jets",
                                        str(_jets_file(tmp))], 1),
    "verify-mismatch": (_verify_mismatch, 3),
}


@pytest.mark.parametrize("case", sorted(ERROR_PATHS))
def test_every_error_path_exits_cleanly(capsys, tmp_path, monkeypatch, case):
    argv, want = ERROR_PATHS[case]
    if callable(argv):
        argv = argv(tmp_path, monkeypatch)
    code, out, err = run_cli(capsys, argv)
    assert code == want
    assert "Traceback" not in out and "Traceback" not in err
    if want < 3:
        assert err.startswith("error: ")
