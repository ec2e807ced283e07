import inspect
import json
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from natprod import analyze, cli, matrix_to_json, parse_literal, parse_poly, poly_to_json
from natprod.cli import run_command
from natprod.verify import run_laws


BIG = "9" * 5000  # past Python's default int/str limit of 4300 digits
HALF = "9" * 2200  # fits, but the product of two does not


def run(*argv):
    return run_command(list(argv))


def test_nprod_example():
    report = run("eval", "nprod", "[6 1 2;0 3 4;2 1 0]", "[3 0 1;2 1 0;0 1 2]")
    assert report.exit_code == 0
    assert report.payload == "[18 0 2;0 3 0;0 1 0]"


def test_shape_mismatch_exits_2():
    report = run("eval", "nprod", "[1 2]", "[1 2 3]")
    assert report.exit_code == 2
    assert "ShapeMismatch" in report.diagnostics


def test_partition_mismatch_exits_2():
    report = run("eval", "add", "[1 | 2 3]", "[1 2 | 3]")
    assert report.exit_code == 2
    assert "TypeMismatch" in report.diagnostics


def test_usage_error_exits_2():
    assert run("eval", "frobnicate", "[1]").exit_code == 2
    assert run("nonsense").exit_code == 2
    assert run("eval", "nprod", "[1]").exit_code == 2
    assert run("eval", "nprod", "[1]", "--unknown-flag", "x").exit_code == 2


def test_poly_diff_example():
    poly = (
        "[2 0 1 0 1 5] + [3 2 1 0 0 0] * x + [0 1 0 2 0 4] * x^2"
        " + [0 -2 -3 0 0 0] * x^3 + [8 0 7 0 1 0] * x^5"
    )
    report = run("poly", "diff", poly, "--domain", "Z")
    assert report.exit_code == 0
    assert report.payload == (
        "[3 2 1 0 0 0] + [0 2 0 4 0 8] * x + [0 -6 -9 0 0 0] * x^2"
        " + [40 0 35 0 5 0] * x^4"
    )


def test_poly_int_const_flag():
    report = run("poly", "int", "[2 4] * x", "--const", "[5 6]")
    assert report.exit_code == 0
    assert report.payload == "[5 6] + [1 2] * x^2"


def test_poly_solve_exit_codes():
    ok = run("poly", "solve", "[1 1 1] * x^3 + [-27 -8 -125]")
    assert ok.exit_code == 0
    assert ok.payload == "[3 2 5]"
    none = run("poly", "solve", "[1] * x^2 + [1] * x + [1]")
    assert none.exit_code == 1
    assert "no roots" in none.payload
    even = run("poly", "solve", "[1 1] * x^2 + [-4 -9]")
    assert even.exit_code == 0
    assert even.payload.splitlines()[:2] == ["[2 3]", "[-2 -3]"]


def test_poly_solve_two_term_quadratic_over_z():
    report = run("poly", "solve", "[1 1] * x^2 + [-4 -9]", "--domain", "Z")
    assert report.exit_code == 0
    assert report.payload.splitlines()[:2] == ["[2 3]", "[-2 -3]"]


def test_mixed_partition_poly_terms_exit_2():
    report = run("poly", "add", "[1 2] + [1 | 2] * x", "[1 | 1]")
    assert report.exit_code == 2
    assert report.payload == ""
    assert "TypeMismatch" in report.diagnostics


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "carrier", "masks:1x7", "--samples", "-3"),
        ("analyze", "carrier", "masks:1x2", "--samples", "0"),
        ("verify", "laws", "--samples", "-3"),
        ("verify", "laws", "--samples", "0"),
    ],
)
def test_samples_below_one_exit_2(argv):
    report = run(*argv)
    assert report.exit_code == 2
    assert report.payload == ""
    assert "ParseError" in report.diagnostics
    assert "--samples must be at least 1" in report.diagnostics


def test_errors_without_an_input_position_name_none(capsys):
    assert cli.main(["analyze", "carrier", "masks:1x2", "--samples", "0"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: ParseError: --samples must be at least 1, got 0\n")
    for argv, message in (
        (["analyze", "ideal", "masks:1x2"], "analyze ideal takes a carrier and a generator"),
        (["analyze", "carrier", "no-such-carrier.txt"], "no such file: no-such-carrier.txt"),
        (["verify", "nosuch"], "unknown suite 'nosuch'"),
        (["analyze", "carrier", "masks:1xq"], "bad carrier shape in 'masks:1xq'"),
    ):
        report = run(*argv)
        assert (report.exit_code, report.payload) == (2, "")
        assert report.diagnostics == f"error: ParseError: {message}", argv


@pytest.mark.parametrize(
    "argv,bound",
    [
        (("verify", "laws", "--samples", "100000000"), cli.MAX_SAMPLES),
        (("analyze", "carrier", "masks:3x3", "--samples", "1000000000"), cli.MAX_SAMPLES),
        (("analyze", "carrier", "masks:3x3", "--samples", str(cli.MAX_SAMPLES + 1)), cli.MAX_SAMPLES),
    ],
)
def test_samples_past_the_bound_exit_2_at_once(argv, bound):
    start = time.perf_counter()
    report = run(*argv)
    assert time.perf_counter() - start < 1.0
    assert report.exit_code == 2
    assert report.payload == ""
    assert f"TooLarge: --samples must be at most {bound}" in report.diagnostics


def test_samples_bounds_admit_the_defaults():
    for sampler in (run_laws, analyze):
        assert cli.MAX_SAMPLES >= inspect.signature(sampler).parameters["samples"].default
    bound = str(cli.MAX_SAMPLES)
    assert run("analyze", "carrier", "masks:1x2", "--samples", bound).exit_code == 0


def test_absent_seed_and_samples_keep_the_library_defaults():
    # all:2x2:Zn:3 has 81 members, past the exhaustive limit, so its
    # associativity is sampled
    bare = run("analyze", "carrier", "all:2x2:Zn:3")
    assert bare.exit_code == 0 and "sampled(400)" in bare.payload
    assert bare == run("analyze", "carrier", "all:2x2:Zn:3", "--seed", "0", "--samples", "400")


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "nprod", BIG, "[1]"),
        ("eval", "nprod", "[1 " + "x" * 5000 + "]", "[1 2]"),
        ("eval", "nprod", "[1]", "[1]", "--domain", "Zn:" + "x" * 5000),
        ("poly", "add", "[1] + " + "y" * 5000, "[1]"),
        ("analyze", "carrier", "masks:" + "9" * 5000 + "x1"),
    ],
    ids=["file", "entry", "domain", "poly_term", "carrier_spec"],
)
def test_long_tokens_are_shortened_in_errors(argv):
    report = run(*argv)
    assert report.exit_code == 2
    assert report.payload == ""
    assert len(report.diagnostics) < 200
    assert "(5" in report.diagnostics and "characters)" in report.diagnostics


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "laws", "--samples", BIG),
        ("analyze", "carrier", "masks:1x1", "--samples", "x" * 5000),
        ("analyze", "carrier", "masks:1x1", "--seed", "x" * 5000),
        ("eval", "n" * 5000, "[1]"),
        ("eval", "nprod", "[1]", "[1]", "--" + "f" * 5000),
    ],
    ids=["samples_digits", "samples_text", "seed", "subverb", "flag"],
)
def test_long_tokens_are_shortened_in_usage_errors(argv):
    report = run(*argv)
    assert report.exit_code == 2
    assert report.payload == ""
    # the usage text comes first; the token itself is cut to its prefix
    assert len(report.diagnostics) < 600
    assert "(5000 characters)" in report.diagnostics or "(5002 characters)" in report.diagnostics


@pytest.mark.parametrize("spec", ["masks:1x2:foo", "masks:1x2:add:add", "masks:1x2:nproduct"])
def test_masks_carrier_takes_one_add_suffix_only(spec):
    report = run("analyze", "carrier", spec)
    assert report.exit_code == 2
    assert "ParseError" in report.diagnostics
    assert run("analyze", "carrier", "masks:1x2:add").exit_code == 0


@pytest.mark.parametrize(
    "argv",
    [("analyze", "carrier", "all:1x2:Z:4"), ("eval", "nprod", "[1]", "[1]", "--domain", "Z:4")],
    ids=["carrier_spec", "domain_flag"],
)
def test_modular_domain_is_spelled_zn_only(argv):
    report = run(*argv)
    assert (report.exit_code, report.payload) == (2, "")
    assert report.diagnostics == "error: ParseError: unknown domain 'Z:4'"
    zn = [a.replace("Z:4", "Zn:4") for a in argv]
    assert run(*zn).exit_code == 0


def test_divides_refuses_different_partitions():
    report = run("eval", "divides", "[1 | 2]", "[2 4]", "--domain", "Z")
    assert report.exit_code == 2
    assert report.payload == ""
    assert "TypeMismatch" in report.diagnostics
    same = run("eval", "divides", "[1 | 2]", "[2 | 4]", "--domain", "Z")
    assert same.exit_code == 0 and same.payload == "[2 | 2]"


def test_uprod_refuses_a_partitioned_left_operand_before_comparing_cuts():
    # the right operand has other cuts (none), but no usual product of a
    # partitioned matrix is defined, so that is the error reported
    report = run("eval", "uprod", "[1 | 0]", "[1;0]", "--domain", "Z")
    assert report.exit_code == 2 and report.payload == ""
    assert "TypeMismatch: the usual product is undefined on partitioned matrices" in report.diagnostics


def test_uprod_refuses_a_partitioned_right_operand_before_comparing_cuts():
    report = run("eval", "uprod", "[1;0]", "[1 | 0]", "--domain", "Z")
    assert report.exit_code == 2 and report.payload == ""
    assert "TypeMismatch: the usual product is undefined on partitioned matrices" in report.diagnostics
    assert "partitions differ" not in report.diagnostics


def test_poly_int_refuses_a_constant_with_other_cuts():
    for poly, const in (
        ("[2 4 6] * x", "[5 | 6 7]"),
        ("[2 | 4 6] * x", "[5 6 | 7]"),
        ("[2 | 4 6] * x", "[0 0 | 0]"),
    ):
        report = run("poly", "int", poly, "--const", const, "--domain", "Z")
        assert report.exit_code == 2
        assert "TypeMismatch" in report.diagnostics
    same = run("poly", "int", "[2 | 4 6] * x", "--const", "[5 | 6 7]", "--domain", "Z")
    assert same.exit_code == 0 and same.payload == "[5 | 6 7] + [1 | 2 3] * x^2"
    plain = run("poly", "int", "[2 | 4 6] * x", "--const", "[5 6 7]", "--domain", "Z")
    assert plain.exit_code == 0 and plain.payload == "[5 | 6 7] + [1 | 2 3] * x^2"


def test_orth_negative_finding_exits_1():
    assert run("eval", "orth", "[1 0]", "[0 1]").exit_code == 0
    report = run("eval", "orth", "[1 1]", "[0 1]")
    assert report.exit_code == 1
    assert report.payload == "false"


def test_divides_paths():
    ok = run("eval", "divides", "[5 7 2 8]", "[10 14 8 8]", "--domain", "Z")
    assert ok.exit_code == 0 and ok.payload == "[2 2 4 1]"
    no = run("eval", "divides", "[5 7]", "[11 14]", "--domain", "Z")
    assert no.exit_code == 1 and no.payload == "none"
    zero = run("eval", "divides", "[0 7]", "[10 14]", "--domain", "Z")
    assert zero.exit_code == 2
    assert "ZeroDivisorEntry" in zero.diagnostics


def test_json_format_stable():
    report = run("eval", "nprod", "[1 2]", "[3 4]", "--format", "json")
    obj = json.loads(report.payload)
    assert obj == {"cols": 2, "domain": "Q", "entries": [["3", "8"]], "rows": 1}


NON_ARRAY_OR_NON_TEXT_JSON = {
    # read character by character, this string would be the column [1;2]
    "string_entries": (
        '{"domain":"Q","rows":2,"cols":1,"entries":"12"}',
        "entries must be a JSON array, got '12'",
    ),
    "string_row": (
        '{"domain":"Q","rows":1,"cols":2,"entries":["12"]}',
        "a row of entries must be a JSON array, got '12'",
    ),
    "number_entry": (
        '{"domain":"Q","rows":1,"cols":1,"entries":[[5]]}',
        "a scalar literal must be a string, got 5",
    ),
    "null_entry": (
        '{"domain":"Q","rows":1,"cols":1,"entries":[[null]]}',
        "a scalar literal must be a string, got None",
    ),
    "number_domain": (
        '{"domain":5,"rows":1,"cols":1,"entries":[["5"]]}',
        "a domain code must be a string, got 5",
    ),
}


@pytest.mark.parametrize("name", sorted(NON_ARRAY_OR_NON_TEXT_JSON))
def test_matrix_json_refuses_non_arrays_and_non_text(name):
    text, message = NON_ARRAY_OR_NON_TEXT_JSON[name]
    term = {"deg": 1, "coeff": json.loads(text)}
    poly = json.dumps({"shape": {"rows": 1, "cols": 1}, "domain": "Q", "terms": [term]})
    for argv in (["eval", "parse-render", text], ["complement", text], ["poly", "diff", poly]):
        report = run(*argv)
        assert (report.exit_code, report.payload) == (2, "")
        assert f"ParseError: {message}" in report.diagnostics
        assert "malformed" not in report.diagnostics


@pytest.mark.parametrize("terms", ['"ab"', '{"deg": 1}', "null"], ids=["string", "object", "null"])
def test_poly_json_refuses_non_array_terms(terms):
    # a string's characters would be indexed as terms; an object's keys too
    poly = '{"shape":{"rows":1,"cols":1},"domain":"Q","terms":' + terms + "}"
    report = run("poly", "diff", poly)
    assert (report.exit_code, report.payload) == (2, "")
    assert f"ParseError: terms must be a JSON array, got {json.loads(terms)!r}" in report.diagnostics
    assert "malformed" not in report.diagnostics


def test_byte_identical_reruns():
    args = ("verify", "laws", "--samples", "50", "--seed", "7")
    first = run(*args)
    second = run(*args)
    assert first.exit_code == second.exit_code == 0
    assert first.payload == second.payload


def test_parse_render_round_trip(tmp_path):
    fixture = tmp_path / "matrix.txt"
    fixture.write_text("[ 9 0 2 | 0 1 ;\n 0 1 0 | 5 0 ;\n 1 0 0 | 2 0 ]\n")
    report = run("eval", "parse-render", str(fixture))
    assert report.exit_code == 0
    canonical = report.payload
    again = run("eval", "parse-render", canonical)
    assert again.payload == canonical


def test_file_and_json_inputs(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"domain":"Z","rows":1,"cols":2,"entries":[["3","4"]]}')
    report = run("eval", "nprod", str(path), str(path))
    assert report.exit_code == 0
    assert report.payload == "[9 16]"
    missing = run("eval", "nprod", str(tmp_path / "nope.txt"), "[1 2]")
    assert missing.exit_code == 2


def test_complement_command():
    report = run("complement", "[2 0;3 0]")
    assert report.exit_code == 0
    assert report.payload.splitlines() == ["[0 1;0 1]", "dimension 2"]


def test_analyze_commands():
    report = run("analyze", "idempotents", "all:1x1:Zn:6")
    assert report.exit_code == 0
    assert report.payload.splitlines() == ["count 4", "[0]", "[1]", "[3]", "[4]"]
    ideal = run("analyze", "ideal", "masks:2x4", "[1 1 1 1;0 0 0 0]", "--format", "json")
    assert json.loads(ideal.payload)["cardinality"] == 16
    smar = run("analyze", "smarandache", "masks:1x2")
    assert smar.exit_code == 1 and smar.payload == "none"
    carrier = run("analyze", "carrier", "masks:2x2")
    assert carrier.exit_code == 0
    assert "identity" in carrier.payload


def test_analyze_explicit_carrier_from_file(tmp_path):
    path = tmp_path / "carrier.txt"
    path.write_text("[0 0]\n[1 1]\n[-1 -1]\n", encoding="utf-8")
    report = run("analyze", "smarandache", str(path), "--domain", "Z")
    assert report.exit_code == 0
    assert "order 2" in report.payload


def test_verify_suites_quick():
    report = run("verify", "paper-examples")
    assert report.exit_code == 0
    lines = report.payload.splitlines()
    assert len(lines) >= 26  # >= 25 cases plus the summary
    assert all(line.startswith("ok") for line in lines[:-1])
    unknown = run("verify", "bogus")
    assert unknown.exit_code == 2


# every worked example, in registry order
PAPER_EXAMPLE_CASES = """
scalar-reciprocal-unit scalar-perfect-power-roots scalar-sign-units
square-matrix-addition column-natural-product square-natural-vs-usual-product
usual-product-noncommutative entrywise-inverse-4x2 block-row-idempotent
mask-census-2x2 mask-census-2x4-count main-complement-left-column
main-complement-extremes column-orthogonality row-orthogonality entrywise-division
prime-rows zero-set-annihilator super-addition-cellwise super-natural-product-3x5
super-zero-divisor-6x6 super-identity-all-ones super-inverse-mixed-row
super-inverse-zero-entry super-sign-self-inverse super-literal-round-trip
row-poly-addition row-poly-natural-product super-square-poly-natural-product
square-poly-usual-product constant-poly-usual-noncommutative row-poly-derivative
square-poly-derivative row-poly-integral integer-poly-integral-not-closed
poly-degrees row-poly-monicize row-poly-monicize-blocked square-poly-monicize-usual
square-poly-monicize-singular cube-root-equation square-root-equation
imaginary-root-rejected coincident-quadratic-roots difference-of-squares-quadratic
triple-root-evaluation row-poly-zero-divisor mask-carrier-analysis sign-vector-group
mask-ideal-orders sign-pair-smarandache diagonal-support-orthogonal-space
orthogonal-space-extremes bottom-row-complement direct-sum-classification
pseudo-direct-sum-classification cone-semifield-behaviour
""".split()


def test_paper_examples_case_list_is_pinned():
    assert len(PAPER_EXAMPLE_CASES) == 57
    text = run("verify", "paper-examples")
    assert text.exit_code == 0
    assert text.payload.splitlines() == [f"ok   {name}" for name in PAPER_EXAMPLE_CASES] + [
        "57/57 cases passed"
    ]
    obj = json.loads(run("verify", "paper-examples", "--format", "json").payload)
    assert [case["name"] for case in obj["cases"]] == PAPER_EXAMPLE_CASES
    assert all(case["ok"] for case in obj["cases"])


def test_verify_suite_function():
    report = run_command(["verify", "laws", "--seed", "7", "--samples", "100", "--format", "json"])
    assert report.exit_code == 0
    obj = json.loads(report.payload)
    assert obj["failed"] == 0 and obj["suite"] == "laws"


def test_failing_case_reported_and_exit_1(monkeypatch):
    import natprod.verify as vf

    def broken():
        raise AssertionError("forced mismatch for the runner test")

    monkeypatch.setattr(vf, "_CASES", vf._CASES + [("forced-failure", broken)])
    report = run("verify", "paper-examples")
    assert report.exit_code == 1
    assert "FAIL forced-failure" in report.payload
    assert "forced mismatch" in report.payload
    obj = json.loads(run("verify", "paper-examples", "--format", "json").payload)
    assert obj["failed"] == 1


def test_help_and_empty_invocations():
    assert run("--help").exit_code == 0
    assert run().exit_code == 2
    assert run("poly", "umul", "[1 | 2;3 | 4]", "[1 | 2;3 | 4]").exit_code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "natprod", "eval", "nprod", "[2 3]", "[4 5]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[8 15]"


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


def _poly_json(deg, rows=1):
    coeff = {"domain": "Q", "rows": 1, "cols": 1, "entries": [["1"]]}
    terms = [{"deg": deg, "coeff": coeff}]
    return json.dumps({"shape": {"rows": rows, "cols": 1}, "domain": "Q", "terms": terms})


def _cut_json(col_cuts):
    return json.dumps(
        {"domain": "Q", "rows": 1, "cols": 2, "entries": [["1", "2"]], "col_cuts": col_cuts}
    )


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["eval", "nprod", "{bad", "[1]"],
        lambda tmp: [
            "eval", "parse-render",
            _write(tmp / "numbers.json", '{"domain":"Q","rows":1,"cols":1,"entries":[[3]]}'),
        ],
        lambda tmp: [
            "eval", "parse-render",
            _write(tmp / "no_cols.json", '{"domain":"Q","rows":1,"entries":[["3"]]}'),
        ],
        lambda tmp: ["eval", "parse-render", str(tmp)],
        lambda tmp: ["eval", "parse-render", _write(tmp / "latin1.txt", b"[1 \xff\xfe 2]")],
        lambda tmp: ["analyze", "carrier", "masks:0x3"],
        lambda tmp: ["analyze", "carrier", "all:2x0:Zn:3"],
        lambda tmp: ["eval", "parse-render", "[1/2]", "--domain", "Z"],
        lambda tmp: ["eval", "parse-render", "[1 3/2]", "--domain", "Z+"],
        lambda tmp: ["eval", "parse-render", "[1/2]", "--domain", "Zn:3"],
        lambda tmp: ["poly", "diff", "[1] + [1/2] * x", "--domain", "Z"],
        lambda tmp: [
            "analyze", "carrier", _write(tmp / "carrier.txt", "[1]\n[1/2]\n"), "--domain", "Z",
        ],
        lambda tmp: ["analyze", "carrier", _write(tmp / "carrier.txt", "\n")],
        lambda tmp: ["analyze", "carrier", _write(tmp / "carrier.txt", "[1 2]\n[1 2]\n")],
        lambda tmp: ["analyze", "ideal", "all:1x2:Zn:3", "[1/2 3]"],
        lambda tmp: ["poly", "solve", "[5]"],
        lambda tmp: ["poly", "solve", "[0] * x^2 + [1]"],
        lambda tmp: ["poly", "diff", _write(tmp / "deg.json", _poly_json(1.5))],
        lambda tmp: ["poly", "diff", _write(tmp / "deg.json", _poly_json("2"))],
        lambda tmp: ["poly", "diff", _write(tmp / "deg.json", _poly_json(True))],
        lambda tmp: ["eval", "parse-render", _write(tmp / "cuts.json", _cut_json([1.9]))],
        lambda tmp: ["eval", "parse-render", _write(tmp / "cuts.json", _cut_json("1"))],
        lambda tmp: [
            "eval", "parse-render",
            _write(tmp / "shape.json", '{"domain":"Q","rows":true,"cols":2.0,"entries":[["1","2"]]}'),
        ],
        lambda tmp: ["poly", "diff", _write(tmp / "shape.json", _poly_json(0, rows=True))],
        lambda tmp: ["eval", "parse-render", f"[{BIG}]"],
        lambda tmp: ["poly", "diff", f"[1] * x^{BIG}"],
        lambda tmp: ["eval", "add", "[1]", "[2]", "--domain", f"Zn:{BIG}"],
    ],
    ids=[
        "json_syntax", "json_number_entries", "json_missing_key", "directory", "non_utf8",
        "carrier_zero_rows", "carrier_zero_cols",
        "fraction_in_Z", "fraction_in_Z_plus", "fraction_in_Zn", "fraction_in_poly",
        "fraction_in_carrier_file", "empty_carrier_file", "carrier_file_repeats_a_member",
        "fraction_in_ideal_element",
        "solve_constant", "solve_constant_after_zero_lead",
        "json_float_deg", "json_string_deg", "json_bool_deg",
        "json_float_cut", "json_string_cuts", "json_bool_float_shape", "json_poly_bool_shape",
        "big_entry", "big_exponent", "big_modulus",
    ],
)
def test_malformed_input_exits_2_without_traceback(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "natprod", *argv(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "ParseError" in proc.stderr


def test_ideal_of_open_carrier_exits_2(tmp_path):
    # {2, 4} in Z is not closed; the ideal search must stop at 2 * 4 = 8
    carrier = _write(tmp_path / "carrier.txt", "[2]\n[4]\n")
    proc = subprocess.run(
        [sys.executable, "-m", "natprod", "analyze", "ideal", carrier, "[2]", "--domain", "Z"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "NotMember" in proc.stderr and "= [8]" in proc.stderr


# -- big integers: refused at the boundary, never a traceback -----------------------


@pytest.mark.parametrize(
    "argv,error",
    [
        (["eval", "parse-render", f"[{BIG}]"], "ParseError"),
        (["poly", "diff", f"[1] * x^{BIG}"], "ParseError"),
        (["eval", "add", "[1]", "[2]", "--domain", f"Zn:{BIG}"], "ParseError"),
        (["eval", "nprod", f"[{HALF}]", f"[{HALF}]"], "TooLarge"),
        (["eval", "nprod", f"[{HALF}]", f"[{HALF}]", "--format", "json"], "TooLarge"),
        (["poly", "int", "[1] * x^" + "9" * 4300], "TooLarge"),
        (["poly", "int", "[1] * x^" + "9" * 4300, "--format", "json"], "TooLarge"),
        (["poly", "solve", f"[1] * x^2 + [{HALF}] * x + [1]"], "TooLarge"),
    ],
    ids=[
        "entry", "exponent", "modulus",
        "out_entry_text", "out_entry_json", "out_exponent_text", "out_exponent_json",
        "out_solve_reason",
    ],
)
def test_integers_past_the_digit_limit_exit_2_naming_it(argv, error):
    report = run(*argv)
    assert report.exit_code == 2
    assert report.payload == ""
    assert error in report.diagnostics
    assert f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}" in report.diagnostics


def test_huge_degree_solve_rules_out_roots_without_the_power():
    proc = subprocess.run(
        [sys.executable, "-m", "natprod", "poly", "solve", "[1] * x^1000000000 + [-2]"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stdout.startswith("no roots")


# -- each verb takes only the flags its handler reads ---------------------------------

_VERB_ARGV = {
    "eval": ["eval", "add", "[1]", "[2]"],
    "poly": ["poly", "int", "[2] * x"],
    "analyze": ["analyze", "carrier", "masks:1x2"],
    "complement": ["complement", "[1 0]"],
    "verify": ["verify", "laws", "--samples", "5"],
}
_FLAG_VALUE = {"format": "json", "domain": "Z", "seed": "3", "samples": "4", "const": "[1]"}
_KEPT = {
    "eval": ("format", "domain"),
    "poly": ("format", "domain", "const"),
    "analyze": ("format", "domain", "seed", "samples"),
    "complement": ("format", "domain"),
    "verify": ("format", "seed", "samples"),
}
_DROPPED = [(verb, flag) for verb in _KEPT for flag in _FLAG_VALUE if flag not in _KEPT[verb]]


@pytest.mark.parametrize("verb,flag", [(v, f) for v in _KEPT for f in _KEPT[v]])
def test_kept_flags_are_accepted(verb, flag):
    report = run(*_VERB_ARGV[verb], f"--{flag}", _FLAG_VALUE[flag])
    assert report.exit_code == 0, report.diagnostics


@pytest.mark.parametrize("verb,flag", _DROPPED)
def test_flags_a_verb_does_not_read_exit_2(verb, flag):
    assert len(_DROPPED) == 11
    report = run(*_VERB_ARGV[verb], f"--{flag}", _FLAG_VALUE[flag])
    assert report.exit_code == 2
    assert report.payload == ""
    assert f"--{flag}" in report.diagnostics


def test_internal_error_exits_3(monkeypatch):
    import natprod.cli as cli

    def broken(args):
        raise RuntimeError("forced defect")

    monkeypatch.setitem(cli._DISPATCH, "complement", broken)
    report = run("complement", "[1]")
    assert report.exit_code == 3
    assert report.payload == ""
    assert "RuntimeError: forced defect" in report.diagnostics
    assert "Traceback" not in report.diagnostics


# -- fuzzing the boundary: exit 0, 1 or 2, never an exception --------------------------

_SUBVERBS = {
    "eval": ["add", "nprod", "uprod", "inv", "orth", "divides", "parse-render"],
    "poly": ["add", "nmul", "umul", "diff", "int", "degree", "monic", "solve"],
    "analyze": ["carrier", "idempotents", "ideal", "smarandache"],
    "complement": [],
    # paper-examples and census read no input and take 0.5 s and 11 s: left out
    "verify": ["laws", "bogus"],
}
_ENTRIES = st.sampled_from(["0", "1", "-1", "2", "-3", "1/2", "-2/3", "6"])
_BAD_ENTRIES = st.sampled_from(["1/0", "x", "--", "|", "", HALF, BIG])
_DOMAINS = st.sampled_from(["Q", "Z", "Q+", "Z+", "Zn:2", "Zn:6"])
_BAD_DOMAINS = st.sampled_from(["Zn:1", f"Zn:{BIG}", "R"])
# every carrier has at most 64 elements
_CARRIERS = [
    "masks:1x1", "masks:2x2", "masks:2x3:add", "masks:1x6", "masks:0x2", "masks:1x2:foo",
    "all:1x2:Zn:4", "all:1x3:Zn:3:add", "all:2x2:Zn:2", "all:1x1:Zn:8", "all:1x2:Q", "all:x",
]


@st.composite
def _matrix(draw):
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    cells = [[draw(_ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if draw(st.integers(0, 3)) == 0:  # one odd cell: a big or malformed entry
        cells[-1][-1] = draw(_BAD_ENTRIES)
    return "[" + ";".join(" ".join(row) for row in cells) + "]"


_term = st.tuples(_matrix(), st.sampled_from(["", " * x", " * x^2", " * x^3", f" * x^{BIG}"]))
_poly = st.lists(_term, min_size=1, max_size=3).map(
    lambda terms: " + ".join(m + x for m, x in terms)
)
_odd_input = st.one_of(_matrix(), _poly, st.sampled_from(["{bad", "nofile", BIG]))
_INPUTS = {"eval": _matrix(), "poly": _poly, "analyze": _matrix(), "complement": _matrix()}
_FUZZ_FLAGS = {
    "format": st.sampled_from(["text", "json", "text", "json", "xml"]),
    "domain": st.one_of(_DOMAINS, _DOMAINS, _BAD_DOMAINS),
    "seed": st.sampled_from(["0", "7", "-1", "x", BIG]),
    "samples": st.sampled_from(["1", "5", "50", "0", "-7", "x"]),
    "const": _matrix(),
}


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(sorted(_KEPT)))
    argv = [verb]
    if _SUBVERBS[verb]:
        argv.append(draw(st.sampled_from(_SUBVERBS[verb])))
    if verb == "analyze":
        argv.append(draw(st.sampled_from(_CARRIERS)))
    if verb == "verify":
        argv += ["--samples", "5"]  # a later --samples of at most 50 may replace it
    else:
        operands = st.lists(_INPUTS[verb], min_size=1, max_size=2)
        odd = st.lists(_odd_input, max_size=2)
        argv += draw(st.one_of(operands, operands, operands, odd))
    for flag in draw(st.lists(st.sampled_from(_KEPT[verb]), max_size=3, unique=True)):
        argv += [f"--{flag}", draw(_FUZZ_FLAGS[flag])]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_argv())
def test_fuzzed_argv_never_escapes_the_exit_contract(argv):
    report = run_command(argv)
    assert report.exit_code in (0, 1, 2), (argv, report.diagnostics)
    if report.exit_code == 2:
        assert report.payload == ""


# -- fuzzing file inputs: the bytes of a file named on the command line ---------------

_VALID_FILES = [
    json.dumps(obj).encode()
    for obj in (
        matrix_to_json(parse_literal("[1 -2/3;0 4]")),
        matrix_to_json(parse_literal("[1 | 2;-- ;3 | 4]")),
        poly_to_json(parse_poly("[1 2] + [0 3] * x^2")),
    )
] + [b"[1 2;3 4]\n[0 1;1 0]\n", b"[1 2] + [3 4] * x^3\n"]


@st.composite
def _mutated(draw):
    """A valid JSON or literal file, truncated or with one byte replaced or inserted."""
    data = bytearray(draw(st.sampled_from(_VALID_FILES)))
    at = draw(st.integers(0, len(data) - 1))
    edit = draw(st.sampled_from(["truncate", "replace", "insert"]))
    if edit == "truncate":
        return bytes(data[:at])
    byte = draw(st.sampled_from(b'{}[]",:;|-/ x0\xff\n'))
    if edit == "replace":
        data[at] = byte
    else:
        data.insert(at, byte)
    return bytes(data)


_FILE_BYTES = st.one_of(
    st.binary(max_size=64),
    _mutated(),
    _mutated(),
    st.lists(_matrix(), min_size=1, max_size=4).map(lambda ms: "\n".join(ms).encode()),
    _poly.map(str.encode),
)
_FILE_VERBS = [("eval", "parse-render"), ("poly", "degree"), ("analyze", "carrier")]


# The one input file is rewritten by every example, so sharing tmp_path is safe.
@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(verb=st.sampled_from(_FILE_VERBS), content=_FILE_BYTES)
def test_fuzzed_file_bytes_never_escape_the_exit_contract(tmp_path, verb, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    report = run_command([*verb, str(path)])
    assert report.exit_code in (0, 1, 2), (verb, content, report.diagnostics)
    if report.exit_code == 2:
        assert report.payload == ""
