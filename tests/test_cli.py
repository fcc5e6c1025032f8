import csv
import io
import json
import random
import time

import pytest

from scatterpoly import cli, field
from scatterpoly.cli import _CSV_COLUMNS, _row, main
from scatterpoly.criteria import CriterionVerdict
from scatterpoly.field import FieldParams
from scatterpoly.scatter import ScatterReport

from naive_oracle import naive_pow


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_info_text(capsys):
    code, out, _ = run(capsys, "field-info", "--p", "3", "--n", "2")
    assert code == 0
    assert "x^2 + 1" in out
    assert "(encoding 4)" in out  # generator x + 1


def test_field_info_json(capsys):
    code, out, _ = run(capsys, "field-info", "--p", "3", "--n", "2",
                       "--output", "json")
    assert code == 0
    info = json.loads(out)
    assert info["modulus"] == [1, 0, 1]
    assert info["gamma_encoding"] == 4
    assert info["projective_points"] == 4


def test_field_info_errors(capsys):
    code, _, err = run(capsys, "field-info", "--p", "4", "--n", "2")
    assert code == 2 and "not prime" in err
    code, _, err = run(capsys, "field-info", "--p", "3", "--n", "30")
    assert code == 2 and "exceeds cap" in err


def test_check_worked_example(capsys):
    code, out, _ = run(capsys, "check", "--p", "5", "--n", "5",
                       "--poly", "3:g^0,4:g^0", "--index", "3",
                       "--output", "json")
    assert code == 0
    env = json.loads(out)
    assert env["results"]["oracle"]["scattered"] is True
    assert env["results"]["agreement"] is True
    binom = [v for v in env["results"]["criteria"] if v["source"] == "binomial"]
    assert binom and binom[0]["verdict"] is True


def test_check_criteria_mode_beyond_cap(capsys):
    code, out, _ = run(capsys, "check", "--p", "101", "--n", "6",
                       "--poly", "2:g^0,4:g^0", "--index", "2",
                       "--mode", "criteria", "--output", "json")
    assert code == 0
    env = json.loads(out)
    assert env["field"]["materialized"] is False
    binom = [v for v in env["results"]["criteria"] if v["source"] == "binomial"]
    assert binom[0]["verdict"] is False
    assert env["results"]["oracle"] is None
    # no tables are built, yet the field parameters are still validated
    for p, n, message in (("4", "30", "not prime"), ("2", "40", "p = 2 rejected")):
        code, out, err = run(capsys, "check", "--p", p, "--n", n,
                             "--poly", "1:g^0,3:g^0", "--index", "1",
                             "--mode", "criteria")
        assert code == 2 and message in err and out == ""


def test_check_oracle_mode_beyond_cap(capsys):
    code, _, err = run(capsys, "check", "--p", "101", "--n", "6",
                       "--poly", "2:g^0,4:g^0", "--index", "2",
                       "--mode", "oracle")
    assert code == 2 and "exceeds cap" in err


def test_check_bad_index(capsys):
    code, _, err = run(capsys, "check", "--p", "3", "--n", "4",
                       "--poly", "1:g^0", "--index", "4")
    assert code == 1
    # the index is checked before the field parameters
    code, _, err = run(capsys, "check", "--p", "4", "--n", "2",
                       "--poly", "1:g^0", "--index", "9")
    assert code == 1 and "index 9 out of range" in err


def test_check_bad_poly(capsys):
    code, _, err = run(capsys, "check", "--p", "3", "--n", "4",
                       "--poly", "1:oops", "--index", "0")
    assert code == 1


def test_check_usage_error(capsys):
    code, _, _ = run(capsys, "check", "--p", "3", "--n", "4")
    assert code == 1


def test_check_census_and_csv(capsys):
    code, out, _ = run(capsys, "check", "--p", "3", "--n", "4",
                       "--poly", "1:g^0", "--index", "0", "--census",
                       "--output", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert list(rows[0].keys()) == _CSV_COLUMNS
    assert rows[0]["criteria"] == "scattered"
    assert rows[0]["oracle"] == "scattered"
    assert rows[0]["agree"] == "yes"


def test_check_witness_in_csv(capsys):
    code, out, _ = run(capsys, "check", "--p", "3", "--n", "4",
                       "--poly", "2:g^0", "--index", "0", "--output", "csv")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["criteria"] == "not-scattered"
    assert row["witness_y"].startswith("g^")


def test_check_deterministic_json(capsys):
    args = ("check", "--p", "5", "--n", "5", "--poly", "3:g^0,4:g^0",
            "--index", "3", "--output", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing")
    b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_envelope_round_trips(capsys):
    code, out, _ = run(capsys, "check", "--p", "3", "--n", "5",
                       "--poly", "1:g^0,3:g^121", "--index", "2",
                       "--census", "--m-list", "1,2", "--output", "json")
    assert code == 0
    env = json.loads(out)
    assert json.loads(json.dumps(env)) == env
    tower = env["results"]["tower"]
    assert [step["m"] for step in tower] == [1, 2]
    assert tower[0]["report"]["scattered"] is True
    assert tower[1]["report"]["scattered"] is False
    # the m=2 witness is printed in F_3^10's own coefficients
    z = tower[1]["report"]["witness"]["z"]
    assert z["text"] == "g^7381"
    _, out, _ = run(capsys, "field-info", "--p", "3", "--n", "10", "--output", "json")
    big = json.loads(out)
    assert z["coeffs"] == list(naive_pow(3, big["modulus"], big["gamma_coeffs"], 7381))


def test_scan_pseudoregulus_grid(capsys):
    code, out, _ = run(capsys, "scan", "--p", "3", "--n", "4",
                       "--family", "pseudoregulus")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 16
    for row in rows:
        if row["agree"]:
            assert row["agree"] == "yes"
        r = int(row["poly"].split(":")[0])
        t = int(row["index"])
        if r == t:
            assert row["criteria"] == "n/a"
            assert row["oracle"] == "not-scattered"


def test_scan_binomial_family(capsys):
    code, out, _ = run(capsys, "scan", "--p", "3", "--n", "5",
                       "--family", "binomial")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    for row in rows:
        assert row["agree"] == "yes"
        assert row["criteria"] == "scattered"  # gcd(r2-r1, 5) = 1 always


def test_scan_custom_and_empty(capsys):
    code, out, _ = run(capsys, "scan", "--p", "3", "--n", "4",
                       "--family", "custom", "--poly", "1:g^0,2:g^0",
                       "--indices", "0,1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    code, out, _ = run(capsys, "scan", "--p", "3", "--n", "4",
                       "--family", "custom")
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out))) == []


def test_scan_refuses_a_bad_index_before_any_member(capsys):
    # neither family has a member, so no member's parse reaches the index
    for family in (("--n", "4", "--family", "custom"),
                   ("--n", "1", "--family", "binomial")):
        code, out, err = run(capsys, "scan", "--p", "3", *family, "--indices", "7")
        assert (code, out) == (1, "")
        assert err.startswith("error: index 7 out of range 0..")


def test_scan_json_output(capsys):
    code, out, _ = run(capsys, "scan", "--p", "3", "--n", "4",
                       "--family", "pseudoregulus", "--indices", "0",
                       "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 4


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemmas")
    assert code == 0
    assert "PASS" in out and "all passed" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lp", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert all(suite["passed"] for suite in data)


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nosuchsuite")
    assert code == 1 and err.startswith("error: unknown suite 'nosuchsuite'")


def test_jobs_flag(capsys):
    # check still accepts --jobs, ignores it and echoes it; scan and verify
    # no longer take it
    code, out, _ = run(capsys, "check", "--p", "5", "--n", "5",
                       "--poly", "3:g^0,4:g^0", "--index", "3",
                       "--jobs", "4", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["oracle"]["scattered"] is True
    assert data["request"]["jobs"] == 4
    code, _, err = run(capsys, "scan", "--p", "3", "--n", "4",
                       "--family", "pseudoregulus", "--jobs", "2")
    assert code == 1 and "--jobs" in err
    code, _, err = run(capsys, "verify", "--suite", "lp", "--jobs", "2")
    assert code == 1 and "--jobs" in err


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SCATTERPOLY_CAP", "100")
    # parser reads the env default at build time; field of size 243 now too big
    code, _, err = run(capsys, "field-info", "--p", "3", "--n", "5")
    assert code == 2 and "exceeds cap" in err
    # explicit --cap wins over the environment
    code, _, _ = run(capsys, "field-info", "--p", "3", "--n", "5",
                     "--cap", "1000")
    assert code == 0
    monkeypatch.setenv("SCATTERPOLY_CAP", "abc")
    code, _, err = run(capsys, "field-info", "--p", "3", "--n", "5")
    assert code == 1
    assert err == "error: SCATTERPOLY_CAP must be an integer, got 'abc'\n"
    # commands that never read the environment's cap are not broken by it
    code, _, _ = run(capsys, "field-info", "--p", "3", "--n", "4", "--cap", "100")
    assert code == 0
    code, _, _ = run(capsys, "verify", "--suite", "lp")
    assert code == 0


def test_refused_field_is_sized_once(capsys, monkeypatch):
    calls = []
    init = FieldParams.__init__

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(FieldParams, "__init__", counting_init)
    code, _, _ = run(capsys, "check", "--p", "3", "--n", "30", "--poly", "1:g^0,3:g^0",
                     "--index", "1", "--mode", "criteria")
    assert code == 0 and calls == [(3, 1, 30)]


def test_malformed_poly_is_refused_before_the_field_is_sized(capsys, monkeypatch):
    # p^degree has 2.4 million digits here: a malformed text is answered
    # without forming it, and errors that need no size still come first
    calls = []
    init = FieldParams.__init__

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(FieldParams, "__init__", counting_init)
    field = ("--p", "97", "--m", "40", "--n", "30000")
    bad_term = "error: bad term ''; expected r:g^k or r:[c0,c1,...]\n"
    for argv in (("check", *field, "--poly", "1:g^0,,2:g^1", "--index", "0",
                  "--mode", "criteria"),
                 ("scan", *field, "--family", "custom", "--poly", "1:g^0",
                  "--poly", "1:g^0,,2:g^1")):
        assert run(capsys, *argv) == (1, "", bad_term)
    assert calls == []
    # a malformed text over a field too large for a table exits 1, not 2
    code, _, err = run(capsys, "check", "--p", "3", "--n", "30", "--poly", "1:oops",
                       "--index", "0", "--mode", "both")
    assert code == 1 and "bad coefficient 'oops'" in err
    for argv, message in (
            (("--p", "4", "--n", "30"), "4 is not prime"),
            (("--p", "2", "--n", "30"), "p = 2 rejected"),
            (("--p", "618970019642690137449562111", "--n", "1"), "618970019642690137449562111")):
        code, _, err = run(capsys, "check", *argv, "--poly", "1:oops", "--index", "0")
        assert code == 2 and message in err
    code, _, err = run(capsys, "check", "--p", "3", "--m", "0", "--n", "5", "--poly", "1:oops",
                       "--index", "0")
    assert code == 1 and "m and n must be positive" in err
    assert calls == []


def test_table_limit_beyond_any_cap(capsys, monkeypatch):
    # F_3^21 is within this cap but above field.TABLE_LIMIT: requests that
    # need tables exit 2 before allocating any, criteria-only ones still answer
    monkeypatch.setenv("SCATTERPOLY_CAP", "99999999999")
    argv = ("check", "--p", "3", "--n", "21", "--poly", "1:g^0,3:g^0", "--index", "1")
    code, out, err = run(capsys, *argv, "--mode", "both")
    assert code == 2 and "exceeds cap 2147483648" in err and out == ""
    code, out, _ = run(capsys, *argv, "--mode", "criteria", "--output", "json")
    assert code == 0
    assert json.loads(out)["field"]["materialized"] is False
    code, _, _ = run(capsys, "field-info", "--p", "3", "--n", "21")
    assert code == 2


def test_walk_bound_refuses_large_prime_field(capsys):
    # F_130000001 is below TABLE_LIMIT, but its walk's float64 sums (p - 1)^2
    # pass 2^53: table requests exit 2 before allocating, criteria ones answer
    field = ("--p", "130000001", "--n", "1", "--cap", "2147483648")
    code, out, err = run(capsys, "field-info", *field)
    assert (code, out) == (2, "")
    assert err == "error: field size 130000001 exceeds cap 94906266\n"
    argv = ("check", *field, "--poly", "0:g^0", "--index", "0")
    code, out, err = run(capsys, *argv, "--mode", "oracle")
    assert (code, out) == (2, "") and err.startswith("error: ")
    code, out, _ = run(capsys, *argv, "--mode", "criteria", "--output", "json")
    assert code == 0
    assert json.loads(out)["field"]["materialized"] is False


def test_criteria_only_check_over_a_large_prime(capsys):
    # p = 10^18 + 3 is prime: answered from its sizes alone, with no trial
    # division of p
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "check", "--p", "1000000000000000003", "--n", "3",
                       "--poly", "1:g^0,2:g^0", "--index", "1", "--mode", "criteria")
    assert code == 0 and "criterion binomial: @1: scattered" in out
    assert time.perf_counter() - t0 < 2.0


def test_prime_beyond_the_exact_bound_exits_2(capsys):
    # p = 2^89 - 1 lies above the bound below which primality is decided;
    # it is refused at once rather than trial-divided
    t0 = time.perf_counter()
    code, out, err = run(capsys, "check", "--p", str(2**89 - 1), "--n", "1",
                         "--poly", "0:g^0", "--index", "0", "--mode", "criteria")
    assert (code, out) == (2, "")
    assert str(2**89 - 1) in err and str(field._MR_LIMIT) in err
    assert time.perf_counter() - t0 < 2.0


def test_sizes_beyond_decimal_text(capsys):
    # 3^10000 has 4772 digits, past the interpreter's 4300-digit limit for
    # int-to-text conversion: criteria answer and errors name the size as a
    # power of p, and no conversion is attempted
    field = ("--p", "3", "--n", "10000")
    argv = ("check", *field, "--poly", "1:g^0", "--index", "2", "--mode", "criteria")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == ("check 1:g^0 over F_3^10000 at index 2\n"
                   "  criterion pseudoregulus: @2: scattered\n")
    code, out, _ = run(capsys, *argv, "--output", "json")
    assert code == 0
    sizes = {key: json.loads(out)["field"][key]
             for key in ("size", "order", "projective_points")}
    assert sizes == {"size": "3^10000", "order": "3^10000 - 1",
                     "projective_points": "(3^10000 - 1)/2"}
    for request in (("field-info", *field), (*argv, "--m-list", "3000")):
        code, out, err = run(capsys, *request)
        assert (code, out) == (2, "")
        assert err == "error: field size 3^10000 exceeds cap 4194304\n"
    # the last size shown in decimal has 4300 digits; F_9^4507 divides by q - 1 = 8
    assert FieldParams(3, 1, 9012).shown_sizes()["size"] == 3**9012
    assert FieldParams(3, 1, 9013).shown_sizes()["size"] == "3^9013"
    assert FieldParams(3, 2, 4507).shown_sizes()["projective_points"] == "(3^9014 - 1)/8"


def test_criteria_details_beyond_decimal_text(capsys):
    # element orders and q^r1 - 1 past 4300 digits are shown as sizes are:
    # |g^1| = 3^10000 - 1, |g^2| = (3^10000 - 1)/2, and g^-1 = g^(3^10000 - 2)
    def check(poly, t):
        argv = ("check", "--p", "3", "--n", "10000", "--poly", poly, "--index", t,
                "--mode", "criteria")
        code, text, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        code, out, err = run(capsys, *argv, "--output", "json")
        assert (code, err) == (0, "")
        verdicts = json.loads(out)["results"]["criteria"]
        return (text, [h["detail"] for v in verdicts for h in v["hypotheses"]],
                [note for v in verdicts for note in v["notes"]])

    text, details, notes = check("1:g^0,3:g^1", "2")
    assert text == ("check 1:g^0,3:g^1 over F_3^10000 at index 2\n"
                    "  criterion binomial: not applicable (low-coefficient-order)\n"
                    "  criterion lp-membership: not applicable (exponent-shape)\n")
    assert details[0] == "|a2|=3^10000 - 1, q^r1-1=2" and notes == []

    text, details, notes = check("1:g^0,9999:g^1", "1")
    assert text == ("check 1:g^0,9999:g^1 over F_3^10000 at index 1\n"
                    "  criterion binomial: not applicable (low-coefficient-order)\n"
                    "  criterion lp-membership: holds\n")
    assert details[0] == "|a2|=3^10000 - 1, q^r1-1=2"
    assert details[6:8] == ["|delta|=3^10000 - 1", "|delta|=3^10000 - 1, q-1=2"]
    assert notes == ["delta = g^1 (order 3^10000 - 1)"]

    _, _, notes = check("1:g^1,9999:g^0", "1")
    assert notes == ["delta = g^(3^10000 - 2) (order 3^10000 - 1)"]
    _, details, _ = check("9998:g^0,9999:g^2", "1")
    assert details[0] == "|a2|=(3^10000 - 1)/2, q^r1-1=3^9998 - 1"


def _contradict_the_oracle(monkeypatch):
    """Criteria that call every request scattered at its index."""
    monkeypatch.setattr(cli, "applicable_criteria", lambda params, terms, t: [
        CriterionVerdict("contrary", True, True, index_verdicts=((t, True),))])


def test_check_exits_3_when_criteria_and_oracle_disagree(capsys, monkeypatch):
    # x^(3^2) over F_3^4 is not scattered of index 0: gcd(2, 4) = 2
    _contradict_the_oracle(monkeypatch)
    argv = ("check", "--p", "3", "--n", "4", "--poly", "2:g^0", "--index", "0")
    message = "error: criteria and oracle disagree; this falsifies a criterion\n"
    code, out, err = run(capsys, *argv, "--output", "json")
    assert (code, err) == (3, message)
    results = json.loads(out)["results"]
    assert results["agreement"] is False and results["oracle"]["scattered"] is False
    code, out, err = run(capsys, *argv, "--output", "csv")
    assert (code, err) == (3, message)
    [row] = csv.DictReader(io.StringIO(out))
    assert (row["criteria"], row["oracle"], row["agree"]) == (
        "scattered", "not-scattered", "no")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (3, message)
    assert "  agreement: NO\n" in out


def test_scan_exits_3_when_criteria_and_oracle_disagree(capsys, monkeypatch):
    _contradict_the_oracle(monkeypatch)
    argv = ("scan", "--p", "3", "--n", "4", "--family", "custom",
            "--poly", "2:g^0", "--poly", "1:g^0", "--indices", "0")
    message = "error: criteria and oracle disagree somewhere in the scan\n"
    code, out, err = run(capsys, *argv, "--output", "csv")
    assert (code, err) == (3, message)
    assert [row["agree"] for row in csv.DictReader(io.StringIO(out))] == ["no", "yes"]
    code, out, err = run(capsys, *argv, "--output", "json")
    assert (code, err) == (3, message)
    assert [row["agree"] for row in json.loads(out)["rows"]] == ["no", "yes"]
    code, out, err = run(capsys, *argv, "--output", "text")
    assert (code, err) == (3, message)
    assert out.splitlines()[0] == ("2:g^0 @ 0: criteria=scattered "
                                   "oracle=not-scattered agree=no")


def test_check_vector_coefficient(capsys):
    # [2] is the element -1; same polynomial as 3:g^121 over F_3^5
    code, out, _ = run(capsys, "check", "--p", "3", "--n", "5",
                       "--poly", "1:[1],3:[2]", "--index", "2",
                       "--output", "json")
    assert code == 0
    env = json.loads(out)
    assert env["request"]["poly_normalized"] == "1:g^0,3:g^121"
    assert env["results"]["oracle"]["scattered"] is True


def test_check_tower_field(capsys):
    # q = 9 (m = 2), n = 2: a proper tower with q not prime
    code, out, _ = run(capsys, "check", "--p", "3", "--m", "2", "--n", "2",
                       "--poly", "1:g^0", "--index", "0", "--output", "json")
    assert code == 0
    env = json.loads(out)
    assert env["field"]["q"] == 9
    assert env["results"]["oracle"]["scattered"] is True  # gcd(1, 2) = 1


def test_scan_custom_beyond_cap(capsys):
    # criteria-only rows when the field exceeds the cap
    code, out, _ = run(capsys, "scan", "--p", "101", "--n", "6",
                       "--family", "custom", "--poly", "2:g^0,4:g^0",
                       "--indices", "2,4")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    for row in rows:
        assert row["criteria"] == "not-scattered"
        assert row["oracle"] == ""
        assert row["agree"] == ""
    code, out, err = run(capsys, "scan", "--p", "4", "--n", "30",
                         "--family", "custom", "--poly", "1:g^0")
    assert code == 2 and "not prime" in err and out == ""


class _TableBuilt(Exception):
    pass


def test_table_is_built_only_when_the_request_reads_it(capsys, monkeypatch):
    def refuse(*args):
        raise _TableBuilt
    monkeypatch.setattr(field, "_build_tables", refuse)
    # g^k coefficients on distinct exponents, and the fingerprint, need no table
    code, out, _ = run(capsys, "check", "--p", "3", "--n", "13", "--poly", "1:g^0,4:g^5",
                       "--index", "1", "--mode", "criteria", "--output", "json")
    assert code == 0 and json.loads(out)["field"]["materialized"]
    assert run(capsys, "field-info", "--p", "3", "--n", "13")[0] == 0
    assert run(capsys, "check", "--p", "3", "--n", "13", "--poly", "1:oops",
               "--index", "1", "--mode", "criteria")[0] == 1
    # the oracle scans a monomial, or a binomial at its own exponent, on
    # discrete logs alone: S's term at t is dropped, and no addition is left
    idle = (
        ("check", "--p", "3", "--n", "4", "--poly", "1:g^0", "--index", "0",
         "--mode", "both"),
        ("check", "--p", "3", "--n", "4", "--poly", "2:g^0", "--index", "2",
         "--mode", "both"),
        ("check", "--p", "3", "--n", "5", "--poly", "1:g^0,3:g^121", "--index", "3",
         "--mode", "both", "--census"),
        ("check", "--p", "3", "--n", "5", "--poly", "1:g^0,3:g^121", "--index", "1",
         "--m-list", "1,2"),
        ("scan", "--p", "3", "--n", "4", "--family", "pseudoregulus"),
        ("scan", "--p", "3", "--n", "5", "--family", "binomial"),
    )
    for argv in idle:
        assert run(capsys, *argv)[0] == 0, argv
    # field addition while parsing, or two terms off t in the oracle, read it
    readers = (
        ("check", "--p", "3", "--n", "5", "--poly", "1:[1],3:[2]", "--index", "2",
         "--mode", "criteria"),
        ("check", "--p", "3", "--n", "4", "--poly", "1:g^0,5:g^0", "--index", "0",
         "--mode", "criteria"),
        ("check", "--p", "3", "--n", "4", "--poly", "1:g^0,2:g^0", "--index", "0",
         "--mode", "both"),
        ("check", "--p", "3", "--n", "5", "--poly", "1:g^0,3:g^121", "--index", "2",
         "--mode", "criteria", "--m-list", "1"),
        ("scan", "--p", "3", "--n", "4", "--family", "custom",
         "--poly", "0:g^1,1:g^0,2:g^0"),
        ("scan", "--p", "3", "--n", "4", "--family", "binomial", "--indices", "0"),
    )
    for argv in readers:
        with pytest.raises(_TableBuilt):
            main(list(argv))


def test_tower_reuses_the_base_field(capsys, monkeypatch):
    built = []
    build_tables = field._build_tables

    def spy(p, d, *args):
        built.append((p, d))
        return build_tables(p, d, *args)
    monkeypatch.setattr(field, "_build_tables", spy)
    # the oracle adds (two terms off t): the check's own table serves m = 1
    code, out, _ = run(capsys, "check", "--p", "3", "--n", "4", "--poly",
                       "0:g^1,1:g^0,2:g^0", "--index", "0", "--m-list", "1,2",
                       "--output", "json")
    assert code == 0 and built == [(3, 4), (3, 8)]
    steps = json.loads(out)["results"]["tower"]
    assert [step["m"] for step in steps] == [1, 2]
    # criteria mode holds no table, so the tower builds its own for m = 1
    built.clear()
    code, _, _ = run(capsys, "check", "--p", "3", "--n", "4", "--poly",
                     "0:g^1,1:g^0,2:g^0", "--index", "0", "--mode", "criteria",
                     "--m-list", "1")
    assert code == 0 and built == [(3, 4)]


def test_build_s_covers_a_table_the_oracle_builds(capsys, monkeypatch):
    build_tables = field._build_tables

    def slow(*args):
        time.sleep(0.2)
        return build_tables(*args)
    monkeypatch.setattr(field, "_build_tables", slow)
    # parsing reads no table; the oracle adds (two terms off t) and builds it
    code, out, _ = run(capsys, "check", "--p", "3", "--n", "4", "--poly",
                       "0:g^1,1:g^0,2:g^0", "--index", "0", "--output", "json")
    timing = json.loads(out)["timing"]
    assert code == 0 and timing["build_s"] >= 0.2 > timing["oracle_s"]


def test_row_agreement_reads_every_verdict():
    params = FieldParams(3, 1, 4)
    report = ScatterReport(True, 1, None, 40, 40)
    verdicts = [CriterionVerdict("first", True, True, index_verdicts=((1, True),)),
                CriterionVerdict("second", True, False, index_verdicts=((1, False),))]
    row = _row(params, "1:g^0", 1, verdicts, report)
    # the CSV shows the first verdict at the index, but any contradiction counts
    assert row["criteria"] == "scattered"
    assert row["agree"] == "no"
    assert _row(params, "1:g^0", 1, verdicts[:1], report)["agree"] == "yes"
    assert _row(params, "1:g^0", 2, verdicts, report)["agree"] == ""


def test_agreement_is_the_same_in_every_format(capsys):
    # both criteria are silent at index 4, so no format reports an agreement
    argv = ("check", "--p", "3", "--n", "5", "--poly", "1:g^0,2:g^1", "--index", "4")
    _, out, _ = run(capsys, *argv, "--output", "csv")
    agree = next(csv.DictReader(io.StringIO(out)))["agree"]
    _, out, _ = run(capsys, *argv, "--output", "json")
    agreement = json.loads(out)["results"]["agreement"]
    _, text, _ = run(capsys, *argv, "--output", "text")
    assert agree == "" and agreement is None and "agreement" not in text


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "scatterpoly", "field-info", "--p", "3", "--n", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "x^2 + 1" in proc.stdout


def _fuzz_poly(rng, n):
    """A --poly text: mostly well formed, sometimes malformed or cancelling."""
    if rng.random() < 0.2:
        return rng.choice(("", ",", "1:", "a:g^1", "1:g^", "1:g^x", "1:[1,,2]",
                           "1:[]", "1:[0,0]", "1:g^0,,2:g^1", "-1:g^0", "1:g^0 2:g^1",
                           "0:[1],0:[-1]", "1:g^0,1:[-1]", "1:[1,2", "g^1"))
    terms = []
    for _ in range(rng.randint(1, 3)):
        r = rng.randrange(n + 2)
        coeff = (f"g^{rng.randint(-3, 60)}" if rng.random() < 0.7 else
                 "[" + ",".join(str(rng.randint(-2, 4)) for _ in range(rng.randint(1, 3))) + "]")
        terms.append(f"{r}:{coeff}")
    return ",".join(terms)


def _fuzz_argv(rng):
    """One random command line over fields of p in {2, 3, 4, 5, 7, 9}, m <= 2, n <= 6."""
    def sometimes_bad(good, *bad):
        return good if rng.random() < 0.9 else rng.choice(bad)

    n = rng.randint(1, 6)
    field_args = ["--p", str(rng.choice((2, 3, 3, 4, 5, 5, 7, 9))),
                  "--n", sometimes_bad(str(n), "0", "-2", "x")]
    if rng.random() < 0.4:
        field_args += ["--m", sometimes_bad(rng.choice("12"), "0", "y")]
    index = sometimes_bad(str(rng.randrange(n)), str(n), "-1", "i")
    command = rng.choice(("check", "check", "check", "scan", "scan", "field-info",
                          "verify", "bad"))
    if command == "check":
        argv = ["check", *field_args, "--poly", _fuzz_poly(rng, n), "--index", index,
                "--mode", rng.choice(("oracle", "criteria", "both")),
                "--output", rng.choice(("text", "json", "csv"))]
        if rng.random() < 0.2:
            argv.append("--census")
        if rng.random() < 0.2:
            argv += ["--m-list", rng.choice(("1", "1,2", "2", "0", "x", "1,,2"))]
    elif command == "scan":
        family = rng.choice(("pseudoregulus", "binomial", "custom"))
        argv = ["scan", *field_args, "--family", family,
                "--indices", rng.choice(("own", "all", index, "0,1", "x")),
                "--output", rng.choice(("csv", "json", "text"))]
        if family == "custom":
            argv += [a for _ in range(rng.randint(0, 2))
                     for a in ("--poly", _fuzz_poly(rng, n))]
        if rng.random() < 0.3:
            argv += ["--coeff-dlogs", rng.choice(("0,1", "3", "x", "0,1,2"))]
    elif command == "field-info":
        argv = ["field-info", *field_args, "--output", rng.choice(("text", "json"))]
    elif command == "verify":
        argv = ["verify", "--suite", rng.choice(("nope", "", "al"))]
    else:
        argv = rng.choice((["frobnicate"], [], ["check"], ["--p", "3"],
                           ["check", *field_args, "--bogus"],
                           ["scan", *field_args, "--family", "trinomial"],
                           ["field-info", *field_args, "--output", "xml"]))
    if argv and rng.random() < 0.1:
        del argv[rng.randrange(len(argv))]  # a flag without its value, or a value alone
    return argv


def test_cli_fuzz_exits_with_a_documented_code(capsys, monkeypatch):
    monkeypatch.delenv("SCATTERPOLY_CAP", raising=False)
    rng = random.Random(20261020)
    start = time.perf_counter()
    for _ in range(300):
        argv = _fuzz_argv(rng)
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
    assert time.perf_counter() - start < 3.0
