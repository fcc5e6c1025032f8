import csv
import io
import json
import time

import pytest

from scatterpoly import field
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


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "scatterpoly", "field-info", "--p", "3", "--n", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "x^2 + 1" in proc.stdout
