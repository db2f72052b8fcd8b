import contextlib
import json
import os
import subprocess
import sys

import pytest

import garside_census
from garside_census import cli, descents, formulas, matrices, spectral
from garside_census.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_plain(capsys):
    code, out, _ = run(capsys, "count", "5", "4", "--last", "delta", "2")
    assert code == 0
    assert out.strip() == "5260"
    code, out, _ = run(capsys, "count", "3", "1")
    assert code == 0
    assert out.strip() == "6"


def test_count_explicit_permutation_and_paths(capsys):
    for via in ("Mbar", "Mprime", "M22", "M23"):
        code, out, _ = run(capsys, "count", "3", "4", "--last", "[3,2,1]", "--via", via)
        assert code == 0
        assert out.strip() == "1"


def test_count_via_Mprime_builds_no_matrix(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("Mprime(n) was built or multiplied")

    monkeypatch.setattr(matrices, "build_Mprime", forbidden)
    monkeypatch.setattr(matrices, "vec_times_matrix", forbidden)
    code, out, _ = run(capsys, "count", "9", "11", "--last", "[9,8,7,6,5,4,3,1,2]", "--via", "Mprime")
    assert (code, out) == (0, "37932946510323320174309988516887119\n")

    monkeypatch.setattr(descents, "a_column", forbidden)
    code, out, err = run(capsys, "count", "13", "2", "--last", "[13,12,11,10,9,8,7,6,5,4,3,1,2]", "--via", "Mprime")
    assert (code, out) == (2, "")
    assert "exceeds the subset-size cap 12" in err


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "4", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"n": "4", "d": "3", "value": "1380"}
    code, out, _ = run(capsys, "count", "4", "3", "--last", "[1,2,3,4]", "--format", "json")
    assert json.loads(out)["value"] == "211"
    for last, expected in (
        ([], "n,d,last,value\n4,3,,1380\n"),
        (["--last", "delta", "2"], "n,d,last,value\n4,3,delta 2,83\n"),
        (["--last", "[4,1,2,3]"], 'n,d,last,value\n4,3,"[4,1,2,3]",83\n'),
    ):
        assert run(capsys, "count", "4", "3", *last, "--format", "csv") == (0, expected, "")


@contextlib.contextmanager
def int_str_digits(limit):
    """CPython's limit on the digits of str(int) set to limit inside the block
    (Python 3.10.0-3.10.6 has no limit, and then the block runs unchanged)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_counts_print_in_full(capsys):
    code, out, err = run(capsys, "count", "3", "20000")
    with int_str_digits(0):
        expected = str(formulas.b3_total_closed(20000))
    assert len(expected) == 6022
    assert (code, out, err) == (0, expected + "\n", "")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on str(int) here")
def test_main_keeps_the_callers_int_str_limit(capsys):
    with int_str_digits(5000):
        assert run(capsys, "count", "3", "20000")[0] == 0
        assert sys.get_int_max_str_digits() == 5000
        assert run(capsys, "count", "0", "0")[0] == 2
        assert sys.get_int_max_str_digits() == 5000


def _leaves(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


def test_json_writes_integers_as_strings(capsys):
    for argv in (
        ["count", "4", "3", "--last", "delta", "2"],
        ["matrix", "Mbar", "4"],
        ["charpoly", "4"],
        ["normalize", "-n", "3", "s1 s2 s1 s1"],
        ["oracle", "3", "2", "--last", "[2,1,3]"],
        ["table", "--nmax", "6", "--dmax", "4"],
        ["conjecture", "--nmax", "4"],
        ["verify", "--formula", "bn3-delta1", "--nmax", "3", "--dmax", "3"],
    ):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        leaves = list(_leaves(json.loads(out)))
        assert leaves and all(type(v) in (str, bool) for v in leaves), argv
    # verify's verdicts stay JSON booleans, and only a flagged check carries a flag
    (report,) = json.loads(out)
    assert report["ok"] is True
    assert [c["match"] for c in report["checks"]] == [True, False, True, False]
    assert ["flag" in c for c in report["checks"]] == [False, True, False, True]


def test_matrix_formats(capsys):
    code, out, _ = run(capsys, "matrix", "Mbar", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "Mbar"
    assert obj["rows"] == [["1", "0", "0"], ["4", "2", "0"], ["1", "1", "1"]]

    code, out, _ = run(capsys, "matrix", "M", "2")
    assert code == 0
    assert "[1,2]" in out and "[2,1]" in out

    code, out, _ = run(capsys, "matrix", "Mprime", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == 'label,{},{1},{2},"{1,2}"'
    assert out.splitlines()[2] == "{1},2,1,1,0"

    # each column as wide as its largest entry, labels padded to the widest
    expected = (
        "(1,1,1,1,1)   1  0 0  0 0 0 0\n"
        "(2,1,1,1)    26  8 0  2 0 0 0\n"
        "(3,1,1)      23 12 4  5 0 1 0\n"
        "(2,2,1)      43 21 5 10 0 2 0\n"
        "(4,1)         8  6 4  4 2 2 0\n"
        "(3,2)        18 12 6  8 2 4 0\n"
        "(5)           1  1 1  1 1 1 1\n"
    )
    assert run(capsys, "matrix", "Mbar", "5") == (0, expected, "")


def test_matrix_cap_is_an_error(capsys):
    code, _, err = run(capsys, "matrix", "M", "9")
    assert code == 2
    assert "cap" in err


def test_charpoly(capsys):
    code, out, _ = run(capsys, "charpoly", "3", "--raw")
    assert code == 0
    assert out.strip() == "coefficients (constant first): -2 5 -4 1"

    code, out, _ = run(capsys, "charpoly", "4")
    assert code == 0
    assert "(x^2 - 6x + 3)" in out

    code, out, _ = run(capsys, "charpoly", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["coefficients_constant_first"] == ["-2", "5", "-4", "1"]
    assert obj["factors"] == [["-1", "1"], ["-1", "1"], ["-2", "1"]]


@pytest.mark.parametrize(
    "kind, n", [("M", n) for n in range(1, 5)] + [("Mprime", n) for n in range(1, 8)]
)
def test_charpoly_of_the_larger_kinds_keeps_its_zero_coefficients(capsys, kind, n):
    # the CLI pads Mbar(n)'s polynomial with zeros; spectral.charpoly on the
    # built matrix counts every zero eigenvalue itself
    expected = [str(c) for c in spectral.charpoly(cli._build_matrix(kind, n))]
    code, out, _ = run(capsys, "charpoly", str(n), "--kind", kind)
    assert code == 0
    assert out == f"coefficients (constant first): {' '.join(expected)}\n"
    code, out, _ = run(capsys, "charpoly", str(n), "--kind", kind, "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients_constant_first"] == expected


def test_charpoly_of_the_larger_kinds_builds_neither(capsys, monkeypatch):
    def forbidden(n):
        raise AssertionError(f"a larger matrix was built at n={n}")

    monkeypatch.setattr(matrices, "build_M", forbidden)
    monkeypatch.setattr(matrices, "build_Mprime", forbidden)
    for kind, n, size in (("M", 7, 5040), ("Mprime", 12, 2048), ("M", 1, 1), ("Mprime", 1, 1)):
        code, out, _ = run(capsys, "charpoly", str(n), "--kind", kind, "--format", "json")
        assert code == 0
        mbar = spectral.cached_charpoly(matrices.build_Mbar(n))
        expected = ["0"] * (size - len(mbar) + 1) + [str(c) for c in mbar]
        assert json.loads(out)["coefficients_constant_first"] == expected
    for argv, message in (
        (["charpoly", "8", "--kind", "M"], "exceeds the factorial-size cap 7"),
        (["charpoly", "13", "--kind", "Mprime"], "exceeds the subset-size cap 12"),
        (["charpoly", "0", "--kind", "M"], "n must be at least 1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "-n", "3", "s1 s2 s1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree 1"
    assert lines[1] == "factor 1: [3,2,1]  d_left={1,2}  d_right={1,2}"

    code, out, _ = run(capsys, "normalize", "-n", "3", "s1 s2 s1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["degree"] == "1"
    assert obj["factors"][0]["permutation"] == ["3", "2", "1"]


def test_normalize_bad_word(capsys):
    code, _, err = run(capsys, "normalize", "-n", "3", "s7")
    assert code == 2
    assert "out of range" in err


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "3", "2", "--engine", "brute")
    assert code == 0
    assert out.strip() == "19"
    code, out, _ = run(capsys, "oracle", "6", "4", "--last", "delta", "1", "--engine", "dp")
    assert code == 0
    assert out.strip() == "1956"
    json_head = '{\n  "n": "3",\n  "d": "2",\n  "engine": "dp",\n'
    for last, tail in (
        ([], '  "value": "19"\n}\n'),
        (["--last", "[2,1,3]"], '  "value": "3",\n  "last": "[2,1,3]"\n}\n'),
        (["--last", "delta", "1"], '  "value": "3",\n  "last": "[2,1,3]"\n}\n'),
    ):
        assert run(capsys, "oracle", "3", "2", *last, "--format", "json") == (0, json_head + tail, "")


def test_table_flags(capsys):
    code, out, _ = run(capsys, "table", "--nmax", "6", "--dmax", "6", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    by_key = {(r["n"], r["rho"]): r for r in rows}
    flagged = by_key[("6", "5")]
    assert flagged["values"][3] == "1956"
    assert any(f["flag"] == "paper-discrepancy" for f in flagged["flags"])
    relabeled = by_key[("5", "4")]
    assert relabeled["values"] == ["1", "5", "31", "325", "4931", "86565"]
    assert any(f["flag"] == "paper-discrepancy" for f in relabeled["flags"])

    code, out, _ = run(capsys, "table", "--nmax", "3", "--dmax", "4")
    assert code == 0
    assert "b_{3,d}(Delta_2)" in out

    expected = (
        "label,d=1,d=2,flags\n"
        '"b_{2,d}(1)",1,2,\n'
        '"b_{3,d}(1)",1,6,\n'
        '"b_{3,d}(Delta_2)",1,3,\n'
        '"b_{4,d}(1)",1,24,\n'
        '"b_{4,d}(Delta_2)",1,12,\n'
        '"b_{4,d}(Delta_3)",1,4,\n'
        '"b_{5,d}(1)",1,120,\n'
        '"b_{5,d}(Delta_2)",1,60,\n'
        '"b_{5,d}(Delta_3)",1,20,\n'
        '"b_{5,d}(Delta_4)",1,5,row is printed with braid index 4 but carries the 5-strand values\n'
    )
    assert run(capsys, "table", "--nmax", "5", "--dmax", "2", "--format", "csv") == (0, expected, "")


def test_conjecture(capsys):
    code, out, _ = run(capsys, "conjecture", "--nmax", "4")
    assert code == 0
    assert "n=4: ok" in out


def test_conjecture_json_rho_is_exact(capsys):
    code, out, _ = run(capsys, "conjecture", "--nmax", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    # Mbar(2) is the Jordan block [[1,0],[1,1]], whose spectral radius is exactly 1
    assert [r["rho_max"] for r in rows] == ["1.000000", "2.000000"]


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--formula", "floor-e")
    assert code == 0
    assert "floor-e: ok" in out

    code, out, _ = run(capsys, "verify", "--nmax", "6", "--dmax", "8", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["ok"] for r in reports)

    code, _, err = run(capsys, "verify", "--formula", "no-such")
    assert code == 2
    assert "unknown formula" in err

    expected = (
        "formula,label,expected,computed,status\n"
        "bn3-delta1,n=2,3,3,ok\n"
        "bn3-delta1,printed n=2,3,2,flagged\n"
        "bn3-delta1,n=3,7,7,ok\n"
        "bn3-delta1,printed n=3,7,4,flagged\n"
    )
    argv = ["verify", "--formula", "bn3-delta1", "--nmax", "3", "--dmax", "3", "--format", "csv"]
    assert run(capsys, *argv) == (0, expected, "")

    # the yes/no checks print as text in every format
    argv = ["verify", "--formula", "bessel-reciprocal-gf", "--nmax", "3", "--dmax", "3"]
    (report,) = json.loads(run(capsys, *argv, "--format", "json")[1])
    assert report["checks"] == [
        {"label": "order<=12 coefficients vanish", "expected": "True", "computed": "True", "match": True}
    ]
    assert run(capsys, *argv, "--format", "csv")[1].splitlines()[1] == (
        "bessel-reciprocal-gf,order<=12 coefficients vanish,True,True,ok"
    )


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "table", "--nmax", "5", "--dmax", "5", "--format", "json")
    _, second, _ = run(capsys, "table", "--nmax", "5", "--dmax", "5", "--format", "json")
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "m.json"
    code, out, _ = run(capsys, "matrix", "Mbar", "2", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["rows"] == [["1", "0"], ["1", "1"]]


def _separate_process(argv):
    src = os.path.dirname(os.path.dirname(garside_census.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "garside_census.cli", *argv],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout


def test_parser_built_once_and_no_state_carries_over(capsys):
    sequence = [
        ["count", "5", "4", "--last", "delta", "2", "--format", "json"],
        ["count", "5", "4"],
        ["verify", "--formula", "floor-e"],
        ["verify", "--nmax", "4", "--dmax", "6"],
    ]
    cli.build_parser.cache_clear()
    outputs = [run(capsys, *argv) for argv in sequence]
    assert cli.build_parser.cache_info().misses == 1
    for argv, (code, out, _) in zip(sequence, outputs):
        assert code == 0
        assert out == _separate_process(argv)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["count"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "--nmax", "1"], "--nmax: must be at least 2"),
        (["table", "--dmax", "0"], "--dmax: must be at least 1"),
        (["conjecture", "--nmax", "1"], "--nmax: must be at least 2"),
        (["count", "3", "1", "--out", "{missing_dir}/x"], "No such file or directory"),
        (["matrix", "M", "8"], "exceeds the factorial-size cap 7"),
        (["charpoly", "3", "--format", "csv"], "invalid choice: 'csv'"),
        (["normalize", "-n", "3", "s1", "--format", "csv"], "invalid choice: 'csv'"),
        (["oracle", "3", "2", "--format", "csv"], "invalid choice: 'csv'"),
        (["conjecture", "--nmax", "3", "--format", "csv"], "invalid choice: 'csv'"),
        (["count", "3", "4", "--via", "M22"], "--via M22 counts by a last permutation"),
        (["count", "3", "4", "--last", "delta", "1", "--via", "M23"], "--via M23 counts by a last permutation"),
        (["charpoly", "13", "--kind", "Mprime"], "exceeds the subset-size cap 12"),
        (["charpoly", "4", "--factored"], "unrecognized arguments"),
        (["oracle", "4", "3", "--last", "delta", "0"], "r=0 out of range 1..4"),
        (["oracle", "4", "3", "--last", "delta", "5"], "r=5 out of range 1..4"),
        (["count", "4", "3", "--last", "delta", "x"], "--last delta takes an integer"),
        (["table", "--nmax", str(matrices.MBAR_CAP + 1)], f"--nmax: must be at most {matrices.MBAR_CAP}"),
        (["conjecture", "--nmax", str(matrices.MBAR_CAP + 1)], f"--nmax: must be at most {matrices.MBAR_CAP}"),
        (["verify", "--nmax", str(matrices.MBAR_CAP + 1)], f"--nmax: must be at most {matrices.MBAR_CAP}"),
        (["verify", "--nmax", "1"], "--nmax: must be at least 2"),
        (["verify", "--dmax", "1"], "--dmax: must be at least 2"),
        (["oracle", "3", "2", "--budget", "5"], "unrecognized arguments"),
        (["oracle", "5", "4", "--engine", "brute"], "budget exceeded"),
        (["count", "8", "2", "--last", "[8,7,6,5,4,3,2,1]", "--via", "M22"], "exceeds the factorial-size cap 7"),
        (["count", "8", "2", "--last", "[8,7,6,5,4,3,2,1]", "--via", "M23"], "exceeds the factorial-size cap 7"),
        (["oracle", "8", "2"], "exceeds the factorial-size cap 7"),
        (["charpoly", "8", "--kind", "M"], "exceeds the factorial-size cap 7"),
        (["count", "0", "0"], "n must be at least 1"),
        (["count", "4", "3", "--last", "delta", "1", "2"], "--last delta takes exactly one integer argument"),
        (["count", "4", "3", "--last", "[1,2]", "[2,1]"], "--last takes one permutation or 'delta R'"),
        (["oracle", "1", "100000002", "--engine", "brute"], "budget exceeded"),
    ],
)
def test_bad_inputs_exit_2(tmp_path, capsys, argv, message):
    argv = [arg.format(missing_dir=tmp_path / "missing") for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert message in out.err


def test_nmax_beyond_the_cap_builds_nothing(capsys):
    misses = matrices._cached_Mbar.cache_info().misses
    with pytest.raises(SystemExit) as exc:
        main(["conjecture", "--nmax", str(matrices.MBAR_CAP + 1)])
    assert exc.value.code == 2
    assert matrices._cached_Mbar.cache_info().misses == misses


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    def broken(n, d):
        raise KeyError("internal")

    monkeypatch.setattr(matrices, "b_total", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["count", "3", "2"])


def test_each_Mbar_and_charpoly_built_once(capsys, monkeypatch):
    matrices._cached_Mbar.cache_clear()
    matrices._SERIES.clear()
    assert run(capsys, "table", "--nmax", "8", "--dmax", "20")[0] == 0
    assert run(capsys, "verify")[0] == 0
    info = matrices._cached_Mbar.cache_info()
    assert info.misses == info.currsize == 8  # n = 1..8, each built once

    berkowitz_runs = []
    charpoly = spectral.charpoly

    def counting_charpoly(m):
        berkowitz_runs.append(m.n)
        return charpoly(m)

    monkeypatch.setattr(spectral, "charpoly", counting_charpoly)
    spectral.cached_charpoly.cache_clear()
    assert run(capsys, "conjecture", "--nmax", "12")[0] == 0
    assert sorted(berkowitz_runs) == list(range(1, 13))
