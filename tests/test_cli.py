"""CLI surface: subcommands, output shapes, exit codes."""

import pytest

from l1sweep.cli import main


def test_lvalue_single_conductor(capsys):
    assert main(["lvalue", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "0.604599788078" in out
    assert "parity=odd" in out and "verdict=pass" in out


def test_lvalue_no_primitive(capsys):
    assert main(["lvalue", "--q", "6"]) == 0
    assert "no primitive characters" in capsys.readouterr().out


def test_lvalue_index_selector(capsys):
    assert main(["lvalue", "--q", "5", "--index", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("q=5") == 1 and "parity=even" in out
    assert main(["lvalue", "--q", "5", "--index", "0"]) == 1  # principal: not primitive


def test_lvalue_marks_inapplicable_conductors(capsys):
    assert main(["lvalue", "--q", "5"]) == 0
    assert "[3 does not divide q]" in capsys.readouterr().out


def test_count_subcommand(capsys):
    assert main(["count", "--qmax", "9"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["count", "--qmax", "4", "--all-q"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_sweep_subcommand_and_exit_code(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    assert main(["sweep", "--qmin", "3", "--qmax", "120", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "theorem exceptions:    none" in text
    with open(out, encoding="utf-8") as fh:
        assert fh.readline().startswith("q,parity,")


@pytest.mark.parametrize("argv", [
    ["sweep", "--qmin", "1", "--qmax", "9"],                 # q out of range
    ["sweep", "--qmin", "3", "--qmax", "30", "--tol", "0"],  # unattainable tolerance
    ["sweep", "--qmin", "3", "--qmax", "30", "--tol", "0", "--threads", "2"],
    ["sweep", "--qmin", "300003", "--qmax", "300003"],       # phi beyond the digamma floor
    ["sweep", "--qmin", "3", "--qmax", "30", "--tol", "nan"],  # no radius is <= NaN
    ["sweep", "--qmin", "3", "--qmax", "30", "--tol", "nan", "--threads", "2"],
])
def test_sweep_bad_input_exits_1(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "rows.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_tolerance_error_names_conductor(threads, tmp_path, capsys):
    # 299997 is the first conductor of the range beyond the digamma floor
    assert main(["sweep", "--qmin", "299997", "--qmax", "300003", "--threads", threads,
                 "--out", str(tmp_path / "rows.csv")]) == 1
    assert "q=299997: " in capsys.readouterr().err


@pytest.mark.parametrize("q", ["2", "300003"])
def test_lvalue_bad_input_exits_1(q, capsys):
    assert main(["lvalue", "--q", q]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["count", "--qmax", "0"],
    ["count", "--qmax", "-5", "--all-q"],
    ["check-lemmas", "--grid", "1"],
    ["check-lemmas", "--grid", "0"],
    ["check-lemmas", "--grid", "-5"],
])
def test_count_and_check_lemmas_bad_input_exits_1(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_mixed_range_resume_exits_1(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--qmin", "300", "--qmax", "600", "--out", str(out)]) == 0
    before = out.read_bytes()
    capsys.readouterr()
    assert main(["sweep", "--qmin", "3", "--qmax", "600", "--out", str(out)]) == 1
    assert "not a prefix" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_sweep_refuses_a_file_that_is_not_a_row_file(tmp_path, capsys):
    notes = tmp_path / "notes.txt"
    notes.write_bytes(b"line one\nline two\n")
    assert main(["sweep", "--qmin", "3", "--qmax", "9", "--out", str(notes)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a sweep row file" in err
    assert notes.read_bytes() == b"line one\nline two\n"


def test_sweep_unwritable_output(capsys):
    code = main(["sweep", "--qmin", "3", "--qmax", "9",
                 "--out", "/nonexistent-dir/rows.csv"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_figure_data_subcommand(tmp_path, capsys):
    rows = str(tmp_path / "rows.csv")
    main(["sweep", "--qmin", "3", "--qmax", "60", "--out", rows])
    capsys.readouterr()
    fig = str(tmp_path / "fig.txt")
    assert main(["figure-data", "--in", rows, "--parity", "odd", "--out", fig]) == 0
    assert "wrote" in capsys.readouterr().out


def test_figure_data_missing_or_malformed_input(tmp_path, capsys):
    assert main(["figure-data", "--in", str(tmp_path / "nope.csv"),
                 "--parity", "odd", "--out", str(tmp_path / "o.txt")]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("definitely,not,a,sweep,file\n")
    assert main(["figure-data", "--in", str(bad), "--parity", "odd",
                 "--out", str(tmp_path / "o2.txt")]) == 1


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--qmin", "3"])  # missing --qmax/--out
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        # the theorem needs 3 | q; only `count` takes --all-q
        main(["sweep", "--qmin", "3", "--qmax", "60", "--all-q", "--out", "rows.csv"])
    assert exc.value.code == 1


def test_check_lemmas_small_grid(capsys):
    assert main(["check-lemmas", "--grid", "8"]) == 0
    out = capsys.readouterr().out
    assert "j-integral" in out and "inner-sum-bound" in out
    assert "fail" not in out
