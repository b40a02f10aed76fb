"""CLI surface: subcommands, output shapes, exit codes."""

import hashlib

import pytest

from l1sweep import batch
from l1sweep.cli import main


def test_lvalue_single_conductor(capsys):
    assert main(["lvalue", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "0.604599788078" in out
    assert "parity=odd" in out and "verdict=pass" in out


# sha256 of the standard output of `l1sweep lvalue --q Q`: every record's
# line, its margin and verdict included, pinned so that a change to how a
# report is computed cannot change a printed byte; a row change re-pins
# them, and the ids leave the digest out, so a re-pinned case keeps its name
@pytest.mark.parametrize("q, digest", [
    pytest.param(249, "106c871f7787608fac9a2e561171c48092e3cbdbf92b0cc00dddaaddecdd0b26",
                 id="249"),
    pytest.param(9999, "0a1b72b090f5ccf608a47578c879fe85a711ed95696e6a503f13a30b0496e689",
                 id="9999"),
])
def test_lvalue_stdout_digest(q, digest, capsys):
    assert main(["lvalue", "--q", str(q)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_lvalue_no_primitive(capsys):
    assert main(["lvalue", "--q", "6"]) == 0
    assert "no primitive characters" in capsys.readouterr().out


def test_lvalue_index_selector(capsys):
    assert main(["lvalue", "--q", "5", "--index", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("q=5") == 1 and "parity=even" in out
    assert main(["lvalue", "--q", "5", "--index", "0"]) == 1  # principal: not primitive


@pytest.mark.parametrize("q", [5, 45, 249, 996, 4096])
def test_lvalue_index_is_the_filtered_listing(q, capsys):
    # --index prints its character's line of the full listing, byte for
    # byte, whether rfftn's half holds the character or it is rebuilt as a
    # conjugate (every index is tried)
    assert main(["lvalue", "--q", str(q)]) in (0, 2)
    lines = capsys.readouterr().out.splitlines(keepends=True)
    indices = {int(line.split()[1].removeprefix("index=")) for line in lines}
    assert indices - set(batch._spectrum(q, 1e-9).index.tolist())   # some are rebuilt
    for line in lines:
        index = int(line.split()[1].removeprefix("index="))
        code = main(["lvalue", "--q", str(q), "--index", str(index)])
        assert capsys.readouterr().out == line
        assert code == (0 if "verdict=pass" in line else 2)


@pytest.mark.parametrize("q, index", [(5, 0), (45, 0), (45, 3), (45, 4), (45, 24), (45, -1),
                                      (249, 0), (249, 10**6)])
def test_lvalue_index_not_primitive_exits_1(q, index, capsys):
    # a non-primitive or out-of-range index: the message and exit code of
    # the filtered listing
    assert main(["lvalue", "--q", str(q), "--index", str(index)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no primitive character with index {index} mod {q}\n"


def test_lvalue_index_without_primitive_characters(capsys):
    assert main(["lvalue", "--q", "6", "--index", "1"]) == 0
    assert capsys.readouterr().out == "q=6: no primitive characters\n"


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
    # a tol below the coefficients' floor 2 phi max(r)/sqrt(q)
    ["sweep", "--qmin", "300003", "--qmax", "300003", "--tol", "1e-30"],
    ["sweep", "--qmin", "3", "--qmax", "30", "--tol", "nan"],  # no radius is <= NaN
    ["sweep", "--qmin", "3", "--qmax", "30", "--tol", "nan", "--threads", "2"],
    ["sweep", "--qmin", "3", "--qmax", "30", "--threads", "0"],   # no worker at all
    ["sweep", "--qmin", "3", "--qmax", "30", "--threads", "-1"],
])
def test_sweep_bad_input_exits_1(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "rows.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_tolerance_error_names_conductor(threads, tmp_path, capsys):
    # 299997 is the first conductor of the range, and 1e-30 is below the
    # coefficients' floor at every conductor
    assert main(["sweep", "--qmin", "299997", "--qmax", "300003", "--threads", threads,
                 "--tol", "1e-30", "--out", str(tmp_path / "rows.csv")]) == 1
    assert "q=299997: " in capsys.readouterr().err


@pytest.mark.parametrize("q", ["2", "2147483648"])
def test_lvalue_bad_input_exits_1(q, capsys):
    assert main(["lvalue", "--q", q]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_lvalue_at_300003_exits_0(capsys):
    # phi(300003) put the digamma coefficients below their floor at the
    # default tol; the elementary coefficients reach it
    index = batch._spectrum(300003, 1e-9).index[0]
    assert main(["lvalue", "--q", "300003", "--index", str(index)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"q=300003 index={index} ") and "verdict=pass" in out


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
    rows = tmp_path / "rows.csv"
    main(["sweep", "--qmin", "3", "--qmax", "60", "--out", str(rows)])
    capsys.readouterr()
    whole = rows.read_bytes()
    # a complete row that does not parse ends the command at its line, and
    # no point is written
    lines = whole.splitlines(keepends=True)
    lines[4] = b"garbage,line\n"
    bad.write_bytes(b"".join(lines))
    out = tmp_path / "o3.txt"
    assert main(["figure-data", "--in", str(bad), "--parity", "even", "--out", str(out)]) == 1
    assert "line 5" in capsys.readouterr().err and not out.exists()
    # an --out equal to --in is refused, and the rows are left as they were
    assert main(["figure-data", "--in", str(rows), "--parity", "even", "--out", str(rows)]) == 1
    assert "refusing" in capsys.readouterr().err and rows.read_bytes() == whole
    # an interrupted sweep's trailing partial line is still dropped
    rows.write_bytes(whole[:-5])
    assert main(["figure-data", "--in", str(rows), "--parity", "odd", "--out", str(out)]) == 0
    kept = whole.splitlines()[1:-1]
    assert out.read_text().count("\n") == sum(b",odd," in r for r in kept)


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
