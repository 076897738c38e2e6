import numpy as np
import pytest

from conftest import FIGURE_EIGHT_8
from thickknots.cli import main
from thickknots.knotio import read_records, read_stats, write_knots
from thickknots.polygon import regular_polygon, validate_polygon
from thickknots.thickness import thickness_value

REGULAR_10GON_THICKNESS = 0.15388417685876263


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_regular(capsys):
    code, out, _ = run(capsys, "gen-regular", "--n", "10")
    assert code == 0
    assert "# n=10" in out
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert len(lines) == 10


def test_thickness_report(capsys, tmp_path):
    path = tmp_path / "k.txt"
    write_knots(str(path), [regular_polygon(10)])
    code, out, _ = run(capsys, "thickness", str(path))
    assert code == 0
    values = dict(ln.split("=", 1) for ln in out.splitlines() if ln)
    assert np.isclose(float(values["thickness"]), REGULAR_10GON_THICKNESS, atol=1e-12)
    assert values["n"] == "10"


def test_sample_writes_records_and_stats(capsys, tmp_path):
    out_path = tmp_path / "samples.txt"
    stats_path = tmp_path / "stats.txt"
    code, _, err = run(
        capsys, "sample", "--n", "8", "--thickness", "0.01", "--steps", "50",
        "--stride", "10", "--seed", "7", "--out", str(out_path),
        "--stats", str(stats_path),
    )
    assert code == 0
    assert "acceptance_rate=" in err
    recs = read_records(str(out_path))
    assert len(recs) == 5
    for rec in recs:
        assert thickness_value(rec.polygon) >= 0.01 - 1e-12
        assert rec.header["seed"] == "7"
    stats = read_stats(str(stats_path))
    assert len(stats) == 5
    assert {"step", "thickness", "minrad", "dcsd", "rg2", "accepted", "m"} <= set(stats[0])


def test_sample_stats_leaves_knot_file_unchanged(capsys, tmp_path):
    plain, with_stats = tmp_path / "plain.txt", tmp_path / "with_stats.txt"
    argv = ["sample", "--n", "10", "--thickness", "0.02", "--steps", "200",
            "--stride", "10", "--seed", "2", "--out"]
    assert run(capsys, *argv, str(plain))[0] == 0
    assert run(capsys, *argv, str(with_stats),
               "--stats", str(tmp_path / "stats.txt"))[0] == 0
    assert plain.read_bytes() == with_stats.read_bytes()


def test_sample_is_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["sample", "--n", "6", "--thickness", "0.0", "--steps", "30",
            "--seed", "3", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_canonicalize_outputs_regular(capsys, tmp_path):
    from conftest import random_equilateral

    path = tmp_path / "k.txt"
    trace_path = tmp_path / "trace.txt"
    write_knots(str(path), [random_equilateral(6, 8)])
    code, out, _ = run(capsys, "canonicalize", str(path), "--trace", str(trace_path))
    assert code == 0
    # parse the emitted record from stdout
    coords = [[float(x) for x in ln.split()] for ln in out.splitlines()
              if ln and not ln.startswith("#")]
    K = validate_polygon(np.array(coords))
    assert K.n == 6
    text = trace_path.read_text()
    assert "final_rms=" in text
    rms = float(text.rsplit("final_rms=", 1)[1].split()[0])
    assert rms <= 1e-6


def test_analyze_observables(capsys, tmp_path):
    path = tmp_path / "k.txt"
    write_knots(str(path), [validate_polygon(FIGURE_EIGHT_8)])
    code, out, _ = run(capsys, "analyze", str(path),
                       "--observables", "gyration,thickness,unknot")
    assert code == 0
    assert "determinant=5" in out
    assert "maybe_unknot=0" in out
    assert "rg=" in out and "thickness=" in out


def test_analyze_unknown_observable_is_usage_error(capsys, tmp_path):
    path = tmp_path / "k.txt"
    write_knots(str(path), [regular_polygon(4)])
    code, _, err = run(capsys, "analyze", str(path), "--observables", "writhe")
    assert code == 1
    assert "writhe" in err


def test_convert_obj(capsys, tmp_path):
    path = tmp_path / "k.txt"
    write_knots(str(path), [regular_polygon(5)])
    code, out, _ = run(capsys, "convert", str(path), "--to", "obj")
    assert code == 0
    assert out.count("v ") == 5
    assert "l 1 2 3 4 5 1" in out


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, )
    assert code == 1


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "gen-regular" in out


def test_missing_file_is_data_error(capsys, tmp_path):
    code, _, _ = run(capsys, "thickness", str(tmp_path / "absent.txt"))
    assert code == 2


def test_corrupt_file_is_data_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 0\n1 0 0\nnot numbers here\n")
    code, _, _ = run(capsys, "thickness", str(path))
    assert code == 2


def test_bad_chain_config_is_usage_error(capsys):
    code, _, _ = run(capsys, "sample", "--n", "2", "--thickness", "0",
                     "--steps", "1")
    assert code == 1


def test_sample_cont_prob_sets_every_slot(capsys, tmp_path):
    # 0.5 is the default for every slot, so the runs must agree
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["sample", "--n", "10", "--thickness", "0", "--steps", "10", "--out"]
    assert main(argv + [str(a), "--cont-prob", "0.5"]) == 0
    assert main(argv + [str(b)]) == 0
    capsys.readouterr()
    assert len(read_records(str(a))) == 10
    assert a.read_text() == b.read_text()


def test_sample_cont_prob_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "sample", "--n", "10", "--thickness", "0",
                       "--steps", "10", "--cont-prob", "1.5")
    assert code == 1
    assert "continuation probabilities" in err
