import json
import os
import subprocess
import sys
import textwrap

import pytest

import frameseq.cli as cli
from frameseq.gram import InconsistencyError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout (stderr: {err})"
    return code, json.loads(out)


def test_analyze_box_orthonormal(capsys):
    code, doc = run_json(capsys, "analyze", "--profile", "box", "--indices", "Z")
    assert code == 0
    assert doc["schema"] == "frameseq/1"
    assert doc["result"]["report"]["classification"] == "orthonormal"
    assert doc["config_hash"]


def test_analyze_exit_codes(capsys):
    code, out, err = run(capsys, "analyze", "--profile", "wavelet", "--indices", "Z")
    assert code == 1 and "usage error" in err
    code, out, err = run(capsys, "analyze", "--profile", "box", "--grid", "100")
    assert code == 1 and "power of two" in err
    # non-integer explicit sets carry no lattice structure: undetermined
    code, doc = run_json(
        capsys, "analyze", "--profile", "taper:2:1", "--indices", "list:0.5,1.5,2.25"
    )
    assert code == 2
    assert doc["result"]["report"]["classification"] == "undetermined"


def test_analyze_inconsistency_exit(capsys, monkeypatch):
    def boom(*a, **k):
        raise InconsistencyError("routes disagree")

    monkeypatch.setattr(cli, "classify", boom)
    code, out, err = run(capsys, "analyze", "--profile", "box")
    assert code == 3 and "inconsistency" in err


def test_missing_subcommand_is_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 1


def test_periodize_summary_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "phi.csv"
    code, doc = run_json(
        capsys, "periodize", "--profile", "half", "--grid", "1024", "--csv", str(csv_path)
    )
    assert code == 0
    assert doc["result"]["summary"]["sup"] == 1.0
    assert doc["result"]["zero_runs"] == 1
    assert doc["result"]["zero_intervals"] == [[0.5, 1.0]]
    (row,) = doc["result"]["evidence"]
    assert row["rule"] == "exact-cell-bounds" and row["check_grid"] == 1024
    header = csv_path.read_text().splitlines()[0]
    assert header == "xi,phi"


def test_periodize_bounds_do_not_move_with_the_grid(capsys):
    # the tent at b = 1 touches zero at xi = 0 without vanishing on a set of positive measure
    for grid in ("4096", "4194304"):
        code, doc = run_json(capsys, "periodize", "--profile", "tent", "--grid", grid)
        assert code == 0
        s = doc["result"]["summary"]
        assert (s["sup"], s["inf_nonzero"], s["zero_fraction"]) == (1.0, 0.0, 0.0)
        assert doc["result"]["zero_runs"] == 0 and doc["result"]["zero_intervals"] == []


def test_periodize_reports_runs_over_most_of_the_circle(capsys):
    code, doc = run_json(capsys, "periodize", "--profile", "indicator:0:0.25")
    assert code == 0
    assert doc["result"]["summary"]["zero_fraction"] == 0.75
    assert doc["result"]["zero_runs"] == 1 and doc["result"]["zero_intervals"] == [[0.25, 1.0]]


def test_gram_reports_route_and_bounds(capsys):
    code, doc = run_json(
        capsys, "gram", "--profile", "taper:2:1", "--b", "2", "--indices", "Z", "--window", "32"
    )
    assert code == 0
    res = doc["result"]
    assert res["route"] == "periodization-grid"
    assert res["dim"] == 65
    assert 0 < res["A_est"] <= res["B_est"]
    assert res["checked_shifts"]
    assert not res["degenerate"]


def test_gram_refuses_sets_over_the_dense_cap(capsys):
    code, out, err = run(capsys, "gram", "--profile", "tent", "--b", "2", "--indices", "squares:3000")
    assert code == 1 and not out
    assert "3001 translates exceeds the dense cap 2048" in err


def test_density_with_envelope(capsys):
    code, doc = run_json(
        capsys,
        "density",
        "--indices", "Z",
        "--window", "4000",
        "--xmax", "4000",
        "--envelope", "power:0.75",
    )
    assert code == 0
    res = doc["result"]
    assert res["table"][0] == {"x": 1.0, "D": 2}
    assert "violated" in res["upper_bound_necessary"]["verdict"]
    assert res["upper_bound_necessary"]["growth_quarter"] >= 2.0
    assert res["g_equivalence"]["hypotheses_hold"] and res["g_equivalence"]["C"] < 10
    assert res["upper_bound_sufficient"]["verdict"] == "diverges"


def test_density_envelope_token_errors(capsys):
    code, out, err = run(
        capsys, "density", "--indices", "squares:80", "--envelope", "gaussian", "--xmax", "1000"
    )
    assert code == 1 and "envelope" in err
    code, doc = run_json(
        capsys,
        "density",
        "--indices", "squares:80",
        "--envelope", "exp:1:xlog",
        "--xmax", "1000",
    )
    assert code == 0
    assert doc["result"]["g_equivalence"]["hypotheses_hold"] is False


def test_hausdorff_levels(capsys, tmp_path):
    csv_path = tmp_path / "cover.csv"
    code, doc = run_json(
        capsys,
        "hausdorff",
        "--profile", "tent",
        "--alpha", "0.6",
        "--levels", "3",
        "--csv", str(csv_path),
    )
    assert code == 0
    levels = doc["result"]["levels"]
    sums = [l["measure_sum"] for l in levels]
    assert sums[-1] <= sums[0]
    assert not levels[0]["full_circle"]
    assert csv_path.read_text().splitlines()[0] == "eps,depth,cells,measure_sum"


def test_hausdorff_blocks_profile_token(capsys):
    code, out, err = run(
        capsys, "hausdorff", "--profile", "blocks:0.5:6", "--alpha", "0.5", "--levels", "2"
    )
    assert code == 0 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["result"]["profile"]["grid"] == 2**14
    assert len(doc["result"]["levels"]) == 2


def test_gallery_taper_and_ramp_paired(capsys):
    code, doc = run_json(capsys, "gallery", "taper", "--window", "64")
    assert code == 0
    assert doc["result"]["paired"] is True
    verdicts = [c["report"]["classification"] for c in doc["result"]["cases"]]
    assert "not a frame sequence" in verdicts and "exact frame sequence" in verdicts

    code, doc = run_json(capsys, "gallery", "ramp", "--window", "64")
    assert code == 0
    assert doc["result"]["paired"] is True
    assert doc["result"]["eps"] == pytest.approx(1.0 / 6.0, abs=1e-5)


def test_gallery_blocks_upper_bound_only(capsys):
    code, doc = run_json(capsys, "gallery", "blocks", "--nmax", "10", "--window", "64")
    assert code == 0
    rep = doc["result"]["cases"][0]["report"]
    assert rep["classification"] == "upper bound only"
    assert doc["result"]["paired"] is True


def test_verify_blocks_failure_exit(capsys):
    code, out, err = run(
        capsys, "verify", "blocks", "--alpha", "0.9", "--nmin", "4", "--nmax", "5"
    )
    assert code == 3 and "verification failed" in err


def test_verify_blocks_csv(capsys, tmp_path):
    csv_path = tmp_path / "w.csv"
    code, doc = run_json(
        capsys,
        "verify", "blocks",
        "--nmin", "4",
        "--nmax", "12",
        "--grid", "65536",
        "--csv", str(csv_path),
    )
    assert code == 0
    assert doc["result"]["w_ratio"] < 0.5
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,w" and len(lines) == 10


def test_reports_are_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code = cli.main(
            ["periodize", "--profile", "taper:2:1", "--b", "2", "--out", str(f), "--seed", "7"]
        )
        assert code == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    # a different seed must change the config hash, not just the payload
    code = cli.main(
        ["periodize", "--profile", "taper:2:1", "--b", "2", "--out", str(f2), "--seed", "8"]
    )
    capsys.readouterr()
    assert f1.read_bytes() != f2.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "blocks", "--nmax", "30"),
        ("gallery", "blocks", "--nmax", "30"),
        ("analyze", "--profile", "blocks:0.5:30"),
    ],
)
def test_blocks_grid_beyond_the_cap_is_refused_before_allocation(capsys, argv):
    # n_max = 30 asks for a 2^32-point grid; the grid check refuses it first
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert "Traceback" not in err and "must be a power of two in [16, 4194304]" in err


def test_gram_has_no_grid_option(capsys):
    code, out, err = run(capsys, "gram", "--profile", "tent", "--grid", "64")
    assert code == 1 and "unrecognized arguments: --grid 64" in err


@pytest.mark.parametrize("command", ["analyze", "gallery"])
def test_grid_is_validated_against_the_finest_refinement(capsys, command):
    # --grid sets the one check grid, so it is capped by GRID_CAP = 2^22 itself
    argv = ["gallery", "taper"] if command == "gallery" else ["analyze", "--profile", "box"]
    code, out, err = run(capsys, *argv, "--grid", str(2**23))
    assert code == 1 and not out
    assert "--grid must be a power of two in [16, 4194304]" in err


def test_largest_base_grid_runs(capsys):
    code, doc = run_json(capsys, "analyze", "--profile", "box", "--grid", str(2**22), "--window", "8")
    assert code == 0 and doc["result"]["report"]["grid_sizes"] == [2**22]


@pytest.mark.parametrize("command", ["analyze", "gram", "periodize"])
@pytest.mark.parametrize("b", ["nan", "inf", "-inf", "0"])
def test_spacing_must_be_positive_and_finite(capsys, command, b):
    code, out, err = run(capsys, command, "--profile", "tent", f"--b={b}")
    assert code == 1 and not out
    assert "spacing b must be positive and finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("selftest", "--window", "8"),
        ("selftest", "--grid", "64"),
        ("density", "--indices", "Z", "--grid", "64"),
        ("periodize", "--profile", "tent", "--window", "8"),
        ("hausdorff", "--profile", "tent", "--alpha", "0.5", "--window", "8"),
        ("verify", "blocks", "--window", "8"),
    ],
)
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_config_holds_only_the_given_options(capsys):
    # options left out are dropped, so the hash of a run without them never moves
    code, doc = run_json(capsys, "density", "--indices", "Z", "--window", "100", "--xmax", "100")
    assert code == 0
    assert doc["config"] == {"command": "density", "indices": "Z", "window": 100, "xmax": 100.0, "seed": 0}


@pytest.mark.parametrize("token", ["blocks:1.5:4", "blocks:0:4", "blocks:-0.5:4"])
def test_blocks_alpha_outside_the_unit_interval_is_refused(capsys, token):
    code, out, err = run(capsys, "periodize", "--profile", token)
    assert code == 1 and not out
    assert "Traceback" not in err and "alpha must lie in (0, 1)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("periodize", "--profile", "blocks:0.5:4"),
        ("verify", "blocks", "--nmin", "4", "--nmax", "5"),
    ],
)
def test_failed_construction_check_exits_3(capsys, monkeypatch, argv):
    # a periodized blocks profile that misses its spectrum fails infimum_spectrum's own check
    import frameseq.constructions as constructions

    real = constructions.periodize

    def off(profile, b, grid_size):
        ps = real(profile, b, grid_size)
        ps.values = ps.values + 1e-6
        return ps

    monkeypatch.setattr(constructions, "periodize", off)
    code, out, err = run(capsys, *argv)
    assert code == 3 and not out
    assert "Traceback" not in err and "inconsistency: periodized profile deviates" in err


def test_runtime_runs_without_scipy():
    # scipy is the test suite's oracle only: a child interpreter that cannot
    # import it still runs the envelope integrals and a selftest
    code = textwrap.dedent(
        """
        import sys
        sys.modules["scipy"] = None
        import frameseq.cli as cli
        from frameseq.spectrum import TimeEnvelope, autocorrelation
        from frameseq.translation_sets import TranslationSet, upper_bound_sufficient
        env = TimeEnvelope.exponential(0.3, {"xlog": {}})
        assert autocorrelation(env, 30.0) > 0
        assert env.admissibility()["admissible"]
        assert upper_bound_sufficient(env, TranslationSet.integers(500), x_max=500.0).integral > 0
        sys.exit(cli.main(["selftest", "--seed", "7"]))
        """
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
