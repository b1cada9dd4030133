import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import frameseq.cli as cli
import frameseq.periodization as periodization
from frameseq.constructions import ramp_plateau_profile
from frameseq.gram import InconsistencyError
from frameseq.spectrum import TimeEnvelope
from frameseq.translation_sets import TranslationSet, density


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
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "xi,phi"
    assert len(lines) == 1025
    # rows are the midpoints and Phi_1 of half, 1 on [0, 1/2) and 0 on [1/2, 1)
    x0, v0 = lines[1].split(",")
    assert abs(float(x0) - 0.5 / 1024) < 1e-12 and float(v0) == 1.0
    assert lines[-1] == f"{format(1023.5 / 1024, '.12g')},0"


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


@pytest.mark.parametrize(
    "profile, indices, solver",
    [
        ("taper:2:1", "Z", "real-centrohermitian"),
        ("taper:2:1", "N", "real-centrohermitian"),
        ("taper:2:1", "squares:20", "complex"),
        ("taper:2:1", "list:0.5,1.5,2.25", "complex"),
        ("tent", "Z", "real"),
    ],
)
def test_gram_reports_its_solver(capsys, profile, indices, solver):
    code, doc = run_json(capsys, "gram", "--profile", profile, "--b", "1", "--indices", indices, "--window", "16")
    assert code == 0 and doc["result"]["solver"] == solver


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


def test_density_csv_rows_equal_the_json_table(capsys, tmp_path):
    csv_path = tmp_path / "density.csv"
    code, doc = run_json(capsys, "density", "--indices", "squares:80", "--xmax", "1000", "--csv", str(csv_path))
    assert code == 0
    header, *rows = csv_path.read_text().strip().split("\n")
    assert header == "x,D" and len(rows) == 10
    table = [{"x": float(x), "D": int(d)} for x, d in (row.split(",") for row in rows)]
    assert table == doc["result"]["table"]


def test_density_past_the_realized_span_is_refused(capsys):
    # Z with --window 10 spans 20, so every window from 32 on would count only the realized points
    code, out, err = run(capsys, "density", "--indices", "Z", "--window", "10", "--xmax", "4000")
    assert code == 1 and not out
    assert err == "usage error: realized window span 20 is shorter than x = 2048; enlarge the realization window\n"


@pytest.mark.parametrize("envelope", ["exp:0.5:1e-3", "exp:1e-300:xlog"])
def test_density_tail_the_doubling_sum_cannot_close_is_refused(capsys, envelope):
    # both envelopes decay too slowly for the tail sum of F^2: a limit of the input, not a failed check
    argv = ["density", "--indices", "Z", "--window", "400", "--xmax", "256", "--envelope", envelope]
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("usage error: the tail of F^2 past 256") and "after 80 doublings" in err


def test_density_without_xmax_stops_at_the_realized_span(capsys):
    # squares:80 spans 6400: the table and the envelope tests run to 2^12, the largest window inside it
    code, doc = run_json(capsys, "density", "--indices", "squares:80", "--envelope", "power:0.75")
    assert code == 0 and "xmax" not in doc["config"]
    res = doc["result"]
    assert [row["x"] for row in res["table"]] == [2.0**k for k in range(13)]
    assert res["table"][-1]["D"] == density(TranslationSet.squares(80), 4096.0)
    assert res["fit_windows"]["p"] == [11.0, 12.0]
    code, given = run_json(capsys, "density", "--indices", "squares:80", "--envelope", "power:0.75", "--xmax", "4096")
    assert code == 0 and given["result"] == res


def test_density_table_stops_at_xmax(capsys):
    # an --xmax in [1, 2) keeps the one window x = 1; below 1 no window is left
    code, doc = run_json(capsys, "density", "--indices", "squares:80", "--xmax", "1.5")
    assert code == 0 and doc["result"]["table"] == [{"x": 1.0, "D": 2}]
    # the largest double below 8, whose log2 rounds up to 3
    code, doc = run_json(capsys, "density", "--indices", "squares:80", "--xmax", "7.999999999999999")
    assert code == 0 and [row["x"] for row in doc["result"]["table"]] == [1.0, 2.0, 4.0]
    for xmax in ("0.5", "-3"):
        code, out, err = run(capsys, "density", "--indices", "squares:80", "--xmax", xmax)
        assert code == 1 and not out
        assert err.startswith("usage error: --xmax") and "below 1" in err


@pytest.mark.parametrize("points", ["0,9007199254740993", "9007199254740992,9007199254740993"])
def test_list_points_past_2_53_exit_1(capsys, points):
    # integer literals are parsed as ints: 2^53 + 1 is refused, not moved onto 2^53 (nor taken for a repeat)
    code, out, err = run(capsys, "density", "--indices", f"list:{points}")
    assert code == 1 and not out
    assert err == "usage error: index points must be finite, of magnitude at most 2^53\n"


def test_mixed_list_point_past_2_53_exit_1(capsys):
    # a float among the points made the whole list float64, which moved 2^53 + 1 onto 2^53
    code, out, err = run(capsys, "density", "--indices", "list:0.5,9007199254740993")
    assert code == 1 and not out
    assert err == "usage error: index points must be finite, of magnitude at most 2^53\n"


@pytest.mark.parametrize("command", [["density"], ["gram", "--profile", "tent"]])
def test_subgroup_points_past_2_53_exit_1(capsys, command):
    # m n is checked in Python ints before the points are made, where int64 would overflow
    code, out, err = run(capsys, *command, "--indices", "mZ:10000000000000000000", "--window", "4")
    assert code == 1 and not out
    assert err == "usage error: index points must be finite, of magnitude at most 2^53\n"


_SPAN_2_54 = "list:-9007199254740992,9007199254740991"


@pytest.mark.parametrize(
    ("indices", "n"),
    [("geometric:49", 49), ("geometric:52", 52), ("geometric:53", 53), (_SPAN_2_54, 54)],
    ids=["49", "52", "53", "list-54"],
)
def test_density_fit_reads_its_largest_window_exactly(capsys, indices, n):
    # each set spans 2^n - 1, whose log2 rounds up to n; the largest window inside it is 2^(n - 1)
    code, doc = run_json(capsys, "density", "--indices", indices)
    assert code == 0
    assert doc["result"]["fit_windows"]["p"] == [n - 2.0, n - 1.0]
    assert len(doc["result"]["table"]) == n  # the windows 2^0 .. 2^(n - 1)


def test_xmax_past_an_integer_span_is_refused_with_the_exact_span(capsys):
    # 2^54 and the span 2^54 - 1 are one float; the refusal compares and prints the span as an integer
    argv = ["density", "--indices", _SPAN_2_54, "--xmax", "18014398509481984", "--envelope", "power:0.75"]
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err == "usage error: x_max 1.80144e+16 exceeds the realized window span 18014398509481983\n"


_BAD_ENVELOPES = [
    ("power:nan", lambda: TimeEnvelope.power(math.nan), "a > 1/2"),
    ("power:inf", lambda: TimeEnvelope.power(math.inf), "a > 1/2"),
    ("exp:nan:xlog", lambda: TimeEnvelope.exponential(math.nan, {"xlog": {}}), "delta > 0"),
    ("exp:inf:xlog", lambda: TimeEnvelope.exponential(math.inf, {"xlog": {}}), "delta > 0"),
    ("exp:0:xlog", lambda: TimeEnvelope.exponential(0.0, {"xlog": {}}), "delta > 0"),
    ("exp:-1:xlog", lambda: TimeEnvelope.exponential(-1.0, {"xlog": {}}), "delta > 0"),
    ("exp:0.5:nan", lambda: TimeEnvelope.exponential(0.5, {"power": {"beta": math.nan}}), "beta > 0"),
    ("exp:0.5:inf", lambda: TimeEnvelope.exponential(0.5, {"power": {"beta": math.inf}}), "beta > 0"),
    ("exp:0.5:0", lambda: TimeEnvelope.exponential(0.5, {"power": {"beta": 0.0}}), "beta > 0"),
    ("exp:0.5:-1", lambda: TimeEnvelope.exponential(0.5, {"power": {"beta": -1.0}}), "beta > 0"),
]


@pytest.mark.parametrize("token, build, named", _BAD_ENVELOPES, ids=[t for t, _, _ in _BAD_ENVELOPES])
def test_envelope_parameters_are_refused_where_the_envelope_is_made(capsys, token, build, named):
    # a NaN exponent would make every number of the report nan: NaN, inf and out-of-range values fail at once
    with pytest.raises(ValueError, match=re.escape(named)):
        build()
    code, out, err = run(capsys, "density", "--indices", "Z", "--window", "400", "--xmax", "256", "--envelope", token)
    assert code == 1 and not out
    assert err.startswith(f"usage error: cannot build envelope '{token}'") and named in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [("analyze", "--profile", "ramp:1e308:1e-10"), ("gallery", "ramp", "--a", "1e308", "--b", "1e-10"),
             ("analyze", "--profile", "ramp:inf:1")]
)
def test_ramp_with_a_non_finite_ratio_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("usage error: ") and "need a finite a/b" in err and "Traceback" not in err


def test_envelope_that_underflows_everywhere_reads_bounded(capsys):
    # F = exp(-1e300 x / log(e + x)) is 0 past x = 0, so G D is 0 on every window
    argv = ("density", "--indices", "Z", "--window", "400", "--xmax", "256", "--envelope", "exp:1e300:xlog")
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["result"]["upper_bound_necessary"] == {
        "verdict": "consistent with bounded product", "growth_half": 1.0, "growth_quarter": 1.0, "sup_estimate": 0.0,
    }


@pytest.mark.parametrize("command", [("density",), ("gram", "--profile", "tent")])
def test_index_sets_past_the_cap_exit_1(capsys, command):
    # 10^12 + 1 squares are refused from their count, before any array is made
    code, out, err = run(capsys, *command, "--indices", "squares:1000000000000")
    assert code == 1 and not out
    assert err == f"resource limit: the squares index set has 1000000000001 points, past the cap {periodization.GRID_CAP}\n"


def test_readme_density_table_counts_the_realized_set(capsys):
    # the README command fits its span: its table is the density of the realized window
    code, doc = run_json(capsys, "density", "--indices", "Z", "--window", "4000", "--xmax", "4000", "--envelope", "power:0.75")
    assert code == 0
    xs = [2.0**k for k in range(12)]
    want = density(np.arange(-4000, 4001), xs).tolist()
    assert doc["result"]["table"] == [{"x": x, "D": d} for x, d in zip(xs, want)]


@pytest.mark.parametrize(
    "token, message",
    [
        ("list:", "empty list: index token"),
        ("list:1,a", "could not convert string to float: 'a'"),
        ("list:1,1", "index set has repeated points"),
    ],
)
def test_malformed_list_tokens_are_usage_errors(capsys, token, message):
    code, out, err = run(capsys, "gram", "--profile", "tent", "--indices", token)
    assert code == 1 and not out
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize("token", ["squares", "geometric"])
def test_sized_index_tokens_without_a_size_are_refused(capsys, token):
    code, out, err = run(capsys, "density", "--indices", token)
    assert code == 1 and not out
    assert f"token {token} needs a size" in err and "Traceback" not in err


@pytest.mark.parametrize("token", ["list:3", "geometric:0", "powers:2:0"])
def test_one_point_index_sets_have_no_density_fit(capsys, token):
    # a span of 0 has no dyadic scale: refused before its log is taken
    code, out, err = run(capsys, "density", "--indices", token)
    assert code == 1 and not out
    assert err == "usage error: not enough dyadic scales in the window for a tail fit\n"


@pytest.mark.parametrize(
    "argv",
    [
        # 128 points of n^4 span 2.6e8 shifts: past the shift table cap
        ("analyze", "--profile", "tent", "--b", "2", "--indices", "powers:4:200"),
        # 2201 points: past the dense eigensolve cap
        ("gram", "--profile", "tent", "--indices", "Z", "--window", "1100"),
    ],
)
def test_resource_limits_exit_1_with_their_prefix(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("resource limit: ") and "cap" in err


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


def test_verify_blocks_inconclusive_density_exits_2(capsys):
    # at alpha = 0.2 the blocks set is full up to n = 25: the density fit reads 1 > 0.9, so nothing is decided
    code, doc = run_json(capsys, "verify", "blocks", "--alpha", "0.2")
    assert code == 2
    assert doc["result"]["density_ok"] is False
    assert doc["result"]["conclusion"] == "inconclusive: density exponent fit 1.000 exceeded 0.900"


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


@pytest.mark.parametrize("n_max, grid", [(12, 2**16), (18, 2**22), (19, 2**22), (20, 2**22)])
def test_verify_default_grid_stays_under_the_cap(capsys, monkeypatch, n_max, grid):
    # 2^(n_max + 4) points, capped at GRID_CAP = 2^22, which still resolves block n_max up to 20
    seen = []
    monkeypatch.setattr(cli, "verify_lower_collapse", lambda alpha, n_range, g: seen.append(g) or {"rows": [], "density_ok": True})
    code, out, err = run(capsys, "verify", "blocks", "--nmax", str(n_max))
    assert code == 0 and seen == [grid], err


# the refusal when the tent's two pieces, times b, are narrower than the breakpoint tolerance
_TENT_BELOW_TOL = (
    "every cell sample of Phi_b at b = 1e-14 is 0: phi_hat is nonzero only on stretches narrower, times b, "
    "than the breakpoint tolerance tol = 5.68e-14 (support [0, 1], width 1)"
)


@pytest.mark.parametrize("command", ["analyze", "periodize"])
@pytest.mark.parametrize(
    "b, refusal", [("1e-12", "spacing b = 1e-12 is too small"), ("1e-14", _TENT_BELOW_TOL)], ids=["1e-12", "1e-14"]
)
def test_tiny_spacing_is_refused(capsys, command, b, refusal):
    # the cells' roundoff budget grows like 1/b; once it reaches ess sup they cannot tell Phi_b from 0, and once
    # b times the support is below tol every cell sample is 0
    code, out, err = run(capsys, command, "--profile", "tent", "--b", b)
    assert code == 1 and not out
    assert "Traceback" not in err and refusal in err


def test_hausdorff_refuses_a_tiny_spacing(capsys):
    # the grid misses the width-b sliver where Phi_b is nonzero; the cells refuse the spacing instead
    code, out, err = run(capsys, "hausdorff", "--profile", "tent", "--b", "1e-14", "--alpha", "0.5")
    assert code == 1 and not out
    assert "Traceback" not in err and _TENT_BELOW_TOL in err


@pytest.mark.parametrize(
    "argv, support",
    [
        (["analyze", "--profile", "indicator:0:1e-14", "--b", "1"], "(support [0, 1e-14], width 1e-14)"),
        (["periodize", "--profile", "indicator:0.3:0.30000000000001"], "(support [0.3, 0.30000000000001], width 9.99e-15)"),
    ],
    ids=["analyze", "periodize"],
)
def test_a_support_below_the_breakpoint_tolerance_is_named(capsys, argv, support):
    # the budget does not reach a positive ess sup here: every cell sample is 0, so the refusal names the support
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out and "Traceback" not in err
    assert support in err and "tol = 5.68e-14" in err and "too small" not in err


def test_hausdorff_alpha_is_checked_on_the_full_circle_path(capsys):
    # the grid misses the spike of width 1e-6, so every grid value is 0; alpha is still refused
    code, out, err = run(capsys, "hausdorff", "--profile", "indicator:0:1e-6", "--alpha", "1.5", "--levels", "1")
    assert code == 1 and not out
    assert err.startswith("usage error: ") and "alpha must lie in (0, 1)" in err


def test_hausdorff_levels_are_read_off_the_cells(capsys):
    runs = {}
    for grid in ("1024", "16384"):
        argv = ["hausdorff", "--profile", "tent", "--alpha", "0.6", "--levels", "3", "--grid", grid]
        code, doc = run_json(capsys, *argv)
        assert code == 0
        (row,) = doc["result"]["evidence"]
        assert row["rule"] == "exact-cell-bounds" and row["check_grid"] == int(grid)
        runs[grid] = [level["eps"] for level in doc["result"]["levels"]]
        assert runs[grid] == [row["ess_sup"] * 4.0**-k for k in (1, 2, 3)]
    assert runs["1024"] == runs["16384"]


def test_hausdorff_grid_is_checked_against_the_cells(capsys, monkeypatch):
    # with the breakpoint at 1/3 dropped, one cell's quadratic no longer fits Phi_1
    argv = ["hausdorff", "--profile", "indicator:0:0.333333333333333", "--alpha", "0.5", "--levels", "2"]
    assert run(capsys, *argv)[0] == cli.EXIT_OK
    real = periodization._breakpoints
    monkeypatch.setattr(periodization, "_breakpoints", lambda profile, b: real(profile, b)[:-1])
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_INCONSISTENT and not out
    assert "Traceback" not in err and "exact cells" in err


def test_periodize_mean_is_read_off_the_cells(capsys):
    # the grid's midpoint mean moves with --grid (0.357952353671 at 4096 points); the cells' does not
    norm = ramp_plateau_profile(3.0, 2.0)[0].norm_squared()
    means = []
    for grid in ("1024", "4096", "65536"):
        code, doc = run_json(capsys, "periodize", "--profile", "ramp:3:2", "--b", "2", "--grid", grid)
        assert code == 0
        means.append(doc["result"]["summary"]["mean"])
        assert abs(means[-1] - 2.0 * norm) <= doc["result"]["evidence"][0]["budget"]
    assert len(set(means)) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--profile", "indicator:0:1e300", "--indices", "Z"),
        ("periodize", "--profile", "indicator:0:1e200"),
        ("gram", "--profile", "indicator:-1e300:1e300", "--indices", "Z", "--window", "4"),
        ("analyze", "--profile", "indicator:0:inf", "--indices", "Z"),
    ],
)
def test_profiles_with_huge_or_infinite_bounds_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith(f"usage error: cannot build profile '{argv[2]}'") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("periodize", "--profile", "indicator:0:1e12"),
        ("hausdorff", "--profile", "indicator:0:1e12", "--alpha", "0.5"),
        ("analyze", "--profile", "indicator:0:1e12", "--indices", "Z"),
    ],
)
def test_huge_finite_supports_are_refused_by_their_translate_count(capsys, argv):
    # 1e12 + 4 translates meet [0, 1) at b = 1; summing them was a loop of that length
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("resource limit: ") and "1000000000004 translates" in err
    assert f"past the cap {periodization.GRID_CAP}" in err


def test_profile_file_whose_samples_overflow_when_squared_is_refused(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"pieces": [{"lo": 0.0, "hi": 1.0, "shape": {"samples": [1e200, 1.0]}}]}))
    # the suite turns warnings into errors, so an overflow warning from the square would escape as one
    code, out, err = run(capsys, "periodize", "--profile", str(path))
    assert code == 1 and not out
    assert err.startswith("usage error: ") and "||phi||^2 = inf over the support (0.0, 1.0)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("gallery", "blocks", "--nmax", "21"),
        ("gallery", "blocks", "--nmax", "24"),
        ("verify", "blocks", "--nmax", "21"),
        ("analyze", "--profile", "blocks:0.5:21"),
    ],
)
def test_blocks_past_the_grid_cap_name_n_max(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    n_max = int(argv[-1].split(":")[-1])
    assert err.startswith("resource limit: ") and f"n_max = {n_max} needs 2^{n_max + 2} points" in err


def test_small_spacing_above_the_budget_is_classified(capsys):
    code, doc = run_json(capsys, "analyze", "--profile", "tent", "--b", "1e-10", "--indices", "Z")
    assert code == 0 and doc["result"]["report"]["classification"] == "not a frame sequence"


def test_reports_are_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code = cli.main(["periodize", "--profile", "taper:2:1", "--b", "2", "--out", str(f)])
        assert code == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    # a different option must change the config hash, not just the payload
    code = cli.main(["periodize", "--profile", "taper:2:1", "--b", "3", "--out", str(f2)])
    capsys.readouterr()
    hashes = [json.loads(f.read_text())["config_hash"] for f in (f1, f2)]
    assert hashes[0] != hashes[1]


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
        ("analyze", "--profile", "tent", "--seed", "7"),
        ("gram", "--profile", "tent", "--seed", "7"),
        ("gallery", "taper", "--seed", "7"),
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
    assert doc["config"] == {"command": "density", "indices": "Z", "window": 100, "xmax": 100.0}


@pytest.mark.parametrize(
    "argv, named",
    [
        (("gallery", "blocks", "--nmax", "0"), "n_max out of the supported range [1, 24]"),
        (("gallery", "blocks", "--alpha", "0"), "alpha must lie in (0, 1)"),
        (("gallery", "taper", "--a", "0"), "need 0 < b < a"),
        (("gallery", "ramp", "--b", "0"), "need 0 < b < a"),
        (("gallery", "taper", "--window", "0"), "--window must lie in [4, 2048]"),
        (("gallery", "taper", "--grid", "0"), "--grid must be a power of two"),
        (("verify", "blocks", "--alpha", "0"), "alpha must lie in (0, 1)"),
        (("verify", "blocks", "--nmin", "0", "--nmax", "6"), "block index must be >= 1"),
        (("analyze", "--profile", "tent", "--window", "0"), "--window must lie in [4, 2048]"),
        (("analyze", "--profile", "tent", "--grid", "0"), "--grid must be a power of two"),
        (("gram", "--profile", "tent", "--window", "0"), "--window must lie in [4, 2048]"),
        (("periodize", "--profile", "tent", "--grid", "0"), "--grid must be a power of two"),
        (("hausdorff", "--profile", "tent", "--alpha", "0.5", "--grid", "0"), "--grid must be a power of two"),
        (("density", "--indices", "mZ:3", "--window", "0"), "half_width must be >= 1"),
        (("density", "--indices", "mZ:3", "--window", "-1"), "half_width must be >= 1"),
        (("density", "--indices", "squares:50", "--xmax", "inf"), "--xmax must be finite"),
        (("density", "--indices", "squares:50", "--xmax", "nan", "--envelope", "power:0.75"), "--xmax must be finite"),
        (("verify", "blocks", "--grid", "0"), "--grid must be a power of two"),
        (("hausdorff", "--profile", "tent", "--alpha", "0.5", "--levels", "0"), "--levels must be at least 1"),
        (("hausdorff", "--profile", "tent", "--alpha", "0.5", "--levels", "-1"), "--levels must be at least 1"),
        (("selftest", "--seed", "-3"), "--seed must be a non-negative integer, got -3"),
    ],
)
def test_zero_flags_and_non_finite_xmax_are_refused(capsys, argv, named):
    # a flag given 0 is a value, not a missing flag: it meets the same checks as any other
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("usage error: ") and named in err and "Traceback" not in err


def _readme_commands():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), flags=re.S)
    return [line.split()[1:] for block in blocks for line in block.splitlines() if line.startswith("frameseq ")]


def test_readme_commands_run(capsys, tmp_path):
    commands = _readme_commands()
    assert commands, "README.md lost its CLI examples"
    for argv in commands:
        # files the examples name go to tmp_path
        argv = [str(tmp_path / v) if k in ("--out", "--csv") else v for k, v in zip([None, *argv], argv)]
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)


@pytest.mark.parametrize("token", ["blocks:1.5:4", "blocks:0:4", "blocks:-0.5:4"])
def test_blocks_alpha_outside_the_unit_interval_is_refused(capsys, token):
    code, out, err = run(capsys, "periodize", "--profile", token)
    assert code == 1 and not out
    assert "Traceback" not in err and "alpha must lie in (0, 1)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("periodize", "--profile", "blocks:0.5:0"),
        ("periodize", "--profile", "blocks:0.5:-3"),
        ("analyze", "--profile", "blocks:0.5:0", "--indices", "Z"),
        ("hausdorff", "--profile", "blocks:0.5:0", "--alpha", "0.5"),
    ],
)
def test_blocks_profile_without_levels_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err == f"usage error: cannot build profile {argv[2]!r}: n_max out of the supported range [1, 24]\n"


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

    real = constructions.periodize_at

    def off(profile, b, xi):
        return real(profile, b, xi) + 1e-6

    monkeypatch.setattr(constructions, "periodize_at", off)
    code, out, err = run(capsys, *argv)
    assert code == 3 and not out
    assert "Traceback" not in err and "inconsistency: periodized profile deviates" in err


def _child_env():
    """The environment of a child interpreter that imports this checkout's ``frameseq``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_runtime_runs_without_scipy():
    # scipy is the test suite's oracle only: a child interpreter that cannot
    # import it still runs the envelope integrals and a selftest
    code = textwrap.dedent(
        """
        import sys
        sys.modules["scipy"] = None
        import frameseq.cli as cli
        from frameseq.spectrum import TimeEnvelope
        from frameseq.translation_sets import TranslationSet, upper_bound_sufficient
        env = TimeEnvelope.exponential(0.3, {"xlog": {}})
        assert upper_bound_sufficient(env, TranslationSet.integers(500), x_max=500.0).integral > 0
        sys.exit(cli.main(["selftest", "--seed", "7"]))
        """
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr


_IMPORT_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import numpy
    bare_ma = "numpy.ma" in sys.modules
    import frameseq.cli as cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
    print(json.dumps({"code": code, "bare_ma": bare_ma, "random": "numpy.random" in sys.modules,
                      "ma": "numpy.ma" in sys.modules,
                      "hashlib": sorted(m for m in ("hashlib", "_hashlib") if m in sys.modules)}))
    """
)


def _probe_imports(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv], capture_output=True, text=True, timeout=120, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["code"] == 0
    return seen


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--profile", "taper:2:1", "--b", "2", "--indices", "Z"),
        ("analyze", "--profile", "ramp:3:2", "--b", "3", "--indices", "Z"),
        ("periodize", "--profile", "half", "--grid", "4096"),
        ("gram", "--profile", "tent", "--b", "2", "--indices", "Z", "--window", "64"),
        ("density", "--indices", "Z", "--window", "4000", "--xmax", "4000", "--envelope", "power:0.75"),
        pytest.param(
            ("density", "--indices", "Z", "--window", "4000", "--xmax", "4000", "--envelope", "exp:0.3:xlog"),
            id="density-exp-xlog",
        ),
        pytest.param(("density", "--indices", "blocks:0.5:14", "--envelope", "exp:0.5:0.6"), id="density-exp-blocks"),
        ("gallery", "taper", "--window", "64"),
        ("verify", "blocks", "--nmin", "4", "--nmax", "12", "--grid", "65536"),
        ("hausdorff", "--profile", "blocks:0.5:12:65536", "--alpha", "0.5", "--levels", "4"),
    ],
    ids=lambda argv: argv[0],
)
def test_commands_without_a_seed_load_neither_numpy_random_nor_numpy_ma(argv):
    # numpy.ma is counted only where a bare ``import numpy`` leaves it out,
    # since some numpy releases load it with the package; config_hash takes
    # CPython's built-in SHA-256, so OpenSSL's _hashlib stays out too
    seen = _probe_imports(argv)
    assert not seen["random"]
    assert seen["bare_ma"] or not seen["ma"]
    assert seen["hashlib"] == []


def test_selftest_loads_neither_numpy_random_nor_hashlib():
    # its seeded draws come from random.Random, whose seeding reads no hashlib
    seen = _probe_imports(("selftest", "--seed", "7"))
    assert not seen["random"]
    assert seen["hashlib"] == []


def test_selftest_passes_every_suite_on_the_first_16_seeds(capsys):
    for seed in range(16):
        code, doc = run_json(capsys, "selftest", "--seed", str(seed))
        failed = [s["name"] for s in doc["result"]["suites"] if not s["passed"]]
        assert code == 0 and doc["result"]["all_passed"] and not failed, (seed, failed)


_CONFIGS = [
    {},
    {"command": "analyze", "profile": "taper:2:1", "b": 2.0, "indices": "Z"},
    {"profile": "r\u00e9sum\u00e9:\u03c6\u0302", "note": "\u5e73\u65b9 \U0001d53c", "b": 0.1 + 0.2},
    {"floats": [1e-300, -0.0, 1 / 3, 2.0**53 + 1, 6.02214076e23], "ints": [0, -7, 2**70]},
    {"nested": [[1, [2.5, ["x", {"k": [True, False, None]}]]], {"z": {"y": [[], {}]}}]},
]


@pytest.mark.parametrize("cfg", _CONFIGS)
def test_config_hash_is_the_sha256_of_the_canonical_config(cfg):
    blob = json.dumps(cli._canon(cfg), sort_keys=True, separators=(",", ":")).encode()
    assert cli._config_hash(cfg) == hashlib.sha256(blob).hexdigest()


def test_config_hash_of_the_readme_analyze_command_is_pinned(capsys):
    # the digest hashlib.sha256 gave before config_hash took CPython's built-in module
    code, doc = run_json(capsys, "analyze", "--profile", "taper:2:1", "--b", "2", "--indices", "Z")
    assert code == 0
    assert doc["config_hash"] == "a8a7e9e545ea0c45da1af96f539898227852bb84549e598b991fd22d07fa06fa"
