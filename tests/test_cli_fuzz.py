"""Seeded fuzz of the command line: token sequences over the CLI grammar, run in-process.

Every run must end in one of the documented exit codes with no exception
escaping ``cli.main``.  Sizes stay small (spacings up to 8, grids up to
2^12, windows up to 32, ``nmax`` up to 6) so the whole test takes seconds;
large spacings stay out because ``periodize_at`` costs O(b M), and
``selftest``, whose only input is the seed, has its own tests.  No run
writes a file: ``--out`` and ``--csv`` are never drawn.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frameseq.cli as cli

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_UNDETERMINED, cli.EXIT_INCONSISTENT}

JUNK = st.sampled_from(["", "x", "-1", "nan", "inf", "1e400", ":", "box:1", "list:", "Z:3", "--b"])


def _num(lo, hi, bad=()):
    """A float in [lo, hi] as a token, or now and then one of the invalid tokens ``bad``."""
    fine = st.floats(lo, hi).map(lambda v: f"{v:.4g}")
    return st.one_of(fine, fine, st.sampled_from(bad)) if bad else fine


SPACING = _num(0.25, 8, ("0", "-2", "nan", "inf"))
GRID = st.sampled_from(["16", "64", "256", "1024", "4096", "4096", "100", "-4"])
WINDOW = st.integers(4, 32).map(str) | st.sampled_from(["-2", "0", "3"])
NMAX = st.sampled_from(["1", "2", "3", "4", "5", "6", "0", "-1"])
ALPHA = _num(0.05, 0.95, ("0", "1", "-0.5"))

PROFILE = st.one_of(
    st.sampled_from(["box", "tent", "half", "indicator:0:0.25", "indicator:0.1:0.3"]),
    # lower end and width; a width below 0 is an empty support, a refusal
    st.tuples(st.floats(-1, 1), st.floats(-0.1, 1.5)).map(lambda t: f"indicator:{t[0]:.4g}:{t[0] + t[1]:.4g}"),
    # plateau end b and taper length; the constructions refuse b >= a
    st.tuples(st.sampled_from(["taper", "ramp"]), st.floats(0.25, 3), st.floats(-0.2, 2)).map(
        lambda t: f"{t[0]}:{t[1] + t[2]:.4g}:{t[1]:.4g}"
    ),
    st.tuples(ALPHA, NMAX).map(lambda t: f"blocks:{t[0]}:{t[1]}"),
    st.tuples(ALPHA, NMAX, GRID).map(lambda t: f"blocks:{t[0]}:{t[1]}:{t[2]}"),
    JUNK,
)
INDICES = st.one_of(
    st.sampled_from(["Z", "N"]),
    st.integers(-1, 4).map(lambda m: f"mZ:{m}"),
    st.integers(-1, 40).map(lambda n: f"squares:{n}"),
    st.tuples(st.integers(-1, 3), st.integers(-1, 10)).map(lambda t: f"powers:{t[0]}:{t[1]}"),
    st.integers(-1, 10).map(lambda n: f"geometric:{n}"),
    st.tuples(ALPHA, NMAX).map(lambda t: f"blocks:{t[0]}:{t[1]}"),
    st.lists(_num(-20, 20) | st.integers(-20, 20).map(str), max_size=6).map(lambda vs: "list:" + ",".join(vs)),
    JUNK,
)
ENVELOPE = st.one_of(
    _num(0.25, 2, ("0", "-1")).map(lambda a: f"power:{a}"),
    st.tuples(_num(0.1, 2), st.just("xlog") | _num(0.1, 1)).map(lambda t: f"exp:{t[0]}:{t[1]}"),
    JUNK,
)


def _req(flag, values):
    return values.map(lambda v: [flag, v])


def _opt(flag, values):
    return st.one_of(st.just([]), _req(flag, values))


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in ([p] if isinstance(p, str) else p)])


SEED = _opt("--seed", st.integers(-3, 9).map(str))
COMMANDS = {
    "analyze": _argv(st.just("analyze"), _req("--profile", PROFILE), _opt("--b", SPACING),
                     _opt("--indices", INDICES), _opt("--window", WINDOW), _opt("--grid", GRID), SEED),
    "periodize": _argv(st.just("periodize"), _req("--profile", PROFILE), _opt("--b", SPACING),
                       _opt("--grid", GRID), SEED),
    "gram": _argv(st.just("gram"), _req("--profile", PROFILE), _opt("--b", SPACING), _opt("--indices", INDICES),
                  _opt("--window", WINDOW), SEED),
    "density": _argv(st.just("density"), _req("--indices", INDICES), _opt("--window", WINDOW),
                     _opt("--xmax", _num(1, 256, ("-1",))), _opt("--envelope", ENVELOPE), SEED),
    "hausdorff": _argv(st.just("hausdorff"), _req("--profile", PROFILE), _opt("--b", SPACING),
                       _req("--alpha", ALPHA), _opt("--levels", st.integers(-1, 4).map(str)), _opt("--grid", GRID),
                       SEED),
    "gallery": _argv(st.just("gallery"), st.sampled_from(["taper", "ramp", "blocks", "wavelet"]),
                     _opt("--a", _num(0.25, 5)), _opt("--b", _num(0.25, 5)), _opt("--alpha", ALPHA),
                     _opt("--nmax", NMAX), _opt("--window", WINDOW), _opt("--grid", GRID), SEED),
    "verify": _argv(st.just("verify"), st.sampled_from(["blocks", "blocks", "taper"]), _opt("--alpha", ALPHA),
                    _req("--nmax", NMAX), _opt("--nmin", NMAX), _opt("--grid", GRID), SEED),
    "tokens": st.lists(JUNK | st.sampled_from(["analyze", "periodize", "--profile", "--grid", "--window"]),
                       max_size=5),
}
# periodize with one of these profiles at b <= 1 sees a zero set over half the circle
MOSTLY_ZERO = ["indicator:0:0.25", "indicator:0.1:0.3", "ramp:3:1"]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in EXIT_CODES, argv
    return code, out.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_fuzz_exit_codes(command, data):
    _run(data.draw(COMMANDS[command], label="argv"))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(profile=st.sampled_from(MOSTLY_ZERO), b=_num(0.25, 1), grid=GRID)
def test_cli_fuzz_periodize_mostly_zero(profile, b, grid):
    code, out = _run(["periodize", "--profile", profile, "--b", b, "--grid", grid])
    if code == cli.EXIT_OK:
        result = json.loads(out)["result"]
        assert result["summary"]["zero_fraction"] > 0.5 and result["zero_runs"] >= 1
