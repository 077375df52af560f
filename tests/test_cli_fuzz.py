"""Property test of the command line: any mix of flags and config keys ends
in a clean exit.

``main`` runs in process over every query kind, every figure id and states
of rank 1 to 4 with ties, with or without a config file.  Whatever the
inputs, it returns 0, 1 or 2 (an argparse usage error exits 2 too), raises
nothing else, prints no traceback, and an exit-0 query prints a record that
parses: a JSON object, or a CSV header over one row of the same length.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from concrec.cli import QUERY_KINDS, main

_NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-1", "1e-320", "1e-17", "2.3e-16", "0.5", "nan", "inf"]),
    st.floats(min_value=0.0, max_value=1.0).map(repr),
)
# Copy counts stay small, so every example runs in well under a second;
# an EPR count may be huge, since 2^m costs no more than any other target.
_COPIES = st.integers(-2, 40).map(str)
_EPR_COUNTS = st.one_of(st.integers(-2, 40), st.just(100000)).map(str)


@st.composite
def _states(draw):
    kind = draw(st.sampled_from(["p", "raw", "ties"]))
    if kind == "p":
        return ["--p", draw(_NUMBERS)]
    if kind == "raw":
        return ["--schmidt", ",".join(draw(st.lists(_NUMBERS, min_size=1, max_size=4)))]
    # Small integer weights, so equal entries (ties) are common.
    weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    total = sum(weights) or 1
    return ["--schmidt", ",".join(repr(w / total) for w in weights)]


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


_GRIDS = st.lists(_NUMBERS, min_size=0, max_size=3).map(",".join)
_FORMATS = st.sampled_from(["csv", "json"])
# Config keys are the flags with _ for -.
_QUERY_KEYS = ("p", "schmidt", "n", "N", "m", "eps", "format")
_FIG_KEYS = ("p", "schmidt", "n", "kmax", "eps_grid", "b_grid", "format")


@st.composite
def _configs(draw, keys):
    """None, or the lines of a config file: some of ``keys``, which may repeat
    a flag or each other, and perhaps one misspelled key."""
    if not draw(st.booleans()):
        return None
    values = st.one_of(_NUMBERS, _GRIDS, _FORMATS)
    lines = [f"{key} = {draw(values)}" for key in draw(st.lists(st.sampled_from(keys), max_size=4))]
    if draw(st.booleans()):
        key = draw(st.sampled_from(keys))
        lines.append(f"{key}{key[-1]} = {draw(values)}")
    return lines


@st.composite
def _argvs(draw):
    """An argv without ``--out`` or ``--config``, and the config lines."""
    state = draw(_states())
    fmt = draw(_optional("--format", _FORMATS))
    if draw(st.booleans()):
        argv = ["query", "--kind", draw(st.sampled_from(QUERY_KINDS)), *state, *fmt]
        argv += draw(_optional("--n", _COPIES)) + draw(_optional("--N", _COPIES))
        argv += draw(_optional("--m", _EPR_COUNTS))
        return argv + draw(_optional("--eps", _NUMBERS)), draw(_configs(_QUERY_KEYS))
    argv = ["fig", "--id", draw(st.sampled_from(["2", "3", "4", "5"])), *state, *fmt]
    argv += draw(_optional("--n", _COPIES))
    # Always a small --kmax: fig2's default of 10 takes seconds at rank 4.
    argv += ["--kmax", str(draw(st.integers(-1, 4)))]
    argv += draw(_optional("--eps-grid", _GRIDS))
    return argv + draw(_optional("--b-grid", _GRIDS)), draw(_configs(_FIG_KEYS))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _query_format(argv, config):
    """The format a query writes: the flag's, else the config's, else JSON."""
    if "--format" in argv:
        return argv[argv.index("--format") + 1]
    return dict(line.split(" = ", 1) for line in config or []).get("format", "json")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
def test_every_command_exits_cleanly(case):
    argv, config = case
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "fig":
            argv = [*argv, "--out", str(Path(tmp) / "fig.out")]
        if config is not None:
            path = Path(tmp) / "config.txt"
            path.write_text("".join(f"{line}\n" for line in config))
            argv = [*argv, "--config", str(path)]
        code, out, err = _run(argv)
        assert code in (0, 1, 2), (argv, config, code, err)
        assert "Traceback" not in err, (argv, config, err)
        if argv[0] != "query" or code != 0:
            return
        if _query_format(argv, config) == "json":
            assert json.loads(out)["kind"] == argv[2], (argv, config)
            return
        header, row = csv.reader(io.StringIO(out))
        assert header[0] == "kind" and row[0] == argv[2], (argv, config)
        assert len(row) == len(header), (argv, config, out)
        code, out, err = _run([*argv, "--format", "json"])
    assert code == 0, (argv, config, err)
    record = json.loads(out)
    assert sorted(header) == sorted(record), (argv, config)
    assert dict(zip(header, row))["state"] == record["state"], (argv, config)
