"""Property test of the command line: any mix of flags ends in a clean exit.

``main`` runs in process over every query kind, every figure id and states
of rank 1 to 4 with ties.  Whatever the inputs, it returns 0, 1 or 2 (an
argparse usage error exits 2 too), raises nothing else, prints no traceback,
and an exit-0 query prints a record that parses.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from concrec.cli import QUERY_KINDS, main

_NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-1", "1e-320", "0.5", "nan", "inf"]),
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


@st.composite
def _argvs(draw):
    state = draw(_states())
    fmt = draw(_optional("--format", st.sampled_from(["csv", "json"])))
    if draw(st.booleans()):
        argv = ["query", "--kind", draw(st.sampled_from(QUERY_KINDS)), *state, *fmt]
        argv += draw(_optional("--n", _COPIES)) + draw(_optional("--N", _COPIES))
        argv += draw(_optional("--m", _EPR_COUNTS))
        return argv + draw(_optional("--eps", _NUMBERS))
    argv = ["fig", "--id", draw(st.sampled_from(["2", "3", "4", "5"])), *state, *fmt]
    argv += draw(_optional("--n", _COPIES))
    # Always a small --kmax: fig2's default of 10 takes seconds at rank 4.
    argv += ["--kmax", str(draw(st.integers(-1, 4)))]
    argv += draw(_optional("--eps-grid", _GRIDS))
    return argv + draw(_optional("--b-grid", _GRIDS))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
def test_every_command_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "fig":
            argv = [*argv, "--out", str(Path(tmp) / "fig.out")]
        code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if argv[0] == "query" and code == 0:
        if "csv" in argv:
            # The state field holds the state's own commas, unquoted, so the
            # row may have more fields than the header.
            header, row = out.rstrip("\n").split("\n")
            assert header.split(",")[0] == "kind" and row.split(",")[0] == argv[2], argv
            assert len(row.split(",")) >= len(header.split(",")), argv
        else:
            assert json.loads(out)["kind"] == argv[2], argv
