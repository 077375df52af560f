import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest

import concrec
from concrec import cli, concentration_fidelity, make_schmidt, spectrum, tradeoff
from concrec.cli import main
from concrec.errors import InvalidSpec


def run(args):
    return main(args)


class TestFig:
    def test_fig2_small(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert run(["fig", "--id", "2", "--kmax", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# figure=fig2") for l in meta)
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "log2_n,delta"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 5
        ks = [int(row.split(",")[0]) for row in data]
        assert ks == [1, 2, 3, 4, 5]
        assert "wrote" in capsys.readouterr().out

    def test_fig2_uniform_state_all_zero(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run(["fig", "--id", "2", "--p", "0.5", "--kmax", "4", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_fig3_rows_sum_to_one(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run(["fig", "--id", "3", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 81
        for row in rows:
            _b, conc, dil = (float(tok) for tok in row.split(","))
            assert conc + dil == 1.0

    def test_fig3_rejects_flat_state(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run(["fig", "--id", "3", "--p", "0.5", "--out", str(out)]) == 2

    def test_fig4_small(self, tmp_path):
        out = tmp_path / "fig4.csv"
        code = run(
            ["fig", "--id", "4", "--n", "80", "--eps-grid", "0.1,0.3,0.6", "--out", str(out)]
        )
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 3
        for row in rows:
            eps, n_exact, n_approx = row.split(",")
            assert 0 <= int(n_exact) <= 80
            assert float(n_approx) < 80

    def test_fig4_output_is_pinned(self, tmp_path):
        # The SHA-256 of the whole file, header included.  A change to the
        # trade-off searches that moves any output changes it.
        out = tmp_path / "fig4.csv"
        assert run(["fig", "--id", "4", "--n", "600", "--p", "0.1", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "ac52294d804307a47db5ff2217bc0b9266e5724792c4a11ac43a7a879e007042"

    @pytest.mark.parametrize(
        "state, n, digest",
        [
            (
                ["--p", "0.1"],
                "3000",
                "680ce26a456412bc5c6d0080f1c13a015f6b74a948548d99889976a2b32aeb09",
            ),
            (
                ["--schmidt", "0.5,0.3,0.2"],
                "60",
                "0db4696cb0b10df6826acb48d42a796776ad8dbe4960bfd1033f78cfe140eda4",
            ),
            (
                # optimal_m 28,107; the full spectrum's exact counts alone
                # take over 400 MB here, the head's 16 MB.
                ["--p", "0.1"],
                "60000",
                "77af0eb626efb60dc701261948cf298fed18a9c3760c1281e99710c2e12397b5",
            ),
            (
                # The rank-3 bench state: a full build of 45,451 levels, whose
                # counts come from 7,651 canonical rows.
                ["--schmidt", "0.530749,0.292372,0.176879"],
                "300",
                "6e6cfc9fde1e0243f0627210c27f95ba847a0b68e2546aab8d46892711920b7c",
            ),
        ],
    )
    def test_mcre_record_is_pinned(self, state, n, digest, capsys):
        # The SHA-256 of the whole JSON record, newline included.
        assert run(["query", "--kind", "mcre", *state, "--n", n]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_gmcre_record_is_pinned(self, capsys):
        # Below N = n, dilution reads a partial N-copy spectrum that the
        # search continues past 2^m0 (optimal_m 1,284 against m0 1,172).
        assert run(["query", "--kind", "gmcre", "--p", "0.1", "--n", "3000", "--N", "2500"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "7ef6f4030d9509d4e2b01ab0391e19b8de8b6eee8a34e17b3ef35387b54d856e"

    def test_concentration_results_are_pinned(self):
        # Every 7th m up to 3100 at n = 3000: the cut J runs from 0 up to the
        # total 2^3000, where the tail mass is the -inf sentinel.
        ls = concrec.power_spectrum(make_schmidt([0.9, 0.1]), 3000)
        text = "\n".join(repr(concentration_fidelity(ls, 1 << m)) for m in range(1, 3101, 7))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "7d738fd8f24e59aaee2526503831b10479d4b05a34352794590dd645fe659d7f"

    def test_fig5_reference_point(self, tmp_path):
        eps = 2.0 * 0.5 * math.erfc(1.0 / math.sqrt(2.0))
        out = tmp_path / "fig5.csv"
        assert run(["fig", "--id", "5", "--eps-grid", repr(eps), "--out", str(out)]) == 0
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
        assert float(row.split(",")[1]) == pytest.approx(1.0, abs=1e-9)

    def test_fig5_default_grid_size(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert run(["fig", "--id", "5", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 99

    def test_json_format(self, tmp_path):
        out = tmp_path / "fig5.json"
        assert run(["fig", "--id", "5", "--eps-grid", "0.2,0.4", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["epsilon", "coefficient"]
        assert len(payload["rows"]) == 2
        assert payload["metadata"]["figure"] == "fig5"

    def test_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["fig", "--id", "2", "--kmax", "6"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fresh_process_matches_in_process(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["fig", "--id", "2", "--kmax", "5"]
        assert run(args + ["--out", str(a)]) == 0
        # The fresh process imports the same sources as this one.
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "concrec", *args, "--out", str(b)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_csv_floats_round_trip(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert run(["fig", "--id", "5", "--out", str(out)]) == 0
        from concrec import normal_quantile

        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        for i, row in enumerate(rows, start=1):
            eps_text, coeff_text = row.split(",")
            assert float(eps_text) == 0.01 * i
            assert float(coeff_text) == normal_quantile(1 - 0.01 * i / 2)

    def test_unwritable_output(self, tmp_path):
        out = tmp_path / "missing-dir" / "fig5.csv"
        assert run(["fig", "--id", "5", "--eps-grid", "0.5", "--out", str(out)]) == 1

    def test_bad_epsilon(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["fig", "--id", "5", "--eps-grid", "0.0,0.5", "--out", str(out)]) == 2
        assert run(["fig", "--id", "5", "--eps-grid", "0.5,x", "--out", str(out)]) == 2
        assert "cannot parse epsilon list" in capsys.readouterr().err

    @pytest.mark.parametrize("fig_id", ["4", "5"])
    def test_tiny_epsilon_is_refused_by_name(self, fig_id, tmp_path, capsys):
        # 1 - eps/2 rounds to 1 for eps up to 2^-53: the quantile is undefined.
        out = tmp_path / "x.csv"
        args = ["fig", "--id", fig_id, "--n", "20", "--eps-grid", "0.1,1e-17", "--out", str(out)]
        assert run(args) == 2
        assert "eps = 1e-17" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_row_is_refused(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["fig", "--id", "3", "--b-grid", "0,inf", "--out", str(out)]) == 2
        assert "non-finite value inf" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_figure_id(self):
        with pytest.raises(InvalidSpec, match="fig6"):
            cli.run_figure("fig6", make_schmidt([0.9, 0.1]), 10, 2, (), ())

    def test_conflicting_state_flags(self, tmp_path):
        out = tmp_path / "x.csv"
        code = run(["fig", "--id", "5", "--p", "0.1", "--schmidt", "0.5,0.5", "--out", str(out)])
        assert code == 2

    def test_schmidt_list_state(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run(["fig", "--id", "2", "--schmidt", "0.4,0.3,0.3", "--kmax", "3", "--out", str(out)]) == 0
        assert "# state=0.4,0.3,0.3" in out.read_text()


class TestQuery:
    def test_mcre(self, capsys):
        assert run(["query", "--kind", "mcre", "--p", "0.1", "--n", "1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["delta"] == pytest.approx(0.2, abs=1e-12)
        assert record["optimal_m"] == 1

    def test_profile(self, capsys):
        assert run(["query", "--kind", "profile", "--p", "0.1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["entropy_S"] == pytest.approx(0.468996, abs=1e-6)
        assert record["variance_V"] == pytest.approx(0.904358, abs=1e-6)

    def test_error_dil(self, capsys):
        assert run(["query", "--kind", "error-dil", "--p", "0.1", "--N", "2", "--m", "1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["error"] == pytest.approx(0.10, abs=1e-12)

    def test_error_conc_reports_flatten_index(self, capsys):
        assert run(["query", "--kind", "error-conc", "--p", "0.1", "--n", "1", "--m", "1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["error"] == pytest.approx(0.2, abs=1e-12)
        assert record["flatten_index_J"] == 1

    def test_gmcre(self, capsys):
        assert run(["query", "--kind", "gmcre", "--p", "0.1", "--n", "2", "--N", "1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["delta"] == pytest.approx(0.5 - 2.0 * math.sqrt(0.405 * 0.095), abs=1e-12)

    def test_nmax(self, capsys):
        assert run(["query", "--kind", "nmax", "--p", "0.1", "--n", "40", "--eps", "0.5"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert 0 <= record["N_max"] <= 40
        assert record["loss"] == 40 - record["N_max"]

    def test_nmax_at_tiny_epsilon_omits_N_approx(self, capsys):
        # N_max is exact and defined; the estimate needs 1 - eps/2 < 1.
        args = ["query", "--kind", "nmax", "--p", "0.1", "--n", "10", "--eps", "1e-17"]
        assert run(args) == 0
        record = json.loads(capsys.readouterr().out)
        assert "N_approx" not in record
        assert record["N_max"] == tradeoff.max_recoverable(make_schmidt([0.9, 0.1]), 10, 1e-17)
        assert run([*args[:-1], "2.3e-16"]) == 0
        assert "N_approx" in json.loads(capsys.readouterr().out)

    def test_rank_one_json_record_writes_null(self, capsys):
        def refuse(name):
            raise AssertionError(f"{name} is not JSON")

        assert run(["query", "--kind", "profile", "--schmidt", "1.0"]) == 0
        record = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert record["loss_scale"] is None
        assert run(["query", "--kind", "profile", "--schmidt", "1.0", "--format", "csv"]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["loss_scale"] == "nan"

    def test_csv_format(self, capsys):
        assert run(["query", "--kind", "mcre", "--p", "0.1", "--n", "1", "--format", "csv"]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header.split(",")[0] == "kind"
        assert row.split(",")[0] == "mcre"

    @pytest.mark.parametrize("state", [["--p", "0.1"], ["--schmidt", "0.5,0.3,0.2"]])
    @pytest.mark.parametrize("kind", cli.QUERY_KINDS)
    def test_csv_record_is_one_row_under_its_header(self, kind, state, capsys):
        # Every kind reads the flags it needs and ignores the rest.
        args = ["query", "--kind", kind, *state, "--n", "6", "--N", "4", "--m", "3", "--eps", "0.3"]
        assert run(args) == 0
        record = json.loads(capsys.readouterr().out)
        assert run([*args, "--format", "csv"]) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        assert len(row) == len(header)
        assert dict(zip(header, row))["state"] == record["state"]

    def test_error_dil_past_the_decimal_digit_limit(self, capsys):
        # 2^20000 has more decimal digits than Python 3.11 converts by default.
        assert run(["query", "--kind", "error-dil", "--p", "0.1", "--N", "5", "--m", "20000"]) == 0
        assert json.loads(capsys.readouterr().out)["error"] == 0.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_flatten_index_past_the_decimal_digit_limit(self, fmt, capsys):
        # J has 4,363 decimal digits.  Decimal parses and prints them
        # without the int-to-decimal digit limit.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        args = ["query", "--kind", "error-conc", "--p", "0.4", "--n", "15000", "--m", "14500"]
        assert run([*args, "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "csv":
            header, row = out.splitlines()
            assert header.endswith(",flatten_index_J")
            J = Decimal(row.rsplit(",", 1)[1])
        else:
            J = json.loads(out, parse_int=Decimal)["flatten_index_J"]
        ls = spectrum.power_spectrum(make_schmidt([0.4, 0.6]), 15000)
        assert J == Decimal(concentration_fidelity(ls, 1 << 14500).flatten_index_J)
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit

    def test_oversized_spectrum_exits_2(self, capsys):
        # 4.5M levels, estimated at 3.3 GB to build: refused before enumerating.
        args = ["query", "--kind", "mcre", "--schmidt", "0.5,0.3,0.2", "--n", "3000"]
        assert run(args) == 2
        assert "GiB" in capsys.readouterr().err

    def test_missing_param_exits_2(self, capsys):
        assert run(["query", "--kind", "mcre", "--p", "0.1"]) == 2
        assert "requires --n" in capsys.readouterr().err

    def test_invalid_range_exits_2(self, capsys):
        assert run(["query", "--kind", "gmcre", "--p", "0.1", "--n", "2", "--N", "5"]) == 2
        for args in (
            ["error-conc", "--n", "-1", "--m", "1"],
            ["error-conc", "--n", "2", "--m", "0"],
            ["error-dil", "--N", "-1", "--m", "1"],
            ["error-dil", "--N", "2", "--m", "0"],
        ):
            assert run(["query", "--p", "0.1", "--kind", *args]) == 2
            assert "needs" in capsys.readouterr().err

    def test_failed_numerical_check_exits_1_without_traceback(self, monkeypatch, capsys):
        # A numerical check that fails (here a fidelity outside [0, 1]) is
        # reported like an output failure, not as a traceback.
        def broken(ls, L):
            raise ArithmeticError("concentration fidelity = 1.1 outside [0, 1] beyond tolerance")

        monkeypatch.setattr(cli, "concentration_fidelity", broken)
        assert run(["query", "--kind", "error-conc", "--p", "0.1", "--n", "4", "--m", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: concentration fidelity = 1.1 outside [0, 1] beyond tolerance\n"

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["query", "--kind", "mcre", "--wat", "1"])
        assert exc.value.code == 2


class TestValidate:
    def test_identities(self, capsys):
        assert run(["validate", "--suite", "identities"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_oracle(self, capsys):
        assert run(["validate", "--suite", "oracle", "--seed", "20240901"]) == 0
        assert "200" in capsys.readouterr().out

    def test_asymptotic(self, capsys):
        assert run(["validate", "--suite", "asymptotic"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    def test_oracle_refuses_negative_seed(self, capsys):
        assert run(["validate", "--suite", "oracle", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["2", "-3"])
    def test_asymptotic_refuses_too_small_n(self, n, capsys):
        # At n = 2, m = floor(S*n - sqrt(n)) < 0 for b = -1.
        assert run(["validate", "--suite", "asymptotic", "--n", n]) == 2
        assert "--n" in capsys.readouterr().err


class TestConfig:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "concrec.cfg"
        cfg.write_text("# defaults\np = 0.2\nn = 1\n")
        assert run(["query", "--kind", "mcre", "--config", str(cfg)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["state"].startswith("0.8,")
        assert record["n"] == 1

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "concrec.cfg"
        cfg.write_text("p=0.2\nn=1\n")
        assert run(["query", "--kind", "mcre", "--p", "0.1", "--config", str(cfg)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["state"] == "0.9,0.1"

    def test_config_supplies_query_params(self, tmp_path, capsys):
        cfg = tmp_path / "concrec.cfg"
        cfg.write_text("N = 2\nm = 1\n")
        assert run(["query", "--kind", "error-dil", "--p", "0.1", "--config", str(cfg)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["error"] == pytest.approx(0.10, abs=1e-12)

    def test_config_supplies_query_format(self, tmp_path, capsys):
        cfg = tmp_path / "concrec.cfg"
        cfg.write_text("format = csv\n")
        assert run(["query", "--kind", "profile", "--p", "0.1", "--config", str(cfg)]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header.split(",")[0] == "kind"
        args = ["query", "--kind", "profile", "--p", "0.1", "--format", "json"]
        assert run([*args, "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "profile"
        cfg.write_text("format = xml\n")
        assert run(["query", "--kind", "profile", "--p", "0.1", "--config", str(cfg)]) == 2
        assert "unknown format" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not key value\n")
        assert run(["query", "--kind", "profile", "--p", "0.1", "--config", str(cfg)]) == 2
        missing = str(tmp_path / "missing.cfg")
        assert run(["query", "--kind", "profile", "--p", "0.1", "--config", missing]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = not-a-number\n")
        assert run(["query", "--kind", "mcre", "--p", "0.1", "--config", str(cfg)]) == 2

    def test_unknown_config_key_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "concrec.cfg"
        cfg.write_text("eps-grid = 0.5\nkmx = 3\n")
        out = tmp_path / "fig5.csv"
        assert run(["fig", "--id", "5", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "eps-grid" in err and "kmx" in err
        assert not out.exists()
        cfg.write_text("p = 0.1\nn = 1\nm = 3\n")
        assert run(["query", "--kind", "mcre", "--config", str(cfg)]) == 2
        assert "config key(s) for this command: m\n" in capsys.readouterr().err

    def test_flags_and_state_read_their_config_keys(self, tmp_path, capsys):
        # A key a flag overrides is read, not unknown.
        cfg = tmp_path / "concrec.cfg"
        cfg.write_text("schmidt = 0.5,0.5\nn = 1\n")
        args = ["query", "--kind", "mcre", "--p", "0.1", "--n", "2"]
        assert run([*args, "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2
        cfg.write_text("p = 0.2\n")
        args = ["query", "--kind", "profile", "--schmidt", "0.5,0.5"]
        assert run([*args, "--config", str(cfg)]) == 0

    def test_config_supplies_b_grid(self, tmp_path):
        cfg = tmp_path / "concrec.cfg"
        cfg.write_text("b_grid = 0.5\n")
        out = tmp_path / "fig3.csv"
        assert run(["fig", "--id", "3", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.5]

    def test_config_refuses_p_with_schmidt(self, tmp_path, capsys):
        cfg = tmp_path / "concrec.cfg"
        cfg.write_text("p = 0.1\nschmidt = 0.5,0.5\n")
        out = tmp_path / "fig5.csv"
        assert run(["fig", "--id", "5", "--config", str(cfg), "--out", str(out)]) == 2
        assert "not both" in capsys.readouterr().err
        assert not out.exists()


def test_public_names_resolve():
    for name in concrec.__all__:
        assert hasattr(concrec, name), name
    namespace = {}
    exec("from concrec import *", namespace)
    assert set(concrec.__all__) <= set(namespace)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def _count_builds(monkeypatch):
    """Spectrum builds per copy count, from every module that builds one."""
    built = Counter()
    real = spectrum.power_spectrum

    def counting(sv, copies, *count):
        built[copies] += 1
        return real(sv, copies, *count)

    for module in (cli, tradeoff):
        monkeypatch.setattr(module, "power_spectrum", counting)
    return built


class TestSpectrumBuilds:
    def test_fig4_builds_each_copy_count_once(self, monkeypatch):
        built = _count_builds(monkeypatch)
        cli.run_figure(
            "fig4",
            make_schmidt([0.9, 0.1]),
            n=200,
            kmax=10,
            epsilon_grid=tuple(0.05 * i for i in range(1, 20)),
            b_grid=(),
        )
        assert built[200] == 1
        assert max(built.values()) == 1

    def test_nmax_query_builds_each_copy_count_once(self, monkeypatch, capsys):
        built = _count_builds(monkeypatch)
        assert run(["query", "--kind", "nmax", "--p", "0.1", "--n", "40", "--eps", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["N_max"] >= 1
        assert built[40] == 1
        assert max(built.values()) == 1
