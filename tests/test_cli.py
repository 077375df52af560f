import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import concrec
from concrec import cli, make_schmidt, spectrum, tradeoff
from concrec.cli import FigureSpec, main


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

    def test_bad_epsilon(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["fig", "--id", "5", "--eps-grid", "0.0,0.5", "--out", str(out)]) == 2

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

    def test_oversized_spectrum_exits_2(self, capsys):
        # 4.5M levels, estimated at 3.5 GB to build: refused before enumerating.
        args = ["query", "--kind", "mcre", "--schmidt", "0.5,0.3,0.2", "--n", "3000"]
        assert run(args) == 2
        assert "GiB" in capsys.readouterr().err

    def test_missing_param_exits_2(self, capsys):
        assert run(["query", "--kind", "mcre", "--p", "0.1"]) == 2
        assert "requires --n" in capsys.readouterr().err

    def test_invalid_range_exits_2(self, capsys):
        assert run(["query", "--kind", "gmcre", "--p", "0.1", "--n", "2", "--N", "5"]) == 2

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

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not key value\n")
        assert run(["query", "--kind", "profile", "--p", "0.1", "--config", str(cfg)]) == 2

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = not-a-number\n")
        assert run(["query", "--kind", "mcre", "--p", "0.1", "--config", str(cfg)]) == 2

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
        spec = FigureSpec(
            figure_id="fig4",
            state=make_schmidt([0.9, 0.1]),
            n=200,
            kmax=10,
            epsilon_grid=tuple(0.05 * i for i in range(1, 20)),
            b_grid=(),
            output_path="",
            format="csv",
        )
        cli.run_figure(spec)
        assert built[200] == 1
        assert max(built.values()) == 1

    def test_nmax_query_builds_each_copy_count_once(self, monkeypatch, capsys):
        built = _count_builds(monkeypatch)
        assert run(["query", "--kind", "nmax", "--p", "0.1", "--n", "40", "--eps", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["N_max"] >= 1
        assert built[40] == 1
        assert max(built.values()) == 1
