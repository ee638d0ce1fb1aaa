import json

import numpy as np
import pytest

from bayesfuse.cli import main
from bayesfuse.io import read_chain, read_summary

from conftest import write_regression_csv


FAST = ["--iters", "200", "--burnin", "50"]


class TestParsing:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestSimulate:
    def test_invalid_case(self, capsys):
        assert main(["simulate", "--case", "7", "--n", "50"]) == 2
        assert "case must be 1..6" in capsys.readouterr().err

    def test_invalid_rho(self, capsys):
        assert main(["simulate", "--case", "1", "--n", "50", "--rho", "1.5"]) == 2

    def test_invalid_g(self, capsys):
        assert main(["simulate", "--case", "1", "--n", "50", "--g", "nope"] + FAST) == 2

    def test_small_run_payload(self, tmp_path):
        out = tmp_path / "study.json"
        code = main(
            ["simulate", "--case", "1", "--n", "50", "--replicates", "2",
             "--seed", "42", "--out", str(out)] + FAST
        )
        assert code == 0
        report = read_summary(out)
        assert report["case"] == 1
        assert report["g"] == 50.0  # auto resolves to n
        assert len(report["per_replicate"]) == 2
        assert set(report["aggregate"]) >= {"mse", "pse", "p_b"}
        assert len(report["mean_delta_prob"]) == 19


class TestFit:
    def test_missing_response(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        write_regression_csv(f)
        assert main(["fit", str(f), "--response", "zzz"] + FAST) == 2
        assert "zzz" in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("a,b,y\n1,2,3\n1,bad,3\n")
        assert main(["fit", str(f), "--response", "y"] + FAST) == 2
        assert "line 3" in capsys.readouterr().err

    def test_summary_shape_and_keys(self, tmp_path):
        f = tmp_path / "d.csv"
        out = tmp_path / "fit.json"
        write_regression_csv(f)
        assert main(["fit", str(f), "--response", "y", "--out", str(out)] + FAST) == 0
        s = read_summary(out)
        for key in ("beta_mean", "delta_prob", "partition", "sigma2_mean",
                    "omega_mean", "seed", "iterations", "burn_in"):
            assert key in s
        assert len(s["beta_mean"]) == 4
        assert len(s["delta_prob"]) == 3
        assert s["predictors"] == ["x0", "x1", "x2", "x3"]

    def test_chain_file_reproduces_beta_mean(self, tmp_path):
        f = tmp_path / "d.csv"
        out = tmp_path / "fit.json"
        chain_path = tmp_path / "chain.csv"
        write_regression_csv(f)
        assert main(["fit", str(f), "--response", "y", "--out", str(out),
                     "--chain", str(chain_path)] + FAST) == 0
        s = read_summary(out)
        chain = read_chain(chain_path)
        assert np.allclose(chain["beta"].mean(axis=0), s["beta_mean"], atol=1e-12)

    def test_few_predictors_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,y\n1,2\n2,3\n3,4\n")
        assert main(["fit", str(f), "--response", "y"] + FAST) == 2

    def test_sampler_error_exits_3(self, tmp_path, capsys):
        # g = 1e-300 makes the posterior precision numerically singular
        f = tmp_path / "d.csv"
        write_regression_csv(f)
        assert main(["fit", str(f), "--response", "y", "--g", "1e-300"] + FAST) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: posterior precision not PD")

    def test_identical_adjacent_predictors(self, tmp_path, capsys):
        # The unfused design is singular; the chain starts fully fused and
        # never separates the twins.
        rng = np.random.default_rng(2)
        x = rng.standard_normal(30)
        y = 2.0 * x + 0.3 * rng.standard_normal(30)
        f = tmp_path / "d.csv"
        f.write_text("a,b,y\n" + "\n".join(f"{u},{u},{v}" for u, v in zip(x, y)) + "\n")
        out = tmp_path / "fit.json"
        assert main(["fit", str(f), "--response", "y", "--out", str(out)] + FAST) == 0
        s = read_summary(out)
        assert s["delta_prob"] == [0.0]
        assert s["partition"] == [[1, 2]]
        assert capsys.readouterr().err == ""

    def test_wide_data_warns(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 4))
        y = rng.standard_normal(5)
        f = tmp_path / "d.csv"
        header = "x0,x1,x2,x3,y"
        rows = [",".join(map(str, list(X[i]) + [y[i]])) for i in range(5)]
        f.write_text(header + "\n" + "\n".join(rows) + "\n")
        main(["fit", str(f), "--response", "y", "--out", str(f) + ".json"] + FAST)
        assert "warning" in capsys.readouterr().err


class TestSmooth:
    def test_step_signal_recovers_jump(self, tmp_path):
        rng = np.random.default_rng(8)
        y = np.repeat([0.0, 2.0], 30) + 0.3 * rng.standard_normal(60)
        f = tmp_path / "sig.csv"
        f.write_text("y\n" + "\n".join(map(str, y)) + "\n")
        out = tmp_path / "fit.csv"
        assert main(["smooth", str(f), "--out", str(out),
                     "--iters", "800", "--burnin", "200"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,observed,fitted,boundary_prob"
        assert len(lines) == 61
        fitted = np.array([float(l.split(",")[2]) for l in lines[1:]])
        probs = np.array([float(l.split(",")[3]) for l in lines[1:-1]])
        # the single jump after index 30 dominates the boundary probabilities
        assert probs[29] > 0.9
        assert np.all(np.delete(probs, 29) < 0.5)
        # the two declared blocks are flat at roughly the segment means
        assert np.ptp(fitted[:30]) < 1e-9 and np.ptp(fitted[30:]) < 1e-9
        assert fitted[0] == pytest.approx(y[:30].mean(), abs=0.2)
        assert fitted[-1] == pytest.approx(y[30:].mean(), abs=0.2)

    def test_rejects_two_columns(self, tmp_path, capsys):
        f = tmp_path / "sig.csv"
        f.write_text("a,b\n1,2\n3,4\n")
        assert main(["smooth", str(f)] + FAST) == 2

    def test_rejects_single_row(self, tmp_path):
        f = tmp_path / "sig.csv"
        f.write_text("y\n1.0\n")
        assert main(["smooth", str(f)] + FAST) == 2

    def test_rejects_non_finite(self, tmp_path, capsys):
        f = tmp_path / "sig.csv"
        f.write_text("y\n1.0\nnan\n2.0\n")
        assert main(["smooth", str(f)] + FAST) == 2
        assert capsys.readouterr().err == "error: non-finite entries in data\n"

    def test_rejects_non_numeric(self, tmp_path):
        f = tmp_path / "sig.csv"
        f.write_text("y\n1.0\nhello\n")
        assert main(["smooth", str(f)] + FAST) == 2


class TestSelect:
    def test_invalid_slab(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        write_regression_csv(f)
        assert main(["select", str(f), "--response", "y", "--slab", "zlab:1"] + FAST) == 2
        assert main(["select", str(f), "--response", "y", "--slab", "gslab"] + FAST) == 2
        assert main(["select", str(f), "--response", "y", "--slab", "islab:x"] + FAST) == 2

    def test_auto_g_echoed(self, tmp_path):
        f = tmp_path / "d.csv"
        out = tmp_path / "sel.json"
        write_regression_csv(f, n=40)
        assert main(["select", str(f), "--response", "y", "--slab", "gslab:auto",
                     "--out", str(out)] + FAST) == 0
        s = read_summary(out)
        assert s["slab_resolved"] == "GSlab(scale=40.0)"
        assert len(s["xi_prob"]) == 4
        assert len(s["beta_mean"]) == 4

    def test_recovers_support(self, tmp_path):
        f = tmp_path / "d.csv"
        out = tmp_path / "sel.json"
        write_regression_csv(f, seed=3, n=80)
        assert main(["select", str(f), "--response", "y", "--slab", "islab:10",
                     "--iters", "800", "--burnin", "200", "--out", str(out)]) == 0
        s = read_summary(out)
        assert np.all(np.asarray(s["xi_prob"]) > 0.9)  # all 4 are active here


class TestDeterminism:
    def test_fit_byte_identical(self, tmp_path):
        f = tmp_path / "d.csv"
        write_regression_csv(f)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"fit_{tag}.json"
            chain = tmp_path / f"chain_{tag}.csv"
            assert main(["fit", str(f), "--response", "y", "--seed", "5",
                         "--out", str(out), "--chain", str(chain)] + FAST) == 0
            outs.append((out.read_bytes(), chain.read_bytes()))
        assert outs[0] == outs[1]


class TestIgnoredFlagsRejected:
    """Each optional flag is registered only on the subcommands that read it,
    so passing it to another subcommand is a usage error (exit 2)."""

    def expect_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_fit_rejects_threads(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        write_regression_csv(f)
        self.expect_usage_error(
            ["fit", str(f), "--response", "y", "--threads", "8"] + FAST, "--threads", capsys)

    def test_select_rejects_threshold(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        write_regression_csv(f)
        self.expect_usage_error(
            ["select", str(f), "--response", "y", "--threshold", "0.9"] + FAST,
            "--threshold", capsys)

    def test_simulate_rejects_chain(self, tmp_path, capsys):
        self.expect_usage_error(
            ["simulate", "--case", "1", "--n", "50", "--chain", str(tmp_path / "c.csv")] + FAST,
            "--chain", capsys)
        assert not (tmp_path / "c.csv").exists()


def expect_input_error(argv, capsys):
    """Exit 2 before sampling, with exactly one ``error:`` line on stderr."""
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


class TestBadNumbersRejected:
    """Out-of-range and non-finite numeric flags are input errors."""

    @pytest.mark.parametrize("flags", [
        ["--threshold", "nan"],
        ["--g", "inf"],
        ["--threads", "0"],
        ["--threads", "-3"],
    ])
    def test_simulate(self, flags, capsys):
        expect_input_error(["simulate", "--case", "1", "--n", "50"] + flags + FAST, capsys)

    @pytest.mark.parametrize("flags", [
        ["--threshold", "2"],
        ["--g", "inf"],
        ["--a-omega", "inf"],
    ])
    def test_fit(self, flags, tmp_path, capsys):
        f = tmp_path / "d.csv"
        write_regression_csv(f)
        expect_input_error(["fit", str(f), "--response", "y"] + flags + FAST, capsys)

    @pytest.mark.parametrize("flags", [
        ["--threshold", "0"],
        ["--g", "inf"],
    ])
    def test_smooth(self, flags, tmp_path, capsys):
        f = tmp_path / "sig.csv"
        f.write_text("y\n1.0\n2.0\n4.0\n")
        expect_input_error(["smooth", str(f)] + flags + FAST, capsys)

    @pytest.mark.parametrize("flags", [
        ["--a-omega", "inf"],
        ["--slab", "islab:nan"],
        ["--slab", "islab:inf"],
        ["--slab", "gslab:inf"],
        ["--slab", "fslab:inf"],
    ])
    def test_select(self, flags, tmp_path, capsys):
        f = tmp_path / "d.csv"
        write_regression_csv(f)
        expect_input_error(["select", str(f), "--response", "y"] + flags + FAST, capsys)
