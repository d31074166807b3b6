"""CLI contracts: outputs, validation errors, exit codes, byte determinism."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from transfer_budget.cli import EXIT_CONFIG, EXIT_GATE, EXIT_OK, main


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


PLAN_CFG = {
    "seed": 3,
    "family": {"kind": "gaussian", "sigma": 1.0},
    "n0": 100,
    "sources": [{"name": "shifted", "delta": 0.1, "cap": 1000}],
}


class TestPlan:
    def test_single_source_lands_near_the_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, PLAN_CFG)
        assert main(["plan", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        header, rows = read_rows(tmp_path / "out" / "plan.csv")
        assert header == ["source_name", "cap", "alpha_star", "n_star"]
        assert rows[0][0] == "shifted"
        assert abs(int(rows[0][3]) - 100) <= 2  # closed form says 100; one grid step slack
        assert rows[-1][0] == "s_star"
        assert rows[-1][2] == "predicted_proxy"

    def test_zero_sources_gives_the_empty_plan(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "family": {"kind": "gaussian"}, "n0": 50,
                                      "sources": []})
        out = tmp_path / "out"
        assert main(["plan", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out / "plan.csv")
        assert len(rows) == 1
        assert rows[0][0] == "s_star" and rows[0][1] == "0"
        assert float(rows[0][3]) == pytest.approx(0.5 / 50)

    def test_duplicate_source_names_rejected_with_field_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "family": {"kind": "gaussian"}, "n0": 10,
            "sources": [
                {"name": "a", "delta": 0.1, "cap": 10},
                {"name": "a", "delta": 0.2, "cap": 10},
            ],
        })
        assert main(["plan", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "sources[1].name" in capsys.readouterr().err

    def test_overflowing_gram_rejected_with_field_path(self, tmp_path, capsys):
        # offsets of +-1e308 square to inf in the Gram matrix
        cfg = write_config(tmp_path, {
            "family": {"kind": "gaussian"}, "n0": 100,
            "sources": [{"name": "a", "theta": [1e308], "cap": 100},
                        {"name": "b", "theta": [-1e308], "cap": 100}],
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would raise
            code = main(["plan", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error at sources:")

    def test_empirical_fisher_fallback_for_softmax(self, tmp_path):
        cfg = write_config(tmp_path, {
            "seed": 5,
            "family": {"kind": "softmax", "feature_dim": 2, "num_classes": 3},
            "n0": 60,
            "calibration_samples": 5000,
            "sources": [{"name": "s", "delta": 0.5, "cap": 400}],
        })
        assert main(["plan", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK


class TestCurve:
    def base(self, t, points=101):
        return {"seed": 1, "family": {"kind": "gaussian"}, "n0": 100,
                "sources": [], "curve": {"t": t, "cap": 1000, "grid_points": points}}

    def test_monotone_regime_deltas_all_negative(self, tmp_path):
        cfg = write_config(tmp_path, self.base(0.004))
        out = tmp_path / "out"
        assert main(["curve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out / "curve.csv")
        proxies = np.array([float(r[1]) for r in rows])
        assert (np.diff(proxies) < 0).all()
        assert {r[2] for r in rows} == {"monotone_decreasing"}

    def test_interior_regime_changes_sign_once(self, tmp_path):
        cfg = write_config(tmp_path, self.base(0.01))
        out = tmp_path / "out"
        assert main(["curve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out / "curve.csv")
        proxies = np.array([float(r[1]) for r in rows])
        signs = np.sign(np.diff(proxies))
        assert (np.diff(signs) != 0).sum() == 1
        assert {r[2] for r in rows} == {"interior_minimum"}

    def test_two_grid_points_gives_endpoints(self, tmp_path):
        cfg = write_config(tmp_path, self.base(0.01, points=2))
        out = tmp_path / "out"
        assert main(["curve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out / "curve.csv")
        assert [r[0] for r in rows] == ["0", "1000"]

    def test_t_derived_from_source_when_not_given(self, tmp_path):
        cfg = write_config(tmp_path, {
            "seed": 1, "family": {"kind": "gaussian"}, "n0": 100,
            "sources": [{"name": "s", "delta": 0.1, "cap": 500}],
            "curve": {"grid_points": 11},
        })
        out = tmp_path / "out"
        assert main(["curve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out / "curve.csv")
        assert rows[-1][0] == "500"


class TestVerify:
    CFG = {
        "seed": 9,
        "family": {"kind": "gaussian", "sigma": 1.0},
        "n0": 50,
        "trials": 400,
        "sources": [{"name": "s", "delta": 0.1, "cap": 120}],
        "verify": {"grid_step": 40},
    }

    def test_gaussian_gate_passes(self, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out / "verify.csv")
        assert header == ["axis_value", "mean_kl", "std_err", "theoretical_proxy", "z_ratio"]
        assert [r[0] for r in rows] == ["0", "40", "80", "120"]

    def test_sub_minimum_trials_rejected(self, tmp_path, capsys):
        bad = dict(self.CFG, trials=99)
        cfg = write_config(tmp_path, bad)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "trials" in capsys.readouterr().err

    def test_family_without_closed_form_fisher_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(
            self.CFG, trials=100, family={"kind": "softmax", "feature_dim": 2, "num_classes": 3}))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error at family.kind:" in capsys.readouterr().err

    def test_impossible_gate_exits_four(self, tmp_path):
        # a z threshold nothing can meet forces the gate outcome
        bad = dict(self.CFG)
        bad["verify"] = {"grid_step": 40, "z_threshold": 1e-9, "min_pass_fraction": 1.0}
        cfg = write_config(tmp_path, bad)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_GATE


TRAIN_CFG = {
    "seed": 2,
    "trainer": {
        "feature_dim": 3, "num_classes": 3, "shots": 6,
        "deltas": [0.0, 1.0], "pool_sizes": [150, 150],
        "test_size": 300, "epochs": 6, "steps_per_epoch": 8,
        "strategies": ["dynamic", "target_only"], "seeds": [1],
    },
}


class TestTrain:
    def test_writes_run_files_and_comparison(self, tmp_path):
        cfg = write_config(tmp_path, TRAIN_CFG)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out / "runs" / "dynamic-1.csv")
        assert header == ["epoch", "train_loss", "val_acc", "samples_used",
                          "s_star", "alpha_1", "alpha_2"]
        # epoch 0 trains on target only: no plan columns
        assert rows[0][4] == "" and rows[0][5] == "" and rows[0][6] == ""
        for row in rows[1:]:
            assert row[4] != "" and row[5] != ""
        _, comparison = read_rows(out / "comparison.csv")
        assert [r[0] for r in comparison] == ["dynamic", "target_only"]

    def test_unknown_strategy_rejected(self, tmp_path, capsys):
        bad = json.loads(json.dumps(TRAIN_CFG))
        bad["trainer"]["strategies"] = ["dynamic", "mystery"]
        cfg = write_config(tmp_path, bad)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "trainer.strategies[1]" in capsys.readouterr().err

    def test_target_only_rows_have_no_plan_columns(self, tmp_path):
        cfg = write_config(tmp_path, TRAIN_CFG)
        out = tmp_path / "out"
        main(["train", "--config", cfg, "--out", str(out)])
        _, rows = read_rows(out / "runs" / "target_only-1.csv")
        assert all(r[4] == "" for r in rows)


class TestDeterminism:
    @pytest.mark.parametrize("command,cfg", [
        ("plan", PLAN_CFG),
        ("curve", {"seed": 1, "family": {"kind": "gaussian"}, "n0": 100, "sources": [],
                   "curve": {"t": 0.01, "cap": 200, "grid_points": 21}}),
        ("verify", TestVerify.CFG),
        ("train", TRAIN_CFG),
    ])
    def test_reruns_are_byte_identical(self, tmp_path, command, cfg):
        path = write_config(tmp_path, cfg)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main([command, "--config", path, "--out", str(out)])
            assert code == EXIT_OK
            outs.append({
                f.relative_to(out): f.read_bytes() for f in sorted(out.rglob("*.csv"))
            })
        assert outs[0] == outs[1]

    def test_worker_count_does_not_change_verify_bytes(self, tmp_path):
        path = write_config(tmp_path, TestVerify.CFG)
        blobs = []
        for workers, tag in ((1, "w1"), (3, "w3")):
            out = tmp_path / tag
            assert main(["verify", "--config", path, "--out", str(out),
                         "--workers", str(workers)]) == EXIT_OK
            blobs.append((out / "verify.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestBadConfigs:
    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["plan", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["plan", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_out_of_range_field_reports_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"family": {"kind": "gaussian"}, "n0": 0, "sources": []})
        assert main(["plan", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "n0" in capsys.readouterr().err

    def test_source_without_shift_reports_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "family": {"kind": "gaussian"}, "n0": 10,
            "sources": [{"name": "s", "cap": 5}],
        })
        assert main(["plan", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "sources[0]" in capsys.readouterr().err

    def test_bad_family_kind_reports_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"family": {"kind": "cauchy"}, "n0": 10, "sources": []})
        assert main(["plan", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "family.kind" in capsys.readouterr().err

    CURVE = {"family": {"kind": "gaussian"}, "n0": 100, "sources": [],
             "curve": {"cap": 200, "grid_points": 11}}

    @pytest.mark.parametrize("command,cfg,field", [
        ("curve", dict(CURVE, curve={"t": float("nan"), "cap": 200}), "curve.t"),
        ("curve", dict(CURVE, curve={"t": float("inf"), "cap": 200}), "curve.t"),
        ("plan", {"family": {"kind": "gaussian", "sigma": float("inf")}, "n0": 10},
         "family.sigma"),
        ("train", {"trainer": {"learning_rate": float("nan")}}, "trainer.learning_rate"),
        ("plan", {"n0": 10, "sources": [{"name": "s", "delta": float("inf"), "cap": 5}]},
         "sources[0].delta"),
        # finite thetas whose discrepancy overflows
        ("curve", dict(CURVE, sources=[{"name": "s", "theta": [1e308], "cap": 5}]), "sources"),
    ], ids=["t-nan", "t-inf", "sigma-inf", "learning-rate-nan", "delta-inf", "overflowing-t"])
    def test_non_finite_numbers_report_path(self, tmp_path, capsys, command, cfg, field):
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", path, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error at {field}:")

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_target_only_fisher_needs_a_boolean(self, tmp_path, capsys, value):
        cfg = json.loads(json.dumps(TRAIN_CFG))
        cfg["trainer"]["target_only_fisher"] = value
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error at trainer.target_only_fisher:" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "family": {"kind": "gaussian"}, "n0": 40,
                                      "sources": []})
        result = subprocess.run(
            [sys.executable, "-m", "transfer_budget", "plan",
             "--config", cfg, "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "out" / "plan.csv").exists()
