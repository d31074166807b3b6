"""CLI contracts: outputs, validation errors, exit codes, byte determinism."""

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transfer_budget import simlab
from transfer_budget.cli import EXIT_CONFIG, EXIT_GATE, EXIT_INFEASIBLE, EXIT_OK, main


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

    def test_every_stream_of_a_run_is_distinct(self, tmp_path, monkeypatch):
        """The source direction's stream is no trial's: SeedSequence drops a
        trailing zero word, so a direction seeded ``[seed, 31, 0]`` would draw
        trial 31's stream ``[seed, 31]``."""
        make, seeds = np.random.default_rng, []

        def recording(seed=None):
            seeds.append(seed)
            return make(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        cfg = write_config(tmp_path, dict(
            self.CFG, trials=100, family={"kind": "gaussian", "sigma": 1.0, "dim": 3}))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) in (EXIT_OK,
                                                                                  EXIT_GATE)
        assert len(seeds) == 101  # the source direction, then one stream per trial
        first_words = {int(make(seed).bit_generator.random_raw()) for seed in seeds}
        assert len(first_words) == len(seeds)


class TestTheorySide:
    """``curve``, ``verify`` and ``plan`` report one proxy, of the family's dimension."""

    @pytest.mark.parametrize("family", [{"kind": "gaussian", "dim": 3},
                                        {"kind": "categorical", "num_classes": 4}],
                             ids=["gaussian-3d", "categorical-4"])
    def test_curve_proxy_is_the_verify_theory_column(self, tmp_path, family):
        path = write_config(tmp_path, {
            "seed": 5, "family": family, "n0": 80, "trials": 100,
            "sources": [{"name": "s", "delta": 0.2, "cap": 100}],
            "curve": {"grid_points": 101}, "verify": {"grid_step": 10},
        })
        for command in ("plan", "curve"):
            assert main([command, "--config", path, "--out", str(tmp_path / command)]) == EXIT_OK
        assert main(["verify", "--config", path, "--out", str(tmp_path / "verify")]) in (
            EXIT_OK, EXIT_GATE)
        _, curve = read_rows(tmp_path / "curve" / "curve.csv")
        _, verify = read_rows(tmp_path / "verify" / "verify.csv")
        _, plan = read_rows(tmp_path / "plan" / "plan.csv")
        proxy = {row[0]: row[1] for row in curve}
        theory = {row[0]: row[3] for row in verify}
        assert len(theory) == 11 and set(theory) <= set(proxy)
        assert {n: proxy[n] for n in theory} == theory
        s_star, predicted = plan[-1][1], plan[-1][3]  # the footer: s_star, its proxy
        assert proxy[s_star] == predicted


class TestRandomStreams:
    """The randomness contract: the streams one run draws are pairwise distinct."""

    @staticmethod
    def streams(monkeypatch, argv) -> tuple[set, list]:
        """The distinct seeds of one run, as in the README table, and the first
        raw word of each one's stream."""
        make, seeds = np.random.default_rng, []

        def recording(seed=None):
            seeds.append(seed)
            return make(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        assert main(argv) == EXIT_OK
        monkeypatch.undo()
        distinct = {json.dumps(np.asarray(seed).tolist()): seed for seed in seeds}
        return set(distinct), [int(make(seed).bit_generator.random_raw())
                               for seed in distinct.values()]

    @pytest.mark.parametrize("command", ["plan", "curve"])
    def test_plan_and_curve_streams_are_distinct(self, tmp_path, monkeypatch, command):
        path = write_config(tmp_path, {
            "seed": 4, "family": {"kind": "softmax", "feature_dim": 3, "num_classes": 3},
            "n0": 50, "calibration_samples": 2000,
            "sources": [{"name": "a", "delta": 0.3, "cap": 100},
                        {"name": "b", "delta": 1.0, "cap": 100}],
        })
        seeds, words = self.streams(monkeypatch, [command, "--config", path,
                                                  "--out", str(tmp_path / "o")])
        assert seeds == {"[4, 31, 1]", "[4, 31, 2]", "[4, 32]"}  # directions, calibration
        assert len(set(words)) == len(seeds)

    def test_train_streams_are_distinct(self, tmp_path, monkeypatch):
        cfg = json.loads(json.dumps(TRAIN_CFG))
        cfg["trainer"]["seeds"] = [1, 2]
        path = write_config(tmp_path, cfg)
        seeds, words = self.streams(monkeypatch, ["train", "--config", path,
                                                  "--out", str(tmp_path / "o")])
        # per seed: theta, directions, train, test, two pools, init, and the
        # resampling streams of dynamic (5) and target_only (0)
        assert seeds == {f"[{s}, {tail}]" for s in (1, 2) for tail in (
            11, 12, 13, 15, "16, 0", "16, 1", 21, "22, 5", "22, 0")}
        assert len(set(words)) == len(seeds)


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

    @pytest.mark.parametrize("cfg,field", [
        ({"n0": 10, "theta0": "abc", "sources": []}, "theta0"),
        ({"n0": 10, "theta0": {"x": 1}, "sources": []}, "theta0"),
        ({"n0": 10, "sources": [{"name": "s", "theta": ["x"], "cap": 5}]}, "sources[0].theta"),
        ({"n0": 10, "sources": [{"name": "s", "delta": 0.1, "cap": 5},
                                {"name": "t", "theta": [[1.0], 2.0], "cap": 5}]},
         "sources[1].theta"),
        ({"n0": 10, "theta0": True, "sources": []}, "theta0"),
        ({"n0": 10, "theta0": 10**400, "sources": []}, "theta0"),
        ({"n0": 10, "sources": [{"name": "s", "theta": [float("nan")], "cap": 5}]},
         "sources[0].theta"),
        ({"n0": 10, "sources": [{"name": "s", "delta": 10**400, "cap": 5}]}, "sources[0].delta"),
    ], ids=["theta0-string", "theta0-object", "source-string-entry", "source-ragged",
            "theta0-boolean", "theta0-huge-integer", "source-nan", "delta-huge-integer"])
    def test_non_numeric_values_report_path(self, tmp_path, capsys, cfg, field):
        path = write_config(tmp_path, cfg)
        assert main(["plan", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error at {field}:")

    @pytest.mark.parametrize("family", ["kind", "gaussian", ["gaussian"], 3, None],
                             ids=["string-kind", "string-gaussian", "list", "number", "null"])
    def test_non_object_family_reports_path(self, tmp_path, capsys, family):
        path = write_config(tmp_path, {"family": family, "n0": 10, "sources": []})
        assert main(["plan", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error at family: expected an object"]

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
        ("verify", {"trials": 100, "sources": [{"name": "a", "theta": 1e200, "cap": 10}]},
         "sources"),
        # a sigma whose square overflows or whose inverse square does
        ("verify", {"trials": 100, "family": {"kind": "gaussian", "sigma": 1e155},
                    "sources": [{"name": "a", "delta": 1.0, "cap": 10}]}, "family.sigma"),
        ("plan", {"family": {"kind": "gaussian", "sigma": 1e155},
                  "sources": [{"name": "a", "delta": 1.0, "cap": 10}]}, "family.sigma"),
        ("curve", {"family": {"kind": "gaussian", "sigma": 1e155},
                   "sources": [{"name": "a", "delta": 1.0, "cap": 10}]}, "family.sigma"),
        ("verify", {"trials": 100, "family": {"kind": "gaussian", "sigma": 1e-160},
                    "sources": [{"name": "a", "delta": 1.0, "cap": 10}]}, "family.sigma"),
        # 2 sigma**2, the KL's divisor, overflows: every KL would read 0
        ("verify", {"trials": 100, "family": {"kind": "gaussian", "sigma": 1e154},
                    "sources": [{"name": "a", "delta": 1.0, "cap": 10}]}, "family.sigma"),
        # finite fields that resolve to a non-finite source theta, or pooled mean
        ("verify", {"trials": 100, "theta0": 1e308,
                    "sources": [{"name": "a", "delta": 1e308, "cap": 10}]}, "sources[0].delta"),
        ("verify", {"trials": 100, "theta0": 1e308,
                    "sources": [{"name": "a", "theta": 1e308, "cap": 10}]}, "theta0"),
        # a target class too rare under the drawn parameter to fill the shots
        ("train", {"seed": 1, "trainer": {
            "prior_scale": 1000, "num_classes": 8, "feature_dim": 2, "shots": 5, "epochs": 1,
            "pool_sizes": [50, 50, 50], "test_size": 20, "val_size": 20,
            "strategies": ["target_only"]}}, "trainer.prior_scale"),
    ], ids=["t-nan", "t-inf", "sigma-inf", "learning-rate-nan", "delta-inf", "overflowing-t",
            "verify-overflowing-t", "verify-sigma-huge", "plan-sigma-huge", "curve-sigma-huge",
            "verify-sigma-tiny", "verify-kl-divisor-overflows", "verify-delta-to-inf",
            "verify-pooled-mean-overflows", "train-rare-class"])
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


class TestSchemaEdges:
    @pytest.mark.parametrize("cfg,field", [
        ({"n0": 10, "stepnumbr": 5,
          "sources": [{"name": "s", "delta": 0.1, "cap": 5, "capp": 9}]}, "stepnumbr"),
        ({"n0": 10, "sources": [{"name": "s", "delta": 0.1, "cap": 5, "capp": 9}]},
         "sources[0].capp"),
        ({"family": {"kind": "bernoulli", "dim": 2}}, "family.dim"),
        ({"trainer": {"epoch": 3}}, "trainer.epoch"),
        ({"curve": {"t": 0.01, "grid_point": 5}}, "curve.grid_point"),
    ], ids=["top-level", "source", "family-kind", "trainer", "curve"])
    def test_unknown_fields_report_path(self, tmp_path, capsys, cfg, field):
        path = write_config(tmp_path, cfg)
        assert main(["plan", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error at {field}: unknown field"]

    @pytest.mark.parametrize("command,cfg,field", [
        ("plan", {"sources": [{"name": "s", "delta": 0.1, "cap": 10**20}]}, "sources[0].cap"),
        ("curve", {"curve": {"t": 0.01, "cap": 10**20}}, "curve.cap"),
        ("curve", {"curve": {"t": 0.01, "cap": 100, "grid_points": 10**20}}, "curve.grid_points"),
        ("plan", {"stepnumber": 10**20}, "stepnumber"),
        ("plan", {"family": {"kind": "gaussian", "dim": 10**20}}, "family.dim"),
        ("plan", {"sources": [{"name": "s", "delta": 0.1, "cap": 10**16}]}, "sources"),
        ("plan", {"sources": [{"name": "s", "delta": 0.1, "cap": 2**62},
                              {"name": "t", "delta": 0.2, "cap": 2**62}]}, "sources"),
        ("curve", {"curve": {"t": 0.01, "cap": 2**63 - 1}}, "curve.cap"),
        ("curve", {"sources": [{"name": "s", "delta": 0.1, "cap": 2**62}]}, "sources"),
        ("train", {"trainer": {"epochs": 2**63}}, "trainer.epochs"),
    ], ids=["source-cap", "curve-cap", "grid-points", "stepnumber", "dim", "cap-above-2-53",
            "caps-wrapping-int64", "curve-cap-int64-max", "curve-source-cap", "epochs"])
    def test_integers_beyond_range_report_path(self, tmp_path, capsys, command, cfg, field):
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error at {field}:")
        if field == "sources" and command == "plan":
            assert "caps" in err[0] and "Gram" not in err[0]

    @pytest.mark.parametrize("command,cfg,field", [
        ("plan", {"family": {"kind": "gaussian", "dim": 2**62}}, "family.dim"),
        ("verify", {"family": {"kind": "gaussian", "dim": 2**62}}, "family.dim"),
        ("train", {"family": {"kind": "gaussian", "dim": 2**62}}, "family.dim"),
        ("verify", {"trials": 2**62}, "trials"),
        ("train", {"trainer": {"test_size": 2**62}}, "trainer.test_size"),
        ("plan", {"family": {"kind": "categorical", "num_classes": 2**62}}, "family.num_classes"),
        ("plan", {"family": {"kind": "softmax", "feature_dim": 2**62}}, "family.feature_dim"),
        ("plan", {"family": {"kind": "softmax", "num_classes": 2**62}}, "family.num_classes"),
        ("plan", {"calibration_samples": 2**62}, "calibration_samples"),
        ("train", {"trainer": {"feature_dim": 2**62}}, "trainer.feature_dim"),
        ("train", {"trainer": {"num_classes": 2**62}}, "trainer.num_classes"),
        ("train", {"trainer": {"shots": 2**62}}, "trainer.shots"),
        ("train", {"trainer": {"pool_sizes": [10, 2**62, 10]}}, "trainer.pool_sizes[1]"),
        ("train", {"trainer": {"val_size": 2**62}}, "trainer.val_size"),
        ("verify", {"n0": 2**62}, "n0"),
        ("verify", {"sources": [{"name": "s", "delta": 0.1, "cap": 2**62}]}, "sources[0].cap"),
        ("verify", {"n0": 2**23, "sources": [{"name": "s", "delta": 0.1, "cap": 2**23 + 1}]},
         "sources[0].cap"),
        ("curve", {"curve": {"t": 0.01, "cap": 2**50, "grid_points": 2**40}}, "curve.grid_points"),
        ("plan", {"stepnumber": 2**62, "sources": [{"name": "s", "delta": 0.1, "cap": 2**50}]},
         "stepnumber"),
        ("verify", {"family": {"kind": "gaussian", "dim": 4096},
                    "sources": [{"name": "s", "delta": 0.1, "cap": 16_000_000}]}, "sources[0].cap"),
        ("plan", {"family": {"kind": "softmax", "feature_dim": 4096, "num_classes": 4096}},
         "calibration_samples"),
        ("verify", {"sources": [{"name": "s", "delta": 0.1, "cap": 2**23}],
                    "verify": {"grid_step": 1}}, "verify.grid_step"),
        ("train", {"trainer": {"feature_dim": 4096, "num_classes": 4096, "shots": 1,
                               "pool_sizes": [100, 100, 100], "test_size": 10, "val_size": 10,
                               "epochs": 1}}, "trainer.feature_dim"),
        ("train", {"trainer": {"shots": 2**24, "num_classes": 64, "epochs": 1}}, "trainer.shots"),
        ("train", {"trainer": {"feature_dim": 1, "num_classes": 4096, "shots": 1,
                               "test_size": 2**24}}, "trainer.test_size"),
        ("train", {"trainer": {"feature_dim": 1, "num_classes": 4096, "shots": 1,
                               "val_size": 2**24}}, "trainer.val_size"),
        ("train", {"trainer": {"deltas": [0.0, 1.0], "pool_sizes": [2**23, 2**23]}},
         "trainer.pool_sizes"),
        ("train", {"trainer": {"deltas": [0.5] * 5000, "pool_sizes": [1000] * 5000,
                               "stepnumber": 10**6}}, "trainer.stepnumber"),
    ])
    def test_fields_that_size_arrays_are_bounded(self, tmp_path, capsys, command, cfg, field):
        """Values that used to fail allocating (``array is too big``) exit 2 at the field."""
        cfg = {"sources": [{"name": "s", "delta": 0.1, "cap": 50}], "trials": 100, **cfg}
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error at {field}:")

    def test_seeds_have_no_upper_bound(self, tmp_path):
        path = write_config(tmp_path, dict(PLAN_CFG, seed=10**30))
        assert main(["plan", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_huge_grid_settings_do_not_allocate(self, tmp_path):
        """A step number or grid size beyond the caps gives the every-integer grid."""
        outs = []
        for tag, step, points in (("huge", 2**62, 2**62), ("exact", 1000, 201)):
            cfg = dict(PLAN_CFG, stepnumber=step, curve={"grid_points": points, "cap": 200})
            path = write_config(tmp_path, cfg, f"{tag}.json")
            out = tmp_path / tag
            for command in ("plan", "curve"):
                assert main([command, "--config", path, "--out", str(out)]) == EXIT_OK
            outs.append((out / "curve.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_an_integer_past_the_json_digit_limit_is_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"n0": ' + "1" * 5000 + "}")
        assert main(["plan", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error at <file>: invalid JSON")

    @pytest.mark.parametrize("command,cfg,flag", [
        ("plan", {"workers": 65}, []),
        ("verify", {}, ["--workers", str(2**62)]),
    ], ids=["config", "flag"])
    def test_workers_are_bounded_before_any_process_starts(self, tmp_path, capsys, monkeypatch,
                                                           command, cfg, flag):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")
        monkeypatch.setattr(simlab, "ProcessPoolExecutor", no_pool)
        path = write_config(tmp_path, {**TestVerify.CFG, **cfg})
        code = main([command, "--config", path, "--out", str(tmp_path / "o"), *flag])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error at workers: must be <= 64")

    def test_workers_flag_goes_through_the_workers_field(self, tmp_path, capsys):
        path = write_config(tmp_path, PLAN_CFG)
        code = main(["plan", "--config", path, "--out", str(tmp_path / "o"), "--workers", "0"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error at workers:")


FUZZ_CFG = {
    "seed": 1, "workers": 1, "family": {"kind": "gaussian", "sigma": 1.0, "dim": 1},
    "n0": 20, "theta0": 0.0, "stepnumber": 40, "trials": 100, "calibration_samples": 1000,
    "fisher_mode": "analytic",
    "sources": [{"name": "a", "delta": 0.1, "cap": 30}, {"name": "b", "theta": [0.2], "cap": 20}],
    "curve": {"grid_points": 11, "t": 0.01, "cap": 50},
    "verify": {"grid_step": 10, "z_threshold": 3.0, "min_pass_fraction": 0.95},
    "trainer": {"feature_dim": 2, "num_classes": 3, "shots": 4, "deltas": [0.0, 1.0],
                "pool_sizes": [50, 50], "test_size": 50, "val_size": 20, "prior_scale": 1.0,
                "epochs": 2, "patience": 1, "learning_rate": 0.5, "steps_per_epoch": 2,
                "stepnumber": 100, "fisher_mode": "batch", "target_only_fisher": False,
                "init_scale": 0.01, "strategies": ["dynamic"], "seeds": [1]},
}
FUZZ_VALUES = ["x", True, None, [0.5], {"a": 1}, float("nan"), 10**400, 2**63, -1]


def _key_paths(value, prefix=""):
    """(path, container, key) for every value below the root, in config path syntax."""
    is_object = isinstance(value, dict)
    for key, child in (value.items() if is_object else enumerate(value)):
        if is_object:
            path = f"{prefix}.{key}" if prefix else key
        else:
            path = f"{prefix}[{key}]"
        yield path, value, key
        if isinstance(child, (dict, list)):
            yield from _key_paths(child, path)


def _objects(value):
    """(path, object) for the root and every object below it."""
    yield "", value
    for path, container, key in _key_paths(value):
        if isinstance(container[key], dict):
            yield path, container[key]


_MUTATIONS = (
    [("insert", path) for path, _ in _objects(FUZZ_CFG)]
    + [("replace", path, v) for path, _, _ in _key_paths(FUZZ_CFG) for v in FUZZ_VALUES]
    + [("delete", path) for path, _, _ in _key_paths(FUZZ_CFG)]
)


def _mutate(cfg, mutation):
    kind, path = mutation[:2]
    if kind == "insert":
        target = dict(_objects(cfg)).get(path)
        if target is not None:
            target["zz_unknown"] = 1
        return
    for found, container, key in _key_paths(cfg):
        if found == path:
            if kind == "replace":
                container[key] = mutation[2]
            else:
                del container[key]
            return


class TestConfigFuzz:
    BASE_PATHS = {path for path, _, _ in _key_paths(FUZZ_CFG)}

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=3))
    def test_every_mutation_exits_cleanly_naming_a_field(self, mutations):
        """Unknown keys, wrong types, out-of-range numbers and deleted keys all
        end in a result or a one-line config error at a key path; `plan`
        validates every section, so curve, verify and trainer are covered."""
        cfg = json.loads(json.dumps(FUZZ_CFG))
        for mutation in mutations:
            _mutate(cfg, mutation)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            err, out = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                code = main(["plan", "--config", str(path), "--out", str(Path(tmp) / "o")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE)
        if any(p.endswith("zz_unknown") for p, _, _ in _key_paths(cfg)):
            assert code == EXIT_CONFIG
        if code == EXIT_CONFIG:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            match = re.match(r"config error at (.+?): ", lines[0])
            assert match, lines[0]
            known = self.BASE_PATHS | {p for p, _, _ in _key_paths(cfg)}
            assert match.group(1) in known, lines[0]
