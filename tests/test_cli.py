"""Config validation, experiment runner, and artifact reproducibility."""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from mflab.cli import build_model, load_config, main, validate_config
from mflab.errors import ConfigError
from mflab.sampler import mfld_simulate, trajectory_to_csv

SRC = str(Path(__file__).resolve().parent.parent / "src")


def write_config(tmp_path, payload, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


MINI_CHAOS = {
    "experiment": "chaos_sweep",
    "seed": 0,
    "model": {"preset": "quadratic"},
    "sweep": {"n_particles": [2]},
    "mcmc": {"n_samples": 800, "n_burnin": 200, "n_pi_samples": 2000},
}


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            validate_config({"experiment": "chaos_sweep", "bogus": 1,
                             "model": {"preset": "quadratic"}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="mcmc.bogus"):
            validate_config({"experiment": "chaos_sweep",
                             "model": {"preset": "quadratic"},
                             "mcmc": {"bogus": 3}})

    def test_bad_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            validate_config({"experiment": "nope"})

    def test_model_needs_preset_or_kind(self):
        with pytest.raises(ConfigError, match="preset"):
            validate_config({"experiment": "chaos_sweep", "model": {}})

    def test_defaults_filled(self):
        cfg = validate_config(MINI_CHAOS)
        assert cfg["mcmc"]["n_chains"] == 32
        assert cfg["grid"]["n_nodes"] == 2048
        assert cfg["seed"] == 0

    def test_chaos_sweep_needs_two_chains_exit_2(self, tmp_path):
        cfg = dict(MINI_CHAOS, mcmc=dict(MINI_CHAOS["mcmc"], n_chains=1))
        with pytest.raises(ConfigError, match="n_chains"):
            validate_config(cfg)
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("n_pi_samples", 0), ("n_pi_samples", 1), ("n_samples", 0),
        ("n_burnin", -5), ("step_size0", 0.0), ("step_size0", -0.3)])
    def test_out_of_range_sampling_effort_exit_2(self, tmp_path, key, value):
        cfg = dict(MINI_CHAOS, mcmc=dict(MINI_CHAOS["mcmc"], **{key: value}))
        with pytest.raises(ConfigError, match=f"mcmc.{key}"):
            validate_config(cfg)
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("n_list", [[0, 2], [2, -1]])
    def test_particle_count_below_one_exit_2(self, tmp_path, n_list):
        cfg = dict(MINI_CHAOS, sweep={"n_particles": n_list})
        with pytest.raises(ConfigError, match="sweep.n_particles"):
            validate_config(cfg)
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("n_particles", 0), ("step", -0.01), ("step", 0.0), ("horizon", 0.0),
        ("horizon", -1.0)])
    def test_mfld_out_of_range_exit_2(self, tmp_path, key, value):
        # These once ended in a traceback with exit 1.
        cfg = {"experiment": "mfld_run", "model": {"preset": "relu3"},
               "mfld": {key: value}}
        with pytest.raises(ConfigError, match=f"mfld.*{key}"):
            validate_config(cfg)
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_chaos_sweep_rejects_d_not_1(self):
        with pytest.raises(ConfigError, match="d = 1"):
            validate_config({"experiment": "chaos_sweep",
                             "model": {"kind": "zero", "d": 2}})

    def test_chaos_sweep_d2_exits_2(self, tmp_path):
        cfg = dict(MINI_CHAOS)
        cfg["model"] = {"kind": "quadratic_oracle", "d": 2}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out",
                     str(tmp_path / "x")]) == 2

    def test_flow_dt_rejected_exit_2(self, tmp_path):
        cfg = {"experiment": "transport_map", "model": {"preset": "relu3"},
               "flow": {"dt": 1e-3, "t_max": 8.0}}
        with pytest.raises(ConfigError, match="flow.dt"):
            validate_config(cfg)
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_n_bootstrap_rejected_exit_2(self, tmp_path):
        cfg = dict(MINI_CHAOS, mcmc=dict(MINI_CHAOS["mcmc"], n_bootstrap=256))
        with pytest.raises(ConfigError, match="mcmc.n_bootstrap"):
            validate_config(cfg)
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_bounds_table_section_rejected_exit_2(self, tmp_path):
        cfg = {"experiment": "bounds_table", "model": {"preset": "relu3"},
               "bounds_table": {"implied_constant": 2.0}}
        with pytest.raises(ConfigError, match="bounds_table"):
            validate_config(cfg)
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_profile_svg_rejected_exit_2(self, tmp_path):
        cfg = {"experiment": "tilt_profile", "model": {"preset": "relu3"},
               "profile": {"svg": False}}
        with pytest.raises(ConfigError, match="profile.svg"):
            validate_config(cfg)
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_tilt_profile_over_two_dims_rejected_before_run(self, tmp_path):
        cfg = {"experiment": "tilt_profile", "model": {"preset": "relu3"},
               "profile": {"n_particles": 3}}
        with pytest.raises(ConfigError, match="total dimension"):
            validate_config(cfg)
        out = tmp_path / "x"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("model", [
        {"preset": "relu3", "sigma": 5.0},
        {"preset": "quadratic", "kind": "zero"},
        {"kind": "zero", "kappa": 9, "activation": "tanh"},
        {"kind": "quadratic_oracle", "activation": "tanh"},
        {"kind": "example_nn", "d": 2,
         "data": {"x": [[1.0], [-0.5]], "y": [0.2, -0.1]}},
    ])
    def test_model_keys_the_constructor_ignores_exit_2(self, tmp_path, model):
        cfg = {"experiment": "bounds_table", "model": model}
        with pytest.raises(ConfigError, match="ignored"):
            validate_config(cfg)
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def _rejected_before_run(self, tmp_path, model, match):
        cfg = {"experiment": "bounds_table", "model": model}
        with pytest.raises(ConfigError, match=match):
            validate_config(cfg)
        out = tmp_path / "x"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_loss_key_exit_2(self, tmp_path):
        self._rejected_before_run(tmp_path, {
            "kind": "example_nn", "loss": {"type": "squared", "bogus": 1},
            "data": {"x": [[1.0], [-0.5]], "y": [0.2, -0.1]}},
            r"loss keys \['bogus'\]")

    def test_clip_radius_with_logistic_loss_exit_2(self, tmp_path):
        self._rejected_before_run(tmp_path, {
            "kind": "example_nn", "clip_radius": 5.0,
            "loss": {"type": "logistic"},
            "data": {"x": [[1.0], [-0.5]], "y": [1.0, -1.0]}},
            r"model keys \['clip_radius'\]")

    def test_data_with_data_csv_exit_2(self, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text("x_1,y\n1.0,0.5\n-0.8,-0.3\n")
        self._rejected_before_run(tmp_path, {
            "kind": "example_nn", "data_csv": str(csv),
            "data": {"x": [[1.0], [-0.5]], "y": [0.2, -0.1]}},
            "not both")

    def test_missing_data_csv_exit_2(self, tmp_path):
        missing = tmp_path / "none.csv"
        self._rejected_before_run(tmp_path, {
            "kind": "example_nn", "data_csv": str(missing)},
            re.escape(f"cannot read data_csv '{missing}'"))

    def test_unparsable_data_csv_exit_2(self, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text("x_1,y\n1.0,0.5\nzz,-0.3\n")
        self._rejected_before_run(tmp_path, {
            "kind": "example_nn", "data_csv": str(csv)},
            re.escape(f"cannot read data_csv '{csv}'"))

    def test_logistic_and_squared_loss_keys_accepted(self):
        data = {"x": [[1.0], [-0.5]], "y": [1.0, -1.0]}
        for loss in ({"type": "logistic"},
                     {"type": "squared", "scale": 2.0, "clip_radius": 3.0}):
            cfg = validate_config({"experiment": "bounds_table", "model": {
                "kind": "example_nn", "loss": loss, "data": data}})
            assert build_model(cfg["model"]).loss.L_ell == (
                1.0 if loss["type"] == "logistic" else 6.0)

    def test_type_checking(self):
        bad = dict(MINI_CHAOS)
        bad["mcmc"] = {"n_samples": "many"}
        with pytest.raises(ConfigError, match="n_samples"):
            validate_config(bad)
        with pytest.raises(ConfigError, match="model.loss must be dict"):
            validate_config({"experiment": "bounds_table", "model": {
                "kind": "example_nn", "loss": "logistic",
                "data": {"x": [[1.0]], "y": [1.0]}}})


class TestBuildModel:
    def test_preset(self):
        model = build_model({"preset": "relu3"})
        assert model.activation.name == "relu"
        assert model.data_x.shape == (3, 1)

    def test_explicit_quadratic(self):
        cfg = validate_config({
            "experiment": "bounds_table",
            "model": {"kind": "quadratic_oracle", "kappa": 0.7, "c": 0.1},
        })
        model = build_model(cfg["model"])
        assert model.loss.scale == 0.7
        assert model.data_y[0] == 0.1

    def test_explicit_nn_with_inline_data(self):
        cfg = validate_config({
            "experiment": "bounds_table",
            "model": {
                "kind": "example_nn",
                "activation": "tanh",
                "loss": {"type": "squared", "scale": 1.0, "clip_radius": 2.0},
                "data": {"x": [[1.0], [-0.5]], "y": [0.2, -0.1]},
            },
        })
        model = build_model(cfg["model"])
        assert model.activation.name == "tanh"
        assert model.data_x.shape == (2, 1)

    def test_nn_from_csv(self, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text("x_1,y\n1.0,0.5\n-0.8,-0.3\n")
        cfg = validate_config({
            "experiment": "bounds_table",
            "model": {"kind": "example_nn", "data_csv": str(csv)},
        })
        model = build_model(cfg["model"])
        assert model.data_x.shape == (2, 1)
        assert model.data_p[0] == 0.5

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            build_model({"preset": "not_a_preset"})


class TestRunCommand:
    def test_chaos_sweep_run_and_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path, MINI_CHAOS)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        assert (out / "chaos_sweep.csv").exists()
        assert (out / "report_N002.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["invariants_passed"] is True
        assert manifest["seed"] == 0

    def test_every_flag_counts_in_the_exit_status(self, tmp_path):
        # 64 product draws cannot reach the importance-ESS floor of 100,
        # so z_ess_ok is false in every report and the run exits 1.
        cfg = {"experiment": "chaos_sweep", "seed": 0,
               "model": {"preset": "relu3"},
               "mcmc": {"n_pi_samples": 64, "n_chains": 2, "n_samples": 400,
                        "n_burnin": 100}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["invariants_passed"] is False
        smallest, larger = (json.loads((out / f"report_N00{n}.json")
                                       .read_text()) for n in (2, 4))
        assert smallest["flags"]["z_ess_ok"] is False
        assert smallest["sampler"]["n_chains"] == 2
        assert "mala_agrees" in smallest["flags"]
        assert larger["sampler"] is None
        assert "mala_agrees" not in larger["flags"]

    def test_manifest_records_peak_rss(self, tmp_path):
        cfg = {"experiment": "bounds_table", "model": {"preset": "relu3"}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        peak = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0.0

    @pytest.mark.parametrize("openblas", ["1", None])
    def test_manifest_records_blas_thread_env(self, tmp_path, monkeypatch,
                                              openblas):
        # ou_evolve's last bits can depend on the BLAS thread count.
        if openblas is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", openblas)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cfg = {"experiment": "bounds_table", "model": {"preset": "relu3"}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["thread_env"] == {"OPENBLAS_NUM_THREADS": openblas,
                                          "OMP_NUM_THREADS": None}

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, MINI_CHAOS)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["run", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(out2)]) == 0
        assert ((out1 / "chaos_sweep.csv").read_bytes()
                == (out2 / "chaos_sweep.csv").read_bytes())

    def test_seed_override_changes_results(self, tmp_path):
        cfg_path = write_config(tmp_path, MINI_CHAOS)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["run", "--config", cfg_path, "--out", str(out1)])
        main(["run", "--config", cfg_path, "--out", str(out2), "--seed", "9"])
        assert ((out1 / "chaos_sweep.csv").read_bytes()
                != (out2 / "chaos_sweep.csv").read_bytes())

    def test_bad_config_exit_2(self, tmp_path):
        cfg_path = write_config(tmp_path, {"experiment": "nope"})
        assert main(["run", "--config", cfg_path, "--out",
                     str(tmp_path / "x")]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.yaml"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_numeric_failure_exit_3(self, tmp_path):
        cfg = {
            "experiment": "transport_map",
            "model": {"preset": "relu3"},
            "grid": {"n_nodes": 256},
            "flow": {"t_max": 1.0},
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out",
                     str(tmp_path / "x")]) == 3

    def test_transport_map_on_shipped_grid(self, tmp_path):
        # The default grid: span_sd 10, so half-width 8.5 for relu3.
        cfg = {"experiment": "transport_map", "model": {"preset": "relu3"}}
        out = tmp_path / "out"
        main(["run", "--config", write_config(tmp_path, cfg),
              "--out", str(out)])
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["monotone"]
        assert metrics["pushforward_w2"] < 1e-3
        assert metrics["gamma_w2"] < 1e-4
        assert "W2(mu_t, gamma)" in (out / "summary.txt").read_text()

    def test_mfld_run(self, tmp_path):
        cfg = {
            "experiment": "mfld_run",
            "model": {"preset": "standard_zero"},
            "mfld": {"n_particles": 16, "horizon": 1.0, "step": 0.01},
        }
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "diagnostics.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["peak_rss_children_mb"] > 0.0

    def test_tilt_profile_reports_threshold(self, tmp_path):
        cfg = {
            "experiment": "tilt_profile",
            "model": {"preset": "relu3"},
            "profile": {"n_times": 10},
        }
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "t* = 0.05263157894736842" in summary

    def test_bounds_table(self, tmp_path):
        cfg = {"experiment": "bounds_table", "model": {"preset": "relu3"}}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        rows = json.loads((out / "bounds.json").read_text())
        assert rows["implied_constants"] == 1.0

    def test_bounds_table_zero_model_is_prefactor_only(self, tmp_path):
        cfg = {"experiment": "bounds_table",
               "model": {"preset": "standard_zero"}}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        rows = json.loads((out / "bounds.json").read_text())
        assert rows["main_bound_generic"] == pytest.approx(2.0**0.5)

    def test_zero_model_sweep_reports_zero_kl(self, tmp_path):
        cfg = dict(MINI_CHAOS)
        cfg["model"] = {"preset": "standard_zero"}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        report = json.loads((out / "report_N002.json").read_text())
        assert report["kl_estimate"] == 0.0

    def test_sweep_rerun_gives_identical_artifacts(self, tmp_path):
        cfg = dict(MINI_CHAOS)
        cfg["sweep"] = {"n_particles": [2, 4]}
        cfg_path = write_config(tmp_path, cfg)
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            a, b = ((out / name).read_bytes() for out in outs)
            if name == "manifest.json":
                a, b = (json.loads(m) for m in (a, b))
                del a["wall_time_s"], b["wall_time_s"]
            assert a == b, name

    def test_grid_section_reaches_the_solver(self, tmp_path, monkeypatch):
        import mflab.chaos

        seen = []
        solve = mflab.chaos.solve_self_consistent

        def spy(*args, **kwargs):
            seen.append(kwargs.get("axes"))
            return solve(*args, **kwargs)

        monkeypatch.setattr(mflab.chaos, "solve_self_consistent", spy)
        cfg = dict(MINI_CHAOS)
        cfg["grid"] = {"n_nodes": 513, "span_sd": 9.0}
        cfg_path = write_config(tmp_path, cfg)
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert len(seen) == 1 and seen[0] is not None
        (axis,) = seen[0]
        assert axis.n == 513
        # The quadratic preset has variance 1/alpha = 1/2 at lam = sigma = 1.
        assert axis.hi == pytest.approx(9.0 / 2.0**0.5, rel=1e-15)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTrajectoryWriter:
    """`mflab run` formats trajectory.csv in a forked child that reads the
    kept states from a pipe while the dynamics run."""

    def expected_csv(self, cfg, path):
        model, mb = build_model(cfg["model"]), cfg["mfld"]
        n_steps = int(round(mb["horizon"] / mb["step"]))
        stride = max(1, (n_steps + 1) // 512)
        steps = np.arange(0, n_steps + 1, stride)
        traj = mfld_simulate(model, mb["n_particles"], mb["horizon"],
                             mb["step"], seed=cfg["seed"], record_every=stride)
        trajectory_to_csv(traj[:len(steps)], steps, path)
        return path.read_bytes()

    @pytest.mark.parametrize("model", [{"preset": "relu3"},
                                       {"kind": "quadratic_oracle", "d": 2}])
    def test_streamed_file_equals_trajectory_to_csv(self, tmp_path, model):
        # 1101 steps at stride 2: the stride does not divide n_steps, so
        # the extra terminal row must not reach the file.
        cfg = {"experiment": "mfld_run", "seed": 3, "model": model,
               "mfld": {"n_particles": 5, "horizon": 1.101, "step": 1e-3}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        assert_no_child_left()
        assert sorted(p.name for p in out.iterdir()) == [
            "diagnostics.json", "manifest.json", "summary.txt",
            "trajectory.csv"]
        assert json.loads((out / "diagnostics.json").read_text())[
            "store_stride"] == 2
        assert ((out / "trajectory.csv").read_bytes()
                == self.expected_csv(validate_config(cfg),
                                     tmp_path / "expected.csv"))

    def test_bytes_survive_a_1ms_sigalrm(self, tmp_path):
        # A signal can cut a blocking pipe write short; the parent must
        # still send every byte.  The child is slower than these dynamics,
        # so the pipe is full and the parent blocks in write.  A state of
        # 16,000 bytes is not a whole number of pages, so the child's reads
        # free part of a write's room and a blocked write can return short
        # (checked: a raw unbuffered write fails this test).
        cfg = {"experiment": "mfld_run", "model": {"preset": "relu3"},
               "mfld": {"n_particles": 2000, "horizon": 0.3, "step": 1e-3}}
        path = write_config(tmp_path, cfg)
        ticks = []
        previous = signal.signal(signal.SIGALRM, lambda *_: ticks.append(1))
        signal.setitimer(signal.ITIMER_REAL, 1e-3, 1e-3)
        try:
            code = main(["run", "--config", path, "--out",
                         str(tmp_path / "out")])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 0 and len(ticks) > 10
        assert_no_child_left()
        assert ((tmp_path / "out" / "trajectory.csv").read_bytes()
                == self.expected_csv(validate_config(cfg),
                                     tmp_path / "expected.csv"))

    def test_divergence_leaves_no_file_and_no_child(self, tmp_path, capsys):
        cfg = {"experiment": "mfld_run", "model": {"kind": "zero"},
               "mfld": {"n_particles": 4, "horizon": 300.0, "step": 3.0}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 3
        assert_no_child_left()
        assert list(out.iterdir()) == []
        assert "particle coordinates reached" in capsys.readouterr().err

    @pytest.mark.parametrize("blocked", ["trajectory.csv",
                                         "trajectory.csv.part"])
    def test_writer_that_cannot_write_exits_3(self, tmp_path, blocked):
        # A directory in the way fails the final rename (trajectory.csv) or
        # the child's first open, while the parent is still sending.
        cfg = {"experiment": "mfld_run", "model": {"preset": "relu3"},
               "mfld": {"n_particles": 256, "horizon": 1.0, "step": 1e-3}}
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        path = os.pathsep.join(filter(None, [SRC,
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mflab.cli", "run", "--config",
             write_config(tmp_path, cfg), "--out", str(out)],
            capture_output=True, env=dict(os.environ, PYTHONPATH=path),
            text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "trajectory writer exited with status 1" in proc.stderr
        assert "Is a directory" in proc.stderr
        assert sorted(p.name for p in out.iterdir()) == [blocked]


class TestReportCommand:
    def test_report_roundtrip(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, MINI_CHAOS)
        out = tmp_path / "out"
        main(["run", "--config", cfg_path, "--out", str(out)])
        assert main(["report", str(out)]) == 0
        captured = capsys.readouterr()
        assert "chaos sweep" in captured.out
        manifest = json.loads((out / "manifest.json").read_text())
        for key in ("wall_time_s", "peak_rss_mb", "peak_rss_children_mb"):
            assert f"{key}: {manifest[key]:.4g}\n" in captured.out

    def test_report_prints_sampler_warnings(self, tmp_path, capsys):
        # A step far too large for a 1-step burn-in leaves every chain
        # rejecting almost every proposal.
        cfg = dict(MINI_CHAOS, mcmc=dict(MINI_CHAOS["mcmc"], n_burnin=1,
                                         step_size0=50.0))
        out = tmp_path / "out"
        main(["run", "--config", write_config(tmp_path, cfg), "--out",
              str(out)])
        report = json.loads((out / "report_N002.json").read_text())
        assert report["sampler"]["n_chains"] == 32
        assert report["sampler"]["acceptance_ok"] is False
        warnings = report["sampler"]["warnings"]
        assert warnings[0].startswith("chain acceptance rates")
        assert "sampler" not in report["flags"]
        capsys.readouterr()
        main(["report", str(out)])
        printed = capsys.readouterr().out
        for w in warnings:
            assert f"warning: N=2: {w}" in printed

    def test_missing_manifest_exit_2(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 2

    def test_report_propagates_invariant_failure(self, tmp_path):
        manifest = {"experiment": "chaos_sweep", "seed": 0,
                    "versions": {"mflab": "0.1.0"},
                    "invariants_passed": False}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert main(["report", str(tmp_path)]) == 1


class TestBoundsCommand:
    def test_lsi_pert_json(self, capsys):
        assert main(["bounds", "lsi-pert", "--alpha", "1",
                     "--lipschitz", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(148.4131591025766)

    def test_heatflow_terms(self, capsys):
        assert main(["bounds", "heatflow-lipschitz", "--a", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.5)

    def test_songbo_domain_error_exit_3(self, capsys):
        assert main(["bounds", "songbo", "--kappa", "3", "--epsilon", "0.1",
                     "--rho", "1", "--n-particles", "2"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert "error" in payload

    def test_rescale(self, capsys):
        assert main(["bounds", "rescale", "--sigma", "1", "--lam", "4",
                     "--beta-hat", "1", "--B", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"]["beta_hat"] == pytest.approx(0.25)
        assert payload["value"]["B"] == pytest.approx(0.5)


def test_import_loads_no_scipy():
    # scipy is a test oracle only: importing it would more than double the
    # setup time of every run.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code = ("import sys, mflab, mflab.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
