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

from mflab.cli import (
    SCHEMA,
    SECTIONS_BY_EXPERIMENT,
    build_model,
    main,
    run_experiment,
    validate_config,
)
from mflab.errors import ConfigError
from mflab.model import model_constants, rescale_model
from mflab.sampler import mfld_simulate, states_to_csv

from _oracles import rescale_parameters

SRC = str(Path(__file__).resolve().parent.parent / "src")


def write_config(tmp_path, payload, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


NN_DATA = {"x": [[1.0], [-0.5]], "y": [0.2, -0.1]}

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
        ("horizon", -1.0), ("step", 25.0)])
    def test_mfld_out_of_range_exit_2(self, tmp_path, key, value):
        # These once ended in a traceback with exit 1; a step longer than
        # twice the horizon once ran zero steps and exited 0.
        cfg = {"experiment": "mfld_run", "model": {"preset": "relu3"},
               "mfld": {key: value}}
        with pytest.raises(ConfigError, match=f"mfld.*{key}"):
            validate_config(cfg)
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("experiment, section, key, value", [
        # An empty sweep once passed with no checks at all; the others
        # ended in a traceback (exit 1) or, for span_sd, were ignored.
        ("chaos_sweep", "sweep", "n_particles", []),
        ("tilt_profile", "profile", "n_times", 0),
        ("tilt_profile", "profile", "tilt_centers", []),
        ("tilt_profile", "profile", "n_particles", 0),
        # A nonpositive window once reversed or collapsed the time grid.
        ("tilt_profile", "profile", "decades_around", 0.0),
        ("tilt_profile", "profile", "decades_around", -1.0),
        # A window past float64 once ended in an OverflowError (exit 1).
        ("tilt_profile", "profile", "decades_around", 400.0),
        ("tilt_profile", "profile", "decades_around", float("inf")),
        ("transport_map", "profile", "decades_around", 400.0),
        # The map is built for one particle in d = 1.
        ("transport_map", "profile", "n_particles", 2),
        # An int past float64 once ended in an OverflowError (exit 1).
        pytest.param("bounds_table", "model", "sigma", 10**400,
                     id="bounds_table-model-sigma-10**400"),
        ("transport_map", "grid", "n_nodes", 1),
        ("chaos_sweep", "grid", "n_nodes", 0),
        ("transport_map", "grid", "span_sd", -1.0),
        ("chaos_sweep", "grid", "span_sd", 0.0),
        # YAML's true once passed as the int 1 or the float 1.0.
        ("bounds_table", "", "seed", True),
        ("mfld_run", "mfld", "n_particles", True),
        ("bounds_table", "model", "sigma", True),
        ("chaos_sweep", "sweep", "n_particles", [True, 2]),
        ("tilt_profile", "profile", "tilt_centers", [True]),
    ])
    def test_out_of_range_values_exit_2(self, tmp_path, experiment, section,
                                        key, value):
        cfg = {"experiment": experiment, "model": {"kind": "zero"}}
        (cfg.setdefault(section, {}) if section else cfg)[key] = value
        name = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=f"{name}( entries)? must"):
            validate_config(cfg)
        out = tmp_path / "x"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("centers", [["a"], [0.0, None], [float("nan")],
                                         [float("inf")]])
    def test_tilt_centers_entries_type_checked_exit_2(self, tmp_path,
                                                      centers):
        # ["a"] once passed validation and ended in a traceback (exit 1).
        cfg = {"experiment": "tilt_profile", "model": {"preset": "relu3"},
               "profile": {"tilt_centers": centers}}
        with pytest.raises(ConfigError, match="profile.tilt_centers entries"):
            validate_config(cfg)
        out = tmp_path / "x"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("cfg", [
        # These once exited 0 with NaN results.
        {"experiment": "bounds_table",
         "model": {"kind": "zero", "lam": float("nan")}},
        {"experiment": "bounds_table", "model": {
            "kind": "example_nn", "data": NN_DATA,
            "loss": {"type": "squared", "scale": float("nan")}}},
        {"experiment": "bounds_table", "model": {
            "kind": "example_nn", "data": NN_DATA,
            "loss": {"type": "squared", "clip_radius": float("nan")}}},
        {"experiment": "bounds_table", "model": {
            "kind": "example_nn", "data": dict(NN_DATA,
                                               weights=[float("nan"), 0.5])}},
        {"experiment": "mfld_run",
         "model": {"kind": "zero", "sigma": float("nan")}},
        {"experiment": "bounds_table",
         "model": {"kind": "quadratic_oracle", "kappa": float("nan")}},
        # These once ended in a traceback (exit 1).
        {"experiment": "mfld_run", "model": {"kind": "zero"},
         "mfld": {"horizon": float("inf")}},
        {"experiment": "mfld_run", "model": {"kind": "zero"},
         "mfld": {"horizon": 1e300, "step": 1e-300}},
        {"experiment": "transport_map", "model": {"preset": "relu3"},
         "grid": {"span_sd": float("inf")}},
        {"experiment": "chaos_sweep", "model": {"preset": "relu3"},
         "grid": {"span_sd": float("inf")}},
        {"experiment": "bounds_table", "model": {
            "kind": "example_nn", "sigma": float("inf"), "data": NN_DATA}},
    ], ids=["lam_nan", "loss_scale_nan", "loss_clip_radius_nan",
            "weight_nan", "mfld_sigma_nan", "kappa_nan", "horizon_inf",
            "steps_overflow", "transport_span_inf", "chaos_span_inf",
            "sigma_inf"])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, cfg):
        out = tmp_path / "x"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_duplicate_particle_counts_exit_2(self, tmp_path):
        # [2, 2] once ran N = 2 twice: the second report_N002.json replaced
        # the first, and chaos_sweep.csv kept both rows.
        cfg = dict(MINI_CHAOS, sweep={"n_particles": [2, 4, 2]})
        with pytest.raises(ConfigError, match="sweep.n_particles entries "
                           "must be distinct"):
            validate_config(cfg)
        out = tmp_path / "x"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_default_sweep_doubles_up_to_1024(self):
        cfg = validate_config({"experiment": "chaos_sweep",
                               "model": {"preset": "relu3"}})
        assert cfg["sweep"]["n_particles"] == [2, 4, 8, 16, 32, 64, 128, 256,
                                               512, 1024]

    @pytest.mark.parametrize("experiment", ["chaos_sweep", "transport_map"])
    def test_chaos_sweep_rejects_d_not_1(self, tmp_path, experiment):
        # transport_map once passed validation and exited 3 part-way.
        cfg = {"experiment": experiment, "model": {"kind": "zero", "d": 2}}
        with pytest.raises(ConfigError, match=f"{experiment}.*d = 1"):
            validate_config(cfg)
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_chaos_sweep_d2_exits_2(self, tmp_path):
        cfg = dict(MINI_CHAOS)
        cfg["model"] = {"kind": "quadratic_oracle", "d": 2}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out",
                     str(tmp_path / "x")]) == 2

    def test_flow_dt_rejected_exit_2(self, tmp_path):
        # The map is built at t = infinity: no flow section is read.
        cfg = {"experiment": "transport_map", "model": {"preset": "relu3"},
               "flow": {"dt": 1e-3, "t_max": 8.0}}
        with pytest.raises(ConfigError, match="unknown section 'flow'"):
            validate_config(cfg)
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_every_schema_section_is_read(self):
        # A section that no experiment reads would accept keys nothing uses.
        read = set().union(*SECTIONS_BY_EXPERIMENT.values())
        assert set(SCHEMA) - {""} <= read

    @pytest.mark.parametrize("experiment, section, value", [
        ("bounds_table", "grid", {"n_nodes": 5}),
        ("tilt_profile", "mcmc", {}),
        ("mfld_run", "profile", {"n_times": 8}),
    ])
    def test_section_the_experiment_does_not_read_exit_2(
            self, tmp_path, experiment, section, value):
        # Each once validated and was dropped from the resolved config.
        cfg = {"experiment": experiment, "model": {"preset": "relu3"},
               section: value}
        with pytest.raises(ConfigError,
                           match=f"{experiment} does not read section "
                                 f"'{section}'"):
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

    @pytest.mark.parametrize("model, match", [
        ({"kind": "zero", "sigma": -1.0}, "sigma and lam must be positive"),
        ({"kind": "zero", "d": 0}, "d must be at least 1"),
        ({"kind": "quadratic_oracle", "kappa": -1.0}, "kappa"),
        ({"kind": "example_nn", "activation": "foo",
          "data": {"x": [[1.0]], "y": [0.5]}}, "unknown activation"),
        ({"kind": "example_nn", "loss": {"type": "squared", "scale": -1.0},
          "data": {"x": [[1.0]], "y": [0.5]}}, "scale"),
        ({"kind": "example_nn", "data": {"x": [[1.0], [2.0]],
                                         "y": [0.5, 0.1], "weights": [0.3]}},
         "leading length"),
        ({"kind": "example_nn", "data": {"x": [[1.0], [2.0]], "y": [0.5]}},
         "leading length"),
        ({"kind": "example_nn", "data": {"x": [[1.0]]}}, "needs key 'y'"),
        ({"kind": "example_nn", "loss": {"type": "logistic"},
          "data": {"x": [[1.0]], "y": [0.5]}}, "labels must be"),
    ])
    def test_values_the_constructors_refuse_exit_2(self, tmp_path, model,
                                                    match):
        self._rejected_before_run(tmp_path, model, match)

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

    def test_clip_radius_under_model_and_loss_exit_2(self, tmp_path):
        # The loss block's value once won without a word, while the
        # manifest recorded model.clip_radius.
        self._rejected_before_run(tmp_path, {
            "kind": "example_nn", "clip_radius": 5.0,
            "loss": {"type": "squared", "clip_radius": 3.0}, "data": NN_DATA},
            "not both")

    @pytest.mark.parametrize("loss, clip_radius", [
        ({"type": "squared", "clip_radius": 3.0}, 3.0),
        ({"type": "logistic"}, None)], ids=["squared", "logistic"])
    def test_manifest_records_the_clip_radius_the_loss_reads(
            self, tmp_path, loss, clip_radius):
        # Both once recorded model.clip_radius 10.0, the default.
        cfg = validate_config({"experiment": "bounds_table", "model": {
            "kind": "example_nn", "loss": loss,
            "data": {"x": [[1.0], [-0.5]], "y": [1.0, -1.0]}}})
        assert run_experiment(cfg, str(tmp_path)) == 0
        model = json.loads((tmp_path / "manifest.json").read_text())[
            "config"]["model"]
        assert model.get("clip_radius", None) == clip_radius
        assert ("clip_radius" in model) == (clip_radius is not None)
        assert getattr(build_model(model).loss, "clip_radius",
                       None) == clip_radius

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

    @pytest.mark.parametrize("model, match", [
        # YAML booleans in these blocks were once built as 1 and 0.
        ({"loss": {"type": "squared", "scale": True}, "data": NN_DATA},
         "model.loss.scale must be float"),
        ({"loss": {"type": "squared", "clip_radius": True}, "data": NN_DATA},
         "model.loss.clip_radius must be float"),
        ({"data": dict(NN_DATA, weights=[True, False])},
         "model.data.weights entries must be float"),
        ({"data": {"x": [[True], [-0.5]], "y": [0.2, False]}},
         "model.data.x entries entries must be float"),
        ({"data": dict(NN_DATA, y=[0.2, False])},
         "model.data.y entries must be float"),
        ({"data": dict(NN_DATA, x=[1.0, -0.5])},
         "model.data.x entries must be list"),
        # A dataset key that nothing reads was once ignored.
        ({"data": dict(NN_DATA, bias=[0.0, 0.0])},
         r"model.data keys \['bias'\] are ignored"),
    ], ids=["loss_scale_true", "loss_clip_radius_true", "weights_bool",
            "x_and_y_bool", "y_bool", "x_flat", "data_key_unread"])
    def test_loss_and_data_blocks_typed_exit_2(self, tmp_path, model, match):
        self._rejected_before_run(tmp_path, dict(model, kind="example_nn"),
                                  match)

    def test_loss_and_data_blocks_kept_as_given(self):
        model = {"kind": "example_nn", "loss": {"type": "squared", "scale": 2},
                 "data": {"x": [[1], [-1]], "y": [1, 0], "weights": [1, 0]}}
        resolved = validate_config({"experiment": "bounds_table",
                                    "model": model})["model"]
        for key in ("loss", "data"):
            assert json.dumps(resolved[key]) == json.dumps(model[key])

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
        # A run is byte-identical for a given BLAS thread count, which
        # the manifest records beside the config and seed.
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

    def test_unparsable_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text("experiment: [chaos_sweep\n")
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 2
        assert "config parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("n_nodes", [2, 3, 9])
    def test_grid_too_coarse_for_the_transport_map_exit_3(self, tmp_path,
                                                          capsys, n_nodes):
        # Once an uncaught ValueError or IndexError (exit 1); at 9 nodes one
        # node lies within 8 sd of the mean.
        cfg = {"experiment": "transport_map", "model": {"preset": "relu3"},
               "grid": {"n_nodes": n_nodes}}
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "x")]) == 3
        assert ("resolves fewer than two CDF levels"
                in capsys.readouterr().err)

    def test_chaos_grid_that_truncates_the_law_exit_3(self, tmp_path,
                                                      capsys):
        # At span_sd 1 relu3's law has its mean 1.76 sd from a grid end;
        # the sweep once ran on the truncated law and failed mala_agrees
        # (exit 1).
        cfg = {**MINI_CHAOS, "model": {"preset": "relu3"},
               "grid": {"span_sd": 1.0}}
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "x")]) == 3
        assert "sd from a grid end" in capsys.readouterr().err

    @pytest.mark.parametrize("n_nodes", [9, 21])
    def test_chaos_grid_too_coarse_for_the_law_exit_3(self, tmp_path, capsys,
                                                      n_nodes):
        # Both grids cover relu3's law by the 8-sd rule, but space their
        # nodes 3.2 and 1.0 of its sd apart; the sweeps once exited 1 on
        # wrong verdicts (at 9 nodes variance_step, mala_agrees and
        # no_growth_in_n failed).
        cfg = {**MINI_CHAOS, "model": {"preset": "relu3"},
               "grid": {"n_nodes": n_nodes}}
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "x")]) == 3
        assert (f"the {n_nodes}-node grid's spacing"
                in capsys.readouterr().err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tilt_center_past_float64_exit_3(self, tmp_path, capsys):
        # The window around the mode once had hi == lo and ended in Axis's
        # ValueError (exit 1); later the coarse scan reached the center
        # first and overflowed.
        cfg = {"experiment": "tilt_profile", "model": {"preset": "relu3"},
               "profile": {"tilt_centers": [1.0e+300], "n_times": 3}}
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "x")]) == 3
        assert "no width in float64" in capsys.readouterr().err

    def test_numeric_failure_exit_3(self, tmp_path, capsys):
        cfg = {
            "experiment": "transport_map",
            "model": {"preset": "relu3"},
            "grid": {"n_nodes": 64},
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out",
                     str(tmp_path / "x")]) == 3
        assert ("forward map is not strictly increasing"
                in capsys.readouterr().err)

    def test_transport_map_on_shipped_grid(self, tmp_path):
        # The default grid: span_sd 10, so half-width 8.5 for relu3.
        cfg = {"experiment": "transport_map", "model": {"preset": "relu3"}}
        out = tmp_path / "out"
        main(["run", "--config", write_config(tmp_path, cfg),
              "--out", str(out)])
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["monotone"]
        assert metrics["pushforward_w2"] < 1e-3

    def test_main_bound_in_the_maps_coordinates(self, tmp_path):
        # The map is built for the rescaled model, N(0, 1/2) here, so its
        # constant is 1/sqrt(2) against main_bound = 1 in those coordinates
        # (0.354 against 0.5 in the original ones).
        cfg = {"experiment": "transport_map",
               "model": {"kind": "zero", "sigma": 1.0, "lam": 4.0}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["empirical_lipschitz"] == pytest.approx(
            2.0**-0.5, rel=1e-5)
        assert metrics["main_bound_generic"] == pytest.approx(1.0)
        assert metrics["main_bound_specific"] == pytest.approx(1.0)
        assert ("lipschitz_below_main_bound_generic: 0.707107 <= 1: yes"
                in (out / "summary.txt").read_text())

    # The exact oracles at reduced effort, on every experiment kind.  The
    # zero models meet envelopes_hold and lipschitz_below_fitted_envelope
    # with equality, up to the checks' stated slack.  mfld_run and
    # bounds_table state no checks: their rows only show that the runs
    # complete.
    @pytest.mark.parametrize("model", [
        {"preset": "unit_zero"}, {"preset": "standard_zero"},
        {"preset": "quadratic"}, {"kind": "zero", "sigma": 1.0, "lam": 4.0}])
    @pytest.mark.parametrize("experiment,effort", [
        ("transport_map", {"grid": {"n_nodes": 512}}),
        ("tilt_profile", {"profile": {"n_times": 8}}),
        ("chaos_sweep", {"sweep": {"n_particles": [2, 4, 8, 16]},
                         "mcmc": {"n_samples": 1024, "n_burnin": 256,
                                  "n_pi_samples": 4096, "n_chains": 8},
                         "grid": {"n_nodes": 512}}),
        ("mfld_run", {"mfld": {"n_particles": 16, "horizon": 1.0,
                               "step": 0.01}}),
        ("bounds_table", {})])
    def test_oracle_passes_every_check(self, tmp_path, model, experiment,
                                       effort):
        cfg = {"experiment": experiment, "model": model, **effort}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0, (out / "summary.txt").read_text()

    # relu3 with its squared loss scaled up: the regime threshold t* falls
    # like 1/B^2, and a coarse scan for each tilt's mode, spaced wider than
    # the tilt, once put the peak on the window's edge (exit 3).
    @pytest.mark.parametrize("experiment, scale, n", [
        ("tilt_profile", 64.0, 1), ("transport_map", 64.0, 1),
        ("tilt_profile", 16.0, 2)])
    def test_strong_interaction_passes_every_check(self, tmp_path,
                                                   experiment, scale, n):
        model = {"kind": "example_nn", "activation": "relu",
                 "loss": {"type": "squared", "scale": scale,
                          "clip_radius": 1.0},
                 "data": {"x": [[1.0], [-0.8], [0.6]], "y": [0.5, -0.3, 0.2],
                          "weights": [0.4, 0.35, 0.25]}}
        cfg = {"experiment": experiment, "model": model,
               "profile": {"n_particles": n}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0, (out / "summary.txt").read_text()

    # The exit-code contract: a run returns 1 only after writing a summary
    # whose last line is the failed verdict, and never by a traceback.
    @pytest.mark.parametrize("cfg, code, failed", [
        # Tail nodes that underflow to 0 once raised ValueError (exit 1).
        ({"experiment": "transport_map", "model": {"preset": "relu3"},
          "grid": {"span_sd": 40.0}}, 0, []),
        # Zero models meet envelopes_hold to rounding; at N = 2 the excess
        # once outgrew its slack (0.984216 <= 0.984216: NO).
        ({"experiment": "tilt_profile", "model": {"preset": "unit_zero"},
          "profile": {"n_particles": 2}}, 0, []),
        ({"experiment": "tilt_profile", "model": {"preset": "standard_zero"},
          "profile": {"n_particles": 2}}, 0, []),
        ({"experiment": "chaos_sweep", "model": {"preset": "relu3"},
          "mcmc": {"n_pi_samples": 2}}, 1, ["N=2 z_ess_ok"]),
        ({"experiment": "chaos_sweep", "model": {"preset": "relu3"},
          "sweep": {"n_particles": [2]},
          "mcmc": {"n_samples": 1, "n_chains": 2, "n_burnin": 0}}, 1,
         ["N=2 mala_agrees"]),
    ], ids=["wide_transport_grid", "unit_zero_n2", "standard_zero_n2",
            "z_ess_ok", "mala_agrees"])
    def test_exit_1_only_with_a_failed_summary(self, tmp_path, cfg, code,
                                               failed):
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == code
        lines = (out / "summary.txt").read_text().splitlines()
        assert lines[-1] == f"all checks: {'NO' if code else 'yes'}"
        names = [line.split(":")[0] for line in lines if line.endswith(": NO")]
        assert set(failed) <= set(names) and bool(names) == bool(code)

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

    # The files of each kind's run directory, each artifact written once;
    # transport_map writes the profile that it fits.
    @pytest.mark.parametrize("experiment, effort, artifacts", [
        ("chaos_sweep", {"sweep": {"n_particles": [2]},
                         "mcmc": MINI_CHAOS["mcmc"]},
         ["chaos_sweep.csv", "report_N002.json"]),
        ("tilt_profile", {"profile": {"n_times": 4}}, ["profile.csv"]),
        ("transport_map", {"profile": {"n_times": 4}},
         ["flowmap.csv", "metrics.json", "profile.csv"]),
        ("mfld_run", {"mfld": {"n_particles": 4, "horizon": 0.1,
                               "step": 0.01}},
         ["diagnostics.json", "trajectory.csv"]),
        ("bounds_table", {}, ["bounds.json"])])
    def test_run_directory_holds_each_artifact_once(self, tmp_path,
                                                    experiment, effort,
                                                    artifacts):
        cfg = {"experiment": experiment, "model": {"preset": "quadratic"},
               **effort}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            artifacts + ["manifest.json", "summary.txt"])

    def test_transport_map_writes_the_tilt_profile(self, tmp_path):
        # One profile path: the transport run's profile.csv is the
        # tilt_profile run's at the same profile section.
        profile = {"n_times": 8, "tilt_centers": [0.0, 2.0]}
        outs = []
        for experiment in ("tilt_profile", "transport_map"):
            cfg = {"experiment": experiment, "model": {"preset": "relu3"},
                   "profile": profile}
            outs.append(tmp_path / experiment)
            assert main(["run", "--config", write_config(tmp_path, cfg),
                         "--out", str(outs[-1])]) == 0
        tilt, transport = ((o / "profile.csv").read_bytes() for o in outs)
        assert transport == tilt
        assert tilt.count(b"\n") == 1 + 2 * 8

    def test_bounds_table_zero_model_is_prefactor_only(self, tmp_path):
        cfg = {"experiment": "bounds_table",
               "model": {"preset": "standard_zero"}}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        rows = json.loads((out / "bounds.json").read_text())
        assert rows["main_bound_generic"] == pytest.approx(2.0**0.5)

    def test_bounds_table_rescaled_rows_at_nonunit_sigma_lam(self, tmp_path):
        # The rescaled rows are the rescaled model's constants, bit for
        # bit, and the paper's substitution of the inputs.
        cfg = {"experiment": "bounds_table", "model": {
            "kind": "example_nn", "sigma": 1.3, "lam": 0.37,
            "loss": {"type": "squared", "scale": 1.0, "clip_radius": 1.0},
            "data": {"x": [[1.0], [-0.8], [0.6]], "y": [0.5, -0.3, 0.2],
                     "weights": [0.4, 0.35, 0.25]}}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out",
                     str(out)]) == 0
        rows = json.loads((out / "bounds.json").read_text())
        model = build_model(validate_config(cfg)["model"])
        via_model = model_constants(rescale_model(model))
        oracle = rescale_parameters(model_constants(model))
        for key in ("beta_hat", "B", "lam"):
            assert rows[f"rescaled_{key}"] == getattr(via_model, key)
            assert rows[f"rescaled_{key}"] == pytest.approx(
                getattr(oracle, key), rel=1e-12, abs=0.0)

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
            if name == "manifest.json":  # timings and process-lifetime peaks
                a, b = (json.loads(m) for m in (a, b))
                for key in ("wall_time_s", "peak_rss_mb",
                            "peak_rss_children_mb"):
                    del a[key], b[key]
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


class TestTrajectoryWriter:
    """`mflab run` formats trajectory.csv in a forked child that reads the
    kept states from a pipe while the dynamics run."""

    def expected_csv(self, cfg, path):
        """trajectory.csv as states_to_csv writes it from the whole
        recorded (S, N, d) trajectory array."""
        model, mb = build_model(cfg["model"]), cfg["mfld"]
        n_steps = int(round(mb["horizon"] / mb["step"]))
        stride = max(1, (n_steps + 1) // 512)
        steps = np.arange(0, n_steps + 1, stride)
        traj = mfld_simulate(model, mb["n_particles"], mb["horizon"],
                             mb["step"], seed=cfg["seed"], record_every=stride)
        states_to_csv(traj[:len(steps)], steps, path, mb["n_particles"],
                      model.d)
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
        assert ((tmp_path / "out" / "trajectory.csv").read_bytes()
                == self.expected_csv(validate_config(cfg),
                                     tmp_path / "expected.csv"))

    def test_divergence_leaves_no_file_and_no_child(self, tmp_path, capsys):
        cfg = {"experiment": "mfld_run", "model": {"kind": "zero"},
               "mfld": {"n_particles": 4, "horizon": 300.0, "step": 3.0}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 3
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

    def test_failed_check_is_named_with_its_margin(self, tmp_path, capsys):
        # At seed 53 the MALA and IS values of E_mu[B] on relu3 at N = 2
        # lie 3.67 combined standard errors apart, past the allowed 3.
        cfg = {"experiment": "chaos_sweep", "seed": 53,
               "model": {"preset": "relu3"}, "sweep": {"n_particles": [2]}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 1
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        printed = capsys.readouterr().out
        (line,) = [ln for ln in printed.splitlines()
                   if ln.startswith("N=2 mala_agrees:")]
        assert line.endswith(", margin -3.67 se: NO")
        assert " + 3.00 se," in line
        assert printed.endswith("all checks: NO\n")
        report = json.loads((out / "report_N002.json").read_text())
        assert report["flags"]["mala_agrees"] is False

    def test_missing_manifest_exit_2(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 2

    def test_report_propagates_invariant_failure(self, tmp_path):
        manifest = {"experiment": "chaos_sweep", "seed": 0,
                    "versions": {"mflab": "0.1.0"},
                    "invariants_passed": False}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert main(["report", str(tmp_path)]) == 1


def loaded_modules(code: str, package: str) -> str:
    """The modules of `package` loaded after running `code` in a fresh
    interpreter, as a printed list."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code += (f"; import sys; print([m for m in sys.modules "
             f"if m.split('.')[0] == {package!r}])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    # scipy is a test oracle only: importing it would more than double the
    # setup time of every run.
    assert loaded_modules("import mflab, mflab.cli", "scipy") == "[]"


def test_a_config_given_as_a_dict_loads_no_yaml():
    # Only load_config reads YAML; a caller that passes a dict skips the
    # import's time and memory.
    code = ("from mflab.cli import validate_config; validate_config("
            "{'experiment': 'bounds_table', 'model': {'preset': 'relu3'}})")
    assert loaded_modules(code, "yaml") == "[]"
