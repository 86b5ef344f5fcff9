import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dlfilter
from dlfilter import cli
from dlfilter.checks import run_all
from dlfilter.cli import main
from dlfilter.harness import MAX_PRIOR_OVER_OBS_VAR, config_to_flat, default_config
from dlfilter.kalman import FilterError


@pytest.fixture
def config_file(tmp_path):
    cfg = default_config("accelerating", n_steps=20, space_freq="1/5", time_freq="1/5")
    flat = config_to_flat(cfg)
    path = tmp_path / "scenario.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in flat.items()) + "\n")
    return path


def test_run_command_writes_outputs(tmp_path, config_file, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out_dir)]) == 0
    for name in ("truth.csv", "model.csv", "kf_mean.csv", "dlf_mean.csv",
                 "metrics.csv", "observations.csv", "manifest.json"):
        assert (out_dir / name).exists()
    printed = capsys.readouterr().out
    assert "manifest.json" in printed


def test_run_command_accepts_manifest(tmp_path, config_file):
    first = tmp_path / "first"
    second = tmp_path / "second"
    main(["run", "--config", str(config_file), "--out", str(first)])
    main(["run", "--config", str(first / "manifest.json"), "--out", str(second)])
    np.testing.assert_array_equal(
        np.loadtxt(first / "dlf_mean.csv", delimiter=",", skiprows=1, ndmin=2),
        np.loadtxt(second / "dlf_mean.csv", delimiter=",", skiprows=1, ndmin=2))


def test_run_command_pool_trace(tmp_path, config_file):
    out_dir = tmp_path / "out"
    main(["run", "--config", str(config_file), "--out", str(out_dir), "--pool-trace"])
    lines = (out_dir / "pool_trace.csv").read_text().splitlines()
    assert lines[0] == "step,origin_time,position,variance,selected"
    assert len(lines) > 1
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"0", "1"}
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "pool_trace.csv" in manifest["outputs"]


def test_a_rerun_from_the_manifest_alone_reproduces_the_pool_trace(tmp_path, config_file):
    first, second = tmp_path / "first", tmp_path / "second"
    main(["run", "--config", str(config_file), "--out", str(first), "--pool-trace"])
    assert json.loads((first / "manifest.json").read_text())["pool_trace"] is True
    main(["run", "--config", str(first / "manifest.json"), "--out", str(second)])
    names = sorted(p.name for p in first.iterdir())
    assert "pool_trace.csv" in names and sorted(p.name for p in second.iterdir()) == names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    plain = tmp_path / "plain"
    main(["run", "--config", str(config_file), "--out", str(plain)])
    manifest = json.loads((plain / "manifest.json").read_text())
    assert manifest["pool_trace"] is False
    # a manifest without the key records a run without a pool trace
    del manifest["pool_trace"]
    (plain / "manifest.json").write_text(json.dumps(manifest))
    main(["run", "--config", str(plain / "manifest.json"), "--out", str(tmp_path / "rerun")])
    assert not (tmp_path / "rerun" / "pool_trace.csv").exists()


def test_reused_out_directory_holds_only_the_last_runs_tables(tmp_path, config_file):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("kept\n")
    main(["run", "--config", str(config_file), "--out", str(out_dir), "--pool-trace"])
    main(["run", "--config", str(config_file), "--out", str(out_dir)])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "pool_trace.csv" not in manifest["outputs"]
    assert sorted(p.name for p in out_dir.glob("*.csv")) == manifest["outputs"]
    assert (out_dir / "notes.txt").read_text() == "kept\n"


def test_sweep_command(tmp_path, config_file, capsys):
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--config", str(config_file), "--xi", "1,1/5",
                 "--tau", "1/5", "--replicates", "2", "--out", str(out_dir)])
    assert code == 0
    lines = (out_dir / "sweep_summary.csv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 cells
    assert lines[0].startswith("xi,tau,replicates")


@st.composite
def config_texts(draw):
    """Flat config text of a small scenario inside the load checks."""
    n_points = draw(st.integers(2, 24))
    n_steps = draw(st.integers(1, 20))
    noise = st.floats(0.0, 1.0)
    obs_var = draw(st.floats(1e-3, 1.0))
    # Prior variances from below obs_var to just under MAX_PRIOR_OVER_OBS_VAR * obs_var.
    prior_cap = obs_var * MAX_PRIOR_OVER_OBS_VAR / 10.0 ** draw(st.integers(0, 12))
    prior_share = st.floats(0.0, 0.4999)
    # three distinct seeds: a config that gives one seed two roles is refused
    seed_truth, seed_model, seed_obs = draw(
        st.lists(st.integers(0, 10_000), min_size=3, max_size=3, unique=True))
    lines = {
        "drift": draw(st.sampled_from(["ou", "accelerating"])),
        "n_points": n_points,
        "n_steps": n_steps,
        "speed_noise": draw(noise),
        "forcing_noise": draw(noise),
        "init_var": draw(prior_share) * prior_cap,
        "model_noise_var": draw(prior_share) * prior_cap / n_steps,
        "obs_var": obs_var,
        "pulse_center": draw(st.floats(0.01, 1.99)),
        "space_freq": f"1/{draw(st.integers(1, n_points))}",
        "time_freq": f"1/{draw(st.integers(1, 4))}",
        "model_mode": draw(st.sampled_from(["stochastic", "mean"])),
        "seed_truth": seed_truth,
        "seed_model": seed_model,
        "seed_obs": seed_obs,
    }
    if draw(st.booleans()):
        lines["present_time"] = draw(st.integers(0, n_steps))
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


@settings(max_examples=100, deadline=None)
@given(config_texts(), st.booleans())
def test_every_config_that_loads_runs_and_writes_its_outputs(text, pool_trace):
    with tempfile.TemporaryDirectory() as tmp:
        config, out_dir = Path(tmp) / "scenario.cfg", Path(tmp) / "out"
        config.write_text(text)
        flags = ["--pool-trace"] if pool_trace else []
        assert main(["run", "--config", str(config), "--out", str(out_dir), *flags]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert ("pool_trace.csv" in manifest["outputs"]) == pool_trace
        for name in manifest["outputs"]:
            assert (out_dir / name).stat().st_size > 0, name
        metrics = np.loadtxt(out_dir / "metrics.csv", delimiter=",", skiprows=1, ndmin=2)
        assert metrics.shape[0] == int(manifest["config"]["n_steps"]) + 1


def test_check_command(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_self_checks_all_pass():
    for result in run_all():
        assert result.passed, f"{result.name}: {result.detail}"


def test_bad_input_in_a_fresh_process(tmp_path):
    # python -m dlfilter turns main's status into the process exit status
    env = dict(os.environ, PYTHONPATH=str(Path(dlfilter.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "dlfilter", "run", "--config",
                           str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("dlfilter: error: ")
    assert "No such file or directory" in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config_text, message", [
    ("run", "drift = ou\npresent_time = -5\n", "present_time must lie in [0, n_steps = 200]"),
    ("run", "drift = ou\nspace_freq = 0\n", "spatial frequency 0 does not invert"),
    ("run", "drift = ou\npulse_center = 7\n", "pulse center must lie inside the domain"),
    ("run", None, "No such file or directory"),
    ("sweep", "drift = ou\nn_steps = 5\n", "xi_list is empty"),
    ("run", "drift = ou\nobs_var = nan\n", "obs_var must be finite, got nan"),
    ("run", "drift = ou\nmodel_noise_var = inf\n", "model_noise_var must be finite, got inf"),
    ("run", "drift = ou\ninit_var = nan\n", "init_var must be finite, got nan"),
    ("run", "drift = ou\nforcing_noise = nan\n", "forcing_noise must be finite, got nan"),
    ("run", "drift = ou\nrelax_rate = nan\n", "relax_rate must be finite, got nan"),
    ("run", '{"tool": "dlfilter"}\n', "a JSON config needs a 'config' object"),
    # the accelerating speed passes the CFL bound at the first step, and late in the run
    ("run", "drift = accelerating\nbase_speed = 2\n", "CFL violated: max |dt/dx * c| = 1.98"),
    ("run", "drift = accelerating\nspeed_ramp = 0.6\nn_steps = 400\n", "CFL violated"),
    ("run", "drift = ou\nseed_truth = -1\n", "seed_truth must be nonnegative, got -1"),
    ("sweep --xi 1 --tau 1", "drift = ou\nseed_obs = -3\n", "seed_obs must be nonnegative, got -3"),
    ("run", "drift = ou\nseed_model = 101\n",
     "seed_truth and seed_model are both 101: one seed cannot serve two roles"),
    # the default seeds 101/202/303 are 101 apart: replicate 101 would reuse one
    ("sweep --xi 1 --tau 1 --replicates 102", "drift = ou\n",
     "seed_truth = 101 and seed_model = 202 are closer than the 102 replicates"),
    ("run", "drift = ou\nspace_freq = 1/0\n", "space_freq = 1/0: zero denominator"),
    ("run", "drift = ou\nn_points = 0\n", "n_points must be at least 2"),
    ("run", "drift = ou\nn_steps = 2.5\n", "n_steps = 2.5: "),
    ("run", "drift = ou\nseed_obs = 1.5\n", "seed_obs = 1.5: "),
    ("run", "drift = ou\nobs_var = 0\n", "obs_var must be positive"),
    ("run", "drift = ou\nmodel_noise_var = -1\n", "model_noise_var must be nonnegative"),
    ("run", "drift = ou\nn_steps = 0\n", "n_steps must be at least 1"),
    ("run", "drift = ou\nspeed_noise = -1\n", "speed_noise must be nonnegative"),
    ("run", "drift = ou\nspace_freq = 1/60\n", "spatial stride exceeds the number of stations"),
    # flag values are argparse's to report, after its usage lines
    ("sweep --xi 1/0 --tau 1", "drift = ou\n",
     "dlfilter sweep: error: argument --xi: invalid _fraction_list value: '1/0'"),
    ("sweep --xi 1 --tau 1/0", "drift = ou\n",
     "dlfilter sweep: error: argument --tau: invalid _fraction_list value: '1/0'"),
    ("sweep --xi abc --tau 1", "drift = ou\n",
     "dlfilter sweep: error: argument --xi: invalid _fraction_list value: 'abc'"),
    ("run", '{"config": {"drift": "ou"}, "pool_trace": "yes"}\n',
     "'pool_trace' must be true or false"),
    # a prior this far above obs_var ran into a negative posterior variance
    ("run", "drift = ou\ninit_var = 1e15\n",
     "init_var + n_steps * model_noise_var = 1e+15 exceeds 1e+12 * obs_var = 0.02"),
], ids=["negative-present-time", "zero-space-freq", "pulse-outside-domain", "missing-config",
        "empty-xi-list", "nan-obs-var", "inf-model-noise-var", "nan-init-var",
        "nan-forcing-noise", "nan-relax-rate", "manifest-without-config", "cfl-at-start",
        "cfl-late-in-run", "negative-seed-truth", "negative-seed-obs-in-sweep",
        "equal-seeds", "replicates-reuse-a-seed",
        "zero-denominator-in-file", "zero-ou-points", "fractional-n-steps",
        "fractional-seed", "zero-obs-var", "negative-model-noise-var", "zero-steps",
        "negative-speed-noise", "stride-past-the-grid", "zero-denominator-xi", "zero-denominator-tau", "unparsable-xi",
        "non-boolean-pool-trace", "prior-dwarfs-obs-var"])
def test_bad_input_is_one_error_line_with_status_2(tmp_path, capsys, command, config_text,
                                                   message):
    config = tmp_path / "scenario.cfg"
    if config_text is not None:
        config.write_text(config_text)
    command, *extra = command.split()
    if command == "sweep" and not extra:
        extra = ["--xi", "", "--tau", "1"]
    # in-process: a bad flag ends in argparse's SystemExit, a bad config in main's
    # return value, and any other exception fails the test
    try:
        status = main([command, "--config", str(config), *extra, "--out", str(tmp_path / "out")])
    except SystemExit as exc:
        status = exc.code
    err = capsys.readouterr().err
    assert status == 2
    assert "Traceback" not in err
    if message.startswith("dlfilter sweep: error: argument "):
        lines = err.splitlines()
        assert lines[0].startswith("usage: dlfilter sweep ")
        assert [line for line in lines if "error:" in line] == [message]
        assert lines[-1] == message and err.endswith("\n")
    else:
        assert err.count("\n") == 1 and err.startswith("dlfilter: error: ")
        assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, out, message", [
    ("run", "taken", "File exists"),
    ("sweep --xi 1 --tau 1", "taken", "File exists"),
    ("run", "taken/sub", "Not a directory"),
], ids=["run-into-a-file", "sweep-into-a-file", "run-below-a-file"])
def test_an_output_path_through_a_file_fails_before_anything_runs(monkeypatch, tmp_path, capsys,
                                                                  config_file, command, out,
                                                                  message):
    def ran(*args, **kwargs):
        raise AssertionError("ran before the output directory was made")
    monkeypatch.setattr(cli, "run_scenario", ran)
    monkeypatch.setattr(cli, "sweep", ran)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    command, *extra = command.split()
    status = main([command, "--config", str(config_file), *extra, "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert status == 2
    assert err.count("\n") == 1 and err.startswith("dlfilter: error: ")
    assert message in err
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("error", [FilterError("Cholesky failed"),
                                   ValueError("covariance is not symmetric within tolerance")])
def test_failures_after_the_input_check_still_raise(monkeypatch, config_file, tmp_path, error):
    def failing_run(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli, "run_scenario", failing_run)
    with pytest.raises(type(error), match=str(error)):
        main(["run", "--config", str(config_file), "--out", str(tmp_path / "out")])
