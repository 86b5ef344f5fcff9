import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dlfilter
from dlfilter import cli
from dlfilter.checks import run_all
from dlfilter.cli import main
from dlfilter.harness import config_to_flat, default_config, read_table
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
    np.testing.assert_array_equal(read_table(first / "dlf_mean.csv")[1],
                                  read_table(second / "dlf_mean.csv")[1])


def test_run_command_pool_trace(tmp_path, config_file):
    out_dir = tmp_path / "out"
    main(["run", "--config", str(config_file), "--out", str(out_dir), "--pool-trace"])
    lines = (out_dir / "pool_trace.csv").read_text().splitlines()
    assert lines[0] == "step,origin_time,position,variance,selected"
    assert len(lines) > 1
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"0", "1"}
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "pool_trace.csv" in manifest["outputs"]


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
], ids=["negative-present-time", "zero-space-freq", "pulse-outside-domain", "missing-config",
        "empty-xi-list", "nan-obs-var", "inf-model-noise-var", "nan-init-var",
        "nan-forcing-noise", "nan-relax-rate", "manifest-without-config", "cfl-at-start",
        "cfl-late-in-run", "negative-seed-truth", "negative-seed-obs-in-sweep",
        "zero-denominator-in-file", "zero-ou-points", "fractional-n-steps",
        "fractional-seed", "zero-obs-var", "negative-model-noise-var", "zero-steps",
        "negative-speed-noise", "stride-past-the-grid", "zero-denominator-xi", "zero-denominator-tau", "unparsable-xi"])
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


@pytest.mark.parametrize("error", [FilterError("Cholesky failed"),
                                   ValueError("covariance is not symmetric within tolerance")])
def test_failures_after_the_input_check_still_raise(monkeypatch, config_file, tmp_path, error):
    def failing_run(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli, "run_scenario", failing_run)
    with pytest.raises(type(error), match=str(error)):
        main(["run", "--config", str(config_file), "--out", str(tmp_path / "out")])
