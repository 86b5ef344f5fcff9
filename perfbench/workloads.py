"""The benchmark's workloads: a scenario config made from the seed, and the CLI call.

Each workload is one ``dlfilter`` CLI invocation. The seed picks the three
noise streams of the scenario; everything else is fixed, so every seed asks
the program for the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

# --seed n maps to seed_truth/model/obs = base + SEED_STRIDE * n, so seed 0 is
# the repository's default scenario seeds. A sweep adds the replicate index
# (0..4) to each, which the stride keeps apart from every other seed.
BASE_SEEDS = {"seed_truth": 101, "seed_model": 202, "seed_obs": 303}
SEED_STRIDE = 10_000

_OU = {
    "drift": "ou", "domain_length": "2.0", "cfl": "0.99", "relax_rate": "0.01",
    "speed_noise": "0.02", "forcing_noise": "0.01", "pulse_center": "1.25",
    "init_var": "0.02", "model_noise_var": "0.08", "obs_var": "0.02",
}
_ACCELERATING = {
    "drift": "accelerating", "domain_length": "2.0", "n_points": "50", "cfl": "0.99",
    "n_steps": "100", "base_speed": "0.1", "speed_ramp": "0.01", "speed_noise": "0.02",
    "forcing_noise": "0.01", "pulse_center": "1.0", "init_var": "0.02",
    "model_noise_var": "0.08", "space_freq": "1/4", "time_freq": "1/10", "obs_var": "0.02",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # "run" or "sweep"
    config: dict[str, str]        # scenario keys without the seeds
    sweep_args: tuple[str, ...] = ()

    def config_text(self, seed: int) -> str:
        seeds = {key: str(base + SEED_STRIDE * seed) for key, base in BASE_SEEDS.items()}
        flat = {**self.config, **seeds}
        return "".join(f"{key} = {value}\n" for key, value in flat.items())

    def argv(self, config_path, out_dir) -> list[str]:
        return [self.command, "--config", str(config_path), *self.sweep_args,
                "--out", str(out_dir)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pool-n50",
        command="run",
        config={**_OU, "n_points": "50", "n_steps": "200",
                "space_freq": "1/5", "time_freq": "1"},
    ),
    Workload(
        name="grid-n400",
        command="run",
        config={**_OU, "n_points": "400", "n_steps": "100",
                "space_freq": "1/5", "time_freq": "1/10"},
    ),
    Workload(
        name="sweep-acc",
        command="sweep",
        config=_ACCELERATING,
        sweep_args=("--xi", "1,1/4", "--tau", "1,1/10", "--replicates", "5"),
    ),
)}
