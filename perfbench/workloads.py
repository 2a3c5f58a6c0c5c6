"""Workload definitions and seeded config generation.

A seed moves only the coupling J and the inverse temperature beta, each within
+-2% of its reference value.  N, the grids, dt and lambda1 stay fixed, so every
seed asks the program for the same amount of work.  The config key ``seed`` is
inert in the program; it is written as the workload seed for the record only.
"""
from __future__ import annotations

import copy
import random
from dataclasses import dataclass

# The desk velocity grid is numpy.geomspace(1e-3, 10, 12); the workload keeps
# its entries 4 and 5.  Slower ramps make one point take most of a long round,
# so a run holds too few rounds for its median to ride out a slow spell of the
# machine; faster ones leave the per-point dense work (eigh, fidelity, TPM
# merge) ahead of the stepping.
DESK_VELOCITIES = [0.02848035868435802, 0.06579332246575682]

REFERENCE_J = 2.0
REFERENCE_BETA = 1.0
SEED_BAND = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: dict

    @property
    def scan(self) -> str:
        return self.config["scan"]

    @property
    def points(self) -> int:
        """Scan points per round: one record or one coupling entry each."""
        return len(self.config["grid"])


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="velocity-n9",
            subcommand="scan-velocity",
            config={
                "model": {"n_sites": 9, "coupling": REFERENCE_J, "boundary": "open"},
                "beta": REFERENCE_BETA,
                "lambda1": 0.1,
                "protocol": {"kind": "ramp_hold", "velocity": 0.001, "t_total": 100.0},
                "scan": "velocity",
                "grid": DESK_VELOCITIES + ["inf"],
                "dt": 0.01,
            },
        ),
        Workload(
            name="size-fast",
            subcommand="scan-size",
            config={
                "model": {"n_sites": 9, "coupling": REFERENCE_J, "boundary": "open"},
                "beta": REFERENCE_BETA,
                "lambda1": 0.1,
                "protocol": {"kind": "ramp_hold", "velocity": 0.2, "t_total": 100.0},
                "scan": "size",
                "grid": [4, 5, 6, 7, 8, 9, 10],
                "dt": 0.01,
            },
        ),
        Workload(
            name="pert-quench",
            subcommand="pert-compare",
            config={
                "model": {"n_sites": 7, "coupling": REFERENCE_J, "boundary": "open"},
                "beta": REFERENCE_BETA,
                "lambda1": 0.1,
                "protocol": {"kind": "quench", "t_total": 2.0},
                "scan": "pert_compare",
                "grid": [0.05, 0.1, 0.2],
                "dt": 0.01,
            },
        ),
    ]
}


def config_for(workload: Workload, seed: int, output_dir: str) -> dict:
    """The workload's config for ``seed``: J and beta drawn in a +-2% band."""
    rng = random.Random(seed)
    cfg = copy.deepcopy(workload.config)
    cfg["model"]["coupling"] = REFERENCE_J * (1.0 + SEED_BAND * (2.0 * rng.random() - 1.0))
    cfg["beta"] = REFERENCE_BETA * (1.0 + SEED_BAND * (2.0 * rng.random() - 1.0))
    cfg["seed"] = seed
    cfg["output_dir"] = output_dir
    return cfg
