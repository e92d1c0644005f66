"""The benchmark's workloads: the experiment file each one writes from a
workload seed, and the call counts its config implies.

Every workload drives one ``fedrot`` CLI command (``run`` or ``sweep``).
The experiment files are written as JSON, which the YAML config loader
reads unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

STRATEGIES = ("fedit", "fedrot", "ffa_lora", "rolora", "scalar_rescale",
              "random_rotation")
# The strategy whose loss need not fall; it must instead end above FedIT's.
NEGATIVE_CONTROL = "random_rotation"

# ``align_from_round`` when the experiment file leaves it out.
DEFAULT_ALIGN_FROM_ROUND = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "sweep"
    experiment: dict  # the experiment section without its seed
    strategies: tuple[str, ...] = ()  # sweep grid; empty for "run"

    def seeds(self, seed: int) -> list[int]:
        """Experiment seeds one invocation covers for a workload seed."""
        return [2 * seed, 2 * seed + 1] if self.command == "sweep" else [seed]

    def config_text(self, seed: int) -> str:
        experiment = dict(self.experiment, seed=self.seeds(seed)[0])
        doc = {"experiment": experiment}
        if self.command == "sweep":
            doc["sweep"] = {"grid": {"strategy": list(self.strategies)},
                            "seeds": self.seeds(seed)}
        return json.dumps(doc, indent=2) + "\n"

    def experiment_text(self, experiment_seed: int) -> str:
        """An experiment file for one run of the workload's experiment."""
        experiment = dict(self.experiment, seed=experiment_seed)
        return json.dumps({"experiment": experiment}, indent=2) + "\n"

    def cell_seeds(self, seed: int) -> list[int]:
        """Experiment seed of each run, in the order of :meth:`cells`."""
        if self.command == "run":
            return self.seeds(seed)
        return [s for _ in self.strategies for s in self.seeds(seed)]

    def cells(self) -> list[dict]:
        """One experiment section per run the invocation performs, in the
        sweep's cell order (grid values outer, seeds inner)."""
        if self.command == "run":
            return [self.experiment]
        return [dict(self.experiment, strategy=s)
                for s in self.strategies for _ in self.seeds(0)]

    def expected_counts(self) -> dict[str, int]:
        """Layer call counts that follow from the config alone."""
        counts = dict.fromkeys(
            ["tasks.build", "federation.local_train", "tasks.client_grads",
             "aggregation.server_step", "alignment.procrustes_rotation",
             "alignment.soft_rotation", "numerics.svd.via_alignment",
             "alignment.haar_random_rotation"], 0)
        counts["config.load_config"] = 1
        for cell in self.cells():
            clients, rounds = cell["n_clients"], cell["rounds"]
            client_rounds = clients * rounds
            counts["tasks.build"] += 1
            counts["federation.local_train"] += client_rounds
            counts["tasks.client_grads"] += client_rounds * cell["local_steps"]
            counts["aggregation.server_step"] += rounds
            if cell["strategy"] == "fedrot":
                first = cell.get("align_from_round", DEFAULT_ALIGN_FROM_ROUND)
                aligned = clients * max(0, rounds - first + 1)
                counts["alignment.procrustes_rotation"] += aligned
                counts["alignment.soft_rotation"] += aligned
                counts["numerics.svd.via_alignment"] += 2 * aligned
            if cell["strategy"] == NEGATIVE_CONTROL:
                counts["alignment.haar_random_rotation"] += client_rounds
        return counts


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance regression cell with twice the rounds: local
        # training is ~98% of the time, alignment under 2%.
        Workload(
            name="regression_train",
            command="run",
            experiment={
                "strategy": "fedrot", "n_clients": 3, "rank": 4,
                "dims": [64, 64], "rounds": 6, "local_steps": 3000,
                "learning_rate": 0.05, "lambda": 0.7, "align_from_round": 1,
                "reference": {"kind": "prev_global"},
                "task": {"kind": "lowrank_regression", "true_rank": 4,
                         "heterogeneity": 0.5},
            },
        ),
        # Rank 32 with 10 local steps: the r x r SVDs of the Procrustes
        # solve and the soft rotation are ~97% of the time.  The
        # random-client reference takes the client-snapshot path.  Run by
        # hand: BENCHMARK.json leaves it out because its wall time spread
        # beyond the bound on a machine whose speed drifts (README.md).
        Workload(
            name="align_rank32",
            command="run",
            experiment={
                "strategy": "fedrot", "n_clients": 4, "rank": 32,
                "dims": [128, 128], "rounds": 8, "local_steps": 10,
                "learning_rate": 0.05, "lambda": 0.7, "align_from_round": 1,
                "reference": {"kind": "random_client"},
                "task": {"kind": "lowrank_regression", "true_rank": 32,
                         "heterogeneity": 0.5},
            },
        ),
        # Every strategy x 2 seeds in a 2-worker pool: ragged Dirichlet
        # shards with seeded mini-batches, Haar rotations, scalar rescale,
        # many small rounds and 12 output directories.
        Workload(
            name="logistic_sweep",
            command="sweep",
            experiment={
                "strategy": "fedrot", "n_clients": 10, "rank": 4,
                "dims": [4, 8], "rounds": 20, "local_steps": 50,
                "learning_rate": 0.1, "lambda": 0.7, "batch_size": 32,
                "dirichlet_alpha": 0.5,
                "task": {"kind": "logistic", "n_classes": 4, "n_features": 8,
                         "n_samples": 2000},
            },
            strategies=STRATEGIES,
        ),
    )
}
