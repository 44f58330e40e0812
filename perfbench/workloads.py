"""Workload definitions and the memory estimate used before starting one.

Every workload runs on the ICEWS14 shape (7129 entities, 230 relations,
365 timestamps) written by ``generate.py``. This module imports only the
standard library, so run.py can plan runs without loading numpy.
"""

import dataclasses
from dataclasses import dataclass

NUM_ENTITIES = 7129
NUM_RELATIONS = 230
NUM_DAYS = 365

# Rows of the 14 cyclic-encoder tables together (see time_encoding).
CYCLIC_ROWS = 627
# Interpreter, numpy, the parsed dataset and the 1-N/filter dictionaries:
# about 170 MB were measured after set-up at this shape; the rest is margin.
BASE_BYTES = 400 * 2**20


@dataclass(frozen=True)
class Workload:
    name: str
    job: str  # "train": `timekge train` 1-N steps; "evaluate": filtered ranking
    variant: str
    encoder: str
    dim: int
    rank: int
    batch_size: int = 1000

    @property
    def checkpoint_spec(self) -> str:
        return f"{self.variant},{self.encoder},{self.dim},{self.rank}"

    def num_params(self) -> int:
        """Learnable parameters at the ICEWS14 shape (relations doubled)."""
        d, width = self.dim, self.rank * self.dim
        count = NUM_ENTITIES * d + 2 * NUM_RELATIONS * d + 2 * d * width
        if self.variant == "tnt":
            count += 2 * NUM_RELATIONS * d
        if self.variant == "cfb":
            count += d * width + width * width
        count += (NUM_DAYS if self.encoder == "ste" else CYCLIC_ROWS) * d
        return count

    def memory_estimate_bytes(self) -> int:
        """Upper estimate of peak RSS at the ICEWS14 shape.

        Training holds parameters, two Adam moments, fresh gradients and one
        update temporary (5x params), about ten batch x width activations and
        six batch x entities logit-sized arrays. Evaluation holds the loaded
        parameters twice while reading them, and one ranking batch.
        """
        params = 8 * self.num_params()
        width = self.rank * self.dim
        if self.job == "train":
            batch = 8 * self.batch_size * (10 * width + 6 * NUM_ENTITIES)
            return BASE_BYTES + 5 * params + batch
        batch = 8 * 1024 * (4 * width + 3 * NUM_ENTITIES)
        return BASE_BYTES + 2 * params + batch


# Why each workload exists is recorded next to it in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("icews14-tnt-ste-train", "train", "tnt", "ste", 300, 32),
    Workload("icews14-cfb-cte-train", "train", "cfb", "cte", 300, 16),
    Workload("icews14-tnt-ste-eval", "evaluate", "tnt", "ste", 300, 32),
)}


def smoke_variant(workload: Workload) -> Workload:
    """Same job at a size that runs in seconds on the bundled dataset."""
    return dataclasses.replace(workload, dim=8, rank=2, batch_size=32)
