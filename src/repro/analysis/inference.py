"""Partition-inference exposure for the DAS ablation (A1).

Section 6: *"Small partitions with only a few values are more efficient
(less post-processing is necessary) but can leak confidential
information (see [15] and [8] for an analysis).  This is even worse when
the domain of the attribute is small."*

Following the spirit of Ceselli et al. [8], we quantify an adversary who
obtained an index table in plaintext (a translator placed at the
mediator, or a compromise) and knows the global attribute domain: for each
encrypted tuple it sees, its probability of guessing the tuple's real
join value is ``1 / |partition|``.  The **exposure** of a partitioning
is the mean of this probability over tuples; singleton partitions give
exposure 1.0 (the index value identifies the value), one big partition
gives ``1 / |domactive|``.

The opposing quantity is DAS efficiency: coarser partitions produce more
overlapping pairs, hence more false positives the client must discard.
Benchmark A1 sweeps bucket counts and reports both curves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.result import MediationResult
from repro.errors import ProtocolError
from repro.relational.partition import IndexTable
from repro.relational.relation import Relation


@dataclass
class ExposureReport:
    """Inference exposure of one source's partitioning."""

    attribute: str
    partitions: int
    covered_values: int
    #: mean over tuples of 1/|partition containing the tuple's value|.
    tuple_exposure: float
    #: mean over *values* of 1/|partition| (value-level exposure).
    value_exposure: float


def partition_exposure(index_table: IndexTable, relation: Relation) -> ExposureReport:
    """Exposure of ``relation`` under ``index_table``'s partitioning."""
    attribute = index_table.attribute.split(".", 1)[-1]
    sizes_by_value = {
        value: len(partition.values)
        for partition in index_table.partitions
        for value in partition.values
    }
    if not sizes_by_value:
        raise ProtocolError("index table covers no values")
    position = relation.schema.position(attribute)
    tuple_probabilities = [
        1.0 / sizes_by_value[row[position]] for row in relation
    ]
    value_probabilities = [1.0 / size for size in sizes_by_value.values()]
    return ExposureReport(
        attribute=index_table.attribute,
        partitions=len(index_table.partitions),
        covered_values=len(sizes_by_value),
        tuple_exposure=sum(tuple_probabilities) / len(tuple_probabilities),
        value_exposure=sum(value_probabilities) / len(value_probabilities),
    )


@dataclass
class DASEfficiencyReport:
    """Post-processing cost of one DAS run (the efficiency side of A1)."""

    buckets_configured: int
    server_result_size: int
    exact_join_size: int
    false_positives: int

    @property
    def false_positive_rate(self) -> float:
        if self.server_result_size == 0:
            return 0.0
        return self.false_positives / self.server_result_size


def das_efficiency(result: MediationResult) -> DASEfficiencyReport:
    """Extract the A1 efficiency quantities from a DAS run."""
    if result.protocol != "das":
        raise ProtocolError("das_efficiency requires a DAS run")
    config = result.artifacts["config"]
    return DASEfficiencyReport(
        buckets_configured=config.buckets,
        server_result_size=result.artifacts["server_result_size"],
        exact_join_size=len(result.global_result),
        false_positives=result.artifacts["false_positives"],
    )
