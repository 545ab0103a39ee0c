"""Partitioning engines and the device cost model.

* :mod:`repro.partition.devices` -- FPGA device library (paper Table I).
* :mod:`repro.partition.cost` -- objective functions (eqs. 1 and 2).
* :mod:`repro.partition.fm` -- classic Fiduccia-Mattheyses bipartitioning.
* :mod:`repro.partition.fm_replication` -- FM extended with functional
  (and, for ablation, traditional) replication moves.
* :mod:`repro.partition.kway` -- recursive multi-way partitioning into
  heterogeneous devices minimizing total cost and interconnect.
* :mod:`repro.partition.multilevel` -- coarsen-solve-uncoarsen V-cycle
  on the CSR core (initial-solution provider for the k-way carver).
"""

from repro.partition.devices import Device, DeviceLibrary, XC3000_LIBRARY, XC4000_LIBRARY
from repro.partition.cost import SolutionCost, solution_cost
from repro.partition.fm import fm_bipartition, FMConfig, FMResult
from repro.partition.fm_replication import (
    replication_bipartition,
    ReplicationConfig,
    ReplicationResult,
)
from repro.partition.kway import partition_heterogeneous, KWayConfig, KWaySolution
from repro.partition.multilevel import (
    MultilevelConfig,
    MultilevelHierarchy,
    MultilevelResult,
    resolve_multilevel,
    vcycle_bipartition,
)
from repro.partition.verify import verify_solution
from repro.partition.spectral import SpectralConfig, SpectralResult, spectral_bipartition
from repro.partition.annealing import (
    AnnealingConfig,
    AnnealingResult,
    annealing_bipartition,
)
from repro.partition.report import bipartition_report, solution_report

__all__ = [
    "SpectralConfig",
    "SpectralResult",
    "spectral_bipartition",
    "AnnealingConfig",
    "AnnealingResult",
    "annealing_bipartition",
    "bipartition_report",
    "solution_report",
    "MultilevelConfig",
    "MultilevelHierarchy",
    "MultilevelResult",
    "resolve_multilevel",
    "vcycle_bipartition",
    "verify_solution",
    "Device",
    "DeviceLibrary",
    "XC3000_LIBRARY",
    "XC4000_LIBRARY",
    "SolutionCost",
    "solution_cost",
    "fm_bipartition",
    "FMConfig",
    "FMResult",
    "replication_bipartition",
    "ReplicationConfig",
    "ReplicationResult",
    "partition_heterogeneous",
    "KWayConfig",
    "KWaySolution",
]
