"""repro: multi-way netlist partitioning into heterogeneous FPGAs.

A from-scratch reproduction of R. Kuznar, F. Brglez and B. Zajc,
"Multi-way Netlist Partitioning into Heterogeneous FPGAs and Minimization of
Total Device Cost and Interconnect", 31st ACM/IEEE Design Automation
Conference (DAC), 1994.

Quick tour -- :mod:`repro.api` is the recommended entry point::

    from repro import api

    request = api.PartitionRequest(verb="partition", circuit="s5378",
                                   scale=0.5, threshold=1)
    result = api.run_request(request)
    result.solution.cost.total_cost            # the paper's eq. (1) objective

The lower-level building blocks remain exported for direct use::

    from repro import (
        benchmark_circuit, technology_map, build_hypergraph,
        fm_bipartition, replication_bipartition, partition_heterogeneous,
        XC3000_LIBRARY,
    )

    netlist = benchmark_circuit("s5378", scale=0.5)
    mapped = technology_map(netlist)           # XC3000 CLB mapping
    hg = build_hypergraph(mapped)              # the paper's H = ({X;Y}, E)
    result = replication_bipartition(hg)       # FM + functional replication

Sub-packages: ``repro.netlist`` (gate-level substrate), ``repro.techmap``
(XC3000 mapping), ``repro.hypergraph``, ``repro.replication`` (the paper's
cost model), ``repro.partition`` (FM / replication FM / k-way),
``repro.core`` (end-to-end flows), ``repro.robust`` (deadlines, retry,
graceful degradation, fault injection), ``repro.obs`` (metrics, tracing,
JSONL event streams), ``repro.api`` (the stable facade),
``repro.experiments`` (one module per paper table/figure).
"""

from repro.netlist.benchmarks import (
    BENCHMARK_NAMES,
    benchmark_circuit,
    benchmark_suite,
)
from repro.netlist.bench_io import load_bench, loads_bench, save_bench, dumps_bench
from repro.netlist.netlist import Netlist
from repro.netlist.gates import Gate, GateType
from repro.techmap.mapped import MappedCell, MappedNetlist, technology_map
from repro.hypergraph.build import build_hypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.replication.potential import (
    cell_distribution,
    max_replication_factor,
    replication_potential,
)
from repro.replication.gains import (
    MoveVectors,
    gain_functional_replication,
    gain_single_move,
    gain_traditional_replication,
)
from repro.partition.devices import Device, DeviceLibrary, XC3000_LIBRARY
from repro.partition.fm import FMConfig, FMResult, fm_bipartition
from repro.partition.fm_replication import (
    ReplicationConfig,
    ReplicationResult,
    replication_bipartition,
)
from repro.partition.kway import (
    KWayConfig,
    KWaySolution,
    best_heterogeneous_partition,
    partition_heterogeneous,
)
from repro.core.flow import (
    bipartition_experiment,
    kway_experiment,
    map_circuit,
)
from repro.robust import (
    Budget,
    BudgetExceededError,
    ConfigError,
    InfeasibleError,
    ParseError,
    ReproError,
    SolverTimeoutError,
    VerificationError,
)
from repro.robust.runner import ResilientRunner, RunLog, RunnerConfig
from repro.obs.metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.events import JsonlEmitter, ListEmitter
from repro import api
from repro.api import SCHEMA_VERSION, RunResult
from repro.request import (
    Algorithm,
    CachePolicy,
    MultilevelMode,
    PartitionRequest,
    RequestError,
)

__version__ = "1.0.0"

__all__ = [
    "BENCHMARK_NAMES",
    "benchmark_circuit",
    "benchmark_suite",
    "load_bench",
    "loads_bench",
    "save_bench",
    "dumps_bench",
    "Netlist",
    "Gate",
    "GateType",
    "MappedCell",
    "MappedNetlist",
    "technology_map",
    "build_hypergraph",
    "Hypergraph",
    "cell_distribution",
    "max_replication_factor",
    "replication_potential",
    "MoveVectors",
    "gain_functional_replication",
    "gain_single_move",
    "gain_traditional_replication",
    "Device",
    "DeviceLibrary",
    "XC3000_LIBRARY",
    "FMConfig",
    "FMResult",
    "fm_bipartition",
    "ReplicationConfig",
    "ReplicationResult",
    "replication_bipartition",
    "KWayConfig",
    "KWaySolution",
    "best_heterogeneous_partition",
    "partition_heterogeneous",
    "bipartition_experiment",
    "kway_experiment",
    "map_circuit",
    "Budget",
    "ReproError",
    "ConfigError",
    "ParseError",
    "InfeasibleError",
    "BudgetExceededError",
    "SolverTimeoutError",
    "VerificationError",
    "ResilientRunner",
    "RunnerConfig",
    "RunLog",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    "JsonlEmitter",
    "ListEmitter",
    "api",
    "SCHEMA_VERSION",
    "RunResult",
    "PartitionRequest",
    "Algorithm",
    "CachePolicy",
    "MultilevelMode",
    "RequestError",
    "__version__",
]
