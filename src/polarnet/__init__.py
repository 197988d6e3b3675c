"""Polarization metrics and epidemic simulation on annotated contact networks."""

from .config import RunConfig, parse_config, serialize_config
from .epidemic import (
    EpidemicParams,
    RunRecord,
    Seeding,
    SimulationState,
    delay_table,
    infect,
    infectiousness_integral,
    initial_state,
    run_batch,
    seed_infections,
    status_on,
    step_day,
)
from .errors import (
    AnnotationError,
    ConfigError,
    DataError,
    FitError,
    GraphFormatError,
    PolarnetError,
    SingleGroupError,
)
from .experiment import (
    Allocation,
    Comparison,
    EnsembleSummary,
    compare_scenarios,
    run_ensemble,
)
from .generators import (
    GeneratorSpec,
    barabasi_albert,
    erdos_renyi,
    two_community,
    watts_strogatz,
)
from .graph import AnnotatedGraph, Opinion, load_edge_list, save_edge_list, subgraph_by_opinion
from .metrics import (
    DegreeDistribution,
    MetricsReport,
    PowerLawFit,
    assortativity,
    average_clustering,
    cross_connection_ratio,
    degree_distribution,
    density,
    fit_power_law,
    metrics_report,
    mixing_matrix,
)

__version__ = "0.1.0"
