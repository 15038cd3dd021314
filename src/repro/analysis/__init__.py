"""Figure/table regeneration and experiment aggregation."""

from repro.analysis.experiments import (
    average_exec_time_reduction,
    average_overhead_fraction,
    average_traffic_reduction,
    average_waste_fraction,
    exec_time_reduction,
    traffic_reduction,
)
from repro.analysis.figures import (
    ALL_FIGURES,
    FigureTable,
    figure_5_1a,
    figure_5_1b,
    figure_5_1c,
    figure_5_1d,
    figure_5_2,
    figure_5_3a,
    figure_5_3b,
    figure_5_3c,
    table_4_1,
    table_4_2,
)
from repro.analysis.energy import (
    edp_table,
    energy_grid,
    figure_energy,
)
from repro.analysis.scaling import (
    ScalingFigure,
    figure_scaling,
)

__all__ = [
    "ALL_FIGURES", "FigureTable", "ScalingFigure",
    "figure_5_1a", "figure_5_1b", "figure_5_1c", "figure_5_1d",
    "figure_5_2", "figure_5_3a", "figure_5_3b", "figure_5_3c",
    "figure_energy", "edp_table", "energy_grid",
    "figure_scaling",
    "table_4_1", "table_4_2",
    "traffic_reduction", "average_traffic_reduction",
    "exec_time_reduction", "average_exec_time_reduction",
    "average_overhead_fraction", "average_waste_fraction",
]
