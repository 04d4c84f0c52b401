"""Evaluation harness: weak-scaling sweeps and figure/table formatting."""

from .export import to_csv, to_gnuplot
from .crossover import collapse_point, crossover_point, predicted_saturation_nodes
from .weak_scaling import (
    DEFAULT_NODES,
    FigureData,
    FigureSpec,
    Series,
    is_square_power_of_two,
    run_figure,
)

__all__ = [
    "collapse_point",
    "crossover_point",
    "predicted_saturation_nodes",
    "to_csv",
    "to_gnuplot",
    "DEFAULT_NODES",
    "FigureData",
    "FigureSpec",
    "Series",
    "is_square_power_of_two",
    "run_figure",
]
