"""Plane spanning trees in edge-colored simple drawings of K_n."""

from .book import BookLayout, compile_book, solve_book
from .core import (
    Drawing,
    Edge,
    EdgeColoring,
    EdgeSet,
    SolveReport,
    edge,
    induced_subdrawing,
    is_plane,
    is_spanning_tree,
    validate_drawing,
)
from .cylindrical import (
    CylindricalLayout,
    NotApplicableError,
    NotSimpleError,
    compile_layout,
    reduce_and_solve,
    rotation_order_check,
    solve_cylindrical,
)
from .generators import GenerationError, gen_book, gen_coloring, gen_cylindrical, gen_points
from .monotone import MonotoneDrawing, colors_needed, group_partition, solve_monotone
from .search import (
    enumerate_spanning_trees,
    find_plane_tree,
    verify_class_file,
    verify_all_colorings,
)
from .straightline import PointDrawing, compile_points, solve_points

__version__ = "0.1.0"
