"""Edge-visitation makespans, optimal-strategy regions, and fleet-size
trade-off ratios for non-obtuse triangles."""

import types as _types

from .fleet_costs import (
    FleetCostReport,
    R1Result,
    R2Result,
    R2Witness,
    R3Result,
    fleet_costs,
    h1,
    h2,
    mid_altitude_point,
    r1,
    r1_incenter_closed,
    r1_mid_altitude_closed,
    r2,
    r2_incenter_closed,
    r3,
)
from .geom_core import (
    DegenerateTriangleError,
    EdgeId,
    GeometryError,
    Line,
    ObtuseTriangleError,
    OutsideTriangleError,
    Parabola,
    Point2,
    Segment,
    Similarity,
    Triangle,
    VertexId,
    VisitOrder,
    dist_point_segment,
    edge_segment,
    foot_of_bisector,
    incenter,
    project,
    reflect,
    triangle_from_angles,
    vertex_from_angles,
)
from .oracle import (
    OracleConfig,
    OracleMismatchError,
    certify_instance,
    oracle_costs,
    oracle_ordered3,
    oracle_r2,
    oracle_r3,
    oracle_two_ordered,
)
from .regions import (
    RegionMap,
    SeparatorChain,
    bisector_separator_point,
    r1_lrd_rld_locus,
    r2_separator,
    r3_regions,
    raster_region_map,
)
from .tradeoffs import RatioReport, SweepResult, max_ratio, ratio_at, sweep_triangles
from .visitation import (
    StrategyKind,
    Trajectory,
    visit_three_ordered,
    visit_two_ordered,
    visit_two_set,
)

__version__ = "0.1.0"

# Every public name imported above, but not the submodules those imports bind.
__all__ = sorted(name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _types.ModuleType)))
