"""Pluggable mobility models: one registry, four trace generators.

Mirrors the radio subsystem's shape: a scenario names its mobility model in a
frozen :class:`~repro.mobility.config.MobilityConfig`, and the experiment
layer asks this registry to build the traces.  Every model answers the same
question — *which nodes exist, and where is each one at every time?* — by
returning a :class:`MobilityBuild`: a bounding box (the service area the
gateway grid is laid over) plus one :class:`MobilityTrace` per node in a
deterministic id order.

The ``london-bus`` model reproduces the pre-refactor inline generation of
``experiments/scenario.py`` *bit-identically* (same random-stream
consumption, same node ids, same trace points); the golden fingerprints in
``tests/experiments/test_mobility_equivalence.py`` and
``tests/mobility/test_london_golden.py`` pin this.
"""

from __future__ import annotations

import abc
import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Type, Union

import numpy as np

from repro.mobility.config import MOBILITY_MODELS, MobilityConfig
from repro.mobility.generators import RandomWaypointMobility
from repro.mobility.geometry import BoundingBox, Point
from repro.mobility.london import LondonBusNetworkConfig, LondonBusNetworkGenerator
from repro.mobility.route import build_trip_trace
from repro.mobility.trace import MobilityTrace, TracePoint


@dataclass(frozen=True)
class MobilitySpec:
    """Everything a model may draw on to build its traces.

    ``network`` is the scenario's bus-network configuration; the synthetic
    non-bus models reuse its service area and fleet size so that swapping the
    model keeps spatial densities comparable.
    """

    mobility: MobilityConfig
    network: LondonBusNetworkConfig
    duration_s: float

    def fleet_size(self) -> int:
        """Node count for the synthetic models (explicit, or bus-fleet sized)."""
        if self.mobility.num_nodes > 0:
            return self.mobility.num_nodes
        return self.network.num_routes * self.network.trips_per_route

    def service_area(self) -> BoundingBox:
        """The square service area implied by the bus-network configuration."""
        return BoundingBox.from_area_km2(self.network.area_km2)


@dataclass(frozen=True)
class MobilityBuild:
    """What a mobility model hands the scenario builder."""

    bounding_box: BoundingBox
    traces: Dict[str, MobilityTrace]


class MobilityModel(abc.ABC):
    """One way of generating the node traces of a scenario."""

    #: Registry name; must appear in :data:`repro.mobility.config.MOBILITY_MODELS`.
    name: str = ""

    @abc.abstractmethod
    def build(self, spec: MobilitySpec, rng: np.random.Generator) -> MobilityBuild:
        """Generate the traces for ``spec`` using ``rng`` (and nothing else)."""


class LondonBusModel(MobilityModel):
    """The paper's synthetic London bus network (the default model)."""

    name = "london-bus"

    def build(self, spec: MobilitySpec, rng: np.random.Generator) -> MobilityBuild:
        generator = LondonBusNetworkGenerator(spec.network, rng)
        timetable = generator.generate()
        traces: Dict[str, MobilityTrace] = {}
        for index, trip in enumerate(timetable.trips):
            node_id = f"bus-{index:04d}"
            traces[node_id] = build_trip_trace(trip, node_id=node_id)
        return MobilityBuild(bounding_box=generator.bounding_box, traces=traces)


class RandomWaypointModel(MobilityModel):
    """Classic random waypoint over the scenario's service area."""

    name = "random-waypoint"

    def build(self, spec: MobilitySpec, rng: np.random.Generator) -> MobilityBuild:
        box = spec.service_area()
        generator = RandomWaypointMobility(
            bounding_box=box,
            num_nodes=spec.fleet_size(),
            duration_s=spec.duration_s,
            min_speed_mps=spec.mobility.min_speed_mps,
            max_speed_mps=spec.mobility.max_speed_mps,
            pause_s=spec.mobility.pause_s,
        )
        traces = {trace.node_id: trace for trace in generator.traces(rng, prefix="rwp")}
        return MobilityBuild(bounding_box=box, traces=traces)


class GridManhattanModel(MobilityModel):
    """Movement constrained to a Manhattan street grid.

    Streets run every ``grid_spacing_m`` metres in both axes; each node
    starts at a uniform-random intersection and repeatedly drives to a
    uniform-random *adjacent* intersection at a uniform speed in the
    configured range, pausing ``pause_s`` at each corner.  The spacing is
    shrunk when the area is too small to hold two streets per axis, so every
    scenario gets a walkable grid.
    """

    name = "grid-manhattan"

    def build(self, spec: MobilitySpec, rng: np.random.Generator) -> MobilityBuild:
        box = spec.service_area()
        columns = max(int(box.width // spec.mobility.grid_spacing_m) + 1, 2)
        rows = max(int(box.height // spec.mobility.grid_spacing_m) + 1, 2)
        spacing_x = box.width / (columns - 1)
        spacing_y = box.height / (rows - 1)
        traces: Dict[str, MobilityTrace] = {}
        for index in range(spec.fleet_size()):
            node_id = f"manhattan-{index:04d}"
            traces[node_id] = self._single_trace(
                spec, rng, node_id, box, columns, rows, spacing_x, spacing_y
            )
        return MobilityBuild(bounding_box=box, traces=traces)

    def _single_trace(
        self,
        spec: MobilitySpec,
        rng: np.random.Generator,
        node_id: str,
        box: BoundingBox,
        columns: int,
        rows: int,
        spacing_x: float,
        spacing_y: float,
    ) -> MobilityTrace:
        def intersection(col: int, row: int) -> Point:
            return Point(box.min_x + col * spacing_x, box.min_y + row * spacing_y)

        col = int(rng.integers(0, columns))
        row = int(rng.integers(0, rows))
        time = 0.0
        points: List[TracePoint] = [TracePoint(time, intersection(col, row))]
        while time < spec.duration_s:
            moves = []
            if col > 0:
                moves.append((col - 1, row))
            if col < columns - 1:
                moves.append((col + 1, row))
            if row > 0:
                moves.append((col, row - 1))
            if row < rows - 1:
                moves.append((col, row + 1))
            next_col, next_row = moves[int(rng.integers(0, len(moves)))]
            origin = intersection(col, row)
            destination = intersection(next_col, next_row)
            speed = float(
                rng.uniform(spec.mobility.min_speed_mps, spec.mobility.max_speed_mps)
            )
            time += max(origin.distance_to(destination) / speed, 1e-6)
            points.append(TracePoint(time, destination))
            col, row = next_col, next_row
            if spec.mobility.pause_s > 0 and time < spec.duration_s:
                time += spec.mobility.pause_s
                points.append(TracePoint(time, destination))
        return MobilityTrace(points, node_id=node_id)


class TraceFileModel(MobilityModel):
    """Replays externally recorded traces from a CSV file.

    The bounding box is the tight enclosure of every recorded position, so
    the gateway grid covers exactly the recorded service area.  The random
    stream is unused — a replayed workload is deterministic by construction.
    """

    name = "trace-file"

    def build(self, spec: MobilitySpec, rng: np.random.Generator) -> MobilityBuild:
        del rng
        traces = load_traces_csv(spec.mobility.trace_file)
        if not traces:
            raise ValueError(
                f"trace file {spec.mobility.trace_file!r} holds no trace points"
            )
        return MobilityBuild(bounding_box=_enclosing_box(traces), traces=traces)


def _enclosing_box(traces: Mapping[str, MobilityTrace]) -> BoundingBox:
    xs = np.concatenate([trace._xs_array for trace in traces.values()])
    ys = np.concatenate([trace._ys_array for trace in traces.values()])
    return BoundingBox(
        min_x=float(xs.min()),
        min_y=float(ys.min()),
        max_x=float(xs.max()),
        max_y=float(ys.max()),
    )


# --------------------------------------------------------------------- #
# CSV trace files
# --------------------------------------------------------------------- #
#: Header of the interchange format (one row per trace sample).
TRACE_CSV_FIELDS = ("node_id", "time_s", "x_m", "y_m")


def load_traces_csv(path: Union[str, Path]) -> Dict[str, MobilityTrace]:
    """Read traces from a ``node_id,time_s,x_m,y_m`` CSV file.

    Nodes appear in the result in order of first appearance; each node's
    samples may be interleaved with other nodes' but must carry unique
    timestamps (enforced by :class:`MobilityTrace`).  Every time and
    coordinate must be a finite number.
    """
    source = Path(path)
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read trace file {source}: {exc}") from exc
    reader = csv.DictReader(text.splitlines())
    if reader.fieldnames is None or tuple(reader.fieldnames) != TRACE_CSV_FIELDS:
        raise ValueError(
            f"trace file {source} must start with the header "
            f"{','.join(TRACE_CSV_FIELDS)!r}, got {reader.fieldnames!r}"
        )
    samples: Dict[str, List[TracePoint]] = {}
    for line, row in enumerate(reader, start=2):
        try:
            node_id = row["node_id"]
            time, x, y = (float(row[field]) for field in TRACE_CSV_FIELDS[1:])
            if not all(map(math.isfinite, (time, x, y))):
                raise ValueError(f"non-finite sample ({time}, {x}, {y})")
            point = TracePoint(time, Point(x, y))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"trace file {source}, line {line}: {exc}") from exc
        if not node_id:
            raise ValueError(f"trace file {source}, line {line}: empty node_id")
        samples.setdefault(node_id, []).append(point)
    return {
        node_id: MobilityTrace(points, node_id=node_id)
        for node_id, points in samples.items()
    }


def save_traces_csv(
    traces: Mapping[str, MobilityTrace], path: Union[str, Path]
) -> Path:
    """Write traces as a ``node_id,time_s,x_m,y_m`` CSV file (round-trips
    losslessly through :func:`load_traces_csv` — ``repr`` keeps full float
    precision)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(TRACE_CSV_FIELDS)]
    for node_id, trace in traces.items():
        for time, x, y in zip(trace._times, trace._xs, trace._ys):
            # A float's repr is the shortest string that parses back to it.
            lines.append(f"{node_id},{float(time)!r},{float(x)!r},{float(y)!r}")
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
_MODEL_REGISTRY: Dict[str, Type[MobilityModel]] = {
    model.name: model
    for model in (LondonBusModel, RandomWaypointModel, GridManhattanModel, TraceFileModel)
}

assert set(_MODEL_REGISTRY) == set(MOBILITY_MODELS), (
    "mobility model registry out of sync with MOBILITY_MODELS"
)


def mobility_model_names() -> List[str]:
    """The registered model names, in catalogue order."""
    return list(MOBILITY_MODELS)


def make_mobility_model(name: str) -> MobilityModel:
    """Instantiate a mobility model by registry name."""
    try:
        return _MODEL_REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown mobility model {name!r}; available: {list(MOBILITY_MODELS)}"
        ) from None


def build_mobility(spec: MobilitySpec, rng: np.random.Generator) -> MobilityBuild:
    """Build the traces of ``spec`` with the model it names."""
    return make_mobility_model(spec.mobility.model).build(spec, rng)
