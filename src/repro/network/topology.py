"""Cell topologies: neighbour graphs with handover routing and per-cell overrides.

A :class:`CellTopology` describes *where handovers go*: a row-stochastic
routing matrix whose entry ``routing[i][j]`` is the probability that a user
handing over out of cell ``i`` enters cell ``j``, plus optional per-cell
parameter overrides (a hotter arrival rate, a degraded radio profile, a
different channel split).  The network model couples one single-cell CTMC per
cell through this routing (see :mod:`repro.network.model`).

Constructors cover the layouts the paper and its extensions need:

* :func:`hexagonal_cluster` -- the paper's wrap-around cluster.  With seven
  cells the wrap-around makes every cell adjacent to the six others, so the
  routing is uniform over all other cells and **doubly stochastic**; a
  homogeneous network on this topology reproduces the paper's single-cell
  fixed point exactly.
* :func:`ring` -- cells on a cycle, each handing over to its two neighbours.
* :func:`grid` -- a rows x cols lattice, optionally wrapped into a torus
  (wrapped grids are doubly stochastic, open grids are not).
* :func:`hotspot` -- a wrap-around cluster whose hot cell receives a
  multiplied arrival rate (the classic heterogeneous question the single-cell
  model cannot answer).

Topologies are frozen and dict round-trippable (:meth:`CellTopology.to_dict` /
:meth:`CellTopology.from_dict`) so they can live inside scenario specs and
content-addressed cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from repro.core.parameters import GprsModelParameters
from repro.store.content import content_key

__all__ = [
    "CELL_OVERRIDE_FIELDS",
    "CellTopology",
    "grid",
    "hexagonal_cluster",
    "hotspot",
    "ring",
]

#: Per-cell override keys: every cell-local field of
#: :class:`~repro.core.parameters.GprsModelParameters` (the shared traffic
#: model and the swept arrival rate are excluded) plus the multiplicative
#: ``arrival_rate_multiplier`` used for hotspot cells, which composes with the
#: sweep instead of pinning an absolute rate.
CELL_OVERRIDE_FIELDS = frozenset(
    {
        "gprs_fraction",
        "number_of_channels",
        "reserved_pdch",
        "buffer_size",
        "max_gprs_sessions",
        "coding_scheme",
        "mean_gsm_call_duration_s",
        "mean_gsm_dwell_time_s",
        "mean_gprs_dwell_time_s",
        "tcp_threshold",
        "block_error_rate",
        "arrival_rate_multiplier",
    }
)

#: Row-sum slack tolerated before a routing matrix is rejected.
_STOCHASTIC_TOL = 1e-9


@dataclass(frozen=True)
class CellTopology:
    """A neighbour graph with handover routing probabilities and overrides.

    Parameters
    ----------
    name:
        Human-readable label, e.g. ``"hex-7"`` (shown by reports).
    routing:
        Square row-stochastic matrix; ``routing[i][j]`` is the probability
        that a handover out of cell ``i`` targets cell ``j``.  The diagonal
        must be zero except in the degenerate single-cell topology, where
        ``((1.0,),)`` encodes the paper's wrap-around (every departing user
        re-enters the same cell -- the homogeneity assumption itself).
    overrides:
        Optional per-cell parameter overrides, ``{cell_index: {field: value}}``
        with fields from :data:`CELL_OVERRIDE_FIELDS`.  Cells without an
        entry use the base parameters unchanged.  Stored as read-only
        mappings after validation.
    """

    name: str
    routing: tuple[tuple[float, ...], ...]
    overrides: dict[int, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a topology needs a non-empty name")
        rows = tuple(tuple(float(value) for value in row) for row in self.routing)
        if not rows:
            raise ValueError("a topology needs at least one cell")
        size = len(rows)
        for index, row in enumerate(rows):
            if len(row) != size:
                raise ValueError("the routing matrix must be square")
            if any(value < 0.0 for value in row):
                raise ValueError("routing probabilities must be non-negative")
            if abs(sum(row) - 1.0) > _STOCHASTIC_TOL:
                raise ValueError(
                    f"routing row {index} must sum to 1 (got {sum(row)!r})"
                )
            if size > 1 and row[index] != 0.0:
                raise ValueError(
                    f"cell {index} routes handovers to itself; self-loops are "
                    "only meaningful in a single-cell topology"
                )
        object.__setattr__(self, "routing", rows)

        overrides = {}
        for cell, values in dict(self.overrides).items():
            cell = int(cell)
            if not 0 <= cell < size:
                raise ValueError(f"override cell index {cell} out of range")
            values = dict(values)
            unknown = set(values) - CELL_OVERRIDE_FIELDS
            if unknown:
                raise ValueError(
                    f"unknown cell override(s) {sorted(unknown)}; allowed: "
                    f"{sorted(CELL_OVERRIDE_FIELDS)}"
                )
            if values:
                overrides[cell] = MappingProxyType(values)
        # Read-only views: topologies are registered as process-wide
        # singletons and content-addressed by digest(), so a mutable dict
        # here would let a caller silently change cache keys mid-sweep.
        object.__setattr__(self, "overrides", MappingProxyType(overrides))

    def __reduce__(self):
        # MappingProxyType is not picklable; round-trip through the dict form.
        return (CellTopology.from_dict, (self.to_dict(),))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def number_of_cells(self) -> int:
        return len(self.routing)

    def neighbours(self, cell: int) -> tuple[int, ...]:
        """Cells reachable by a handover out of ``cell`` (ascending order)."""
        self._validate_cell(cell)
        return tuple(
            target
            for target, probability in enumerate(self.routing[cell])
            if probability > 0.0 and target != cell
        )

    def routing_matrix(self) -> np.ndarray:
        """The routing as a ``(cells, cells)`` float array (a fresh copy)."""
        return np.array(self.routing, dtype=float)

    def is_doubly_stochastic(self, tol: float = 1e-9) -> bool:
        """Whether every column also sums to one.

        Doubly stochastic routing conserves handover flow per cell under
        homogeneity: a uniform network then has the paper's single-cell fixed
        point in every cell.  Wrap-around clusters, rings and wrapped grids
        qualify; open grids do not.
        """
        columns = self.routing_matrix().sum(axis=0)
        return bool(np.all(np.abs(columns - 1.0) <= tol))

    def is_homogeneous(self) -> bool:
        """Whether no cell overrides the base parameters."""
        return not self.overrides

    def cell_parameters(
        self, cell: int, base: GprsModelParameters
    ) -> GprsModelParameters:
        """Materialise the effective parameters of ``cell`` over ``base``.

        The ``arrival_rate_multiplier`` override scales the base arrival rate
        (so it composes with arrival-rate sweeps); every other override
        replaces the corresponding parameter field.
        """
        self._validate_cell(cell)
        values = dict(self.overrides.get(cell, {}))
        multiplier = values.pop("arrival_rate_multiplier", None)
        params = base.replace(**values) if values else base
        if multiplier is not None:
            params = params.replace(
                total_call_arrival_rate=base.total_call_arrival_rate
                * float(multiplier)
            )
        return params

    def _validate_cell(self, cell: int) -> None:
        if not 0 <= cell < self.number_of_cells:
            raise ValueError(
                f"cell index {cell} out of range (topology has "
                f"{self.number_of_cells} cells)"
            )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Return the topology as a plain, JSON-serialisable dictionary."""
        return {
            "name": self.name,
            "routing": [list(row) for row in self.routing],
            "overrides": {
                str(cell): dict(values) for cell, values in sorted(self.overrides.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellTopology":
        """Rebuild a topology from :meth:`to_dict` output (JSON string keys ok)."""
        known = {"name", "routing", "overrides"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown topology field(s) {sorted(unknown)}")
        return cls(
            name=data["name"],
            routing=tuple(tuple(row) for row in data["routing"]),
            overrides={
                int(cell): dict(values)
                for cell, values in dict(data.get("overrides", {})).items()
            },
        )

    def digest(self) -> str:
        """Stable content hash of the topology (for cache keys and reports)."""
        return content_key(self.to_dict())[:16]


# ---------------------------------------------------------------------- #
# Constructors
# ---------------------------------------------------------------------- #
def _uniform_rows(adjacency: list[list[int]], cells: int) -> tuple[tuple[float, ...], ...]:
    rows = []
    for cell in range(cells):
        neighbours = adjacency[cell]
        row = [0.0] * cells
        for target in neighbours:
            row[target] += 1.0 / len(neighbours)
        rows.append(tuple(row))
    return tuple(rows)


def hexagonal_cluster(
    cells: int = 7, overrides: dict[int, dict] | None = None
) -> CellTopology:
    """The paper's wrap-around hexagonal cluster with uniform routing.

    With wrap-around, a user leaving the cluster re-enters on the opposite
    side, which for the canonical seven-cell layout makes every cell adjacent
    to every other cell; handovers route uniformly over the ``cells - 1``
    other cells.  The single-cell case routes back into the same cell -- the
    homogeneity assumption of Eqs. (4)-(5) itself.  The resulting routing is
    doubly stochastic for any size, so a homogeneous network on this topology
    reproduces the single-cell fixed point in every cell.
    """
    if cells < 1:
        raise ValueError("the cluster needs at least one cell")
    if cells == 1:
        routing: tuple[tuple[float, ...], ...] = ((1.0,),)
    else:
        routing = _uniform_rows(
            [[j for j in range(cells) if j != i] for i in range(cells)], cells
        )
    return CellTopology(
        name=f"hex-{cells}", routing=routing, overrides=overrides or {}
    )


def ring(cells: int, overrides: dict[int, dict] | None = None) -> CellTopology:
    """A cycle of cells, each handing over to its two ring neighbours."""
    if cells < 1:
        raise ValueError("the ring needs at least one cell")
    if cells == 1:
        return CellTopology(name="ring-1", routing=((1.0,),), overrides=overrides or {})
    adjacency = [
        sorted({(i - 1) % cells, (i + 1) % cells} - {i}) for i in range(cells)
    ]
    return CellTopology(
        name=f"ring-{cells}",
        routing=_uniform_rows(adjacency, cells),
        overrides=overrides or {},
    )


def grid(
    rows: int,
    cols: int,
    *,
    wrap: bool = True,
    overrides: dict[int, dict] | None = None,
) -> CellTopology:
    """A ``rows x cols`` lattice; ``wrap=True`` closes it into a torus.

    Cells are numbered row-major.  A wrapped grid is doubly stochastic (every
    cell has exactly four neighbours); an open grid keeps handover flow inside
    the lattice but concentrates it on interior cells.
    """
    if rows < 1 or cols < 1:
        raise ValueError("the grid needs at least one row and one column")
    cells = rows * cols
    if cells == 1:
        return CellTopology(name="grid-1x1", routing=((1.0,),), overrides=overrides or {})
    adjacency: list[list[int]] = []
    for r in range(rows):
        for c in range(cols):
            targets: set[int] = set()
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                nr, nc = r + dr, c + dc
                if wrap:
                    nr, nc = nr % rows, nc % cols
                elif not (0 <= nr < rows and 0 <= nc < cols):
                    continue
                target = nr * cols + nc
                if target != r * cols + c:
                    targets.add(target)
            adjacency.append(sorted(targets))
    suffix = "torus" if wrap else "open"
    return CellTopology(
        name=f"grid-{rows}x{cols}-{suffix}",
        routing=_uniform_rows(adjacency, cells),
        overrides=overrides or {},
    )


def hotspot(
    cells: int = 7,
    *,
    hot_cell: int = 0,
    arrival_multiplier: float = 2.0,
    extra_overrides: dict[int, dict] | None = None,
) -> CellTopology:
    """A wrap-around cluster whose hot cell sees a multiplied arrival rate."""
    if arrival_multiplier <= 0:
        raise ValueError("arrival_multiplier must be positive")
    overrides: dict[int, dict] = {
        cell: dict(values) for cell, values in (extra_overrides or {}).items()
    }
    hot = dict(overrides.get(hot_cell, {}))
    hot["arrival_rate_multiplier"] = float(arrival_multiplier)
    overrides[hot_cell] = hot
    topology = hexagonal_cluster(cells, overrides)
    return CellTopology(
        name=f"hotspot-{cells}x{arrival_multiplier:g}",
        routing=topology.routing,
        overrides=topology.overrides,
    )
