"""A data source: owns its datasets, its DITS-L index and its local search.

Every :class:`DataSource` is autonomous (Section IV): it grids its own
datasets, builds its own DITS-L at its own resolution and leaf capacity, and
answers OJSP/CJSP requests arriving from the data center against its local
index only.  The only information it ever ships out unprompted is its root
summary (MBR + dataset count) in geographic coordinates.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.dataset import DatasetNode, SpatialDataset
from repro.core.errors import EmptyDatasetError
from repro.core.geometry import BoundingBox
from repro.core.grid import Grid
from repro.distributed.messages import (
    CoverageRequest,
    CoverageResponse,
    OverlapRequest,
    OverlapResponse,
    RootUpload,
)
from repro.index.dits import DITSLocalIndex
from repro.index.dits_rebalance import RebalancePolicy
from repro.index.stats import local_index_stats
from repro.search.coverage import CoverageSearch
from repro.search.overlap import OverlapSearch

__all__ = ["DataSource", "grid_rect_to_geo"]


def grid_rect_to_geo(grid: Grid, rect: BoundingBox) -> BoundingBox:
    """Convert an MBR expressed in grid-cell coordinates to geographic coordinates."""
    return BoundingBox(
        grid.space.min_x + rect.min_x * grid.cell_width,
        grid.space.min_y + rect.min_y * grid.cell_height,
        grid.space.min_x + (rect.max_x + 1) * grid.cell_width,
        grid.space.min_y + (rect.max_y + 1) * grid.cell_height,
    )


class DataSource:
    """One autonomous spatial data source with a DITS-L local index."""

    def __init__(
        self,
        source_id: str,
        grid: Grid,
        leaf_capacity: int = 30,
        rebalance: RebalancePolicy | None = None,
    ) -> None:
        self.source_id = source_id
        self.grid = grid
        self._index = DITSLocalIndex(leaf_capacity=leaf_capacity, rebalance=rebalance)
        self._overlap_search = OverlapSearch(self._index)
        self._coverage_search = CoverageSearch(self._index)

    # ------------------------------------------------------------------ #
    # Loading data
    # ------------------------------------------------------------------ #
    def load_datasets(self, datasets: Iterable[SpatialDataset]) -> None:
        """Grid ``datasets`` and (re)build the local index over them."""
        nodes = [dataset.to_node(self.grid) for dataset in datasets]
        self._index.build(nodes)

    def add_dataset(self, dataset: SpatialDataset) -> None:
        """Incrementally index a new dataset."""
        self._index.insert(dataset.to_node(self.grid))

    def update_dataset(self, dataset: SpatialDataset) -> None:
        """Re-grid and re-index a dataset whose points changed.

        The local index relocates the dataset to a better leaf when it moved
        (and rebalances the tree if the churn skewed it), so a source can
        refresh datasets indefinitely without degrading its search bounds.
        """
        self._index.update(dataset.to_node(self.grid))

    def remove_dataset(self, dataset_id: str) -> None:
        """Remove a dataset from the local index."""
        self._index.delete(dataset_id)

    @property
    def index(self) -> DITSLocalIndex:
        """The source's DITS-L local index."""
        return self._index

    def dataset_count(self) -> int:
        """Number of datasets indexed by this source."""
        return len(self._index)

    def index_stats(self) -> dict[str, object]:
        """Shape and churn-maintenance statistics of the local index."""
        return local_index_stats(self._index)

    # ------------------------------------------------------------------ #
    # Root upload (DITS-G registration)
    # ------------------------------------------------------------------ #
    def root_upload(self) -> RootUpload:
        """The root summary shipped to the data center (geographic coordinates)."""
        if not self._index.is_built():
            raise EmptyDatasetError(f"source {self.source_id!r} has no datasets")
        rect, _pivot, _radius, count = self._index.root_summary()
        geo_rect = grid_rect_to_geo(self.grid, rect)
        return RootUpload(
            source_id=self.source_id,
            rect=geo_rect.as_tuple(),
            dataset_count=count,
        )

    # ------------------------------------------------------------------ #
    # Local query execution
    # ------------------------------------------------------------------ #
    def handle_overlap(self, request: OverlapRequest, center_grid: Grid) -> OverlapResponse:
        """Answer an OJSP request from the data center against the local index."""
        query_node = self._request_query_node(request.query_id, request.cells, center_grid)
        if query_node is None:
            return OverlapResponse(
                source_id=self.source_id, query_id=request.query_id, results=()
            )
        result = self._overlap_search.search_node(query_node, request.k)
        return OverlapResponse(
            source_id=self.source_id,
            query_id=request.query_id,
            results=tuple((entry.dataset_id, entry.score) for entry in result.entries),
        )

    def handle_coverage(self, request: CoverageRequest, center_grid: Grid) -> CoverageResponse:
        """Answer a CJSP request: run the local greedy search and return selections.

        The response carries, for every locally selected dataset, the sorted
        vector of all cells it covers translated back into the *center's*
        grid (on a same-grid source, the node's own stored vector) so the
        data center can compute global marginal gains and connectivity.
        """
        query_node = self._request_query_node(request.query_id, request.cells, center_grid)
        if query_node is None:
            return CoverageResponse(
                source_id=self.source_id, query_id=request.query_id, selections=()
            )
        result = self._coverage_search.search_node(query_node, request.k, request.delta)
        to_center = self.grid.rescale_cells_batch
        selections = tuple(
            (dataset_id, to_center(self._index.get(dataset_id).cells_array, center_grid))
            for dataset_id in result.dataset_ids
        )
        return CoverageResponse(
            source_id=self.source_id, query_id=request.query_id, selections=selections
        )

    def _request_query_node(
        self, query_id: str, cells: np.ndarray, center_grid: Grid
    ) -> DatasetNode | None:
        """Translate the request's cells (center grid) into a local query node."""
        if len(cells) == 0:
            return None
        local_cells = center_grid.rescale_cells_batch(cells, self.grid)
        return DatasetNode.from_cells(f"__query__{query_id}", local_cells, self.grid)

