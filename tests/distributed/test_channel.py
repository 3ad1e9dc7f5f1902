"""Tests for the simulated communication channel and message types."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.distributed.channel import SimulatedChannel
from repro.distributed.messages import (
    CoverageRequest,
    CoverageResponse,
    OverlapRequest,
    OverlapResponse,
    RootUpload,
)
from repro.utils.sizeof import encoded_size

cell_lists = st.lists(st.integers(min_value=0, max_value=2**40), unique=True).map(sorted)


def cells(*ids: int) -> np.ndarray:
    return np.array(ids, dtype=np.int64)


class TestChannelValidation:
    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            SimulatedChannel(bandwidth_bytes_per_second=0)

    def test_invalid_latency(self):
        with pytest.raises(ValueError):
            SimulatedChannel(latency_ms=-1)


class TestTrafficAccounting:
    def test_send_counts_bytes_and_messages(self):
        channel = SimulatedChannel()
        request = OverlapRequest(query_id="q", cells=cells(1, 2, 3), query_rect=(0, 0, 1, 1), k=5)
        size = channel.send(request, destination="s1")
        assert size == encoded_size(request)
        assert channel.stats.messages_sent == 1
        assert channel.stats.bytes_to_sources == size
        assert channel.stats.bytes_to_center == 0
        assert channel.stats.per_source_bytes == {"s1": size}

    def test_directional_accounting(self):
        channel = SimulatedChannel()
        channel.send(OverlapRequest(query_id="q", cells=cells(1), query_rect=(0, 0, 1, 1), k=1), "s1")
        channel.send(
            OverlapResponse(source_id="s1", query_id="q", results=(("d", 1.0),)),
            "s1",
            to_center=True,
        )
        assert channel.stats.bytes_to_sources > 0
        assert channel.stats.bytes_to_center > 0
        assert channel.stats.total_bytes == (
            channel.stats.bytes_to_sources + channel.stats.bytes_to_center
        )

    def test_reset(self):
        channel = SimulatedChannel()
        channel.send({"x": 1}, "s1")
        channel.reset()
        assert channel.stats.messages_sent == 0
        assert channel.stats.total_bytes == 0

    def test_snapshot_is_a_copy(self):
        channel = SimulatedChannel()
        channel.send({"x": 1}, "s1")
        snapshot = channel.snapshot()
        channel.send({"y": 2}, "s2")
        assert snapshot.messages_sent == 1
        assert channel.stats.messages_sent == 2


class TestTransmissionTime:
    def test_time_proportional_to_bytes(self):
        slow = SimulatedChannel(bandwidth_bytes_per_second=1000, latency_ms=0)
        fast = SimulatedChannel(bandwidth_bytes_per_second=1_000_000, latency_ms=0)
        payload = {"cells": list(range(500))}
        slow.send(payload, "s")
        fast.send(payload, "s")
        assert slow.transmission_time_ms() > fast.transmission_time_ms()

    def test_latency_adds_per_message(self):
        channel = SimulatedChannel(bandwidth_bytes_per_second=10**9, latency_ms=2.0)
        channel.send({"a": 1}, "s")
        channel.send({"b": 2}, "s")
        assert channel.transmission_time_ms() >= 4.0


class TestMessagePayloads:
    def test_root_upload_payload(self):
        upload = RootUpload(source_id="s", rect=(0, 0, 1, 1), dataset_count=12)
        payload = upload.wire_payload()
        assert payload["source"] == "s"
        assert payload["count"] == 12

    def test_overlap_request_payload_size_scales_with_cells(self):
        small = OverlapRequest(query_id="q", cells=cells(1), query_rect=(0, 0, 1, 1), k=5)
        large = OverlapRequest(query_id="q", cells=cells(*range(200)), query_rect=(0, 0, 1, 1), k=5)
        assert encoded_size(large) > encoded_size(small)

    def test_coverage_request_defaults(self):
        request = CoverageRequest(
            query_id="q", cells=cells(1, 2), query_rect=(0, 0, 1, 1), k=3, delta=2.0
        )
        # Every key is byte-counted: a field nobody reads must not ride along.
        assert set(request.wire_payload()) == {"query", "cells", "rect", "k", "delta"}

    def test_coverage_response_payload(self):
        response = CoverageResponse(
            source_id="s", query_id="q", selections=(("d1", cells(1, 2, 3)), ("d2", cells(9)))
        )
        payload = response.wire_payload()
        # The arrays ride along unconverted and price exactly like the lists.
        assert [dataset_id for dataset_id, _ in payload["selections"]] == ["d1", "d2"]
        assert payload["selections"][0][1] is response.selections[0][1]
        as_lists = {**payload, "selections": [["d1", [1, 2, 3]], ["d2", [9]]]}
        assert encoded_size(payload) == encoded_size(as_lists)

    def test_overlap_response_payload(self):
        response = OverlapResponse(source_id="s", query_id="q", results=(("d1", 3.0),))
        assert response.wire_payload()["results"] == [["d1", 3.0]]


def _with_cell_lists(payload: dict[str, object]) -> dict[str, object]:
    """``payload`` with every cell array replaced by the list of ints it holds."""
    converted = dict(payload)
    if "cells" in converted:
        converted["cells"] = converted["cells"].tolist()
    if "selections" in converted:
        converted["selections"] = [[d, c.tolist()] for d, c in converted["selections"]]
    return converted


class TestArrayWireFormat:
    """Cells cross the wire as int64 arrays priced exactly like lists of ints."""

    @given(cell_lists)
    @example([])
    def test_overlap_request_priced_like_list_form(self, ids):
        request = OverlapRequest(query_id="q7", cells=cells(*ids), query_rect=(0, 0, 1, 1), k=5)
        payload = request.wire_payload()
        assert encoded_size(request) == encoded_size(_with_cell_lists(payload))

    @given(cell_lists)
    @example([])
    def test_coverage_request_priced_like_list_form(self, ids):
        request = CoverageRequest(
            query_id="q7", cells=cells(*ids), query_rect=(0, 0, 1, 1), k=3, delta=10.0
        )
        assert encoded_size(request) == encoded_size(_with_cell_lists(request.wire_payload()))

    @given(st.lists(cell_lists, max_size=4))
    @example([[]])
    def test_coverage_response_priced_like_list_form(self, selections):
        response = CoverageResponse(
            source_id="s",
            query_id="q7",
            selections=tuple((f"d{i}", cells(*ids)) for i, ids in enumerate(selections)),
        )
        assert encoded_size(response) == encoded_size(_with_cell_lists(response.wire_payload()))
