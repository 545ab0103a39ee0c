"""ECO delta schema, application, diffing and request integration."""

from __future__ import annotations

import json

import pytest

from repro.request import PartitionRequest, RequestError
from repro.robust.errors import DeltaError, ReproError
from repro.techmap.delta import (
    DELTA_SCHEMA_NAME,
    CellSpec,
    DeltaOp,
    NetlistDelta,
    diff_mapped,
    seeded_delta,
)
from repro.techmap.mapped import technology_map


@pytest.fixture
def tiny_mapped(tiny_netlist):
    return technology_map(tiny_netlist)


def _cell(mapped, name):
    return next(c for c in mapped.cells if c.name == name)


class TestCellSpec:
    def test_round_trips_through_dict(self, tiny_mapped):
        spec = CellSpec.from_cell(tiny_mapped.cells[0])
        assert CellSpec.from_dict(spec.to_dict()) == spec

    def test_ragged_arrays_rejected(self, tiny_mapped):
        doc = CellSpec.from_cell(tiny_mapped.cells[0]).to_dict()
        doc["masks"] = doc["masks"] + [0]
        with pytest.raises(DeltaError, match="ragged"):
            CellSpec.from_dict(doc)

    def test_support_outside_inputs_rejected(self, tiny_mapped):
        doc = CellSpec.from_cell(tiny_mapped.cells[0]).to_dict()
        doc["supports"] = [["not-a-pin"] for _ in doc["supports"]]
        with pytest.raises(DeltaError, match="support outside"):
            CellSpec.from_dict(doc)


class TestDeltaOpDecoding:
    def test_unknown_op_rejected(self):
        with pytest.raises(DeltaError, match="unknown delta op"):
            DeltaOp.from_dict({"op": "rename_cell", "cell": "x"})

    def test_rewire_needs_nonnegative_int_pin(self):
        with pytest.raises(DeltaError, match="pin"):
            DeltaOp.from_dict(
                {"op": "rewire_pin", "cell": "x", "pin": -1, "net": "a"}
            )
        with pytest.raises(DeltaError, match="pin"):
            DeltaOp.from_dict(
                {"op": "rewire_pin", "cell": "x", "pin": True, "net": "a"}
            )

    def test_remove_needs_cell_name(self):
        with pytest.raises(DeltaError, match="cell name"):
            DeltaOp.from_dict({"op": "remove_cell"})


class TestNetlistDeltaSerialization:
    def test_round_trips_bit_identically(self, tiny_mapped):
        delta = seeded_delta(tiny_mapped, fraction=0.5, seed=3, base="abc123")
        doc = delta.to_dict()
        assert doc["schema"] == DELTA_SCHEMA_NAME
        again = NetlistDelta.from_dict(doc)
        assert again == delta
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
            doc, sort_keys=True
        )

    def test_unknown_field_rejected(self):
        with pytest.raises(DeltaError, match="unknown delta field"):
            NetlistDelta.from_dict({"ops": [], "extra": 1})

    def test_wrong_schema_rejected(self):
        with pytest.raises(DeltaError, match="schema"):
            NetlistDelta.from_dict({"schema": "bogus/9", "ops": []})

    def test_hashable_and_usable_as_key(self, tiny_mapped):
        delta = seeded_delta(tiny_mapped, fraction=0.5, seed=3)
        assert {delta: "v"}[NetlistDelta.from_dict(delta.to_dict())] == "v"

    def test_delta_error_is_repro_error(self):
        assert issubclass(DeltaError, ReproError)


class TestApply:
    def test_rewire_pin_moves_the_pin(self, tiny_mapped):
        cell = next(c for c in tiny_mapped.cells if c.inputs)
        pin = 0
        target = next(
            p for p in sorted(tiny_mapped.primary_inputs)
            if p not in cell.inputs
        )
        delta = NetlistDelta(
            ops=(DeltaOp(op="rewire_pin", cell=cell.name, pin=pin, net=target),)
        )
        new_mapped, dirty = delta.apply(tiny_mapped)
        assert _cell(new_mapped, cell.name).inputs[pin] == target
        # the input netlist is untouched
        assert _cell(tiny_mapped, cell.name).inputs[pin] != target
        assert cell.name in dirty.cells
        assert {cell.inputs[pin], target} <= dirty.touched_nets
        assert dirty.n_cells == new_mapped.n_cells

    def test_dirty_region_includes_one_hop_halo(self, tiny_mapped):
        cell = next(c for c in tiny_mapped.cells if c.inputs)
        target = next(
            p for p in sorted(tiny_mapped.primary_inputs)
            if p not in cell.inputs
        )
        delta = NetlistDelta(
            ops=(DeltaOp(op="rewire_pin", cell=cell.name, pin=0, net=target),)
        )
        new_mapped, dirty = delta.apply(tiny_mapped)
        for other in new_mapped.cells:
            touches = dirty.touched_nets.intersection(
                set(other.inputs) | set(other.outputs)
            )
            if touches:
                assert other.name in dirty.cells

    def test_remove_cell_driving_po_rejected(self, tiny_mapped):
        po_driver = next(
            c for c in tiny_mapped.cells
            if set(c.outputs) & set(tiny_mapped.primary_outputs)
        )
        delta = NetlistDelta(
            ops=(DeltaOp(op="remove_cell", cell=po_driver.name),)
        )
        with pytest.raises(DeltaError, match="fixed terminals"):
            delta.apply(tiny_mapped)

    def test_redriving_primary_input_rejected(self, tiny_mapped):
        pi = sorted(tiny_mapped.primary_inputs)[0]
        spec = CellSpec(
            name="evil", inputs=(), outputs=(pi,), supports=((),),
            masks=(0,), registered=(False,),
        )
        delta = NetlistDelta(ops=(DeltaOp(op="add_cell", spec=spec),))
        with pytest.raises(DeltaError, match="re-drive primary input"):
            delta.apply(tiny_mapped)

    def test_unknown_cell_rejected(self, tiny_mapped):
        delta = NetlistDelta(ops=(DeltaOp(op="remove_cell", cell="ghost"),))
        with pytest.raises(DeltaError, match="unknown cell"):
            delta.apply(tiny_mapped)

    def test_dangling_reader_rejected(self, tiny_mapped):
        # remove a cell whose output is read elsewhere without rewiring
        read = {
            net for c in tiny_mapped.cells for net in c.inputs
        }
        victim = next(
            c for c in tiny_mapped.cells
            if set(c.outputs) & read
            and not set(c.outputs) & set(tiny_mapped.primary_outputs)
        )
        delta = NetlistDelta(ops=(DeltaOp(op="remove_cell", cell=victim.name),))
        with pytest.raises(DeltaError, match="inconsistent"):
            delta.apply(tiny_mapped)


class TestDiff:
    def test_diff_round_trips(self, tiny_mapped):
        edited, _ = seeded_delta(tiny_mapped, fraction=0.6, seed=5).apply(
            tiny_mapped
        )
        delta = diff_mapped(tiny_mapped, edited)
        rebuilt, _ = delta.apply(tiny_mapped)
        want = {c.name: CellSpec.from_cell(c) for c in edited.cells}
        got = {c.name: CellSpec.from_cell(c) for c in rebuilt.cells}
        assert got == want

    def test_identical_netlists_diff_empty(self, tiny_mapped):
        assert diff_mapped(tiny_mapped, tiny_mapped).empty

    def test_different_primary_io_rejected(self, tiny_mapped, seq_netlist):
        other = technology_map(seq_netlist)
        with pytest.raises(DeltaError, match="primary I/O differs"):
            diff_mapped(tiny_mapped, other)


class TestSeededDelta:
    def test_deterministic(self, tiny_mapped):
        a = seeded_delta(tiny_mapped, fraction=0.5, seed=11)
        b = seeded_delta(tiny_mapped, fraction=0.5, seed=11)
        assert a == b

    def test_fraction_bounds_enforced(self, tiny_mapped):
        with pytest.raises(DeltaError, match="fraction"):
            seeded_delta(tiny_mapped, fraction=1.5)

    def test_result_applies_cleanly(self, tiny_mapped):
        delta = seeded_delta(tiny_mapped, fraction=0.4, seed=2)
        new_mapped, dirty = delta.apply(tiny_mapped)
        assert new_mapped.n_cells == tiny_mapped.n_cells
        assert len(dirty.cells) >= len(delta.ops) >= 1


class TestRequestIntegration:
    def test_request_normalizes_delta_documents(self, tiny_mapped):
        doc = seeded_delta(tiny_mapped, fraction=0.5, seed=1).to_dict()
        request = PartitionRequest(
            verb="partition", circuit="tiny", seed=1, threshold=1, delta=doc
        )
        assert isinstance(request.delta, NetlistDelta)
        assert request.delta.to_dict() == doc

    def test_request_round_trips_with_delta(self, tiny_mapped):
        doc = seeded_delta(tiny_mapped, fraction=0.5, seed=1).to_dict()
        request = PartitionRequest(
            verb="partition", circuit="tiny", seed=1, threshold=1, delta=doc,
            warm_start="auto",
        )
        again = PartitionRequest.from_json(request.to_json())
        assert again == request
        assert again.to_json() == request.to_json()

    def test_delta_free_document_has_no_delta_field(self):
        doc = PartitionRequest(verb="partition", circuit="tiny", seed=1).to_dict()
        assert "delta" not in doc and "warm_start" not in doc

    def test_empty_delta_shares_the_base_cache_key(self, tiny_mapped):
        base = PartitionRequest(verb="partition", circuit="tiny", seed=1, threshold=1)
        eco = PartitionRequest(
            verb="partition", circuit="tiny", seed=1, threshold=1,
            delta={"schema": DELTA_SCHEMA_NAME, "v": 1, "ops": []},
        )
        assert eco.cache_key(tiny_mapped) == base.cache_key(tiny_mapped)

    def test_nonempty_delta_moves_the_cache_key(self, tiny_mapped):
        base = PartitionRequest(verb="partition", circuit="tiny", seed=1, threshold=1)
        eco = PartitionRequest(
            verb="partition", circuit="tiny", seed=1, threshold=1,
            delta=seeded_delta(tiny_mapped, fraction=0.5, seed=1).to_dict(),
        )
        assert eco.cache_key(tiny_mapped) != base.cache_key(tiny_mapped)

    def test_delta_only_supported_for_partition(self, tiny_mapped):
        with pytest.raises(RequestError, match="partition verb"):
            PartitionRequest(
                verb="bipartition", circuit="tiny", seed=1,
                delta={"schema": DELTA_SCHEMA_NAME, "v": 1, "ops": []},
            )

    def test_bad_delta_document_rejected(self):
        with pytest.raises(RequestError, match="bad delta"):
            PartitionRequest(
                verb="partition", circuit="tiny", seed=1, delta={"ops": "nope"}
            )
