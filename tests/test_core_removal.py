"""Unit tests for removal-kind taxonomy and the rename table."""

import pytest

from repro.core.removal import CATEGORIES, RemovalKind, removal_category
from repro.core.rename_table import OperandRenameTable


class TestRemovalCategory:
    def test_direct_triggers(self):
        assert removal_category(RemovalKind.BR) == "BR"
        assert removal_category(RemovalKind.WW) == "WW"
        assert removal_category(RemovalKind.SV) == "SV"

    def test_sv_priority_over_ww(self):
        assert removal_category(RemovalKind.SV | RemovalKind.WW) == "SV"

    def test_propagated_combinations(self):
        p = RemovalKind.PROPAGATED
        assert removal_category(p | RemovalKind.BR) == "P: BR"
        assert removal_category(p | RemovalKind.SV | RemovalKind.WW) == "P: SV,WW"
        assert (
            removal_category(p | RemovalKind.SV | RemovalKind.WW | RemovalKind.BR)
            == "P: SV,WW,BR"
        )

    def test_all_categories_reachable(self):
        produced = set()
        p = RemovalKind.PROPAGATED
        for kind in [
            RemovalKind.BR, RemovalKind.WW, RemovalKind.SV,
            p | RemovalKind.BR, p | RemovalKind.WW, p | RemovalKind.SV,
            p | RemovalKind.WW | RemovalKind.BR,
            p | RemovalKind.SV | RemovalKind.BR,
            p | RemovalKind.SV | RemovalKind.WW,
            p | RemovalKind.SV | RemovalKind.WW | RemovalKind.BR,
        ]:
            produced.add(removal_category(kind))
        assert produced == set(CATEGORIES)

    def test_none_rejected(self):
        with pytest.raises(ValueError):
            removal_category(RemovalKind.NONE)


class _Trace:
    """Stand-in producer trace with a seq, for rename-table tests."""

    def __init__(self, seq=0):
        self.seq = seq


class TestOperandRenameTable:
    def test_read_unknown_returns_none(self):
        table = OperandRenameTable()
        assert table.read(("r", 1)) is None

    def test_write_then_read_returns_producer(self):
        table = OperandRenameTable()
        trace = _Trace()
        table.write(("r", 1), 5, trace, 0)
        assert table.read(("r", 1)) == (trace, 0)

    def test_read_sets_ref_bit(self):
        table = OperandRenameTable()
        trace = _Trace()
        table.write(("r", 1), 5, trace, 0)
        table.read(("r", 1))
        outcome = table.write(("r", 1), 6, trace, 1)
        assert outcome.killed == (trace, 0)
        assert not outcome.killed_unreferenced

    def test_unreferenced_kill(self):
        table = OperandRenameTable()
        trace = _Trace()
        table.write(("r", 1), 5, trace, 0)
        outcome = table.write(("r", 1), 6, trace, 1)
        assert outcome.killed == (trace, 0) and outcome.killed_unreferenced

    def test_silent_write_detected_and_producer_kept(self):
        table = OperandRenameTable()
        trace = _Trace()
        table.write(("m", 0x100), 5, trace, 0)
        outcome = table.write(("m", 0x100), 5, trace, 1)
        assert outcome.silent
        assert table.read(("m", 0x100)) == (trace, 0)  # old producer live

    def test_silent_detection_can_be_disabled(self):
        table = OperandRenameTable()
        trace = _Trace()
        table.write(("m", 0x100), 5, trace, 0)
        outcome = table.write(("m", 0x100), 5, trace, 1, detect_silent=False)
        assert not outcome.silent and outcome.killed == (trace, 0)

    def test_registers_and_memory_are_distinct_namespaces(self):
        table = OperandRenameTable()
        reg_trace, mem_trace = _Trace(), _Trace()
        table.write(("r", 4), 1, reg_trace, 0)
        table.write(("m", 4), 1, mem_trace, 0)
        assert table.read(("r", 4)) == (reg_trace, 0)
        assert table.read(("m", 4)) == (mem_trace, 0)

    def test_invalidation_by_trace(self):
        table = OperandRenameTable()
        trace = _Trace(seq=3)
        table.write(("r", 1), 5, trace, 0)
        table.invalidate_if_stale(("r", 1), 3)
        assert table.read(("r", 1)) is None

    def test_invalidation_spares_newer_producer(self):
        table = OperandRenameTable()
        old, new = _Trace(seq=3), _Trace(seq=4)
        table.write(("r", 1), 5, old, 0)
        table.write(("r", 1), 6, new, 0)
        table.invalidate_if_stale(("r", 1), 3)
        assert table.read(("r", 1)) == (new, 0)

    def test_silent_write_extends_entry_lifetime(self):
        table = OperandRenameTable()
        old, new = _Trace(seq=3), _Trace(seq=4)
        table.write(("r", 1), 5, old, 0)
        table.write(("r", 1), 5, new, 0)    # silent: old stays producer
        table.invalidate_if_stale(("r", 1), 3)
        assert table.read(("r", 1)) == (old, 0)
        table.invalidate_if_stale(("r", 1), 4)
        assert table.read(("r", 1)) is None

    def test_peek_value(self):
        table = OperandRenameTable()
        table.write(("r", 2), 42, _Trace(), 0)
        assert table.peek_value(("r", 2)) == 42
        assert table.peek_value(("r", 3)) is None
