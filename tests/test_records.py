"""The record classes: constructors, ``==``, ``hash``, ``repr`` and
read-only fields, pinned to what the package's records have always shown."""

from collections import Counter

import pytest

from chipfire import (
    BottomTriangleReport,
    CheckResult,
    ConfluenceReport,
    DiffRow,
    DistanceDistribution,
    OracleState,
    Row,
    RowProfile,
    Segmentation,
    SequenceTable,
    StableRow,
)
from chipfire import checks
from chipfire.core import _Record, intermediate_configuration
from chipfire.difftable import diff_row, unimodal_check
from chipfire.render import RenderSpec
from chipfire.stable import stable_row

SOURCE = Row(4, 1, (2, 5, 2))

#: (class, positional arguments, keyword arguments of the same record,
#: its repr).  Positional arguments give every field, defaults included.
RECORDS = [
    (Row, (4, 1, (2, 5, 2)), {"index": 4, "y_min": 1, "values": [2, 5, 2]},
     "Row(index=4, y_min=1, values=(2, 5, 2))"),
    (StableRow, (5, 1, b"\0\1\1\0"), {"index": 5, "y_min": 1, "parity": b"\0\1\1\0"},
     "StableRow(index=5, y_min=1, parity=b'\\x00\\x01\\x01\\x00')"),
    (DistanceDistribution, (1, 1, (1, 0, 1)), {"n": 1, "half_width": 1, "counts": [1, 0, 1]},
     "DistanceDistribution(n=1, half_width=1, counts=(1, 0, 1))"),
    (RowProfile, (2, (1, 2, 1)), {"n": 2, "lengths": (1, 2, 1)},
     "RowProfile(n=2, lengths=(1, 2, 1))"),
    (Segmentation, (3, range(4), range(4, 5), range(5, 6), range(6, 8), 3, 4),
     {"n": 3, "top_triangle": range(4), "midsection": range(4, 5), "rectangle": range(5, 6),
      "bottom_triangle": range(6, 8), "longest_length": 3, "first_longest_row": 4},
     "Segmentation(n=3, top_triangle=range(0, 4), midsection=range(4, 5), "
     "rectangle=range(5, 6), bottom_triangle=range(6, 8), longest_length=3, "
     "first_longest_row=4)"),
    (BottomTriangleReport, (5, True, 6, 7),
     {"n": 5, "holds": True, "triangle_rows": 6, "longest_length": 7},
     "BottomTriangleReport(n=5, holds=True, triangle_rows=6, longest_length=7)"),
    (DiffRow, (5, 1, SOURCE), {"index": 5, "y_min": 1, "source": Row(4, 1, (2, 5, 2))},
     "DiffRow(index=5, y_min=1, source=Row(index=4, y_min=1, values=(2, 5, 2)))"),
    (CheckResult, ("row-symmetry", 3, True, "", False),
     {"name": "row-symmetry", "n": 3, "passed": True},
     "CheckResult(name='row-symmetry', n=3, passed=True, detail='', advisory=False)"),
    (OracleState, (2, 0, Counter(), Counter()), {"n": 2},
     "OracleState(n=2, moves=0, chips=Counter(), firings=Counter())"),
    (SequenceTable, ("id", "desc", "A1", 0, (1, 2), abs, 9),
     {"id": "id", "description": "desc", "oeis_id": "A1", "offset": 0, "known": (1, 2),
      "value_at": abs, "max_index": 9},
     "SequenceTable(id='id', description='desc', oeis_id='A1', offset=0, known=(1, 2), "
     "value_at=<built-in function abs>, max_index=9)"),
    (RenderSpec, ("stable-dots", 3, "f.svg", 960, 640, 2.0),
     {"kind": "stable-dots", "n": 3, "out_path": "f.svg"},
     "RenderSpec(kind='stable-dots', n=3, out_path='f.svg', width=960, height=640, "
     "dot_radius=2.0)"),
]


@pytest.mark.parametrize("cls,args,kwargs,text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecord:
    def test_constructors_agree(self, cls, args, kwargs, text):
        a, b = cls(*args), cls(**kwargs)
        assert a == b and not a != b
        assert repr(a) == repr(b) == text

    def test_equal_only_to_its_own_class(self, cls, args, kwargs, text):
        a = cls(*args)
        assert a != args
        assert a != object()
        assert a.__eq__(args) is NotImplemented

    def test_hash(self, cls, args, kwargs, text):
        a = cls(*args)
        if cls is OracleState:
            # A mutable record has no hash.
            with pytest.raises(TypeError):
                hash(a)
        else:
            # The hash of the fields in order, so equal records hash alike.
            assert hash(a) == hash(cls(**kwargs)) == hash(tuple(vars(a)[k] for k in cls._fields))

    def test_fields_are_read_only(self, cls, args, kwargs, text):
        a = cls(*args)
        name = next(iter(vars(a)))
        if cls is OracleState:
            a.moves = 7
            assert a.moves == 7 and a != cls(*args)
            return
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert a == cls(*args)


def test_records_differ_by_any_field():
    assert Row(4, 1, (2, 5, 2)) != Row(5, 1, (2, 5, 2))
    assert CheckResult("a", 1, True) != CheckResult("a", 1, True, advisory=True)
    assert DiffRow(5, 1, SOURCE) != DiffRow(5, 1, Row(4, 0, (2, 5, 2)))


def test_confluence_report_keeps_its_state_out_of_comparison():
    state, other = OracleState(2), OracleState(3, 4)
    report = ConfluenceReport(2, 2, True, 3, 5, ("a",), row_by_row=state)
    twin = ConfluenceReport(n=2, trials=2, passed=True, moves=3, runs=5, mismatches=("a",),
                            row_by_row=other)
    assert report == twin and hash(report) == hash(twin) == hash((2, 2, True, 3, 5, ("a",)))
    assert report.row_by_row is state
    assert repr(report) == "ConfluenceReport(n=2, trials=2, passed=True, moves=3, runs=5, mismatches=('a',))"
    assert ConfluenceReport(2, 2, True, 3, 5, row_by_row=state).mismatches == ()
    assert report != ConfluenceReport(2, 2, False, 3, 5, ("a",), row_by_row=state)
    with pytest.raises(TypeError):
        ConfluenceReport(2, 2, True, 3, 5, ("a",), state)
    with pytest.raises(AttributeError):
        report.row_by_row = other


def test_oracle_states_start_with_their_own_maps():
    a, b = OracleState(2), OracleState(2)
    a.chips[0, 0] += 1
    assert b.chips == Counter() and a != b


def _same_record(a, twin):
    # ``a`` compares, hashes and prints like ``twin``, a record built fresh
    # through the public constructor.
    assert a == twin and twin == a
    assert hash(a) == hash(twin)
    assert repr(a) == repr(twin)


def _streamed_row():
    # A fresh kernel row of width 9, its values not yet unpacked.
    return next(r for r in intermediate_configuration(8) if r.index == 20)


class TestLazyStateStaysOut:
    """What a record computes on first read or keeps for the lane folds
    (unpacked values, lane contexts, shapes, counts) takes no part in
    ``==``, ``hash`` or ``repr``."""

    def twin(self):
        r = _streamed_row()
        return Row(r.index, r.y_min, list(r.values))

    @pytest.mark.parametrize("op", [
        lambda r, twin: r == twin,
        lambda r, twin: hash(r),
        lambda r, twin: repr(r),
    ], ids=["eq", "hash", "repr"])
    def test_streamed_row_before_and_after_unpacking(self, op):
        twin, r = self.twin(), _streamed_row()
        assert "values" not in vars(r)
        assert op(r, twin) == op(twin, twin)
        assert "values" in vars(r)
        _same_record(r, twin)

    def test_streamed_rows_keep_only_their_fields_and_packed_view(self, monkeypatch):
        # Every lane fold of a verify pass reads its context off the
        # difference row, so nothing is written into the source rows.
        streamed = []
        real = checks.intermediate_configuration

        def kept(n):
            for r in real(n):
                streamed.append(r)
                yield r

        monkeypatch.setattr(checks, "intermediate_configuration", kept)
        assert checks.failures(checks.run_checks(12)) == []
        assert streamed
        for r in streamed:
            assert set(vars(r)) <= {"index", "y_min", "packed", "lane", "width", "values"}

    def test_difference_row_after_its_shape_and_values(self):
        d = diff_row(_streamed_row())
        unimodal_check(d)
        assert d.values
        assert {"_diff_context", "_lane_shape", "values"} <= set(vars(d))
        _same_record(d, DiffRow(d.index, d.y_min, self.twin()))

    def test_stable_row_after_its_chip_count(self):
        s = stable_row(_streamed_row())
        assert s.chip_count == s.parity.count(1)
        assert "chip_count" in vars(s)
        _same_record(s, StableRow(s.index, s.y_min, s.parity))


RECORD_CLASSES = [r[0] for r in RECORDS] + [ConfluenceReport]


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=[c.__name__ for c in RECORD_CLASSES])
def test_records_take_their_policy_from_the_base(cls):
    # A record names its fields and writes its own __init__; the read-only
    # fields, ==, hash and repr come from the one base.
    assert issubclass(cls, _Record)
    assert isinstance(vars(cls).get("_fields"), tuple)
    own = {"__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"} & set(vars(cls))
    if cls is OracleState:
        # The one mutable record: plain assignment and no hash.
        assert own == {"__hash__", "__setattr__", "__delattr__"}
        assert cls.__hash__ is None
        assert cls.__setattr__ is object.__setattr__ and cls.__delattr__ is object.__delattr__
    else:
        assert own == set()
