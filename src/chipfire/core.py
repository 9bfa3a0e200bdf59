"""Streaming row computation for chip-firing on the first-quadrant lattice.

The game: ``2**n`` chips start at the origin of the grid of nonnegative
integer points.  A point holding at least two chips may fire, sending one
chip to its right neighbor ``(x+1, y)`` and one to its upper neighbor
``(x, y+1)``.  Row ``i`` is the antidiagonal ``x + y = i``; inside a row,
"left" means smaller ``y``.

Firing the rows in increasing order until each is exhausted produces the
arrival table ``F(x, y)``: the number of chips that reach ``(x, y)`` before
its own row starts firing.  A point that received ``v`` chips fires
``v // 2`` times and forwards ``v // 2`` chips to each neighbor, so the
table obeys a purely local recurrence between consecutive rows:

    F(x, y) = F(x-1, y) // 2 + F(x, y-1) // 2      for x + y > 0

Each row therefore follows from the previous one alone, and the whole table
streams in memory proportional to the widest row.  Rows store only their
nonzero span; they are palindromic because the game is symmetric in x and y.

The recurrence is the same shift-and-add for every entry, so the kernel steps
a whole row at once.  A row is held as one Python int with fixed-width
lanes: entry ``k`` (increasing y) occupies bits ``k*W .. k*W + W - 1``.
The lane width ``W`` is the smallest power of two, at least 8, that holds
the bits of the largest entry plus two spare bits: for ``2**n`` chips that
is 8 bits for ``n <= 5``, 16 for ``n <= 13``, 32 for ``n <= 29``, 64 for
``n <= 61``, 128 for ``n <= 125`` and 256 for ``MAX_EXPONENT``.  The first
spare bit is the one the kernel's shift brings in from the lane above; the
second leaves room for the biased differences below.  One step is

    halves = (packed >> 1) & low_mask      # v // 2 in every lane
    child  = halves + (halves << W)        # F(x-1, y) // 2 + F(x, y-1) // 2

where ``low_mask`` clears the top bit of each lane.  Two halves sum to at
most the largest parent entry, so no carry crosses a lane boundary.  The
child is trimmed to its nonzero span by its lowest set bit and its
``bit_length``.

Entries never grow down the table (each is at most the sum of two halves
of its parents), so a lane chosen for row 0 holds every later row, and the
maximum shrinks fast.  Every 64 rows the stream tests whether all entries
fit the lane half as wide (``packed & ~keep == 0``, where ``keep`` holds
the low ``W/2 - 2`` bits of every lane) and, if so, halves the lane by
reading the lanes off and packing them again, at most five times per
stream (256 bits down to 8).  At n = 18, 192 rows run in 32-bit lanes,
5 504 in 16-bit lanes and the last 14 in 8-bit lanes.

The packed int is the one source of every row.  Every :class:`Row` holds
it as ``packed``, with its ``lane`` and ``width``, from the moment it is
built: the kernel streams rows packed, and the constructor packs its
values once, after validating them.  Quantities that depend only on
parity, width or the row total are read straight off it: ``Row.parity``
is the low byte of every lane reduced to 0/1 at C speed, and
``Row.chip_sum()`` is the exact sum of the lanes, added one byte plane at a
time (plane k, byte k of every lane, sums at C speed and weighs
``2**(8*k)``), so no lane is converted to an int (a lane holds the largest
entry, not the row total, so no digit-sum shortcut applies).  A kernel
row's ``values`` are unpacked through ``memoryview.cast("B"/"H"/"I"/"Q")``
on their first read, and lanes wider than 64 bits by slicing the bytes.
``Row.value_at`` reads one lane with a shift and a mask.

A difference row of :mod:`chipfire.difftable` is a function of its source
row alone and keeps that row and its lane context.
:func:`_diff_lanes` is the one builder of that context, from one read of
the constants: the first differences of the source row packed in the same
format, as one whole-row expression, ``packed + bias - (packed << W)``,
where ``bias`` holds ``2**(W-2)`` in every lane; the row's all-ones and
top-bit constants; and the second differences, biased by ``2**(W-1)``, so
that their signs show in the lanes' top bits.  Those take three more
whole-row operations, ``diff + close - (diff << W)``, with one constant
``close`` that adds the bias to every lane and closes the row with its zero
last entry.  The constants (the all-ones int, the top bits, ``bias`` and
``close``) depend only on the lane and the number of lanes, so
:func:`_diff_constants` builds them once per ``(W, lanes)`` and
``functools.lru_cache`` keeps the last eight: widths move by one lane per
row, so a few entries serve a whole stream.  ``DiffRow`` keeps the context
from the moment it is built, and its shape as a :class:`_once` attribute,
so every fold of one pass reads the one context, and each row packs its
differences and takes its second differences once.  :func:`_lane_shape`
reads the unimodality and the largest entry of the difference row from the
context, with whole-row operations on nonnegative ints only (CPython runs
``~x`` and ``x & -x`` through a two's-complement copy of the row), and
:func:`_diff_values` reads its entries from the difference lanes of the
same context: adding the bias once more and flipping each lane's top bit,
``(packed + bias) ^ top``, leaves every entry in two's complement, so
``memoryview.cast("b"/"h"/"i"/"q")`` reads them as signed ints (lanes of
128 or 256 bits, or a big-endian host, slice the bytes with
``signed=True``).  ``difftable`` calls them and reads no lane itself.

The distance counts of :mod:`chipfire.stable` are lanes too.
:class:`_DistanceCounts` keeps one int with a lane per distance ``y - x``
and adds each row's parity bytes to it, spread at a stride of two lanes by
one ``bytearray`` slice assignment and one ``int.from_bytes``, then
shifted to the row's first distance ``2*y_min - index``; the counts are
read off the lanes once, at the end.  Rows are staged in 8-bit lanes and
moved into 64-bit lanes every 255 rows, because ``int.from_bytes`` costs
in proportion to the bytes it converts.

The heavy table checks of :mod:`chipfire.checks` are folds over whole rows
of lanes too.  Only ``verify`` runs them, so they live in
:mod:`chipfire._lanefolds`, which only ``checks`` imports, and no other
command compiles them; they read the lane context of :func:`_diff_lanes`
and the constants of :func:`_diff_constants`.  ``bottom-minimal-rows``
stays here, because :mod:`chipfire.structure` exports it as
``is_minimal``: :func:`_is_minimal` compares a row with the packed minimal
row of its width and lane, built once (:func:`_packed_minimal`).

The lane format stays inside this module and :mod:`chipfire._lanefolds`:
other modules read ``width``, ``parity``, ``chip_sum()``, ``value_at`` or
``values``, or call the lane readers here and the folds there.

:func:`intermediate_configuration` checks ``n`` when called and returns a
generator that keeps the kernel state in locals (the packed row, its lane,
width, ``y_min`` and index, and a ``low_mask`` that doubles in lanes as
rows widen), so memory stays proportional to the widest row.  It stops
before the first all-zero row and raises :class:`RowCapExceededError` if
the index ever passes :func:`row_bound`, which no correct run can.

Validation lives in the public constructor.  ``Row(index, y_min, values)``
checks positivity, palindromes and the quadrant, then packs its values,
with the kernel's lane rule applied to its largest entry, so that every
row reads parity the same way.  Rows from the kernel are trusted and
built without those checks (:func:`_trusted`): a corrupted stream then
reaches the invariant checks of :mod:`chipfire.checks`, which report it,
instead of failing inside a constructor.  ``_trusted`` is the one route
that builds a record without its ``__init__``, and it builds kernel rows
only: the streamed rows and the child of :func:`next_row`.  Every other
record is built through its own ``__init__``.  Values that a record
computes on first read are :class:`_once` attributes, which take no lock,
unlike ``functools.cached_property``.

The records of the package (:class:`Row` and the results of the other
modules) derive from :class:`_Record`.  Each writes its fields into the
instance's ``__dict__`` in its own ``__init__`` and names them in a
``_fields`` tuple; the base refuses any later assignment (:func:`_frozen`)
and gives ``==``, ``hash`` and ``repr`` over those fields alone.  No module
imports :mod:`dataclasses`: it imports :mod:`inspect` with it, and the two
cost every CLI call about 10 ms of start-up, a third of the package's
import.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Iterator, Sequence

#: Exponent cap for the initial chip count.  Every table entry is at most
#: 2**n, which needs n + 1 bits; a kernel lane holds that plus two spare
#: bits, so the widest lane of any table is 256 bits.
MAX_EXPONENT = 126

# memoryview.cast reads native byte order; the lanes are little-endian.
_NATIVE_LITTLE = sys.byteorder == "little"

# memoryview.cast formats by lane size in bytes.
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}

# bytes.translate table taking a byte to its lowest bit.
_LOW_BIT = b"\0\1" * 128


class ChipfireError(Exception):
    """Base class for errors raised by this package."""


class ChipOverflowError(ChipfireError, OverflowError):
    """An initial chip count of 2**n would exceed the supported width."""


class RowCapExceededError(ChipfireError, RuntimeError):
    """A row stream passed :func:`row_bound` before reaching an all-zero row.

    No correct run can, so this means a bug in the kernel.
    """


def _check_exponent(n: int) -> None:
    if n < 0:
        raise ValueError(f"exponent must be nonnegative, got {n}")
    if n > MAX_EXPONENT:
        raise ChipOverflowError(
            f"2**{n} exceeds the supported chip-count width (max exponent {MAX_EXPONENT})"
        )


def _frozen(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of a read-only record."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class _Record:
    """The base of the package's records: read-only, ``==`` only against the
    same class, ``hash`` of the fields in order, and ``repr`` as
    ``Name(field=value, ...)``.

    A record names its fields in a class-level ``_fields`` tuple; its
    ``__init__`` writes them into the instance's ``__dict__``.  The fields
    are read with ``getattr``, so a field that a record computes on first
    read (the values of a kernel row) is computed here too, and nothing else
    the instance keeps (its packed view, its other :class:`_once`
    attributes) takes part.
    """

    _fields: tuple[str, ...]

    __setattr__ = __delattr__ = _frozen

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class _once:
    """A lazy attribute of a read-only record: ``fn(obj)``, computed on the
    first read and kept in the instance's ``__dict__`` under the
    attribute's name, where every later read finds it before this
    descriptor.  Unlike ``functools.cached_property``, it takes no lock
    (Python 3.11 takes one on every first read)."""

    __slots__ = ("fn", "name")

    def __init__(self, fn) -> None:
        self.fn = fn

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Row(_Record):
    """One antidiagonal of the arrival table, trimmed to its nonzero span.

    ``values[k]`` is the entry at ``y = y_min + k``, ``x = index - y``;
    reading the tuple left to right walks the row in increasing y.  An empty
    tuple represents an all-zero row.  The index, ``y_min`` and entries are
    plain ints (not bools or floats), entries are strictly positive and
    palindromic, and the span must fit in the quadrant.  A row is read-only;
    two rows are equal when their index, ``y_min`` and values are.

    Every row also holds a packed view from the moment it is built:
    ``packed`` holds entry k in bits ``k*lane .. k*lane + lane - 1`` and
    ``width`` is the number of entries.  ``lane`` is a power of two of at
    least 8 bits, with every entry below ``2**(lane - 2)``: a streamed row
    has the lane of its stream at that row (chosen for ``2**n`` and halved
    as the entries shrink), a row built through this constructor the lane of
    its largest entry (8 bits for an empty row).  The constructor validates
    its values and packs them once; rows streamed by the kernel are built
    packed and unpack ``values`` on first read.
    """

    _fields = ("index", "y_min", "values")

    def __init__(self, index: int, y_min: int, values: Sequence[int]) -> None:
        v = tuple(values)
        fields = (index, y_min, *v)
        if set(map(type, fields)) != {int}:
            bad = next(f for f in fields if type(f) is not int)
            raise ValueError(f"row index, y_min and values must be ints, got {bad!r}")
        if index < 0:
            raise ValueError(f"row index must be nonnegative, got {index}")
        if not v and y_min != 0:
            raise ValueError("empty rows must have y_min = 0")
        if y_min < 0:
            raise ValueError(f"y_min must be nonnegative, got {y_min}")
        if y_min + len(v) - 1 > index:
            raise ValueError(
                f"span y={y_min}..{y_min + len(v) - 1} leaves the quadrant on row {index}"
            )
        if min(v, default=1) <= 0:
            raise ValueError("row values must be strictly positive")
        if v != v[::-1]:
            raise ValueError("row values must be palindromic")
        lane = _lane_bits(max(v, default=0))
        self.__dict__.update(
            index=index, y_min=y_min, values=v, packed=_pack(v, lane), lane=lane, width=len(v)
        )

    @_once
    def values(self) -> tuple[int, ...]:
        return _unpack(self.packed, self.width, self.lane)

    @property
    def parity(self) -> bytes:
        """One byte per entry in increasing y: 1 where the entry is odd, else 0."""
        size = self.lane // 8
        return self.packed.to_bytes(self.width * size, "little")[::size].translate(_LOW_BIT)

    @property
    def is_empty(self) -> bool:
        return not self.width

    def value_at(self, y: int) -> int:
        """Entry at ``(index - y, y)``; zero outside the stored span.

        Reads the one lane of the packed view, without unpacking the row.
        """
        k = y - self.y_min
        if 0 <= k < self.width:
            lane = self.lane
            return self.packed >> k * lane & (1 << lane) - 1
        return 0

    def points(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(x, y, value)`` for each nonzero entry, increasing y."""
        for k, v in enumerate(self.values):
            y = self.y_min + k
            yield self.index - y, y, v

    def chip_sum(self) -> int:
        """The row total, summed one byte plane of the packed view at a time:
        plane k holds byte k of every lane and weighs ``2**(8*k)``."""
        size = self.lane // 8
        raw = self.packed.to_bytes(self.width * size, "little")
        total = 0
        for k in range(size):
            total += sum(raw[k::size]) << 8 * k
        return total


def _trusted(cls, **fields):
    """An instance of the record class ``cls`` holding ``fields`` as given,
    built without its ``__init__``, so without any validation."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def initial_row(n: int) -> Row:
    """Row 0 of the table for ``2**n`` chips at the origin."""
    _check_exponent(n)
    return Row(index=0, y_min=0, values=(1 << n,))


def _lane_bits(top: int) -> int:
    """Lane width for entries up to ``top``: the smallest power of two, at
    least 8, holding its bits plus two spare bits."""
    return max(8, 1 << (top.bit_length() + 1).bit_length())


def _repeat(value: int, lane: int, lanes: int) -> int:
    """``lanes`` lanes that each hold ``value``."""
    return int.from_bytes(value.to_bytes(lane // 8, "little") * lanes, "little")


def _ones(lane: int, lanes: int) -> int:
    """``lanes`` lanes that each hold 1."""
    return _repeat(1, lane, lanes)


def _low_mask(lane: int, lanes: int) -> int:
    """Every bit of ``lanes`` lanes except the top bit of each lane."""
    return _repeat((1 << lane - 1) - 1, lane, lanes)


def _pack(values: Sequence[int], lane: int) -> int:
    size = lane // 8
    return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")


def _lanes(packed: int, width: int, lane: int, signed: bool = False) -> Sequence[int]:
    """The ``width`` lanes of ``packed`` as ints, lowest first; read as two's
    complement when ``signed``: a cast memoryview where the lanes fit a
    native format, else a list."""
    size = lane // 8
    raw = packed.to_bytes(width * size, "little")
    if size <= 8 and _NATIVE_LITTLE:
        fmt = _FORMATS[size]
        return memoryview(raw).cast(fmt.lower() if signed else fmt)
    return [
        int.from_bytes(raw[k : k + size], "little", signed=signed)
        for k in range(0, len(raw), size)
    ]


def _unpack(packed: int, width: int, lane: int) -> tuple[int, ...]:
    return tuple(_lanes(packed, width, lane))


def _narrowed(packed: int, width: int, lane: int) -> tuple[int, int]:
    """``(packed, lane)`` with the lane halved as often as the entries allow.

    An entry fits the half lane when it is below ``2**(lane/2 - 2)``; the
    lanes are then read off and packed again in the half lane.  That runs
    at most five times per stream (256 bits down to 8), so it takes the
    plain route.
    """
    while lane > 8 and not packed & ~_repeat((1 << lane // 2 - 2) - 1, lane, width):
        packed, lane = _pack(_lanes(packed, width, lane), lane // 2), lane // 2
    return packed, lane


def _step(packed: int, lane: int, mask: int) -> tuple[int, int, int]:
    """One kernel step: ``(child, lanes trimmed on the left, child width)``.

    ``mask`` is a :func:`_low_mask` covering at least the lanes of ``packed``.
    An all-zero child comes back as ``(0, 0, 0)``.
    """
    halves = (packed >> 1) & mask
    child = halves + (halves << lane)
    if not child:
        return 0, 0, 0
    lo = ((child & -child).bit_length() - 1) // lane
    child >>= lo * lane
    return child, lo, -(-child.bit_length() // lane)


def next_row(r: Row) -> Row:
    """The row below ``r`` once every point of ``r`` has finished firing.

    Total for every row reachable from an initial configuration.  A
    contrived palindromic row whose child support would contain an interior
    zero (impossible under the row monotonicity of real tables) is rejected
    with ``ValueError`` because the trimmed representation cannot hold it.
    The child is kernel output, so it is trusted like a streamed row.
    """
    lane = r.lane
    child, lo, width = _step(r.packed, lane, _low_mask(lane, r.width))
    if not child:
        return Row(index=r.index + 1, y_min=0, values=())
    values = _unpack(child, width, lane)
    if 0 in values:
        raise ValueError("child row support is not contiguous")
    return _trusted(
        Row, index=r.index + 1, y_min=r.y_min + lo, values=values,
        packed=child, lane=lane, width=width,
    )


# Widths move by one lane per row, so the last few of these serve a whole
# stream.
@lru_cache(maxsize=8)
def _diff_constants(lane: int, lanes: int) -> tuple[int, int, int, int]:
    """``(ones, top, bias, close)`` of a difference row of ``lanes`` lanes:
    1 in each lane, the top bit of each, ``2**(lane-2)`` in each, and the
    term that closes the second differences (:func:`_diff_lanes`)."""
    ones = _ones(lane, lanes)
    top = ones << lane - 1
    # ``diff + close - (diff << lane)`` holds ``2**(lane-1)`` plus the
    # second difference in every lane: the biases of neighbouring lanes
    # cancel and ``top`` adds it, except in lane 0, which has no lane below
    # and keeps one bias, and in lane ``lanes``, the closing zero, which
    # loses the bias of the last lane.
    close = top - (1 << lane - 2) + (3 << lanes * lane + lane - 2)
    return ones, top, ones << lane - 2, close


def _diff_lanes(source: Row) -> tuple[int, int, int, int, int]:
    """``(packed, lane, ones, top, second)``, the lane context of the
    difference row of ``source`` that every lane fold reads, built from one
    read of :func:`_diff_constants`; ``DiffRow`` keeps it, so one pass
    builds it once per row.

    Lane k of ``packed`` holds ``e_k + 2**(lane-2)`` for the
    ``source.width + 1`` entries ``e_k = v[k] - v[k-1]`` of the difference
    row (``v`` is zero outside the row); ``ones`` holds 1 in each of those
    lanes and ``top`` the top bit of each.  ``second`` holds the second
    differences, closed by the zero entry past the row: lane j holds
    ``e_j - e_{j-1} + 2**(lane-1)`` for j = 0 .. ``source.width + 1``
    (``e`` is zero outside the row).  Every entry lies strictly between
    ``-2**(lane-2)`` and ``2**(lane-2)``, so every lane of ``packed`` is
    positive and below ``2**(lane-1)``, every lane of ``second`` positive
    and below ``2**lane``, and no borrow crosses a lane.
    """
    lane, packed = source.lane, source.packed
    ones, top, bias, close = _diff_constants(lane, source.width + 1)
    diff = packed + bias - (packed << lane)
    return diff, lane, ones, top, diff + close - (diff << lane)


class _DistanceCounts:
    """Chip counts by distance ``y - x``, added up one row at a time.

    Position k of a row sits at distance ``2*y_min - index + 2k``, and a row
    never puts two chips at one distance, so the row's parity bytes spread
    at a stride of two lanes are its own counts by distance.  One
    ``bytearray`` slice assignment and one ``int.from_bytes`` build them in
    8-bit lanes, and one shift and add put them in place in ``staged``.
    Every 255 rows, before a lane could overflow, ``staged`` is spread the
    same way into the 64-bit lanes of ``packed`` and cleared; a count is at
    most the number of rows, far below ``2**64`` for every table a stream
    can finish.  Lane j of either int counts the chips at distance
    ``low + j``.  (Spreading each row straight into 64-bit lanes converts
    eight times the bytes per row, and ``int.from_bytes`` costs in
    proportion to them.)
    """

    __slots__ = ("packed", "staged", "rows", "low")

    def __init__(self) -> None:
        self.packed = self.staged = self.rows = self.low = 0

    def add(self, row) -> None:
        """Add the chips of ``row``, anything with ``index``, ``y_min`` and
        ``parity`` (a :class:`Row` or a stable row)."""
        parity = row.parity
        if not parity:
            return
        spread = bytearray(2 * len(parity) - 1)
        spread[::2] = parity
        first = 2 * row.y_min - row.index
        if first < self.low:
            self.packed <<= (self.low - first) * 64
            self.staged <<= (self.low - first) * 8
            self.low = first
        self.staged += int.from_bytes(spread, "little") << (first - self.low) * 8
        self.rows += 1
        if self.rows == 255:
            self._flush()

    def _flush(self) -> None:
        staged = self.staged
        wide = bytearray(staged.bit_length() + 7 & ~7)
        wide[::8] = staged.to_bytes(len(wide) // 8, "little")
        self.packed += int.from_bytes(wide, "little")
        self.staged = self.rows = 0

    def counts(self) -> dict[int, int]:
        """The nonzero counts, keyed by distance."""
        self._flush()
        packed = self.packed
        lanes = _lanes(packed, -(-packed.bit_length() // 64), 64)
        return {self.low + j: c for j, c in enumerate(lanes) if c}


def _diff_values(d) -> tuple[int, ...]:
    """The entries of the difference row ``d``, read off the difference
    lanes of its context (:func:`_diff_lanes`; ``()`` for an empty source
    row).

    Adding the bias ``2**(lane-2)`` (the top bits shifted down one bit) once
    more puts ``e + 2**(lane-1)`` in every lane, strictly between
    ``2**(lane-2)`` and ``3 * 2**(lane-2)``, so no carry crosses a lane;
    flipping the top bit of every lane then leaves ``e`` in two's
    complement, and the lanes read as signed ints.
    """
    width = d.source.width
    if not width:
        return ()
    packed, lane, _, top, _ = d._diff_lanes
    return tuple(_lanes((packed + (top >> 1)) ^ top, width + 1, lane, signed=True))


def _lane_shape(d) -> tuple[bool, int | None]:
    """The shape of the difference row ``d`` read off its lane context
    (:func:`_diff_lanes`): whether its left half (its first ``half``
    entries, those with ``y <= x``) is unimodal, and its largest absolute
    entry, or None where the lanes cannot prove it.

    Lane j of the second differences holds ``s_j + 2**(lane-1)`` with
    ``s_j = e_j - e_{j-1}`` and ``e_{-1} = 0`` (the implicit margin).  Its
    top bit is clear exactly when ``s_j < 0`` (a strict fall), and
    ``s_j - 1`` keeps it set exactly when ``s_j > 0`` (a strict rise).  The
    first ``half`` entries are unimodal when every rise among their lanes
    sits below the lowest fall: when the rise flags have fewer bits than
    the lowest fall's position plus one, read as
    ``(falls ^ (falls - 1)).bit_length()``.

    The candidate for the largest entry ``c`` is their peak: the entry just
    before the first fall (the margin 0 if that is the first entry), or the
    last of them if none falls.  Two whole-row comparisons then show that
    every entry ``e`` lies in ``[-c, c]``: with ``m = (c + 2**(lane-2)) *
    ones``, lane k of ``m + top - packed`` holds ``c - e + 2**(lane-1)``
    and lane k of ``packed + m`` holds ``e + c + 2**(lane-1)``, both
    positive and below ``2**lane``, with the top bit set exactly when the
    bound holds.

    No operation here takes a negative int: CPython runs ``~x`` and the
    ``&`` of a negative int through a two's-complement copy of the whole
    row, so a clear bit is read as ``x ^ (x & y)`` instead of ``x & ~y``.
    """
    packed, lane, ones, top, second = d._diff_lanes
    bias = 1 << lane - 2
    width = d.source.width
    # y = y_min + k <= index - y  <=>  k <= index // 2 - y_min, clamped to
    # the difference row's lanes (none for an empty source row).
    half = d.index // 2 - d.y_min + 1
    lanes = width + 1 if width else 0
    half = 0 if half < 0 else lanes if half > lanes else half
    # The top bits of the first ``half`` lanes: every lane of ``top`` is
    # alike, so dropping its upper lanes shifts the rest into place.
    tops = top >> (width + 1 - half) * lane
    falls = tops ^ (second & tops)
    if falls:
        # Bit ``low - 1`` is the top bit of the lane of the first fall.
        low = (falls ^ (falls - 1)).bit_length()
        unimodal = ((second - ones) & tops).bit_length() < low
        peak = low // lane - 2
    else:
        unimodal, peak = True, half - 1
    c = (packed >> peak * lane & (1 << lane) - 1) - bias if peak >= 0 else 0
    m = (c + bias) * ones
    if (m + top - packed) & (packed + m) & top != top:
        return unimodal, None
    return unimodal, c


def _minimal_values(j: int) -> tuple[int, ...]:
    """The minimal row of ``j + 1`` entries: 1, 3, 5, ... up to j and back.

    For odd j the two odd ramps meet in a pair ``j, j``; for even j a single
    peak j sits between them.
    """
    half = tuple(range(1, j + 1, 2))
    if j % 2 == 1:
        return half + half[::-1]
    return half + (j,) + half[::-1]


@lru_cache(maxsize=None)
def _packed_minimal(width: int, lane: int) -> int:
    """The minimal row of ``width`` entries in lanes of ``lane`` bits."""
    return _pack(_minimal_values(width - 1), lane)


def _is_minimal(r: Row) -> bool:
    """Whether the row's values are exactly the minimal row of its width.

    The row is compared packed, with the packed minimal row of its width and
    lane.  That row peaks at ``width - 1``; a lane too narrow for the peak
    holds no minimal row.
    """
    width, lane = r.width, r.lane
    if width < 2 or width - 1 >= 1 << lane - 2:
        return False
    return r.packed == _packed_minimal(width, lane)


def row_bound(n: int) -> int:
    """Upper bound on the index of the last nonzero row.

    Derived from the fact that the diagonal entry F(x, x) is even and drops
    by at least 2 from one even row to the next, starting from the central
    binomial entry of row n.
    """
    _check_exponent(n)
    if n % 2 == 0:
        return n + math.comb(n, n // 2)
    return n + 1 + 2 * (math.comb(n, n // 2) // 2)


def intermediate_configuration(n: int) -> Iterator[Row]:
    """Stream the nonzero rows of the arrival table for ``2**n`` chips.

    Yields rows 0, 1, 2, ... and stops just before the first all-zero row.
    ``n`` is checked here, at call time; the rows come from a generator
    described in the module docstring.
    """
    return _rows(n, row_bound(n))


def _rows(n: int, bound: int) -> Iterator[Row]:
    lane = _lane_bits(1 << n)
    packed, width, y_min, index = 1 << n, 1, 0, 0
    mask, mask_lanes = 0, 0
    while packed:
        if index > bound:
            raise RowCapExceededError(
                f"row {index} exceeds the termination bound {bound} "
                f"for n={n}; this indicates a bug"
            )
        if not index & 63:
            packed, narrow = _narrowed(packed, width, lane)
            if narrow != lane:
                lane, mask_lanes = narrow, 0
        yield _trusted(Row, index=index, y_min=y_min, packed=packed, lane=lane, width=width)
        if width > mask_lanes:
            # Rows widen by at most one lane per step; doubling keeps rebuilds rare.
            mask_lanes = 2 * width
            mask = _low_mask(lane, mask_lanes)
        packed, lo, width = _step(packed, lane, mask)
        y_min += lo
        index += 1
