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
second leaves room for the biased differences of :mod:`chipfire.difftable`.
One step is

    halves = (packed >> 1) & low_mask      # v // 2 in every lane
    child  = halves + (halves << W)        # F(x-1, y) // 2 + F(x, y-1) // 2

where ``low_mask`` clears the top bit of each lane.  Two halves sum to at
most the largest parent entry, so no carry crosses a lane boundary.  The
child is trimmed to its nonzero span on the left by testing its lowest lane
(``child & (1 << W) - 1``) and shifting out one empty lane at a time, and on
the right by its ``bit_length``.  Every step of every table up to n = 21
trims at most one lane on the left, so this beats two whole-row operations
(``child & -child``) that find the lowest set bit.

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

The lane format is read in five modules, each holding the lane code of
the one job that needs it, so that a command compiles only the lane code it
runs: this one (the kernel, :class:`Row` and the lane readers
:func:`_lanes`, :func:`_pack`, :func:`_unpack` and :func:`_repeat`),
:mod:`chipfire.difftable` (the lane context of a difference row and the
shape read off it), :mod:`chipfire.stable` (the distance counts),
:mod:`chipfire.structure` (the packed minimal rows) and
:mod:`chipfire._lanefolds` (the lane folds of ``verify``'s heavy checks,
which only :mod:`chipfire.checks` imports).  Every other module reads
``width``, ``parity``, ``chip_sum()``, ``value_at`` or ``values``, or calls
the lane code of those modules.

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
only: the streamed rows and the child of :func:`next_row`.  It takes the
five fields of the packed view positionally and stores them one item at a
time into the new row's ``__dict__``: about 350 ns a row, against about
510 ns for a keyword dict and ``dict.update`` (Python 3.11, one Xeon vCPU).  Every other
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


# The oracle's limits: ``verify`` reads them to refuse a trial count and to
# tell whether the oracle plays, before, and without, importing
# :mod:`chipfire.oracle`, which imports them from here.

#: Largest n the brute-force oracle plays.
ORACLE_EXPONENT_LIMIT = 10

#: Most random orders one confluence check may run.  Each trial adds one
#: random run per n to ``verify --n 0..10``, about 17 ms in all on a 2-vCPU
#: host with Python 3.11, most of it the run at the oracle limit (200
#: trials took 3.4 s more than 2, against 5.3 s with chips and firing
#: counts in dicts), so at this cap that command takes just under 2
#: minutes there (112 s measured).
MAX_TRIALS = 6_500


def check_trials(trials: int) -> None:
    """Refuse a trial count the confluence check cannot or need not run."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"{trials} oracle trials exceed the cap of {MAX_TRIALS}")


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


def _trusted(index: int, y_min: int, packed: int, lane: int, width: int) -> Row:
    """A kernel :class:`Row` holding its packed view as given, built without
    its ``__init__``, so without any validation."""
    row = object.__new__(Row)
    fields = row.__dict__
    fields["index"] = index
    fields["y_min"] = y_min
    fields["packed"] = packed
    fields["lane"] = lane
    fields["width"] = width
    return row


def _lane_bits(top: int) -> int:
    """Lane width for entries up to ``top``: the smallest power of two, at
    least 8, holding its bits plus two spare bits."""
    return max(8, 1 << (top.bit_length() + 1).bit_length())


def _repeat(value: int, lane: int, lanes: int) -> int:
    """``lanes`` lanes that each hold ``value``."""
    return int.from_bytes(value.to_bytes(lane // 8, "little") * lanes, "little")


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
    # Trim the empty lanes on the left one at a time: real rows lose at most one.
    low, lo = (1 << lane) - 1, 0
    while not child & low:
        child >>= lane
        lo += 1
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
    if 0 in _lanes(child, width, lane):
        raise ValueError("child row support is not contiguous")
    return _trusted(r.index + 1, r.y_min + lo, child, lane, width)


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
        yield _trusted(index, y_min, packed, lane, width)
        if width > mask_lanes:
            # Rows widen by at most one lane per step; doubling keeps rebuilds rare.
            mask_lanes = 2 * width
            mask = _low_mask(lane, mask_lanes)
        packed, lo, width = _step(packed, lane, mask)
        y_min += lo
        index += 1
