"""Brute-force chip-firing simulator with selectable firing orders.

This module plays the game move by move, one firing at a time, under any of
four orders: uniformly random (seeded), leftmost-first, a FIFO queue, or
row-by-row.  Stabilization is confluent, so every order must end at the same
stable configuration with the same per-point firing counts and the same
number of moves; :func:`confluence_check` verifies that, and
:func:`arrivals` rebuilds the arrival table from the firing counts for
comparison with the streaming computation.

One worklist loop serves every order; an order only decides which listed
point fires next.  Inside the loop a point is an int, and chips and firing
counts live in two flat lists of zeros indexed by those ints.  A plain
:func:`simulate` call allocates its own pair; :func:`confluence_check`
allocates one pair per check and plays every run on it, and each run
zeroes the entries it reached before it returns, so the next run starts on
zeros (a run that raises ends the check, and its lists go with it).  Each
order has its own encoding, chosen so that its order is plain int order and
the worklist needs no key function:

- row by row, ``(x + y) << _SHIFT | y``, so the right neighbour is
  ``p + (1 << _SHIFT)`` and the upper one ``p + (1 << _SHIFT) + 1``;
- leftmost first, ``y << _SHIFT | x``: right ``p + 1``, up
  ``p + (1 << _SHIFT)``;
- random and FIFO, ``x << _SHIFT | y``: right ``p + (1 << _SHIFT)``, up
  ``p + 1``.

``_SHIFT`` is 9 bits, enough for every coordinate up to the n = 10 oracle
limit.  The origin is 0 in every encoding, so the loop reaches every point by
adding the two offsets.  No chip passes the last-row bound ``b =
row_bound(n)``, so a point reached has ``x + y <= b`` and its int is below
``(b + 1) << _SHIFT`` in every encoding; that is the length of the two
lists (70 144 entries at n = 9, 134 656 at the limit).  A point past them
would be a defect in the bound or an encoding, and ends the run in a
:class:`~chipfire.core.ChipfireError` naming the grid.  The points that
fired are listed the first time each fires, and only they, their
neighbours and the origin are decoded at the end, and zeroed.

The two sorted orders push and pop a heap through
``functools.partial(heappush, heap)`` and its ``heappop`` twin, so no move
calls a Python function.  The random order draws inline: with
``k = size.bit_length()``, ``getrandbits(k)`` is redrawn until it falls
below the pool's size, which is exactly what ``Random.randrange(size)``
does, so a seed picks the same points as a ``randrange`` per move would.
The drawn point is swapped to the end of the pool and popped.  The run
ends in an :class:`OracleState` keyed by ``(x, y)`` tuples, decoded once
and built through its own constructor, with read-only fields like every
record's.
The confluence check compares two runs' maps with ``dict`` equality, at C
speed, and falls back on Counter equality, which reads a missing point as
0, only when that fails.

The simulator exists for cross-validation at small n, not for scale: every
firing is one Python-level step.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from functools import partial
from heapq import heappop, heappush
from typing import Callable, Iterator

from .core import ChipfireError, _check_exponent, _Record, row_bound

# The oracle's limits are defined in core, so that verify reads them without
# importing this module; they are this module's names too.
from .core import MAX_TRIALS, ORACLE_EXPONENT_LIMIT, check_trials  # noqa: F401

STRATEGIES = ("random", "leftmost-first", "fifo-queue", "row-by-row")

Point = tuple[int, int]

# Bits of one coordinate inside a point int.  No chip passes the last-row
# bound, so every coordinate reached, plus one, fits.
_SHIFT = row_bound(ORACLE_EXPONENT_LIMIT).bit_length()
_LOW = (1 << _SHIFT) - 1


class MoveCapExceededError(ChipfireError, RuntimeError):
    """The simulation hit its move cap; stabilization should have ended it."""


class OracleState(_Record):
    """The end of one simulation, on sparse maps keyed by ``(x, y)``.

    ``chips[x, y]`` is the final chip count, ``firings[x, y]`` how often
    the point fired; points never reached read as 0.  Total chips stay at
    ``2**n`` throughout: a firing moves two chips and destroys none.  Two
    states are equal when all four fields are.  The fields are read-only,
    like every record's, but the two maps are Counters, which have no
    hash, so a state has none either.
    """

    _fields = ("n", "moves", "chips", "firings")

    def __init__(
        self,
        n: int,
        moves: int = 0,
        chips: Counter[Point] | None = None,
        firings: Counter[Point] | None = None,
    ) -> None:
        self.__dict__.update(
            n=n,
            moves=moves,
            chips=Counter() if chips is None else chips,
            firings=Counter() if firings is None else firings,
        )

    def total_chips(self) -> int:
        return sum(self.chips.values())

    def nonzero_chips(self) -> dict[Point, int]:
        return {p: v for p, v in self.chips.items() if v}

    def nonzero_firings(self) -> dict[Point, int]:
        return dict(self.firings)


def _xy(p: int) -> Point:
    return p >> _SHIFT, p & _LOW


def _yx(p: int) -> Point:
    return p & _LOW, p >> _SHIFT


def _row_y(p: int) -> Point:
    y = p & _LOW
    return (p >> _SHIFT) - y, y


#: Per order: the point ints' offsets to the right and upper neighbours, and
#: their decoder.  A point int is the origin, 0, plus x rights and y ups.
_ENCODINGS: dict[str, tuple[int, int, Callable[[int], Point]]] = {
    "random": (1 << _SHIFT, 1, _xy),
    "fifo-queue": (1 << _SHIFT, 1, _xy),
    # (x + y) << _SHIFT | y: row first, then y.
    "row-by-row": (1 << _SHIFT, (1 << _SHIFT) + 1, _row_y),
    # y << _SHIFT | x: y first, then x.
    "leftmost-first": (1, 1 << _SHIFT, _yx),
}


def _worklist(strategy: str, seed: int | None) -> tuple[
    list | deque,
    Callable[[int], None],
    Callable[[], int],
    Callable[[int], int] | None,
    tuple[int, int, Callable[[int], Point]],
]:
    """The container that sets ``strategy``'s order, its ``put`` and ``take``,
    the random order's ``draw``, and the order's point encoding.

    ``draw(k)`` gives ``k`` random bits; the random order swaps the drawn
    entry to the end of its pool before ``take`` pops it.  The other orders
    have no ``draw``.
    """
    encoding = _ENCODINGS[strategy]
    if strategy == "fifo-queue":
        queue: deque[int] = deque()
        return queue, queue.append, queue.popleft, None, encoding
    if strategy == "random":
        pool: list[int] = []
        return pool, pool.append, pool.pop, random.Random(seed).getrandbits, encoding
    heap: list[int] = []
    return heap, partial(heappush, heap), partial(heappop, heap), None, encoding


def _grid(n: int) -> tuple[list[int], list[int]]:
    """The chips and firing-count lists of a run for ``n``, all zeros."""
    size = (row_bound(n) + 1) << _SHIFT
    return [0] * size, [0] * size


def simulate(
    n: int,
    strategy: str = "row-by-row",
    seed: int | None = None,
    move_cap: int | None = None,
    *,
    _lists: tuple[list[int], list[int]] | None = None,
) -> OracleState:
    """Run the game from ``2**n`` chips to its stable configuration.

    One move fires one point once.  The default cap comes from a
    displacement argument (each move pushes two chips one row outward and no
    chip passes the last-row bound), so hitting it means a bug, not a long
    run; so does a point outside the run's grid, which raises
    :class:`~chipfire.core.ChipfireError`.

    ``_lists`` is :func:`confluence_check`'s own pair of :func:`_grid`
    lists for ``n``, all zeros, which a run that returns leaves all zeros
    again; without it the run allocates its own.
    """
    if n > ORACLE_EXPONENT_LIMIT:
        raise ValueError(
            f"n={n} exceeds the oracle limit {ORACLE_EXPONENT_LIMIT}; "
            "the simulator is meant for small cross-checks"
        )
    _check_exponent(n)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    cap = move_cap if move_cap is not None else ((1 << n) * row_bound(n)) // 2 + 1
    pending, put, take, draw, (right, up, decode) = _worklist(strategy, seed)
    chips, firings = _grid(n) if _lists is None else _lists
    chips[0] = 1 << n
    first_fired: list[int] = []
    moves = 0
    # Exactly the points holding two chips or more are pending, each once:
    # only a point's own firing takes chips from it, so a point is put when
    # a chip brings it to two, or when it still holds two after firing.
    if n:
        put(0)
    try:
        while pending:
            if draw:
                # Random.randrange(size), inline: k random bits until they
                # fall below size.
                size = len(pending)
                k = size.bit_length()
                i = draw(k)
                while i >= size:
                    i = draw(k)
                pending[i], pending[-1] = pending[-1], pending[i]
            p = take()
            if moves >= cap:
                raise MoveCapExceededError(f"move cap {cap} hit for n={n}")
            moves += 1
            kept = chips[p] - 2
            chips[p] = kept
            f = firings[p]
            if not f:
                first_fired.append(p)
            firings[p] = f + 1
            if kept >= 2:
                put(p)
            q = p + right
            c = chips[q] + 1
            chips[q] = c
            if c == 2:
                put(q)
            q = p + up
            c = chips[q] + 1
            chips[q] = c
            if c == 2:
                put(q)
    except IndexError:
        raise ChipfireError(
            f"the {strategy} run for n={n} left its grid of {len(chips)} point ints"
        ) from None
    reached = dict.fromkeys([0])
    for p in first_fired:
        reached[p] = reached[p + right] = reached[p + up] = None
    state = OracleState(
        n=n,
        moves=moves,
        chips=Counter(dict(zip(map(decode, reached), map(chips.__getitem__, reached)))),
        firings=Counter(dict(zip(map(decode, first_fired), map(firings.__getitem__, first_fired)))),
    )
    # Only the points reached hold chips or firings.
    for p in reached:
        chips[p] = firings[p] = 0
    return state


def arrivals(state: OracleState) -> dict[Point, int]:
    """Total chips that ever arrived at each point, from the firing counts.

    The origin's initial pile, plus one chip to each out-neighbor per
    firing; this equals the arrival table F.
    """
    out = Counter({(0, 0): 1 << state.n})
    for (x, y), f in state.firings.items():
        out[x + 1, y] += f
        out[x, y + 1] += f
    return dict(out)


class ConfluenceReport(_Record):
    """The verdict of :func:`confluence_check`.  Read-only.

    ``row_by_row`` is the final state of the row-by-row run, kept for the
    arrival, firing-count and parity cross-checks that compare one run with
    the streamed table.  It is keyword-only, and left out of ``==``,
    ``hash`` and ``repr``.
    """

    _fields = ("n", "trials", "passed", "moves", "runs", "mismatches")

    def __init__(
        self,
        n: int,
        trials: int,
        passed: bool,
        moves: int,
        runs: int,
        mismatches: tuple[str, ...] = (),
        *,
        row_by_row: OracleState,
    ) -> None:
        self.__dict__.update(
            n=n, trials=trials, passed=passed, moves=moves, runs=runs, mismatches=mismatches,
            row_by_row=row_by_row,
        )


def _same(a: Counter[Point], b: Counter[Point]) -> bool:
    """Whether two runs' maps agree at every point, a missing point read as
    0: ``dict`` equality, at C speed, settles the runs that reached the
    same points, and Counter ``==`` the rest."""
    return dict.__eq__(a, b) or a == b


def confluence_check(n: int, trials: int, seed: int = 0) -> ConfluenceReport:
    """Fire ``trials`` random orders plus the deterministic strategies.

    Passes when every run ends with the same stable grid, the same firing
    counts, and the same move total.  Each run is compared with the first
    as it ends, so only those two are held at a time.
    """
    check_trials(trials)
    lists = _grid(n)

    def runs() -> Iterator[tuple[str, OracleState]]:
        for t in range(trials):
            yield f"random[{seed + t}]", simulate(n, "random", seed=seed + t, _lists=lists)
        for name in ("leftmost-first", "fifo-queue", "row-by-row"):
            yield name, simulate(n, name, _lists=lists)

    finished = runs()
    ref_name, ref = next(finished)
    mismatches: list[str] = []
    for name, state in finished:
        if state.moves != ref.moves:
            mismatches.append(f"{name}: {state.moves} moves != {ref.moves} ({ref_name})")
        if not _same(state.chips, ref.chips):
            mismatches.append(f"{name}: stable grid differs from {ref_name}")
        if not _same(state.firings, ref.firings):
            mismatches.append(f"{name}: firing counts differ from {ref_name}")
    return ConfluenceReport(
        n=n,
        trials=trials,
        passed=not mismatches,
        moves=ref.moves,
        runs=trials + 3,
        mismatches=tuple(mismatches),
        # The last run is the row-by-row one.
        row_by_row=state,
    )
