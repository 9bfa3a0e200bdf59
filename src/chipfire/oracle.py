"""Brute-force chip-firing simulator with selectable firing orders.

This module plays the game from ``2**n`` chips under any of four orders:
uniformly random (seeded), leftmost-first, a FIFO queue, or row-by-row.
Stabilization is confluent, so every order must end at the same stable
configuration with the same per-point firing counts and the same number of
moves; :func:`confluence_check` verifies that, and :func:`arrivals` rebuilds
the arrival table from the firing counts for comparison with the streaming
computation.

A point is an int, and chips and firing counts live in two flat lists of
zeros indexed by those ints.  A plain :func:`simulate` call allocates its
own pair; :func:`confluence_check` allocates one pair per check and plays
every run on it, and each run zeroes the entries it reached before it
returns, so the next run starts on zeros (a run that raises ends the check,
and its lists go with it).  Each order has its own encoding, chosen so that
its order is plain int order, with the stride ``w = row_bound(n) + 2``:

- row by row, ``(x + y) * w + y``, so the right neighbour is ``p + w`` and
  the upper one ``p + w + 1``;
- leftmost first, ``y * w + x``: right ``p + 1``, up ``p + w``;
- random and FIFO, ``x * w + y``: right ``p + w``, up ``p + 1``.

No chip passes the last-row bound ``b = row_bound(n)``, so a point reached
has ``x + y <= b``, every coordinate is below ``w``, and every int is
below ``(b + 1) * w`` in every encoding; that is the length of the two
lists (18 906 entries at n = 9, 69 432 at the n = 10 oracle limit).  The
origin is 0 in every encoding, so a run reaches every point by adding the
two offsets.  A point past the lists would be a defect in the bound or an
encoding, and ends the run in a :class:`~chipfire.core.ChipfireError`
naming the grid.

Exactly the points holding two chips or more are pending, each once: only
a point's own firing takes chips from it, so a point becomes pending when a
chip brings it to two, and stays pending until its own firings take it
below two.  Each order family plays on its own loop:

- The two heap orders, leftmost-first and row-by-row, fire the least
  pending int.  That point stays the least while it holds two chips: its
  neighbours encode larger, and so does every other pending point.  So a
  move-by-move run would fire it again and again until it holds fewer than
  two, and the loop fires it ``chips // 2`` times in one step.  No chip
  reaches it afterwards, since only smaller points send it chips and every
  later point is larger, so each point fires in one step.
- The random order draws inline: with ``k`` the bit length of the pool's
  size, ``getrandbits(k)`` is redrawn until it falls below the size, which
  is exactly what ``Random.randrange(size)`` does, so a seed picks the same
  points as a ``randrange`` per move would.  The drawn point is swapped to
  the end of the pool, and stays there while it is pending.
- The FIFO order fires the point at the front of its queue and puts it
  back at the end while it is pending.

The random and FIFO loops fire one move at a time and count each firing
as it happens, so the confluence check compares firing counts that no
division produced with the heap orders' ``chips // 2``.  Every loop makes
the same moves, in the same sequence, as one move-by-move worklist loop
would; a heap step is that loop's run of moves on one point.  The points
that fired are listed the first time each fires, and only they, their
neighbours and the origin are decoded at the end, and zeroed.  The run ends
in an :class:`OracleState` keyed by ``(x, y)`` tuples, decoded once by
``divmod(p, w)`` at C speed and built through its own constructor, with
read-only fields like every record's.  The confluence check compares two
runs' maps with ``dict`` equality, at C speed, and falls back on Counter
equality, which reads a missing point as 0, only when that fails.

The simulator exists for cross-validation at small n, not for scale: the
random and FIFO orders take one Python-level step per firing.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from heapq import heappop, heappush
from typing import Callable, Iterable, Iterator

from .core import ChipfireError, _check_exponent, _Record, row_bound

# The oracle's limits are defined in core, so that verify reads them without
# importing this module; they are this module's names too.
from .core import MAX_TRIALS, ORACLE_EXPONENT_LIMIT, check_trials  # noqa: F401

STRATEGIES = ("random", "leftmost-first", "fifo-queue", "row-by-row")

Point = tuple[int, int]

# The bit length of every size the random order's pool can take: a pending
# point holds two or more of the 2**n chips, so at most 2**(n - 1) are
# pending at once.
_BIT_LENGTHS = tuple(map(int.bit_length, range((1 << ORACLE_EXPONENT_LIMIT - 1) + 1)))


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

    def nonzero_chips(self) -> dict[Point, int]:
        return {p: v for p, v in self.chips.items() if v}

    def nonzero_firings(self) -> dict[Point, int]:
        return dict(self.firings)


def _stride(n: int) -> int:
    """The stride ``w`` of the point ints of a run for ``n``: every
    coordinate a run reaches, plus one, is below it."""
    return row_bound(n) + 2


def _offsets(strategy: str, w: int) -> tuple[int, int]:
    """The offsets from a point int to its right and upper neighbours in
    ``strategy``'s encoding with stride ``w``."""
    if strategy == "row-by-row":
        return w, w + 1
    if strategy == "leftmost-first":
        return 1, w
    return w, 1


def _decode(strategy: str, w: int, points: Iterable[int]) -> list[Point]:
    """The ``(x, y)`` points of ``strategy``'s point ints with stride ``w``."""
    pairs = map(w.__rdivmod__, points)
    if strategy == "row-by-row":
        return [(s - y, y) for s, y in pairs]
    if strategy == "leftmost-first":
        return [(x, y) for y, x in pairs]
    return list(pairs)


def _grid(n: int) -> tuple[list[int], list[int]]:
    """The chips and firing-count lists of a run for ``n``, all zeros."""
    size = (row_bound(n) + 1) * _stride(n)
    return [0] * size, [0] * size


def _play_heap(
    n: int, chips: list[int], firings: list[int], right: int, up: int, cap: int
) -> tuple[int, list[int]]:
    """Fire the least pending point int, ``chips // 2`` times in one step,
    until none is pending.  The moves made and the points fired, in order."""
    pop, push = heappop, heappush
    heap = [0] if chips[0] >= 2 else []
    fired: list[int] = []
    record = fired.append
    moves = 0
    while heap:
        p = pop(heap)
        c = chips[p]
        k = c >> 1
        moves += k
        if moves > cap:
            raise MoveCapExceededError(f"move cap {cap} hit for n={n}")
        chips[p] = c & 1
        firings[p] = k
        record(p)
        q = p + right
        c = chips[q]
        chips[q] = c + k
        if c < 2 <= c + k:
            push(heap, q)
        q = p + up
        c = chips[q]
        chips[q] = c + k
        if c < 2 <= c + k:
            push(heap, q)
    return moves, fired


def _play_random(
    n: int,
    chips: list[int],
    firings: list[int],
    right: int,
    up: int,
    cap: int,
    draw: Callable[[int], int],
) -> tuple[int, list[int]]:
    """Fire a point drawn from the pool by ``draw(k)``, ``k`` random bits,
    one move at a time, until none is pending.  The moves made and the
    points fired, in the order each first fired."""
    pool = [0] if chips[0] >= 2 else []
    size = len(pool)
    fired: list[int] = []
    record, append, pop, bits = fired.append, pool.append, pool.pop, _BIT_LENGTHS
    moves = 0
    if size:
        for moves in range(1, cap + 1):
            # Random.randrange(size), inline: k random bits until they fall
            # below size.
            k = bits[size]
            i = draw(k)
            while i >= size:
                i = draw(k)
            p = pool[i]
            # Swap p to the end of the pool, where it stays while pending.
            pool[i] = pool[-1]
            kept = chips[p] - 2
            chips[p] = kept
            if kept >= 2:
                pool[-1] = p
            else:
                pop()
                size -= 1
            f = firings[p]
            if not f:
                record(p)
            firings[p] = f + 1
            q = p + right
            c = chips[q] + 1
            chips[q] = c
            if c == 2:
                append(q)
                size += 1
            q = p + up
            c = chips[q] + 1
            chips[q] = c
            if c == 2:
                append(q)
                size += 1
            if not size:
                break
        else:
            raise MoveCapExceededError(f"move cap {cap} hit for n={n}")
    return moves, fired


def _play_fifo(
    n: int, chips: list[int], firings: list[int], right: int, up: int, cap: int
) -> tuple[int, list[int]]:
    """Fire the point at the front of the queue, one move at a time, until
    none is pending.  The moves made and the points fired, in the order
    each first fired."""
    queue: deque[int] = deque([0] if chips[0] >= 2 else [])
    fired: list[int] = []
    record, put, take = fired.append, queue.append, queue.popleft
    moves = 0
    if queue:
        for moves in range(1, cap + 1):
            p = take()
            kept = chips[p] - 2
            chips[p] = kept
            f = firings[p]
            if not f:
                record(p)
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
            if not queue:
                break
        else:
            raise MoveCapExceededError(f"move cap {cap} hit for n={n}")
    return moves, fired


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
    w = _stride(n)
    right, up = _offsets(strategy, w)
    chips, firings = _grid(n) if _lists is None else _lists
    chips[0] = 1 << n
    try:
        if strategy == "random":
            draw = random.Random(seed).getrandbits
            moves, fired = _play_random(n, chips, firings, right, up, cap, draw)
        elif strategy == "fifo-queue":
            moves, fired = _play_fifo(n, chips, firings, right, up, cap)
        else:
            moves, fired = _play_heap(n, chips, firings, right, up, cap)
    except IndexError:
        raise ChipfireError(
            f"the {strategy} run for n={n} left its grid of {len(chips)} point ints"
        ) from None
    reached = dict.fromkeys([0])
    for p in fired:
        reached[p] = reached[p + right] = reached[p + up] = None
    state = OracleState(
        n=n,
        moves=moves,
        chips=Counter(dict(zip(_decode(strategy, w, reached), map(chips.__getitem__, reached)))),
        firings=Counter(dict(zip(_decode(strategy, w, fired), map(firings.__getitem__, fired)))),
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
