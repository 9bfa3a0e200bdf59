"""Brute-force chip-firing simulator with selectable firing orders.

This module plays the game move by move, one firing at a time, under any of
four orders: uniformly random (seeded), leftmost-first, a FIFO queue, or
row-by-row.  Chips and firing counts live in sparse maps keyed by point, and
one worklist loop serves every order; an order only decides which listed point
fires next.  Stabilization is confluent, so every order must end at the same
stable configuration with the same per-point firing counts and the same
number of moves; :func:`confluence_check` verifies that, and
:func:`arrivals` rebuilds the arrival table from the firing counts for
comparison with the streaming computation.

The simulator exists for cross-validation at small n, not for scale: every
firing is one Python-level step.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable

from .core import ChipfireError, row_bound

ORACLE_EXPONENT_LIMIT = 10

STRATEGIES = ("random", "leftmost-first", "fifo-queue", "row-by-row")

Point = tuple[int, int]


class MoveCapExceededError(ChipfireError, RuntimeError):
    """The simulation hit its move cap; stabilization should have ended it."""


@dataclass
class OracleState:
    """Mutable simulation state on sparse maps keyed by ``(x, y)``.

    ``chips[x, y]`` is the current chip count, ``firings[x, y]`` how often
    the point has fired; points never reached read as 0.  Total chips stay
    at ``2**n`` throughout: a firing moves two chips and destroys none.
    """

    n: int
    moves: int = 0
    chips: Counter[Point] = field(default_factory=Counter)
    firings: Counter[Point] = field(default_factory=Counter)

    def __post_init__(self) -> None:
        self.chips[0, 0] = 1 << self.n

    def fire(self, x: int, y: int) -> None:
        """Fire ``(x, y)`` once: one chip to each out-neighbor."""
        chips = self.chips
        p = (x, y)
        held = chips[p]
        if held < 2:
            raise ValueError(f"{p} holds {held} chips, cannot fire")
        chips[p] = held - 2
        chips[x + 1, y] += 1
        chips[x, y + 1] += 1
        self.firings[p] += 1
        self.moves += 1

    def total_chips(self) -> int:
        return sum(self.chips.values())

    def nonzero_chips(self) -> dict[Point, int]:
        return {p: v for p, v in self.chips.items() if v}

    def nonzero_firings(self) -> dict[Point, int]:
        return dict(self.firings)


def _worklist(
    strategy: str, seed: int | None
) -> tuple[Callable[[Point], None], Callable[[], Point]]:
    """``put`` and ``take`` for the container that sets ``strategy``'s order."""
    if strategy == "fifo-queue":
        queue: deque[Point] = deque()
        return queue.append, queue.popleft
    if strategy == "random":
        rng = random.Random(seed)
        pool: list[Point] = []

        def take_any() -> Point:
            i = rng.randrange(len(pool))
            pool[i], pool[-1] = pool[-1], pool[i]
            return pool.pop()

        return pool.append, take_any
    # Heap keys: (x + y, y) row by row, (y, x) leftmost first.
    heap: list[tuple[int, int, Point]] = []
    if strategy == "row-by-row":
        put = lambda p: heapq.heappush(heap, (p[0] + p[1], p[1], p))
    else:
        put = lambda p: heapq.heappush(heap, (p[1], p[0], p))
    return put, lambda: heapq.heappop(heap)[2]


def simulate(
    n: int,
    strategy: str = "row-by-row",
    seed: int | None = None,
    move_cap: int | None = None,
) -> OracleState:
    """Run the game from ``2**n`` chips to its stable configuration.

    One move fires one point once.  The default cap comes from a
    displacement argument (each move pushes two chips one row outward and no
    chip passes the last-row bound), so hitting it means a bug, not a long
    run.
    """
    if n < 0:
        raise ValueError(f"exponent must be nonnegative, got {n}")
    if n > ORACLE_EXPONENT_LIMIT:
        raise ValueError(
            f"n={n} exceeds the oracle limit {ORACLE_EXPONENT_LIMIT}; "
            "the simulator is meant for small cross-checks"
        )
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    cap = move_cap if move_cap is not None else ((1 << n) * row_bound(n)) // 2 + 1
    state = OracleState(n=n)
    put, take = _worklist(strategy, seed)
    # Each fireable point is listed at most once.  Only a point's own firing
    # removes its chips, so a listed point is still fireable when taken.
    chips = state.chips
    listed: set[Point] = set()
    if chips[0, 0] >= 2:
        listed.add((0, 0))
        put((0, 0))
    while listed:
        p = take()
        listed.remove(p)
        if state.moves >= cap:
            raise MoveCapExceededError(f"move cap {cap} hit for n={n}")
        x, y = p
        state.fire(x, y)
        for q in (p, (x + 1, y), (x, y + 1)):
            if chips[q] >= 2 and q not in listed:
                listed.add(q)
                put(q)
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


@dataclass(frozen=True)
class ConfluenceReport:
    """The verdict of :func:`confluence_check`.

    ``row_by_row`` is the final state of the row-by-row run, kept for the
    arrival, firing-count and parity cross-checks that compare one run with
    the streamed table.
    """

    n: int
    trials: int
    passed: bool
    moves: int
    runs: int
    mismatches: tuple[str, ...] = ()
    row_by_row: OracleState = field(kw_only=True, compare=False, repr=False)


def confluence_check(n: int, trials: int, seed: int = 0) -> ConfluenceReport:
    """Fire ``trials`` random orders plus the deterministic strategies.

    Passes when every run ends with the same stable grid, the same firing
    counts, and the same move total.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    runs: list[tuple[str, OracleState]] = []
    for t in range(trials):
        runs.append((f"random[{seed + t}]", simulate(n, "random", seed=seed + t)))
    for name in ("leftmost-first", "fifo-queue", "row-by-row"):
        runs.append((name, simulate(n, name)))

    ref_name, ref = runs[0]
    ref_stable = ref.nonzero_chips()
    ref_firings = ref.nonzero_firings()
    mismatches: list[str] = []
    for name, state in runs[1:]:
        if state.moves != ref.moves:
            mismatches.append(f"{name}: {state.moves} moves != {ref.moves} ({ref_name})")
        if state.nonzero_chips() != ref_stable:
            mismatches.append(f"{name}: stable grid differs from {ref_name}")
        if state.nonzero_firings() != ref_firings:
            mismatches.append(f"{name}: firing counts differ from {ref_name}")
    return ConfluenceReport(
        n=n,
        trials=trials,
        passed=not mismatches,
        moves=ref.moves,
        runs=len(runs),
        mismatches=tuple(mismatches),
        row_by_row=dict(runs)["row-by-row"],
    )
