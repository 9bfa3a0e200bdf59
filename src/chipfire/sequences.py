"""Integer sequences derived from the tables, with frozen reference values.

The reference prefixes are embedded as data so the golden tests run
offline; the OEIS identifiers are the citation.  ``generate`` always
recomputes from the library and never reads the reference values, so the
two sides of every golden comparison stay independent.
"""

from __future__ import annotations

from typing import Callable

from . import stable, structure
from .core import MAX_EXPONENT, _Record


class SequenceTable(_Record):
    """One integer sequence: its reference prefix ``known`` from ``offset``
    on, and ``value_at``, which recomputes the term at an index up to
    ``max_index``.  Read-only."""

    _fields = ("id", "description", "oeis_id", "offset", "known", "value_at", "max_index")

    def __init__(
        self,
        id: str,
        description: str,
        oeis_id: str,
        offset: int,
        known: tuple[int, ...],
        value_at: Callable[[int], int],
        max_index: int,
    ) -> None:
        self.__dict__.update(
            id=id, description=description, oeis_id=oeis_id, offset=offset, known=known,
            value_at=value_at, max_index=max_index,
        )


SEQUENCES: dict[str, SequenceTable] = {
    t.id: t
    for t in (
        SequenceTable(
            id="total-firings",
            description="total firings to stabilize 2**n chips",
            oeis_id="A389565",
            offset=0,
            known=(0, 1, 5, 15, 52, 163, 458, 1359, 4296, 12890, 38570),
            value_at=stable.total_firings,
            max_index=MAX_EXPONENT,
        ),
        SequenceTable(
            id="nonzero-rows",
            description="number of nonzero rows of the arrival table",
            oeis_id="A390129",
            offset=0,
            known=(1, 2, 4, 6, 10, 16, 24, 38, 60, 92, 144, 226, 362, 570, 906, 1430),
            value_at=lambda n: structure.summarize(n).seen,
            max_index=MAX_EXPONENT,
        ),
        SequenceTable(
            id="longest-row",
            description="length of the longest row of the arrival table",
            oeis_id="A390355",
            offset=0,
            known=(1, 2, 3, 4, 5, 6, 7, 8, 10, 13, 15, 19, 24, 30, 37, 46, 58, 73),
            value_at=lambda n: structure.summarize(n).longest,
            max_index=MAX_EXPONENT,
        ),
        SequenceTable(
            id="minimal-row-sums",
            description="chip total of the minimal row with j+1 entries",
            oeis_id="A007590",
            offset=1,
            known=(2, 4, 8, 12, 18, 24, 32, 40, 50),
            value_at=structure.minimal_row_sum,
            max_index=10**6,
        ),
    )
}


def generate(seq_id: str, upto: int) -> list[int]:
    """Recompute sequence values for indices ``offset .. upto`` inclusive.

    An ``upto`` past the sequence's ``max_index`` is refused before any
    term is computed.
    """
    try:
        table = SEQUENCES[seq_id]
    except KeyError:
        raise ValueError(
            f"unknown sequence {seq_id!r}; choose from {sorted(SEQUENCES)}"
        ) from None
    if upto < table.offset:
        raise ValueError(f"{seq_id} starts at index {table.offset}, got upto={upto}")
    if upto > table.max_index:
        raise ValueError(f"{seq_id} is computed up to index {table.max_index}, got upto={upto}")
    return [table.value_at(i) for i in range(table.offset, upto + 1)]


def half_nonzero_rows(upto: int) -> list[int]:
    """Half the nonzero-row counts for n = 1 .. upto.

    The counts are even for every n >= 1, so the halves are exact; the
    division is asserted rather than trusted.  The halves are always derived
    from the freshly computed full sequence, never stored on their own, so a
    transcription slip in a halved copy of the list cannot creep in
    (halving the n=13 count 570 gives 285).
    """
    if upto < 1:
        raise ValueError(f"half sequence starts at n=1, got upto={upto}")
    last = SEQUENCES["nonzero-rows"].max_index
    if upto > last:
        raise ValueError(f"half-nonzero-rows is computed up to index {last}, got upto={upto}")
    counts = generate("nonzero-rows", upto)[1:]
    for n, c in enumerate(counts, start=1):
        if c & 1:
            raise stable.ParityError(f"nonzero-row count {c} at n={n} is odd")
    return [c >> 1 for c in counts]
