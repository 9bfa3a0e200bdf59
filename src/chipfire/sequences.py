"""Integer sequences derived from the tables.

``SEQUENCES`` lists every id that the ``sequences`` command serves, and
``generate`` is the one route to every term: it always recomputes from the
library.  The OEIS identifiers are the citation.  The reference prefixes
the golden tests compare against live in ``tests/golden.py``, apart from
this module, so the two sides of every golden comparison stay independent.
"""

from __future__ import annotations

from typing import Callable

from . import stable, structure
from .core import MAX_EXPONENT, _Record


class SequenceTable(_Record):
    """One integer sequence: ``value_at`` recomputes the term at an index
    from ``offset`` up to ``max_index``, and ``oeis_id`` cites it (empty
    where no OEIS entry is cited).  Read-only."""

    _fields = ("id", "description", "oeis_id", "offset", "value_at", "max_index")

    def __init__(
        self,
        id: str,
        description: str,
        oeis_id: str,
        offset: int,
        value_at: Callable[[int], int],
        max_index: int,
    ) -> None:
        self.__dict__.update(
            id=id, description=description, oeis_id=oeis_id, offset=offset,
            value_at=value_at, max_index=max_index,
        )


def _half_nonzero_rows(n: int) -> int:
    """Half the nonzero-row count at ``n >= 1``.

    The counts are even for every n >= 1, so the halves are exact; the
    division is asserted rather than trusted.  Each half comes from that
    n's freshly computed count, never from a stored halved copy, so a
    transcription slip in such a copy cannot creep in (halving the n = 13
    count 570 gives 285).
    """
    count = structure.summarize(n).seen
    if count & 1:
        raise stable.ParityError(f"nonzero-row count {count} at n={n} is odd")
    return count >> 1


# The order is the order ``sequences --help`` lists the ids in, and the
# order of argparse's invalid-choice message; ``tests/golden.py`` freezes both.
SEQUENCES: dict[str, SequenceTable] = {
    t.id: t
    for t in (
        SequenceTable(
            id="longest-row",
            description="length of the longest row of the arrival table",
            oeis_id="A390355",
            offset=0,
            value_at=lambda n: structure.summarize(n).longest,
            max_index=MAX_EXPONENT,
        ),
        SequenceTable(
            id="minimal-row-sums",
            description="chip total of the minimal row with j+1 entries",
            oeis_id="A007590",
            offset=1,
            value_at=structure.minimal_row_sum,
            max_index=10**6,
        ),
        SequenceTable(
            id="nonzero-rows",
            description="number of nonzero rows of the arrival table",
            oeis_id="A390129",
            offset=0,
            value_at=lambda n: structure.summarize(n).seen,
            max_index=MAX_EXPONENT,
        ),
        SequenceTable(
            id="total-firings",
            description="total firings to stabilize 2**n chips",
            oeis_id="A389565",
            offset=0,
            value_at=stable.total_firings,
            max_index=MAX_EXPONENT,
        ),
        SequenceTable(
            id="half-nonzero-rows",
            description="half the number of nonzero rows of the arrival table",
            oeis_id="",
            offset=1,
            value_at=_half_nonzero_rows,
            max_index=MAX_EXPONENT,
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
