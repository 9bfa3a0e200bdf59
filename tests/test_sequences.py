from types import SimpleNamespace

import pytest

import golden
import peak_rss
from chipfire import SEQUENCES, ParityError, generate, structure


class TestGenerate:
    def test_total_firings(self):
        assert generate("total-firings", 10) == list(golden.TOTAL_FIRINGS)

    def test_nonzero_rows(self):
        assert generate("nonzero-rows", 15) == list(golden.NONZERO_ROWS)

    def test_longest_row(self):
        assert generate("longest-row", 17) == list(golden.LONGEST_ROW_LENGTHS)

    def test_minimal_row_sums(self):
        assert generate("minimal-row-sums", 9) == list(golden.MINIMAL_ROW_SUMS)

    def test_short_prefix(self):
        assert generate("total-firings", 0) == [0]
        assert generate("minimal-row-sums", 1) == [2]

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            generate("busy-beavers", 3)

    def test_upto_below_offset(self):
        with pytest.raises(ValueError):
            generate("minimal-row-sums", 0)


class TestMetadata:
    def test_oeis_ids(self):
        ids = {s.id: s.oeis_id for s in SEQUENCES.values()}
        assert ids == {
            "total-firings": "A389565",
            "nonzero-rows": "A390129",
            "longest-row": "A390355",
            "minimal-row-sums": "A007590",
            "half-nonzero-rows": "",
        }

    def test_offsets(self):
        assert SEQUENCES["minimal-row-sums"].offset == 1
        assert all(
            SEQUENCES[name].offset == 0
            for name in ("total-firings", "nonzero-rows", "longest-row")
        )


class TestHalfNonzeroRows:
    def test_prefix(self):
        assert generate("half-nonzero-rows", 5) == [1, 2, 3, 5, 8]

    def test_ten(self):
        assert generate("half-nonzero-rows", 10) == list(golden.HALF_NONZERO_ROWS_10)

    def test_single(self):
        assert generate("half-nonzero-rows", 1) == [1]

    def test_exact_halving_at_13(self):
        # Derived by halving the freshly computed count: 570 / 2 = 285.
        assert generate("half-nonzero-rows", 13)[-1] == 285

    def test_needs_positive_upto(self):
        with pytest.raises(ValueError):
            generate("half-nonzero-rows", 0)

    def test_odd_count_raises(self, monkeypatch):
        counts = [1, 2, 5, 6]
        monkeypatch.setattr(structure, "summarize", lambda n: SimpleNamespace(seen=counts[n]))
        with pytest.raises(ParityError, match="^nonzero-row count 5 at n=2 is odd$"):
            generate("half-nonzero-rows", 3)


def test_nonzero_rows_keep_no_widths():
    # The count comes off the stream: at n = 23 a kept width tuple of the
    # 57 562 rows raised the peak about 2 MiB above a small table's.
    peaks = [
        peak_rss.run_python(["-m", "chipfire.cli", *args], timeout=120)
        for args in (
            ["table", "--n", "12", "--out", "/dev/null"],
            ["sequences", "nonzero-rows", "--upto", "23"],
        )
    ]
    assert [p["exit"] for p in peaks] == [0, 0], [p["err"] for p in peaks]
    assert peaks[1]["out"].splitlines()[-1] == "23,57562"
    assert peaks[1]["peak_kib"] - peaks[0]["peak_kib"] < 1024


def test_segment_keeps_no_widths():
    # segment folds the widths as they stream: at n = 23 a stored width
    # tuple of the 57 562 rows raised the peak about 2 MiB above a small
    # table's.
    peaks = [
        peak_rss.run_python(["-m", "chipfire.cli", *args], timeout=120)
        for args in (["table", "--n", "12", "--out", "/dev/null"], ["segment", "--n", "23"])
    ]
    assert [p["exit"] for p in peaks] == [0, 0], [p["err"] for p in peaks]
    assert peaks[1]["peak_kib"] - peaks[0]["peak_kib"] < 1024
