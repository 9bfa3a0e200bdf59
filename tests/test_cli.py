import hashlib
import json
import os
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

import chipfire
import golden
import peak_rss
from forge import rows_from_csv, rows_to_csv
from chipfire import _cli_tables, checks, oracle, stable
from chipfire.cli import build_parser, main
from chipfire.core import Row, intermediate_configuration
from chipfire.difftable import diff_row
from chipfire.sequences import SEQUENCES


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def assert_frozen(capsys, command):
    rc, out, _ = run(capsys, *command.split())
    assert rc == 0
    assert sha256(out) == golden.STABLE_OUTPUT_SHA256[command]


class TestRowCsv:
    def test_golden_first_line(self, capsys):
        rc, out, _ = run(capsys, "table", "--n", "4")
        lines = out.splitlines()
        assert rc == 0
        assert lines[0] == "0,0,16"
        assert len(lines) == 10

    def test_header_flag(self, capsys):
        rc, out, _ = run(capsys, "table", "--n", "0", "--header")
        assert out.splitlines() == ["index,y_min,values", "0,0,1"]

    def test_round_trip(self, table):
        rows = table(9)
        assert rows_from_csv(rows_to_csv(rows)) == rows
        assert rows_from_csv(rows_to_csv(rows, header=True)) == rows

    def test_round_trip_via_command(self, capsys, table):
        rc, out, _ = run(capsys, "table", "--n", "6")
        assert rows_from_csv(out) == table(6)

    def test_max_rows(self, capsys):
        rc, out, _ = run(capsys, "table", "--n", "9", "--max-rows", "3")
        assert len(out.splitlines()) == 3

    def test_max_rows_stops_the_stream(self):
        # The full n = 126 table could never be listed; the CSV path must
        # stop after the requested rows.
        env = dict(os.environ, PYTHONPATH=str(Path(chipfire.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "chipfire.cli", "table", "--n", "126", "--max-rows", "3"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 3
        assert proc.stdout.startswith(f"0,0,{2**126}\n")

    def test_cache_variable_is_ignored(self, capsys, tmp_path, monkeypatch, table):
        monkeypatch.setenv("CHIPFIRE_CACHE", str(tmp_path / "cache"))
        rc, out, _ = run(capsys, "table", "--n", "6")
        assert rc == 0
        assert rows_from_csv(out) == table(6)
        assert not (tmp_path / "cache").exists()

    def test_json_embeds_row_count(self, capsys):
        rc, out, _ = run(capsys, "table", "--n", "9", "--format", "json")
        payload = json.loads(out)
        assert payload["n"] == 9
        assert payload["row_count"] == 92
        assert payload["rows"][0] == {"index": 0, "y_min": 0, "values": [512]}

    @pytest.mark.parametrize("command", list(golden.ROW_OUTPUT_SHA256))
    def test_output_is_frozen(self, capsys, command):
        rc, out, _ = run(capsys, *command.split())
        assert rc == 0
        assert sha256(out) == golden.ROW_OUTPUT_SHA256[command]

    def test_csv_matches_joined_str(self, table):
        # The line each row had when every entry went through str().
        def old_line(r):
            return f"{r.index},{r.y_min},{' '.join(map(str, r.values))}\n"

        tables = [table(n) for n in range(15)]
        tables.append(list(islice(intermediate_configuration(126), 3)))
        for rows in tables:
            for some in (rows, list(map(diff_row, rows))):
                assert rows_to_csv(some).splitlines(keepends=True) == list(map(old_line, some))
        assert any(v < 0 for v in diff_row(table(14)[40]).values)
        empty = Row(index=3, y_min=0, values=())
        assert rows_to_csv([empty]) == old_line(empty) == "3,0,\n"

    @pytest.mark.parametrize(
        "command, max_rows",
        [("table", None), ("table", 1), ("table", 7), ("diff", None), ("diff", 2)],
    )
    def test_json_matches_json_dumps(self, capsys, command, max_rows):
        # The streamed JSON is the bytes json.dumps(indent=2) gives the
        # listed rows.
        for n in range(13):
            argv = [command, "--n", str(n), "--format", "json"]
            if max_rows is not None:
                argv += ["--max-rows", str(max_rows)]
            rows = list(intermediate_configuration(n))[:max_rows]
            if command == "diff":
                rows = list(map(diff_row, rows))
            listed = [{"index": r.index, "y_min": r.y_min, "values": list(r.values)} for r in rows]
            expected = json.dumps({"n": n, "row_count": len(listed), "rows": listed}, indent=2)
            rc, out, _ = run(capsys, *argv)
            assert rc == 0
            assert out == expected + "\n"

    @pytest.mark.parametrize("rows", [[], [Row(index=3, y_min=0, values=())]])
    def test_json_writer_on_empty_rows(self, rows):
        listed = [{"index": r.index, "y_min": r.y_min, "values": []} for r in rows]
        expected = json.dumps({"n": 3, "row_count": len(rows), "rows": listed}, indent=2)
        assert "".join(_cli_tables._json_lines(3, len(rows), rows)) == expected + "\n"

    def test_json_max_rows_stops_both_passes(self):
        # The row count comes from a first pass, which must stop at
        # --max-rows too.
        env = dict(os.environ, PYTHONPATH=str(Path(chipfire.__file__).parents[1]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "chipfire.cli", "table", "--n", "126", "--max-rows", "3",
             "--format", "json"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert time.perf_counter() - start < 1
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["row_count"] == 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_diff_max_rows_stops_the_stream(self, fmt):
        # No form of `diff --n 126` returned before diff took --max-rows.
        env = dict(os.environ, PYTHONPATH=str(Path(chipfire.__file__).parents[1]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "chipfire.cli", "diff", "--n", "126", "--max-rows", "3",
             "--format", fmt],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert time.perf_counter() - start < 5
        assert proc.returncode == 0, proc.stderr
        if fmt == "csv":
            lines = proc.stdout.splitlines()
            assert [line.split(",")[0] for line in lines] == ["1", "2", "3"]
            assert lines[0] == f"1,0,{2**126} {-(2**126)}"
        else:
            payload = json.loads(proc.stdout)
            assert payload["row_count"] == 3
            assert payload["rows"][0] == {"index": 1, "y_min": 0, "values": [2**126, -(2**126)]}

    def test_json_memory_follows_the_widest_row(self):
        # Listing the n = 20 table before json.dumps peaked at 258 MiB;
        # streaming the rows holds a few of them.
        report = peak_rss.run_python(
            ["-m", "chipfire.cli", "table", "--n", "20", "--format", "json"], timeout=120
        )
        assert report["exit"] == 0, report["err"]
        assert report["out"].endswith("\n  ]\n}\n")
        assert report["peak_kib"] / 1024 < 48


class TestStableAndDistance:
    def test_stable_csv(self, capsys):
        rc, out, _ = run(capsys, "stable", "--n", "4")
        lines = out.splitlines()
        assert lines[0] == "0,0,0"
        assert lines[5] == "5,1,0110"
        assert lines[9] == "9,4,11"
        assert_frozen(capsys, "stable --n 12 --header")

    def test_stable_json_chip_count(self, capsys):
        rc, out, _ = run(capsys, "stable", "--n", "9", "--format", "json")
        assert json.loads(out)["chip_count"] == 512
        for n in (0, 12, 16):
            assert_frozen(capsys, f"stable --n {n} --format json")

    def test_stable_json_matches_json_dumps(self, capsys):
        # The streamed JSON is the bytes json.dumps(indent=2) gives the
        # listed stable rows.
        for n in range(13):
            rows = list(stable.stable_configuration(n))
            listed = [{"index": r.index, "y_min": r.y_min, "bits": r.pattern()} for r in rows]
            chips = sum(r.chip_count for r in rows)
            expected = json.dumps({"n": n, "chip_count": chips, "rows": listed}, indent=2)
            rc, out, _ = run(capsys, "stable", "--n", str(n), "--format", "json")
            assert rc == 0
            assert out == expected + "\n"

    def test_stable_json_streams(self):
        # Listing the n = 20 stable rows before json.dumps peaked at
        # 42.5 MiB, against 16.1 MiB for the streamed CSV.
        report = peak_rss.run_python(
            ["-m", "chipfire.cli", "stable", "--n", "20", "--format", "json"], timeout=120
        )
        assert report["exit"] == 0, report["err"]
        assert report["out"].endswith('"\n    }\n  ]\n}\n')
        assert report["peak_kib"] / 1024 < 32

    def test_distance_csv(self, capsys):
        rc, out, _ = run(capsys, "distance", "--n", "4")
        rows = [line.split(",") for line in out.splitlines()]
        assert [int(v) for _, v in rows] == list(golden.D4)
        assert [int(i) for i, _ in rows] == list(range(-4, 5))

    def test_distance_json(self, capsys):
        rc, out, _ = run(capsys, "distance", "--n", "15", "--format", "json")
        payload = json.loads(out)
        assert payload["half_width"] == 45
        assert tuple(payload["counts"]) == golden.D15
        assert sha256(out) == golden.STABLE_OUTPUT_SHA256["distance --n 15 --format json"]

    def test_stable_and_distance_stream(self, tmp_path):
        # Listing the n = 20 stable configuration peaked at 26.4 MiB and
        # the distance distribution at 19.4 MiB, against 16.5 MiB for the
        # streamed table.
        peaks = {}
        for command in ("table", "stable", "distance"):
            report = peak_rss.run_python(
                ["-m", "chipfire.cli", command, "--n", "20", "--out", str(tmp_path / command)],
                timeout=120,
            )
            assert report["exit"] == 0, report["err"]
            peaks[command] = report["peak_kib"] / 1024
        assert peaks["stable"] - peaks["table"] < 2, peaks
        assert peaks["distance"] - peaks["table"] < 2, peaks


class TestFiringsDiffSegment:
    def test_firings_csv(self, capsys):
        rc, out, _ = run(capsys, "firings", "--n", "4", "--header")
        assert out.splitlines() == ["n,total_firings", "4,52"]

    def test_firings_json(self, capsys):
        rc, out, _ = run(capsys, "firings", "--n", "7", "--format", "json")
        assert json.loads(out) == {"n": 7, "total_firings": 1359}

    def test_firings_routes_disagree(self, capsys, monkeypatch):
        # A moment past 2**53 is printed exactly, not as a float.
        for via_sum, mu2 in ((52, 105), (2**60, 2**61 + 3)):
            monkeypatch.setattr(stable, "firing_routes", lambda rows: (via_sum, mu2))
            rc, out, err = run(capsys, "firings", "--n", "4")
            assert rc == 1
            assert out == ""
            assert err.startswith("chipfire: ")
            assert err.count("\n") == 1
            assert f"sum route {via_sum}," in err
            assert f"second moment {mu2} " in err

    def test_sequence_refuses_disagreeing_routes(self, capsys, monkeypatch):
        # Every term of total-firings goes through the same cross-check.
        monkeypatch.setattr(stable, "firing_routes", lambda rows: (52, 105))
        rc, out, err = run(capsys, "sequences", "total-firings", "--upto", "4")
        assert rc == 1
        assert out == ""
        assert err.startswith("chipfire: firing-count routes disagree for n=0: ")
        assert err.count("\n") == 1

    def test_diff_csv(self, capsys):
        rc, out, _ = run(capsys, "diff", "--n", "4")
        lines = out.splitlines()
        assert lines[0] == "1,0,16 -16"
        assert lines[1] == "2,0,8 0 -8"
        assert len(lines) == 10

    def test_diff_json_matches_csv(self, capsys):
        _, csv_out, _ = run(capsys, "diff", "--n", "6", "--header")
        rc, out, _ = run(capsys, "diff", "--n", "6", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["n"] == 6
        assert payload["row_count"] == len(payload["rows"]) == len(csv_out.splitlines()) - 1
        assert payload["rows"][0] == {"index": 1, "y_min": 0, "values": [64, -64]}

    def test_segment_json(self, capsys):
        rc, out, _ = run(capsys, "segment", "--n", "9", "--format", "json")
        payload = json.loads(out)
        assert payload["top_triangle"] == [0, 10]
        assert payload["midsection"] == [10, 23]
        assert payload["rectangle"] == [23, 80]
        assert payload["bottom_triangle"] == [80, 92]
        assert payload["longest_length"] == 13
        assert payload["first_longest_row"] == 24

    def test_segment_csv(self, capsys):
        rc, out, _ = run(capsys, "segment", "--n", "9")
        assert out.strip() == "9,0,10,10,23,23,80,80,92,13,24"


class TestSequencesCommand:
    def test_total_firings_csv(self, capsys):
        rc, out, _ = run(capsys, "sequences", "total-firings", "--upto", "10")
        values = [int(line.split(",")[1]) for line in out.splitlines()]
        assert values == list(golden.TOTAL_FIRINGS)

    def test_minimal_row_sums_starts_at_one(self, capsys):
        rc, out, _ = run(capsys, "sequences", "minimal-row-sums", "--upto", "3")
        assert out.splitlines() == ["1,2", "2,4", "3,8"]

    def test_half_sequence_json(self, capsys):
        rc, out, _ = run(
            capsys, "sequences", "half-nonzero-rows", "--upto", "10", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["offset"] == 1
        assert payload["values"] == list(golden.HALF_NONZERO_ROWS_10)

    def test_unknown_id_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sequences", "busy-beavers", "--upto", "3"])
        assert exc.value.code == 2

    def test_choices_are_the_registry(self):
        (sub,) = build_parser(["sequences"])._subparsers._group_actions
        (id_action,) = (a for a in sub.choices["sequences"]._actions if a.dest == "id")
        assert id_action.choices == list(SEQUENCES)

    @pytest.mark.parametrize("seq", SEQUENCES.values(), ids=list(SEQUENCES))
    def test_first_index_is_one_line(self, capsys, seq):
        rc, out, err = run(capsys, "sequences", seq.id, "--upto", str(seq.offset))
        assert (rc, err) == (0, "")
        assert out == f"{seq.offset},{seq.value_at(seq.offset)}\n"

    @pytest.mark.parametrize("seq", SEQUENCES.values(), ids=list(SEQUENCES))
    def test_past_the_last_index_is_refused(self, capsys, seq):
        upto = seq.max_index + 1
        rc, out, err = run(capsys, "sequences", seq.id, "--upto", str(upto))
        assert (rc, out) == (2, "")
        assert err == (
            f"chipfire: {seq.id} is computed up to index {seq.max_index}, got upto={upto}\n"
        )


class TestVerifyCommand:
    def test_passes_for_small_n(self, capsys):
        rc, out, _ = run(capsys, "verify", "--n", "4", "--trials", "3")
        assert rc == 0
        assert "FAIL" not in out
        assert "n=4 row-symmetry: pass" in out
        assert "minimal-row-descent: pass" in out
        assert "0 failures" in out

    def test_range_and_conjecture_reporting(self, capsys):
        rc, out, _ = run(capsys, "verify", "--n", "2..4", "--trials", "0")
        assert rc == 0
        for n in (2, 3, 4):
            assert f"n={n} bottom-triangle-conjecture: report holds" in out

    def test_properties_filter(self, capsys):
        rc, out, _ = run(capsys, "verify", "--n", "4", "--properties", "parity")
        assert rc == 0
        lines = [line for line in out.splitlines() if line.startswith("n=")]
        assert lines
        assert all("parity" in line for line in lines)
        assert "16 chips retired" in out

    def test_filter_naming_no_check_is_refused_at_once(self, capsys):
        rc, out, err = run(capsys, "verify", "--n", "3", "--properties", "row-symmetry,row-symetry")
        assert rc == 2
        assert out == ""
        assert err == "chipfire: --properties filter 'row-symetry' names no check\n"

    @pytest.mark.parametrize("spelling", ["", "row,", ",row", "row,,diff"])
    def test_empty_filter_entry_is_refused(self, capsys, spelling):
        rc, out, err = run(capsys, "verify", "--n", "5", "--trials", "0", "--properties", spelling)
        assert (rc, out) == (2, "")
        assert err == "chipfire: --properties filter '' names no check\n"

    @pytest.mark.parametrize("name", ["minimal-row-descent", "oracle", "bottom-triangle"])
    def test_filters_match_every_kind_of_check(self, capsys, name):
        rc, out, err = run(capsys, "verify", "--n", "3", "--properties", name, "--trials", "2")
        assert (rc, err) == (0, "")
        expected = 4 if name == "oracle" else 1
        assert out.splitlines()[-1] == f"summary: {expected} checks, 0 failures"

    @pytest.mark.parametrize("n, trials", [("11", "2"), ("0", "10"), ("3", "0"), ("2..5", "1")])
    def test_oracle_only_filter_that_can_run_nothing_is_refused(self, capsys, n, trials):
        # Without the oracle the filter keeps no line of the scorecard.
        rc, out, err = run(capsys, "verify", "--n", n, "--trials", trials, "--properties", "oracle")
        assert (rc, out) == (2, "")
        assert err == (
            "chipfire: --properties filter selects only oracle checks, which run only "
            f"with at least 2 trials and for n in 1..{oracle.ORACLE_EXPONENT_LIMIT}\n"
        )

    def test_check_names_are_the_scorecard(self, capsys):
        rc, out, _ = run(capsys, "verify", "--n", "3", "--trials", "2")
        assert rc == 0
        names = [line.split(": ")[0].removeprefix("n=3 ") for line in out.splitlines()[:-1]]
        assert tuple(names) == checks.CHECK_NAMES

    def test_scorecard_is_frozen(self, capsys):
        rc, out, _ = run(capsys, "verify", "--n", "0..10", "--trials", "3", "--seed", "0")
        assert rc == 0
        assert sha256(out) == golden.VERIFY_SCORECARD_SHA256

    def test_memory_follows_the_widest_row(self):
        # Listing the n = 20 table for the checks took 274 MB; one streaming
        # pass holds a few rows.
        report = peak_rss.run_python(
            ["-m", "chipfire.cli", "verify", "--n", "20", "--trials", "0"], timeout=120
        )
        assert report["exit"] == 0, report["err"]
        assert report["out"].endswith("0 failures\n")
        assert report["peak_kib"] / 1024 < 48

    def test_degenerate_n0_passes_with_notices(self, capsys):
        rc, out, _ = run(capsys, "verify", "--n", "0", "--trials", "0")
        assert rc == 0
        assert "skipped: needs n >= 1" in out

    def test_range_syntax_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "4..2"])
        assert exc.value.code == 2

    def test_range_of_non_numbers_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "a..3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --n: not an exponent range: 'a..3'\n")

    def test_oracle_off_its_grid_exits_1(self, capsys, monkeypatch):
        # A defect that sends a run past its grid is one chipfire: line and
        # exit 1, not an IndexError traceback.
        real = oracle._offsets

        def offsets(strategy, w):
            right, up = real(strategy, w)
            return (right << 8 if strategy == "row-by-row" else right), up

        monkeypatch.setattr(oracle, "_offsets", offsets)
        rc, _, err = run(capsys, "verify", "--n", "4", "--properties", "oracle", "--trials", "2")
        assert rc == 1
        assert err == "chipfire: the row-by-row run for n=4 left its grid of 132 point ints\n"

    def test_trials_past_the_cap_are_refused_at_once(self, capsys):
        trials = str(oracle.MAX_TRIALS + 1)
        start = time.perf_counter()
        rc, out, err = run(capsys, "verify", "--n", "0..10", "--trials", trials)
        assert time.perf_counter() - start < 1
        assert rc == 2
        assert out == ""
        assert err == f"chipfire: {trials} oracle trials exceed the cap of {oracle.MAX_TRIALS}\n"


class TestRenderCommand:
    def test_writes_svg(self, capsys, tmp_path):
        out_file = tmp_path / "fig.svg"
        rc, out, _ = run(
            capsys, "render", "--kind", "stable-dots", "--n", "4", "--out", str(out_file)
        )
        assert rc == 0
        assert str(out_file) in out
        assert out_file.read_text().count('fill="#000000"') == 16
        command = "render --kind stable-dots --n 9"
        rc, _, _ = run(capsys, *command.split(), "--out", str(out_file))
        assert rc == 0
        assert sha256(out_file.read_text()) == golden.STABLE_OUTPUT_SHA256[command]

    def test_io_error_exit_code(self, capsys, tmp_path):
        rc, out, err = run(
            capsys, "render", "--kind", "stable-dots", "--n", "2",
            "--out", str(tmp_path / "missing" / "fig.svg"),
        )
        assert rc == 3
        assert err


#: Standard modules no command may load: ``dataclasses`` and the
#: ``inspect`` it imports cost about 10 ms of every CLI call's start-up.
SLOW_IMPORTS = ("dataclasses", "inspect")


def loaded_modules(code):
    """The chipfire modules, and those of ``SLOW_IMPORTS``, that a fresh
    interpreter holds after running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(Path(chipfire.__file__).parents[1]))
    probe = code + (
        "\nimport sys\nprint(*sorted(m for m in sys.modules"
        f" if m.startswith('chipfire') or m in {SLOW_IMPORTS!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


class TestImports:
    """A command loads only the modules it runs, and none of ``SLOW_IMPORTS``."""

    #: What the dispatcher loads; each command adds the module that holds it
    #: and the library modules it runs.
    BASE = {"chipfire", "chipfire.cli", "chipfire.core"}

    def test_cli_import(self):
        assert loaded_modules("import chipfire.cli") == self.BASE

    def test_package_import(self):
        assert loaded_modules("import chipfire") == {"chipfire"}

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("table --n 2", {"chipfire._cli_tables"}),
            ("--help", set()),
            ("table --help", {"chipfire._cli_tables"}),
            ("stable --n 3", {"chipfire._cli_tables", "chipfire.stable"}),
            ("diff --n 3", {"chipfire._cli_tables", "chipfire.difftable"}),
            ("distance --n 3", {"chipfire._cli_summaries", "chipfire.stable"}),
            ("firings --n 3", {"chipfire._cli_summaries", "chipfire.stable"}),
            ("segment --n 3", {"chipfire._cli_summaries", "chipfire.structure"}),
            # Only verify loads the lane folds, and only a run that plays
            # the oracle loads it.
            (
                "verify --n 3 --trials 2",
                {"chipfire._cli_verify", "chipfire.checks", "chipfire._lanefolds",
                 "chipfire.oracle", "chipfire.difftable", "chipfire.stable",
                 "chipfire.structure"},
            ),
            (
                "verify --n 3 --trials 0",
                {"chipfire._cli_verify", "chipfire.checks", "chipfire._lanefolds",
                 "chipfire.difftable", "chipfire.stable", "chipfire.structure"},
            ),
            (
                "verify --n 11 --trials 2",
                {"chipfire._cli_verify", "chipfire.checks", "chipfire._lanefolds",
                 "chipfire.difftable", "chipfire.stable", "chipfire.structure"},
            ),
            ("verify --help", {"chipfire._cli_verify"}),
            (
                "sequences total-firings --upto 3",
                {"chipfire._cli_sequences", "chipfire.sequences", "chipfire.stable",
                 "chipfire.structure"},
            ),
            (
                "sequences longest-row --upto 3",
                {"chipfire._cli_sequences", "chipfire.sequences", "chipfire.stable",
                 "chipfire.structure"},
            ),
            # Each figure loads only the module it draws from.
            (
                "render --kind row-profiles --n 3 --out {tmp}",
                {"chipfire._cli_render", "chipfire.render", "chipfire.structure"},
            ),
            (
                "render --kind diff-signmap --n 3 --out {tmp}",
                {"chipfire._cli_render", "chipfire.render", "chipfire.difftable"},
            ),
            (
                "render --kind stable-dots --n 3 --out {tmp}",
                {"chipfire._cli_render", "chipfire.render", "chipfire.stable"},
            ),
        ],
    )
    def test_command_imports(self, command, extra, tmp_path):
        argv = command.format(tmp=tmp_path / "figure.svg").split()
        code = (
            "import contextlib, io\n"
            "from chipfire.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        main({argv!r})\n"
            "    except SystemExit:\n"
            "        pass"
        )
        assert loaded_modules(code) == self.BASE | extra

    def test_star_import_binds_every_name(self):
        loaded_modules(
            "import chipfire\n"
            "from chipfire import *\n"
            "missing = [name for name in chipfire.__all__ if name not in globals()]\n"
            "assert not missing, missing"
        )

    def test_unknown_name_is_an_attribute_error(self):
        assert loaded_modules(
            "import chipfire\n"
            "try:\n"
            "    chipfire.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert 'no_such_name' in str(exc)\n"
            "else:\n"
            "    raise AssertionError('resolved')"
        ) == {"chipfire"}

    def test_names_and_submodules_resolve(self):
        modules = {"core", "stable", "structure", "difftable", "oracle", "sequences", "checks"}
        assert set(chipfire.__all__) | modules <= set(dir(chipfire))
        assert chipfire.stable.total_firings is chipfire.total_firings


class TestCliText:
    """Help, usage and argparse errors stay byte-identical."""

    @pytest.mark.parametrize("command", list(golden.CLI_TEXT_SHA256))
    def test_frozen(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(command.split())
        out, err = capsys.readouterr()
        is_help = "-h" in command.split() or "--help" in command.split()
        assert exc.value.code == (0 if is_help else 2)
        text, other = (out, err) if is_help else (err, out)
        assert other == ""
        assert sha256(text) == golden.CLI_TEXT_SHA256[command]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--n", "-3"],
            ["table", "--n", "127"],
            ["table", "--n", "four"],
            ["table"],
            ["render", "--kind", "mystery", "--n", "2", "--out", "x.svg"],
            ["nonsense"],
            ["table", "--n", "2", "--cache-dir", "x"],
        ],
    )
    def test_exit_code_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["segment", "--n", "0"],
            ["render", "--kind", "row-profiles", "--n", "0", "--out", "f.svg"],
            ["sequences", "total-firings", "--upto", "-1"],
            ["render", "--kind", "stable-dots", "--n", "2", "--out", "f.svg",
             "--dot-radius", "nan"],
            ["render", "--kind", "stable-dots", "--n", "2", "--out", "f.svg",
             "--dot-radius", "inf"],
            ["sequences", "longest-row", "--upto", "127"],
            ["sequences", "nonzero-rows", "--upto", "200"],
            ["sequences", "half-nonzero-rows", "--upto", "127"],
            ["sequences", "minimal-row-sums", "--upto", "1000000000000"],
            ["render", "--kind", "stable-dots", "--n", "2", "--out", "f.svg",
             "--width", str(2**1024)],
            ["render", "--kind", "stable-dots", "--n", "2", "--out", "f.svg",
             "--height", str(2**1024)],
            ["render", "--kind", "distance-polyline", "--n", "3", "--out", "f.svg",
             "--width", "10", "--height", "10"],
            ["render", "--kind", "stable-dots", "--n", "2", "--out", "f.svg",
             "--width", "20", "--height", "20"],
            ["render", "--kind", "diff-signmap", "--n", "2", "--out", "f.svg", "--width", "32"],
            ["render", "--kind", "row-profiles", "--n", "2", "--out", "f.svg", "--height", "32"],
        ],
    )
    def test_out_of_domain_values_exit_two(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("chipfire: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "f.svg").exists()

    def test_half_sequence_past_its_last_index_names_itself(self, capsys):
        rc, out, err = run(capsys, "sequences", "half-nonzero-rows", "--upto", "31")
        assert (rc, out) == (2, "")
        assert err == "chipfire: half-nonzero-rows is computed up to index 30, got upto=31\n"

    @pytest.mark.parametrize("command", ["distance", "firings", "segment"])
    @pytest.mark.parametrize("n", [31, 126])
    def test_summary_past_the_table_cap_is_refused_at_once(self, capsys, command, n):
        start = time.perf_counter()
        rc, out, err = run(capsys, command, "--n", str(n))
        assert time.perf_counter() - start < 1
        assert (rc, out) == (2, "")
        assert err == f"chipfire: {command} is computed up to n=30, got n={n}\n"

    def test_out_to_unwritable_path_is_io_error(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "table", "--n", "2", "--out", str(tmp_path / "no" / "file.csv")
        )
        assert rc == 3
        assert err
