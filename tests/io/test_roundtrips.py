"""Round-trip and error-handling tests for all four I/O formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import (
    read_csv,
    read_database,
    read_jsonl,
    read_patterns,
    read_spmf,
    write_csv,
    write_database,
    write_jsonl,
    write_patterns,
    write_spmf,
)
from repro.model.database import ESequenceDatabase
from repro.model.pattern import PatternWithSupport, TemporalPattern

from tests.conftest import make_random_db

FORMATS = {
    "text": (write_database, read_database),
    "spmf": (write_spmf, read_spmf),
    "jsonl": (write_jsonl, read_jsonl),
    "csv": (write_csv, read_csv),
}


def sample_db():
    db = make_random_db(42, num_sequences=8, point_fraction=0.2)
    return ESequenceDatabase(db.sequences, name="sample")


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_round_trip_preserves_sequences(self, fmt, tmp_path):
        write, read = FORMATS[fmt]
        path = tmp_path / f"db.{fmt}"
        db = sample_db()
        write(db, path)
        assert read(path) == db

    @pytest.mark.parametrize("fmt", ["text", "spmf", "jsonl"])
    def test_round_trip_preserves_name(self, fmt, tmp_path):
        write, read = FORMATS[fmt]
        path = tmp_path / "db.dat"
        db = sample_db()
        write(db, path)
        assert read(path).name == "sample"

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_empty_database(self, fmt, tmp_path):
        write, read = FORMATS[fmt]
        path = tmp_path / "empty.dat"
        write(ESequenceDatabase([]), path)
        assert len(read(path)) == 0

    @pytest.mark.parametrize("fmt", ["text", "jsonl", "spmf"])
    def test_empty_sequences_preserved(self, fmt, tmp_path):
        write, read = FORMATS[fmt]
        db = ESequenceDatabase.from_event_lists([[], [(0, 1, "A")], []])
        path = tmp_path / "gaps.dat"
        write(db, path)
        assert read(path) == db

    def test_float_timestamps_round_trip(self, tmp_path):
        db = ESequenceDatabase.from_event_lists([[(0.5, 2.25, "A")]])
        for fmt, (write, read) in FORMATS.items():
            path = tmp_path / f"float.{fmt}"
            write(db, path)
            assert read(path) == db, fmt

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_text_round_trip_property(self, seed, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("io")
        db = make_random_db(seed, num_sequences=5, point_fraction=0.3)
        path = tmp / "db.txt"
        write_database(db, path)
        assert read_database(path) == db


class TestTextFormatErrors:
    def test_malformed_event(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("A,1\n")
        with pytest.raises(ValueError, match="malformed"):
            read_database(path)

    def test_reserved_label_characters_rejected_on_write(self, tmp_path):
        db = ESequenceDatabase.from_event_lists([[(0, 1, "a,b")]])
        with pytest.raises(ValueError, match="reserved"):
            write_database(db, tmp_path / "x.txt")

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# a comment\nA,0,1\n")
        assert len(read_database(path)) == 1


class TestSpmfErrors:
    def test_missing_terminator(self, tmp_path):
        path = tmp_path / "bad.spmf"
        path.write_text("@ITEM=0=A\n0 1 2 -1\n")
        with pytest.raises(ValueError, match="-2"):
            read_spmf(path)

    def test_unknown_item_id(self, tmp_path):
        path = tmp_path / "bad.spmf"
        path.write_text("5 1 2 -1 -2\n")
        with pytest.raises(ValueError, match="unknown item"):
            read_spmf(path)

    def test_wrong_arity(self, tmp_path):
        path = tmp_path / "bad.spmf"
        path.write_text("@ITEM=0=A\n0 1 -1 -2\n")
        with pytest.raises(ValueError, match="expected"):
            read_spmf(path)


class TestJsonlErrors:
    def test_bad_format_tag(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"_meta": {"format": "other"}}\n')
        with pytest.raises(ValueError, match="format tag"):
            read_jsonl(path)

    def test_missing_events_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"rows": []}\n')
        with pytest.raises(ValueError, match="events"):
            read_jsonl(path)


class TestCsvErrors:
    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)

    def test_negative_sid(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sid,label,start,finish\n-1,A,0,1\n")
        with pytest.raises(ValueError, match="negative sid"):
            read_csv(path)

    def test_sid_gaps_become_empty_sequences(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("sid,label,start,finish\n0,A,0,1\n2,B,0,1\n")
        db = read_csv(path)
        assert len(db) == 3
        assert len(db[1]) == 0


class TestBadUtf8:
    """Bytes that are not UTF-8 fail like other malformed input: a
    ValueError naming the file and line, not a bare codec error."""

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_database_readers_name_the_line(self, fmt, tmp_path):
        write, read = FORMATS[fmt]
        path = tmp_path / f"db.{fmt}"
        write(sample_db(), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines.insert(2, b"\xff\n")
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match=r"db\.\w+:3: not valid UTF-8") as info:
            read(path)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_pattern_reader_names_the_line(self, tmp_path):
        path = tmp_path / "patterns.txt"
        # A truncated tail that splits a multi-byte character.
        path.write_bytes(b"12\t(A+) (A-)\n" + "3\t(\u00e9+)".encode()[:-3])
        with pytest.raises(ValueError, match="patterns.txt:2: not valid UTF-8"):
            read_patterns(path)


#: A pattern list with a float support, a duplicate label and a point.
PATTERNS = [
    PatternWithSupport(TemporalPattern.parse("(A+) (A-)"), 12),
    PatternWithSupport(TemporalPattern.parse("(A+ B+) (A-) (B- C.)"), 3),
    PatternWithSupport(
        TemporalPattern.parse("(A+) (A#2+) (A-) (A#2-)"), 2.5
    ),
]

READERS = {
    **{fmt: read for fmt, (_write, read) in FORMATS.items()},
    "patterns": read_patterns,
}


def write_sample(fmt, path):
    if fmt == "patterns":
        write_patterns(PATTERNS, path)
    else:
        FORMATS[fmt][0](sample_db(), path)


class TestTruncation:
    """A file cut short mid-line either reads or fails with a
    ValueError that names the file, whatever the format."""

    @pytest.mark.parametrize("fmt", sorted(READERS))
    def test_every_mid_line_cut_names_the_file(self, fmt, tmp_path):
        full = tmp_path / f"full.{fmt}"
        write_sample(fmt, full)
        data = full.read_bytes()
        path = tmp_path / f"cut.{fmt}"
        cuts = [n for n in range(1, len(data)) if data[n - 1] != ord("\n")]
        failed = 0
        for cut in cuts:
            path.write_bytes(data[:cut])
            try:
                read = READERS[fmt](path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}:"), (cut, str(exc))
                failed += 1
                continue
            if fmt == "patterns":
                assert all(item.pattern.is_complete for item in read), cut
        assert failed > 0

    def _read_error(self, read, tmp_path, text):
        path = tmp_path / "cut.dat"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read(path)
        return str(info.value).removeprefix(str(path))

    def test_text_cut_time_field(self, tmp_path):
        message = self._read_error(
            read_database, tmp_path, "fever,0,2\nfever,3,9;cough,5,"
        )
        assert message == ":2: could not convert string to float: ''"

    def test_text_cut_finish_before_start(self, tmp_path):
        message = self._read_error(read_database, tmp_path, "cough,5,1")
        assert message.startswith(":1: ")
        assert "finish < start" in message

    def test_csv_cut_time_field(self, tmp_path):
        message = self._read_error(
            read_csv, tmp_path, "sid,label,start,finish\n0,fever,3,"
        )
        assert message == ":2: could not convert string to float: ''"

    def test_spmf_cut_item_line(self, tmp_path):
        message = self._read_error(
            read_spmf, tmp_path, "@CONVERTED_FROM_INTERVALS\n@ITEM=0"
        )
        assert message.startswith(":2: expected '@ITEM=<id>=<label>'")

    def test_jsonl_cut_record_names_its_line(self, tmp_path):
        message = self._read_error(
            read_jsonl,
            tmp_path,
            '{"_meta": {"name": "x"}}\n{"events": [[3, 9, "fe',
        )
        assert message.startswith(":2: not JSON: Unterminated string")

    def test_pattern_cut_inside_pointset(self, tmp_path):
        message = self._read_error(
            read_patterns, tmp_path, "12\t(A+) (A-)\n4\t(A+ B+) (A-"
        )
        assert message == ":2: unterminated pointset in pattern text"

    def test_incomplete_pattern_is_rejected(self, tmp_path):
        message = self._read_error(
            read_patterns, tmp_path, "4\t(A+ B+) (A-)\n"
        )
        assert message == ":1: incomplete pattern '(A+ B+) (A-)'"

    @pytest.mark.parametrize(
        "record",
        ["5", '{"_meta": 5}', '{"events": 5}', '{"events": [[1, 2]]}'],
    )
    def test_jsonl_record_of_the_wrong_shape(self, record, tmp_path):
        message = self._read_error(read_jsonl, tmp_path, record + "\n")
        assert message.startswith(":1: ")


class TestPatternIO:
    def test_pattern_round_trip(self, tmp_path):
        patterns = [
            PatternWithSupport(TemporalPattern.parse("(A+) (A-)"), 12),
            PatternWithSupport(
                TemporalPattern.parse("(A+ B+) (A-) (B- C.)"), 3
            ),
        ]
        path = tmp_path / "patterns.txt"
        write_patterns(patterns, path)
        assert read_patterns(path) == patterns

    def test_float_supports_round_trip(self, tmp_path):
        patterns = [
            PatternWithSupport(TemporalPattern.parse("(A+) (A-)"), 2.5)
        ]
        path = tmp_path / "patterns.txt"
        write_patterns(patterns, path)
        assert read_patterns(path)[0].support == 2.5

    def test_malformed_pattern_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("12 no-tab-here\n")
        with pytest.raises(ValueError, match="support"):
            read_patterns(path)
