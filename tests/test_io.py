"""Tests for set-system serialization."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.setsystem import (
    SetSystem,
    dumps_json,
    dumps_text,
    load,
    load_rows,
    loads_json,
    loads_text,
    save,
)


def small_systems():
    return st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1)),
            min_size=0,
            max_size=8,
        ).map(lambda sets: SetSystem(n, sets))
    )


class TestText:
    def test_roundtrip(self, tiny_system):
        assert loads_text(dumps_text(tiny_system)) == tiny_system

    def test_format(self):
        text = dumps_text(SetSystem(3, [[2, 0], []]))
        assert text.splitlines() == ["3 2", "0 2", ""]

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            loads_text("")

    def test_malformed_header(self):
        with pytest.raises(ValueError):
            loads_text("3\n0 1\n")

    def test_missing_lines(self):
        with pytest.raises(ValueError):
            loads_text("3 2\n0 1\n")


class TestJson:
    def test_roundtrip(self, tiny_system):
        assert loads_json(dumps_json(tiny_system)) == tiny_system

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            loads_json('{"n": 3}')


class TestFiles:
    def test_text_file(self, tmp_path, tiny_system):
        path = tmp_path / "instance.txt"
        save(tiny_system, path)
        assert load(path) == tiny_system

    def test_json_file(self, tmp_path, tiny_system):
        path = tmp_path / "instance.json"
        save(tiny_system, path)
        assert load(path) == tiny_system


class TestRows:
    """`load_rows` is the one parser: rows come back as the document
    holds them, and `load` is `SetSystem(*load_rows(path))`."""

    @pytest.mark.parametrize("name, document", [
        ("inst.json", '{"n": 4, "sets": [[3, 0, 3], [], [2, true]]}'),
        ("inst.txt", "4 3\n3 0 3\n\n2 1\n"),
    ])
    def test_rows_as_written(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(document)
        n, rows = load_rows(path)
        assert n == 4 and rows[:2] == [[3, 0, 3], []]
        assert load(path) == SetSystem(n, rows) == SetSystem(4, [[0, 3], [], [1, 2]])

    @pytest.mark.parametrize("n", ["2.7", '"3"', "true", "null", "[3]"])
    def test_json_n_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="'n' must be an integer"):
            loads_json(f'{{"n": {n}, "sets": [[0]]}}')

    @pytest.mark.parametrize("sets, message", [
        ("5", "'sets' must be an array of sets, got int"),
        ('{"0": [1]}', "'sets' must be an array of sets, got dict"),
        ("[5]", "set 0 is not a collection of elements"),
        ("[[0], 1.5]", "set 1 is not a collection of elements"),
        ('[[0], ["1"]]', "set 1 contains a non-integer element"),
    ])
    def test_json_sets_malformed(self, sets, message):
        with pytest.raises(ValueError, match=message):
            loads_json(f'{{"n": 3, "sets": {sets}}}')


@given(small_systems())
def test_text_roundtrip_property(system):
    assert loads_text(dumps_text(system)) == system


@given(small_systems())
def test_json_roundtrip_property(system):
    assert loads_json(dumps_json(system)) == system
