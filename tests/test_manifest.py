"""Manifest formatting, parsing, and hashing."""

import hashlib
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from meklerkit import ParseError, format_manifest, parse_manifest, sha256_hex

# every character str.splitlines() breaks at
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# line breaks, whitespace and the format's own syntax, among arbitrary text
tricky_text = st.text(
    alphabet=st.sampled_from(list(LINE_BREAKS + " \t:-ab")) | st.characters(),
    max_size=8,
)
sections_strategy = st.lists(
    st.lists(st.tuples(tricky_text, tricky_text), max_size=4), max_size=4
)


def test_round_trip_single_section():
    section = [("tool", "meklerkit"), ("order", "729"), ("note", "a: b: c")]
    text = format_manifest([section])
    assert text.endswith("\n")
    assert parse_manifest(text) == [section]


def test_round_trip_many_sections_preserves_order():
    rng = random.Random(20240915)
    sections = []
    for _ in range(6):
        n = rng.randrange(1, 5)
        sections.append(
            [(f"k{rng.randrange(100)}", str(rng.randrange(10 ** 6))) for _ in range(n)]
        )
    text = format_manifest(sections)
    assert parse_manifest(text) == sections
    # formatting is a pure function of the input
    assert format_manifest(sections) == text


def test_value_may_contain_colons_key_may_not():
    text = format_manifest([[("path", "/a/b:c"), ("ratio", "1:2:3")]])
    [section] = parse_manifest(text)
    assert section == [("path", "/a/b:c"), ("ratio", "1:2:3")]
    with pytest.raises(ValueError, match="':'"):
        format_manifest([[("bad:key", "v")]])


def test_newlines_rejected():
    with pytest.raises(ValueError, match="single-line"):
        format_manifest([[("k", "line1\nline2")]])
    with pytest.raises(ValueError, match="single-line"):
        format_manifest([[("k\n", "v")]])
    for ch in LINE_BREAKS:
        assert len(f"a{ch}b".splitlines()) == 2
        with pytest.raises(ValueError, match="single-line"):
            format_manifest([[("k", f"a{ch}b")]])


def test_surrounding_whitespace_rejected():
    for key, value in [("k", " a "), ("k", "a "), (" k", "a"), ("k\t", "a")]:
        with pytest.raises(ValueError, match="whitespace"):
            format_manifest([[(key, value)]])
    with pytest.raises(ValueError):
        format_manifest([])


@given(sections_strategy)
@example([[("k", "a\rb")]])
@example([[("k", " a ")]])
@example([[], [("", "")], []])
def test_parse_inverts_format_on_accepted_input(sections):
    try:
        text = format_manifest(sections)
    except ValueError:
        return
    assert parse_manifest(text) == sections


@given(st.text())
@example("a: 1\n---\nb\r: 2\u2028c")
def test_parse_raises_only_parse_error(text):
    try:
        parse_manifest(text)
    except ParseError:
        pass


def test_parse_error_reports_line_number():
    text = "a: 1\n---\nnot a pair\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_manifest(text)


def test_parse_skips_blank_lines():
    assert parse_manifest("a: 1\n\n\nb: 2\n") == [[("a", "1"), ("b", "2")]]


def test_empty_separator_makes_empty_section():
    assert parse_manifest("---\n") == [[], []]


def test_sha256_matches_hashlib():
    assert sha256_hex("abc") == hashlib.sha256(b"abc").hexdigest()
    assert sha256_hex(b"\x00\xff") == hashlib.sha256(b"\x00\xff").hexdigest()
    # well-known value pinned so the helper cannot drift
    assert sha256_hex("") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_non_string_values_coerced():
    text = format_manifest([[("n", 42), ("flag", True)]])
    [section] = parse_manifest(text)
    assert section == [("n", "42"), ("flag", "True")]
