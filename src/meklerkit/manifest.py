"""Deterministic `key: value` manifests with `---` section separators.

Byte-for-byte reproducibility is part of the contract: no timestamps, no
machine names, insertion order preserved exactly as written.
"""

from __future__ import annotations

import hashlib

from .errors import ParseError

Section = list[tuple[str, str]]


def format_manifest(sections: list[Section]) -> str:
    """Text that `parse_manifest` reads back as exactly `sections`.

    Raises ValueError for input it could not read back: no sections, a key
    containing ':', a line break inside an entry, or leading or trailing
    whitespace around a key or value.
    """
    if not sections:
        raise ValueError("a manifest has at least one section")
    blocks = []
    for section in sections:
        lines = []
        for key, value in section:
            key = str(key)
            value = str(value)
            if ":" in key:
                raise ValueError(f"manifest key may not contain ':': {key!r}")
            line = f"{key}: {value}"
            # the parser splits with str.splitlines(), which breaks at more
            # than "\n"; a trailing break is caught as whitespace below
            if len(line.splitlines()) != 1:
                raise ValueError("manifest entries must be single-line")
            if key != key.strip() or value != value.strip():
                raise ValueError(
                    f"manifest entry has leading or trailing whitespace: "
                    f"{key!r}: {value!r}"
                )
            lines.append(line)
        blocks.append("\n".join(lines))
    return ("\n---\n".join(blocks)) + "\n"


def parse_manifest(text: str) -> list[Section]:
    sections: list[Section] = [[]]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if line == "---":
            sections.append([])
            continue
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"expected `key: value`, got {line!r}", lineno)
        key, _, value = line.partition(":")
        sections[-1].append((key.strip(), value.strip()))
    return sections


def sha256_hex(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()
