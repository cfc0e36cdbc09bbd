"""Text formats: each parser inverts its formatter and fails only with ParseError."""

import itertools

from hypothesis import example, given
from hypothesis import strategies as st

from meklerkit import (
    Graph,
    ParseError,
    Perm,
    PermGroup,
    format_graph,
    format_group,
    parse_graph,
    parse_group,
)


def perms(degree: int):
    return st.permutations(range(degree)).map(Perm)


@st.composite
def graphs(draw, max_n: int = 7):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs))) if pairs else [])


@st.composite
def groups(draw):
    degree = draw(st.integers(1, 9))
    return PermGroup(degree, draw(st.lists(perms(degree), max_size=4)))


@given(groups())
def test_parse_group_inverts_format(g):
    back = parse_group(format_group(g))
    assert (back.degree, back.gens) == (g.degree, g.gens)


@given(graphs())
def test_parse_graph_inverts_format(g):
    assert parse_graph(format_graph(g)) == g


# the formats' own syntax among arbitrary text, and near-valid lines of each format
syntax_text = st.text(
    alphabet=st.sampled_from(list("pgraheou :#-0123456789\n")) | st.characters()
) | st.from_regex(r"\Ap gr(oup|aph) [0-3]\n([ge]:?( -?[0-9])*\n)*\Z")


@given(syntax_text)
@example("p group 2\ng: 1 0\ng: 0 0")
@example("p graph 3\ne 0 1\ne 1 0")
def test_parsers_raise_only_parse_error(text):
    for parse in (parse_graph, parse_group):
        try:
            parse(text)
        except ParseError:
            pass
