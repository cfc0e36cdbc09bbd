"""Text formats: each parser inverts its formatter and fails only with ParseError."""

import itertools

from hypothesis import example, given
from hypothesis import strategies as st

from meklerkit import (
    Graph,
    ParseError,
    Perm,
    PermGroup,
    build_mekler,
    format_graph,
    format_group,
    format_pc_element,
    format_perm,
    parse_graph,
    parse_group,
    parse_pc_element,
    parse_perm,
    path_graph,
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


@st.composite
def pc_elements(draw):
    pc = build_mekler(draw(graphs(max_n=5)), draw(st.sampled_from([3, 5, 2**31 - 1])))
    coords = st.integers(0, pc.p - 1)
    return pc.element(
        draw(st.lists(coords, min_size=pc.n, max_size=pc.n)),
        draw(st.lists(coords, min_size=pc.num_pairs, max_size=pc.num_pairs)),
    )


@given(st.integers(0, 9).flatmap(perms))
def test_parse_perm_inverts_format(p):
    assert parse_perm(format_perm(p)) == p


@given(groups())
def test_parse_group_inverts_format(g):
    back = parse_group(format_group(g))
    assert (back.degree, back.gens) == (g.degree, g.gens)


@given(pc_elements())
def test_parse_pc_element_inverts_format(u):
    assert parse_pc_element(u.group, format_pc_element(u)) == u


@given(graphs())
def test_parse_graph_inverts_format(g):
    assert parse_graph(format_graph(g)) == g


# the formats' own syntax among arbitrary text, and near-valid lines of each format
syntax_text = st.text(
    alphabet=st.sampled_from(list("pgraphcmeuo :=[],#-0123456789\n")) | st.characters()
) | st.from_regex(
    r"\A(perm [0-3]:( -?[0-9])*|p gr(oup|aph) [0-3]\n([ge]:?( -?[0-9])*\n)*"
    r"|pc a=\[(-?[0-9],?)*\] b=\[(-?[0-9],?)*\])\Z"
)
PC = build_mekler(path_graph(3), 3)


@given(syntax_text)
@example("perm 0:")
@example("perm 2: 1 1")
@example("p group 2\ng: 1 0\ng: 0 0")
@example("p graph 3\ne 0 1\ne 1 0")
@example("pc a=[1,2,3] b=[4]")
def test_parsers_raise_only_parse_error(text):
    for parse in (parse_graph, parse_group, parse_perm,
                  lambda t: parse_pc_element(PC, t)):
        try:
            parse(text)
        except ParseError:
            pass
