import contextlib
import io
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toposig import graph as g


def parse(text, **kw):
    return g.parse_links(io.StringIO(text), **kw)


def parse_edges(text, **kw):
    return g.parse_edges_tsv(io.StringIO(text), **kw)


NO_KEYS, NO_ARITIES = np.empty(0, np.uint64), np.empty(0, np.int64)


def one_run(raw):
    """The runs of a classifier that keys no line of the block ``raw``: one run of them all."""
    return [(0, 0, len(raw) - 1)]


def no_keyed_links():
    """Every line of a links file through the per-line body."""
    return mock.patch.object(g, "_link_lines", lambda raw: (NO_KEYS, NO_ARITIES, one_run(raw)))


def no_keyed_edges():
    """Every line of an edge TSV through the per-line body."""
    return mock.patch.object(g, "_edge_lines", lambda raw: (NO_KEYS, one_run(raw)))


def edge_set(graph):
    """The graph's edges as name pairs, each sorted."""
    src, dst = graph.edge_id_pairs()
    names = graph.names
    return {tuple(sorted((names[a], names[b]))) for a, b in zip(src.tolist(), dst.tolist())}


# ---------------------------------------------------------------------------
# link parsing
# ---------------------------------------------------------------------------

def test_three_router_link_clique_expands():
    graph = g.build_graph(parse("link L1: N1:1.2.3.4 N2 N3:5.6.7.8\n"))
    assert edge_set(graph) == {("N1", "N2"), ("N1", "N3"), ("N2", "N3")}


def test_self_pair_dropped():
    el = parse("link L2: N7 N7\n")
    graph = g.build_graph(el)
    assert graph.m == 0
    assert graph.names == ("N7",)
    assert el.self_pairs_dropped == 1


def test_duplicate_link_lines_dedup():
    el = parse("link L1: N1 N2\nlink L2: N1 N2\nlink L3: N2 N1\n")
    assert edge_set(g.build_graph(el)) == {("N1", "N2")}
    assert el.duplicate_pairs_dropped == 2


@pytest.mark.parametrize("r", [2, 3, 4, 5, 8])
def test_clique_expansion_pair_count(r):
    members = " ".join(f"N{i}" for i in range(r))
    el = parse(f"link L1: {members}\n")
    assert el.raw_pair_count == math.comb(r, 2)
    assert g.build_graph(el).m == math.comb(r, 2)


def test_single_member_link_keeps_isolated_node():
    graph = g.build_graph(parse("link L1: N1 N2\nlink L2: N9\n"))
    assert graph.names == ("N1", "N2", "N9")
    assert graph.degrees[graph.names.index("N9")] == 0


def test_comments_and_blank_lines_skipped():
    el = parse("# header\n\nlink L1: N1 N2\n   \n# trailing\n")
    assert g.build_graph(el).m == 1
    assert el.malformed_lines == 0


def test_malformed_lines_counted_not_fatal():
    el = parse("link L1: N1 N2\ngarbage\nlink N3 N4\nlink L2:\n")
    assert g.build_graph(el).m == 1
    assert el.malformed_lines == 3


def test_strict_mode_raises_with_line_number():
    with pytest.raises(g.ParseError) as exc:
        parse("link L1: N1 N2\nnot a link\n", strict=True)
    assert exc.value.line_no == 2


def test_interface_suffix_ignored():
    graph = g.build_graph(parse("link L1: N1:10.0.0.1 N2:10.0.0.2\n"))
    assert edge_set(graph) == {("N1", "N2")}


# ---------------------------------------------------------------------------
# both parsers against a brute-force oracle
# ---------------------------------------------------------------------------
# A line is drawn as (kind, members, text): kind "record" lines carry the
# member names they mention (an edge line is a two-member record), "skip"
# lines are blank or comments, "bad" lines are malformed.

SKIP = st.sampled_from(["", "   ", "\t", "# comment", "#a\tb"]).map(lambda t: ("skip", None, t))


def oracle(tagged):
    """Names, edges, counters and first bad line number, by brute force."""
    names, edges = set(), set()
    raw = self_pairs = malformed = 0
    first_bad = None
    for line_no, (kind, members, _) in enumerate(tagged, start=1):
        if kind == "bad":
            malformed += 1
            first_bad = first_bad or line_no
        elif kind == "record":
            distinct = set(members)
            names |= distinct
            self_pairs += len(members) - len(distinct)
            raw += math.comb(len(distinct), 2)
            edges |= {(a, b) for a in distinct for b in distinct if a < b}
    return names, edges, (raw, self_pairs, raw - len(edges), malformed), first_bad


def check_parser_against_oracle(parser, tagged, final_newline=True):
    text = "\n".join(line for _, _, line in tagged) + ("\n" if final_newline and tagged else "")
    names, edges, counters, first_bad = oracle(tagged)
    el = parser(io.StringIO(text))
    got = (el.raw_pair_count, el.self_pairs_dropped, el.duplicate_pairs_dropped, el.malformed_lines)
    assert got == counters
    assert all(type(c) is int for c in got)
    if names:
        graph = g.build_graph(el)
        assert graph.names == tuple(sorted(names))
        assert edge_set(graph) == edges
        assert graph.m == len(edges)
    else:
        with pytest.raises(ValueError):
            g.build_graph(el)
    if first_bad is None:
        strict = parser(io.StringIO(text), strict=True)
        assert strict.ids == el.ids
        assert strict.src.tolist() == el.src.tolist() and strict.dst.tolist() == el.dst.tolist()
    else:
        with pytest.raises(g.ParseError) as exc:
            parser(io.StringIO(text), strict=True)
        assert exc.value.line_no == first_bad


EDGE_NAME = st.sampled_from(["a", "b", "c", "d", "e", "f"])
EDGE_LINE = st.one_of(
    st.tuples(EDGE_NAME, EDGE_NAME, st.sampled_from(["", " "])).map(
        lambda t: ("record", [t[0], t[1]], f"{t[2]}{t[0]}\t{t[1]}{t[2]}")
    ),
    SKIP,
    # one field, three fields, an empty field
    st.tuples(
        st.sampled_from(["{0}", "{0}\t{1}\t{0}", "{0}\t", "\t{1}", "{0}\t\t{1}"]),
        EDGE_NAME,
        EDGE_NAME,
    ).map(lambda t: ("bad", None, t[0].format(t[1], t[2]))),
)


@given(st.lists(EDGE_LINE, max_size=30))
@settings(max_examples=200, deadline=None)
def test_edges_tsv_matches_oracle(tagged):
    check_parser_against_oracle(g.parse_edges_tsv, tagged)


# names across the 8-byte key limit, and a router whose records all repeat it
LINK_NAME = st.sampled_from(["N1", "N2", "N3", "N4", "N5", "N12345678", "N123456789", "N7"])
LINK_MEMBER = st.tuples(
    LINK_NAME,
    st.one_of(
        st.just(""),
        st.tuples(*[st.integers(0, 255)] * 4).map(lambda q: ":" + ".".join(map(str, q))),
    ),
)
LINK_SPACE = st.sampled_from([" ", "  ", "\t", " \t "])
BAD_LINKS = [
    "garbage", "link N3 N4", "link L9:", "link L9: X1 N2", "link L9 N1 N2", "link L9: N1:1.2.3",
    # member grammar
    "link L9: N1:1.2.3.4444", "link L9: N1:1..2.3", "link L9: N1:1.2.3.", "link L9: N:1.2.3.4",
    "link L9: N1:", "link L9: n1", "link L9: N1a", "link L9: N1:1.2.3.4:5", "link L9: N1:1.2.3.4.5",
    "link L9: N1:123.123.123.1234", "link L9: N:a.b:1.2.3.4",
    # keywords and ids, and digits that are not ASCII
    "lnk L9: N1 N2", "LINK L9: N1 N2", "links L9: N1 N2", "link L9 N1", "link : N1 N2",
    "link L9: N\u0661 N1", "link L9: N1:\u0661.2.3.4 N2",
    # a control byte that str.split splits at and numpy would not
    "link L\x0b9: N1 N2",
]
BAD_LINK = st.sampled_from(BAD_LINKS).map(lambda t: ("bad", None, t))
LINK_SKIP = st.one_of(
    SKIP, st.sampled_from(["  # indented", "\t#", "\r"]).map(lambda t: ("skip", None, t))
)


@st.composite
def link_lines(draw):
    records = draw(st.lists(st.lists(LINK_MEMBER, min_size=1, max_size=5), min_size=1, max_size=6))
    records.append([("N7", ""), ("N7", ":1.2.3.4")])  # one router, as its only record
    picks = draw(st.lists(st.one_of(
        st.tuples(st.integers(0, len(records) - 1), LINK_SPACE, st.sampled_from(["", " ", "\r"])),
        LINK_SKIP,
        BAD_LINK,
    ), max_size=20))
    tagged = []
    for pick in picks:
        if isinstance(pick[0], int):  # records repeat whenever an index is drawn twice
            index, space, end = pick
            members = records[index]
            text = f"link L{index}:{space}" + space.join(name + suffix for name, suffix in members)
            pick = ("record", [name for name, _ in members], text + end)
        tagged.append(pick)
    return tagged


@given(link_lines(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_links_match_oracle(tagged, final_newline):
    for block_chars in (16, 64, 1 << 20):  # reads cut through records at the first two
        with mock.patch.object(g, "_BLOCK_CHARS", block_chars):
            check_parser_against_oracle(g.parse_links, tagged, final_newline)
            with no_keyed_links():
                check_parser_against_oracle(g.parse_links, tagged, final_newline)


@pytest.mark.parametrize("bad", BAD_LINKS)
def test_each_bad_link_line_is_malformed(bad):
    text = f"link L1: N1 N2\n{bad}\nlink L2: N2 N3\n"
    assert parse(text).malformed_lines == 1
    with pytest.raises(g.ParseError) as exc:
        parse(text, strict=True)
    assert exc.value.line_no == 2


@pytest.mark.parametrize("per_line", [False, True])
def test_a_non_ascii_link_id_is_read_per_line(per_line):
    # "\u3000" is whitespace to str.split: "L" and "x:" are two tokens
    text = "link L1: N1 N2\nlink L\u00e9: N2 N3\nlink L\u3000x: N3 N4\nlink L2: N4 N5\n"
    with no_keyed_links() if per_line else contextlib.nullcontext():
        el = parse(text)
        assert el.malformed_lines == 1
        assert edge_set(g.build_graph(el)) == {("N1", "N2"), ("N2", "N3"), ("N4", "N5")}
        with pytest.raises(g.ParseError, match="bad link record") as exc:
            parse(text, strict=True)
        assert exc.value.line_no == 3


@pytest.mark.parametrize("member", ["N\u0661", "N1:\u0661.2.3.4", "N1:1.2.3.\u0664", "N\uff11"])
def test_member_digits_are_ascii(member):
    text = f"link L1: N1 N2\nlink L2: {member} N1\n"
    el = parse(text)
    assert el.malformed_lines == 1
    assert sorted(el.ids) == ["N1", "N2"]
    with pytest.raises(g.ParseError) as exc:
        parse(text, strict=True)
    assert exc.value.line_no == 2


# ---------------------------------------------------------------------------
# block reading of the edge TSV
# ---------------------------------------------------------------------------

def per_line_edges(text):
    """The edge parser as one strip and split per line of the stream (no blocks)."""
    el = g.EdgeList()
    pairs = []
    for raw in io.StringIO(text):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            el.malformed_lines += 1
            continue
        a = el.ids.setdefault(parts[0], len(el.ids))
        b = el.ids.setdefault(parts[1], len(el.ids))
        if a == b:
            el.self_pairs_dropped += 1
        else:
            pairs += (a, b)
    return el.finalize([np.array(pairs, dtype=np.int64)])


def edge_list_state(el):
    """What a parse says about the file, without its provisional numbering."""
    names = list(el.ids)
    pairs = {
        tuple(sorted((names[a], names[b])))
        for a, b in zip(el.src.tolist(), el.dst.tolist())
    }
    counters = (
        el.raw_pair_count, el.self_pairs_dropped, el.duplicate_pairs_dropped, el.malformed_lines
    )
    return set(names), pairs, len(el.src), counters


# names across the 8-byte key limit, shared prefixes, and names no bare block holds
ODD_NAME = st.sampled_from(
    ["a", "a0", "ab", "abcdefgh", "abcdefghi", "N1234567", "N12345678", "b", "N1",
     "x ", " y", "#a", "\x85", "z\x85"]
)
MIXED_LINE = st.one_of(
    st.tuples(ODD_NAME, ODD_NAME).map("\t".join),
    st.tuples(ODD_NAME, ODD_NAME).map(lambda t: f"{t[0]}\t{t[1]}\r"),  # CRLF
    st.sampled_from(
        ["", "   ", "\r", "# comment", "#a\tb", "a", "a\tb\tc", "a\t", "\tb", "a\t\x0bb"]
    ),
)


@given(
    st.lists(MIXED_LINE, max_size=40),
    st.booleans(),
    st.one_of(st.integers(1, 40), st.just(1 << 23)),
)
@settings(max_examples=300, deadline=None)
def test_block_path_matches_per_line_path(lines, final_newline, block_chars):
    text = "\n".join(lines) + ("\n" if final_newline and lines else "")
    want = edge_list_state(per_line_edges(text))
    with mock.patch.object(g, "_BLOCK_CHARS", block_chars):
        assert edge_list_state(parse_edges(text)) == want
        with no_keyed_edges():
            assert edge_list_state(parse_edges(text)) == want


@pytest.mark.parametrize("block_chars", [9, 64, 1 << 20])
def test_short_plain_names_are_numbered_in_name_order(block_chars):
    rng = np.random.default_rng(3)
    alphabet = ["a", "a0", "ab", "abcdefgh", "N1234567", "N2", "Z", "~~~~~~~~"]
    names = alphabet + [f"N{i}" for i in rng.permutation(200)]
    pairs = rng.choice(names, size=(300, 2))
    text = "".join(f"{a}\t{b}\n" for a, b in pairs)
    with mock.patch.object(g, "_BLOCK_CHARS", block_chars):
        el = parse_edges(text)
    assert list(el.ids) == sorted(set(pairs.ravel().tolist()))


def test_build_graph_names_are_sorted():
    assert g.build_graph(parse_edges("b\ta\na\tc\n")).names == ("a", "b", "c")


def per_line_lines(text):
    """The lines of ``text`` that the edge parser hands to its per-line body, and the parse."""
    seen = []

    def spy(lines, *args):
        lines = list(lines)
        seen.extend(lines)
        return per_line_body(lines, *args)

    per_line_body = g._records
    with mock.patch.object(g, "_records", spy):
        el = parse_edges(text)
    return seen, el


GOOD_EDGES = "a\tb\nN1\tN2\nx\tx\n"


def test_edge_lines_key_only_bare_records():
    for bad in (
        "#a\tb", " a\tb", "a\tb ", "a\tb\r", "a\t\tb", "a", "", "a\tb\tc", "\ta", "a\t",
        "a\x0bb\tc", "abcdefghi\tb",
    ):
        text = f"{GOOD_EDGES}{bad}\n{GOOD_EDGES}"
        keys, runs = g._edge_lines(np.frombuffer(text.encode(), np.uint8))
        names = keys.astype(">u8").view("S8").astype(str).tolist()
        assert names == ["a", "b", "N1", "N2", "x", "x"] * 2, bad  # the good lines stay keyed
        # the bad line alone is left to the per-line body, unless it is a comment
        comment = bad.startswith("#")
        assert runs == ([] if comment else [(3, len(GOOD_EDGES), len(GOOD_EDGES) + len(bad))]), bad
        assert per_line_lines(text)[0] == ([] if comment else [bad]), bad
    for bad in ("\x85a\tb", "a\x85\tb"):  # a line that is not ASCII goes per-line alone
        seen, _ = per_line_lines(f"{GOOD_EDGES}{bad}\n{GOOD_EDGES}")
        assert seen == [bad], bad


def test_only_the_odd_edge_lines_reach_the_per_line_body():
    lines = [f"N{i}\tN{i + 1}" for i in range(1000)]
    lines[10] = "# a comment"
    lines[300] = "  # an indented comment"
    lines[700] = "N12345678\tN1"
    seen, el = per_line_lines("\n".join(lines) + "\n")
    assert seen == [lines[300], lines[700]]
    assert el.malformed_lines == 0 and len(el.src) == 998 and "N12345678" in el.ids


def test_only_the_non_ascii_edge_lines_reach_the_per_line_body():
    lines = [f"N{i}\tN{i + 1}" for i in range(1000)]
    lines[500] = "N500\tN\u00e9"
    lines[600] = "N600\t\udc80"  # a lone surrogate, as "surrogateescape" decodes a bad byte
    text = "\n".join(lines) + "\n"
    seen, el = per_line_lines(text)
    assert seen == [lines[500], lines[600]]
    assert el.malformed_lines == 0 and len(el.src) == 1000 and {"N\u00e9", "\udc80"} <= set(el.ids)
    assert edge_list_state(el) == edge_list_state(per_line_edges(text))


@pytest.mark.parametrize("block_chars", [1, 3, 7, 64])
@pytest.mark.parametrize("bad_line", [1, 2, 9, 10])
def test_strict_line_number_across_blocks(block_chars, bad_line):
    lines = [f"N{i}\tN{i + 1}" for i in range(10)]
    lines[bad_line - 1] = "N1 N2"
    text = "\n".join(lines)  # the bad line may be the last, with no newline
    with mock.patch.object(g, "_BLOCK_CHARS", block_chars):
        with pytest.raises(g.ParseError) as exc:
            parse_edges(text, strict=True)
        assert exc.value.line_no == bad_line
        assert parse_edges(text).malformed_lines == 1


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

def test_path_graph_degrees():
    graph = g.build_graph(parse_edges("a\tb\nb\tc\n"))
    assert [graph.degrees[graph.names.index(x)] for x in ("a", "b", "c")] == [1, 2, 1]


def test_triangle():
    el = parse("link L1: N1 N2 N3\n")
    graph = g.build_graph(el)
    assert graph.m == 3
    assert list(graph.degrees) == [2, 2, 2]


def test_empty_edge_list_rejected():
    with pytest.raises(ValueError):
        g.build_graph(g.EdgeList())


def test_ids_follow_lexicographic_name_order():
    el = parse("link L1: N9 N10\nlink L2: N10 N2\n")
    graph = g.build_graph(el)
    assert graph.names == tuple(sorted(graph.names))
    assert all(graph.names.index(n) == i for i, n in enumerate(graph.names))


def test_degrees_match_bruteforce_recount():
    rng = np.random.default_rng(5)
    names = [f"N{i}" for i in range(30)]
    raw_pairs = [
        (names[a], names[b])
        for a, b in rng.integers(0, 30, size=(120, 2))
        if a != b
    ]
    graph = g.build_graph(parse_edges("".join(f"{a}\t{b}\n" for a, b in raw_pairs)))
    # independent recount straight from the raw pair list
    count = {}
    seen = set()
    for a, b in raw_pairs:
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        count[a] = count.get(a, 0) + 1
        count[b] = count.get(b, 0) + 1
    for node, name in enumerate(graph.names):
        assert graph.degrees[node] == count.get(name, 0)
    assert graph.degrees.sum() == 2 * graph.m


@given(
    st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)),
        min_size=1,
        max_size=60,
    )
)
def test_adjacency_symmetric_and_degree_sum(int_pairs):
    graph = g.build_graph(parse_edges("".join(f"N{a}\tN{b}\n" for a, b in int_pairs)))
    assert int(graph.degrees.sum()) == 2 * graph.m
    row = np.repeat(np.arange(graph.n), graph.degrees)
    assert np.all(row != graph.indices)
    keys = row * graph.n + graph.indices
    assert np.all(np.diff(keys) > 0)  # each row sorted and distinct
    src, dst = graph.edge_id_pairs()
    both = np.concatenate([src * graph.n + dst, dst * graph.n + src])
    assert np.array_equal(np.sort(both), keys)  # each edge in both of its rows


def test_id_edge_constructor_matches_build_graph():
    el = parse("link L1: N1 N2 N3\nlink L2: N3 N4\nlink L3: N5\n")
    built = g.build_graph(el)
    names = list(built.names)  # N1 .. N5, N5 isolated
    ids = {name: i for i, name in enumerate(names)}
    pairs = [("N3", "N4"), ("N2", "N1"), ("N1", "N3"), ("N3", "N2")]  # any order, either way round
    src = [ids[a] for a, _ in pairs]
    dst = [ids[b] for _, b in pairs]
    graph = g.graph_from_id_edges(names, src, dst)
    assert graph.equals(built)
    assert graph.degrees.tolist() == [2, 2, 3, 1, 0]
    assert not graph.indices.flags.writeable


def test_id_edge_constructor_without_edges():
    graph = g.graph_from_id_edges(["a", "b"], [], [])
    assert (graph.n, graph.m) == (2, 0)
    assert graph.degrees.tolist() == [0, 0] and graph.indices.tolist() == []


@pytest.mark.parametrize(
    "src, dst, message",
    [
        ([0, 1], [1, 1], "self-loop"),
        ([0, 2], [2, 0], "duplicate"),
        ([0], [3], "outside"),
        ([-1], [0], "outside"),
    ],
)
def test_id_edge_constructor_rejects_non_simple_edges(src, dst, message):
    with pytest.raises(ValueError, match=message):
        g.graph_from_id_edges(["a", "b", "c"], src, dst)


@given(st.permutations(range(6)))
def test_line_order_invariance(order):
    lines = [
        "link L1: N1 N2 N3",
        "link L2: N3 N4",
        "link L3: N5 N1",
        "link L4: N2 N6",
        "link L5: N6 N6",
        "link L6: N7",
    ]
    base = g.build_graph(parse("\n".join(lines) + "\n"))
    shuffled = g.build_graph(parse("\n".join(lines[i] for i in order) + "\n"))
    assert base.equals(shuffled)
    assert base.names == shuffled.names


def test_canonical_tsv_round_trip_byte_identical():
    el = parse("link L1: N1 N2 N3\nlink L2: N3 N4\nlink L3: N9\n")
    graph = g.build_graph(el)
    edges_out, nodes_out = io.StringIO(), io.StringIO()
    g.write_edges_tsv(graph, edges_out)
    g.write_nodes_tsv(graph, nodes_out)

    el2 = g.parse_edges_tsv(io.StringIO(edges_out.getvalue()))
    g.parse_nodes_tsv(io.StringIO(nodes_out.getvalue()), el2)
    graph2 = g.build_graph(el2)
    assert graph.equals(graph2)

    edges_again = io.StringIO()
    g.write_edges_tsv(graph2, edges_again)
    assert edges_again.getvalue() == edges_out.getvalue()


def fstring_edges_tsv(graph):
    """The edge TSV written one f-string per row."""
    src, dst = graph.edge_id_pairs()
    names = graph.names
    return "".join(f"{names[a]}\t{names[b]}\n" for a, b in zip(src.tolist(), dst.tolist()))


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_write_edges_tsv_matches_fstring_rows(pairs, chunk):
    names = sorted(["#a", "x ", "\x85", " ", "N1", "é"])
    edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    graph = g.graph_from_id_edges(names, [a for a, _ in edges], [b for _, b in edges])
    out = io.StringIO()
    with mock.patch.object(g, "_CHUNK_NODES", chunk):
        g.write_edges_tsv(graph, out)
    assert out.getvalue() == fstring_edges_tsv(graph)


def test_write_edges_tsv_transient_memory_is_below_the_neighbor_ids():
    n = 200_000
    a, b = np.random.default_rng(5).integers(0, n, size=(2, 1_000_000))
    keep = a != b
    keys = np.unique(np.minimum(a[keep], b[keep]) * n + np.maximum(a[keep], b[keep]))
    graph = g.graph_from_id_edges([f"N{i:06d}" for i in range(n)], keys // n, keys % n)
    assert graph.m >= 500_000
    with open(os.devnull, "w") as out:
        tracemalloc.start()
        try:
            g.write_edges_tsv(graph, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one node range's ids and rows are alive at a time, not the whole graph's
    assert peak < graph.indices.nbytes


def test_edges_tsv_sorted_with_name_a_less_than_b():
    el = parse("link L1: N5 N3 N1\n")
    graph = g.build_graph(el)
    out = io.StringIO()
    g.write_edges_tsv(graph, out)
    rows = [line.split("\t") for line in out.getvalue().splitlines()]
    assert all(a < b for a, b in rows)
    assert rows == sorted(rows)


# ---------------------------------------------------------------------------
# geolocation labels
# ---------------------------------------------------------------------------

def test_geo_parse_basic():
    labels = g.parse_geo(io.StringIO("N5\tUS\tMD\nN6\tFR\t\n"))
    assert labels.country == {"N5": "US", "N6": "FR"}
    assert labels.region == {"N5": "MD"}


def test_geo_region_without_country_rejected():
    labels = g.parse_geo(io.StringIO("N1\t\tMD\nN2\tUS\t\n"))
    assert labels.rejected == 1
    assert labels.country == {"N2": "US"}


def level_tallies(codes):
    """Counts of (unlabeled, country-only, country-and-region) nodes."""
    none = int(np.sum(codes[:, 0] < 0))
    both = int(np.sum(codes[:, 1] >= 0))
    return none, len(codes) - none - both, both


def test_geo_level_tallies():
    graph = g.build_graph(parse("link L1: N1 N2 N3 N4 N5\n"))
    labels = g.parse_geo(io.StringIO("N1\tUS\tMD\nN2\tUS\t\nN3\tFR\tIDF\n"))
    codes, countries, regions, unmatched = g.label_codes(graph, labels)
    assert level_tallies(codes) == (2, 1, 2)
    assert (countries, regions, unmatched) == (["FR", "US"], ["FR/IDF", "US/MD"], 0)
    assert codes.tolist() == [[1, 1], [1, -1], [0, 0], [-1, -1], [-1, -1]]


def test_geo_unmatched_names_reported():
    el = parse("link L1: N1 N2\n")
    graph = g.build_graph(el)
    labels = g.parse_geo(io.StringIO("N1\tUS\tMD\nN99\tFR\tIDF\nN98\tDE\t\n"))
    codes, countries, regions, unmatched = g.label_codes(graph, labels)
    assert level_tallies(codes) == (1, 0, 1) and unmatched == 2
    # the tables hold only groups with a node in the graph
    assert (countries, regions) == (["US"], ["US/MD"])


def test_country_and_region_groups():
    el = parse("link L1: N1 N2\nlink L2: N3 N4\n")
    graph = g.build_graph(el)
    labels = g.parse_geo(io.StringIO("N1\tUS\tMD\nN2\tUS\tMD\nN3\tUS\tVA\nN4\tFR\t\n"))
    cg = g.country_groups(graph, labels)
    assert set(cg) == {"US", "FR"}
    assert len(cg["US"]) == 3
    rg = g.region_groups(graph, labels)
    assert set(rg) == {"US/MD", "US/VA"}


def dict_groups(graph, keyed):
    """Sorted node-id sets of the graph's names from ``(name, group key)`` pairs,
    built with a dict: the reference for ``label_codes`` + ``code_groups``.
    """
    ids = {name: node for node, name in enumerate(graph.names)}
    groups = {}
    for name, key in keyed:
        node = ids.get(name)
        if node is not None:
            groups.setdefault(key, []).append(node)
    return {k: np.array(sorted(v), dtype=np.int64) for k, v in sorted(groups.items())}


GRAPH_NAMES = [f"N{i}" for i in range(8)]
LABEL_RECORDS = st.dictionaries(
    st.sampled_from(GRAPH_NAMES + ["X1", "X2"]),  # X1, X2 are not in the graph
    st.tuples(st.sampled_from(["US", "FR", "DE"]), st.sampled_from(["", "MD", "VA"])),
    max_size=10,
)


# unmatched names, countries without a region, and an empty region level at once
@example({"X1": ("US", "MD"), "N1": ("FR", ""), "N5": ("US", "")})
@given(LABEL_RECORDS)
@settings(max_examples=100, deadline=None)
def test_label_codes_groups_match_dict_groups(records):
    graph = g.graph_from_id_edges(GRAPH_NAMES, [0, 1, 2], [1, 2, 7])
    labels = g.GeoLabels(
        country={name: country for name, (country, _) in records.items()},
        region={name: region for name, (_, region) in records.items() if region},
    )
    codes, countries, regions, unmatched = g.label_codes(graph, labels)
    assert codes.dtype == np.int32 and codes.shape == (graph.n, 2)
    assert unmatched == sum(name not in graph.names for name in records)
    region_keyed = [(name, f"{labels.country[name]}/{r}") for name, r in labels.region.items()]
    for column, table, keyed, library in (
        (0, countries, labels.country.items(), g.country_groups(graph, labels)),
        (1, regions, region_keyed, g.region_groups(graph, labels)),
    ):
        expected = dict_groups(graph, keyed)
        assert table == list(expected)
        for got in (g.code_groups(codes[:, column], table), library):
            assert list(got) == list(expected)
            for key, nodes in got.items():
                assert nodes.dtype == np.int64 and np.array_equal(nodes, expected[key])


def test_geo_round_trip():
    labels = g.parse_geo(io.StringIO("N2\tUS\t\nN1\tUS\tMD\n"))
    out = io.StringIO()
    g.write_geo_tsv(labels, out)
    again = g.parse_geo(io.StringIO(out.getvalue()))
    assert again.country == labels.country and again.region == labels.region


# ---------------------------------------------------------------------------
# CSR arrays
# ---------------------------------------------------------------------------

def csr_arrays(text="link L1: N1 N2 N3\nlink L2: N3 N4\n"):
    """A small graph and writable copies of its degrees and neighbor ids."""
    graph = g.build_graph(parse(text))
    return graph, graph.degrees.copy(), graph.indices.copy()


def test_csr_graph_round_trip_through_npy(tmp_path):
    graph, *arrays = csr_arrays()
    loaded = []
    for name, arr in zip(("degrees", "neighbors"), arrays):
        path = tmp_path / f"{name}.npy"
        np.save(path, arr)
        again = path.read_bytes()
        np.save(path, arr)
        assert path.read_bytes() == again
        assert again.endswith(arr.astype("<i8").tobytes())  # the payload follows the header
        loaded.append(np.load(path, allow_pickle=False))
    again = g.graph_from_csr(graph.names, *loaded)
    assert again.equals(graph) and again.m == graph.m == 4
    assert np.array_equal(again.degrees, graph.degrees)
    assert again.names == graph.names
    assert not again.indices.flags.writeable and not again.degrees.flags.writeable
    empty = g.graph_from_csr(["a", "b"], np.zeros(2, np.int64), np.empty(0, np.int64))
    assert (empty.n, empty.m) == (2, 0)


def test_csr_graph_rejects_other_arrays():
    graph, degrees, indices = csr_arrays()
    with pytest.raises(ValueError, match="degrees: int32 array of shape"):
        g.graph_from_csr(graph.names, degrees.astype(np.int32), indices)
    with pytest.raises(ValueError, match="neighbor ids: float64 array of shape"):
        g.graph_from_csr(graph.names, degrees, indices.astype(np.float64))
    with pytest.raises(ValueError, match=r"neighbor ids: int64 array of shape \(4, 2\)"):
        g.graph_from_csr(graph.names, degrees, indices.reshape(4, 2))
    with pytest.raises(ValueError, match=r"degrees: int64 array of shape \(2, 2\)"):
        g.graph_from_csr(graph.names, degrees.reshape(2, 2), indices)
    with pytest.raises(ValueError, match="4 degrees for 3 names"):
        g.graph_from_csr(graph.names[:-1], degrees, indices)
    with pytest.raises(ValueError, match="3 degrees for 4 names"):
        g.graph_from_csr(graph.names, degrees[:-1], indices)


def test_csr_graph_rejects_inconsistent_arrays():
    graph, degrees, indices = csr_arrays()
    assert degrees.tolist() == [2, 2, 3, 1]
    with pytest.raises(ValueError, match=r"degrees outside \[0, 4\)"):
        # same sum, one degree below 0: np.repeat would reject it with no file named
        g.graph_from_csr(graph.names, np.array([3, -1, 3, 3]), indices)
    with pytest.raises(ValueError, match="degrees sum to 9 for 8"):
        g.graph_from_csr(graph.names, np.array([3, 2, 3, 1]), indices)
    with pytest.raises(ValueError, match="degrees sum to 7 for 7"):  # 2m is even
        g.graph_from_csr(graph.names, np.array([2, 2, 3, 0]), indices[:-1])
    indices[-1] = 4
    with pytest.raises(ValueError, match=r"neighbor ids outside \[0, 4\)"):
        g.graph_from_csr(graph.names, degrees, indices)
    indices[-1] = -1
    with pytest.raises(ValueError, match=r"neighbor ids outside \[0, 4\)"):
        g.graph_from_csr(graph.names, degrees, indices)
    _, degrees, indices = csr_arrays()
    with pytest.raises(ValueError, match="distinct"):
        g.graph_from_csr(graph.names[:-1] + graph.names[:1], degrees, indices)
    with pytest.raises(ValueError, match="distinct"):  # distinct, but out of order
        g.graph_from_csr(graph.names[::-1], degrees, indices)
