"""Topology ingestion: link records, geolocation labels, immutable adjacency graphs.

Input formats
-------------
Links file (router-topology style)::

    # comment
    link L1:  N1:1.2.3.4 N2 N3:5.6.7.8

Tokens are split at whitespace.  A record is ``link``, an id of two or more
characters ending in ``:``, and one or more members ``N<digits>``, each with
an optional ``:<a>.<b>.<c>.<d>`` interface suffix of 1 to 3 digits per part,
which is ignored; digits are ASCII only.  Every link record is
clique-expanded: a record naming r distinct routers contributes all C(r, 2)
unordered pairs.  Self-pairs and duplicate pairs are dropped with counters.

Canonical edge TSV: ``name_a<TAB>name_b`` with ``name_a < name_b``, rows
sorted.  Node list TSV: each name verbatim on its own newline-terminated
line, sorted (carries isolated nodes that the edge TSV cannot).  Geo TSV:
``name<TAB>country<TAB>region`` with region optionally empty.

The links file and the edge TSV are read through one block loop,
:func:`_read_blocks`: each line that numpy checks as a record, with no byte
outside printable ASCII, keeps its names of at most 8 bytes as ``uint64``
keys, interned by one sort at the end of the file; every other line goes
through the per-line body :func:`_records`.  Both give the same graph and
counters.  The node list is read by :func:`read_nodes_tsv`, the exact
inverse of :func:`write_nodes_tsv`.  A :class:`Graph` is the names, degrees
and neighbor ids the stages hand off as ``nodes.tsv``, ``degrees.npy`` and
``neighbors.npy``; :func:`graph_from_csr` checks them and makes every graph.
"""

from __future__ import annotations

import itertools
import operator
import re
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "ParseError",
    "EdgeList",
    "Graph",
    "GeoLabels",
    "parse_links",
    "parse_edges_tsv",
    "parse_nodes_tsv",
    "read_nodes_tsv",
    "parse_geo",
    "build_graph",
    "graph_from_id_edges",
    "graph_from_csr",
    "GEO_LEVELS",
    "label_codes",
    "code_groups",
    "country_groups",
    "region_groups",
    "write_edges_tsv",
    "write_nodes_tsv",
    "write_geo_tsv",
]

_MEMBER_RE = re.compile(r"^N\d+(?::\d{1,3}(?:\.\d{1,3}){3})?$", re.ASCII)


class ParseError(ValueError):
    """Malformed input line in strict mode."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EdgeList:
    """Node names and distinct unordered pairs read by one parser, with counters.

    ``ids`` maps each name to a provisional id: names read by a parser's
    per-line body are numbered on first mention, and keyed names after them,
    in name order (:func:`build_graph` puts all the ids in name order);
    ``src``/``dst`` hold each distinct pair once, as int64 id arrays.
    """

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.src = np.empty(0, dtype=np.int64)
        self.dst = np.empty(0, dtype=np.int64)
        self.raw_pair_count = 0
        self.self_pairs_dropped = 0
        self.duplicate_pairs_dropped = 0
        self.malformed_lines = 0

    def finalize(self, parts: list[np.ndarray]) -> EdgeList:
        """Keep each distinct pair of the flat ``a, b, a, b, ...`` int64 id arrays ``parts`` once.

        Self-pairs are dropped and counted; a lone non-empty part is not copied.
        """
        parts = [part for part in parts if len(part)]
        flat = parts[0] if len(parts) == 1 else np.concatenate([np.empty(0, np.int64), *parts])
        a, b = flat[0::2], flat[1::2]
        keep = a != b
        self.self_pairs_dropped += len(keep) - int(np.count_nonzero(keep))
        if not keep.all():
            a, b = a[keep], b[keep]
        width = max(len(self.ids), 1)
        keys = np.minimum(a, b) * width + np.maximum(a, b)
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) != 0]  # keys >= 0: the first always stays
        self.raw_pair_count = len(a)
        self.duplicate_pairs_dropped = len(a) - len(keys)
        self.src, self.dst = np.divmod(keys, width)
        return self


# node ids per range of a CSR walk (:meth:`Graph.node_ranges`): the neighbor sums
# and both TSV writers keep one range's temporaries alive, not the graph's
_CHUNK_NODES = 1 << 13


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph: names, degrees and row-major neighbor ids.

    Ids follow the lexicographic order of the names.  Only :func:`graph_from_csr`
    makes one, and it marks the arrays read-only, so the graph is safe for
    unlimited concurrent readers.
    """

    names: tuple[str, ...]
    degrees: np.ndarray
    indices: np.ndarray

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    def node_ranges(self) -> Iterator[tuple[slice, slice]]:
        """Walk the CSR by node range: ``(nodes, span)`` per run of ``_CHUNK_NODES`` ids.

        The runs come in id order, and ``indices[span]`` holds the neighbor
        ids of the run's nodes, row by row.
        """
        lo = 0
        for start in range(0, self.n, _CHUNK_NODES):
            nodes = slice(start, min(start + _CHUNK_NODES, self.n))
            hi = lo + int(self.degrees[nodes].sum())
            yield nodes, slice(lo, hi)
            lo = hi

    def edge_id_pairs(
        self, nodes: slice = slice(None), span: slice = slice(None)
    ) -> tuple[np.ndarray, np.ndarray]:
        """Edges as (src, dst) id arrays with src < dst, sorted: all of them, or
        those whose src lies in one ``(nodes, span)`` range of :meth:`node_ranges`."""
        ids = range(self.n)[nodes]
        row = np.repeat(np.arange(ids.start, ids.stop, dtype=np.int64), self.degrees[nodes])
        dst = self.indices[span]
        mask = dst > row
        return row[mask], dst[mask]

    def equals(self, other: "Graph") -> bool:
        return (
            self.names == other.names
            and np.array_equal(self.degrees, other.degrees)
            and np.array_equal(self.indices, other.indices)
        )


def _ascending(names: Sequence[str]) -> bool:
    """Whether ``names`` is strictly ascending: sorted, and so distinct."""
    return all(map(operator.lt, names, itertools.islice(names, 1, None)))


def graph_from_id_edges(names: Sequence[str], src: ArrayLike, dst: ArrayLike) -> Graph:
    """Assemble the adjacency structure on ``names`` (in id order) from id pairs.

    Each unordered pair must appear once and join two distinct ids in
    [0, len(names)); raises ``ValueError`` otherwise, and where
    :func:`graph_from_csr` does (``names`` not strictly ascending).
    """
    n = len(names)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    if len(lo) and not (0 <= int(lo.min()) and int(hi.max()) < n):
        raise ValueError(f"edge ids outside [0, {n})")
    if np.any(lo == hi):
        raise ValueError("edges contain a self-loop")
    # both directions keyed row * n + col (n**2 < 2**63), sorted: row-major CSR order
    m = len(lo)
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(lo, n, out=keys[:m])
    keys[:m] += hi
    np.multiply(hi, n, out=keys[m:])
    keys[m:] += lo
    del lo, hi
    keys.sort()
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("edges contain a duplicate pair")
    degrees = np.bincount(keys // n, minlength=n).astype(np.int64)
    keys %= n  # in place: each key becomes its column, the CSR neighbor ids
    return graph_from_csr(names, degrees, keys)


def graph_from_csr(names: Sequence[str], degrees: np.ndarray, indices: np.ndarray) -> Graph:
    """The graph on ``names`` (in id order) from its CSR degrees and row-major neighbor ids.

    Raises ``ValueError`` unless both arrays are 1-d int64, ``degrees`` holds
    one degree in [0, len(names)) per name and sums to the neighbor count,
    which is even, every neighbor id is in [0, len(names)), and ``names`` is
    strictly ascending.  Both arrays are marked read-only, not copied.
    """
    for label, arr in (("degrees", degrees), ("neighbor ids", indices)):
        if arr.dtype != np.int64 or arr.ndim != 1:
            raise ValueError(f"{label}: {arr.dtype} array of shape {arr.shape}, expected 1-d int64")
    n, total = len(names), len(indices)
    if len(degrees) != n:
        raise ValueError(f"{len(degrees)} degrees for {n} names")
    if n and not 0 <= int(degrees.min()) <= int(degrees.max()) < n:  # so the sum cannot wrap
        raise ValueError(f"degrees outside [0, {n})")
    if int(degrees.sum()) != total or total % 2:
        raise ValueError(f"degrees sum to {int(degrees.sum())} for {total} neighbor ids (2m)")
    if total and not 0 <= int(indices.min()) <= int(indices.max()) < n:
        raise ValueError(f"neighbor ids outside [0, {n})")
    if not _ascending(names):
        raise ValueError("node names are not distinct and in ascending order")
    degrees.flags.writeable = False
    indices.flags.writeable = False
    return Graph(names=tuple(names), degrees=degrees, indices=indices)


def build_graph(edge_list: EdgeList) -> Graph:
    """Assemble the adjacency structure from a parsed edge list.

    Ids follow lexicographic name order; isolated names are retained with
    degree 0.  Raises ``ValueError`` when no node was ever mentioned.
    """
    if not edge_list.ids:
        raise ValueError("empty edge list: no nodes or edges to build from")
    names = list(edge_list.ids)  # provisional id order
    src, dst = edge_list.src, edge_list.dst
    # an all-keyed parse of a links file or edge TSV numbers in name order
    # already; only a parse that took the per-line body relabels
    if not _ascending(names):
        by_name = sorted(range(len(names)), key=names.__getitem__)
        relabel = np.empty(len(names), dtype=np.int64)
        relabel[by_name] = np.arange(len(names), dtype=np.int64)
        names = [names[prov] for prov in by_name]
        src, dst = relabel[src], relabel[dst]
    return graph_from_id_edges(names, src, dst)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# characters read per block of a links file or edge TSV.  A block's tokens are
# all alive at once; at 8 MB they left a fragmented heap (ingest peak 894
# against 640 MB at 1 MB on 1M nodes / 5M edges) and parsed no faster.
_BLOCK_CHARS = 1 << 20


def _read_blocks(
    stream: TextIO, lines_of, members_of, kind: str, edge_list: EdgeList, strict: bool
) -> tuple:
    """Read ``stream`` in blocks of whole lines; return per-line id pairs, key ids and extras.

    ``lines_of`` takes a block's UTF-8 bytes, which end in a newline, and
    returns its keys, any extra arrays, and the runs (see :func:`_runs`) of
    the lines it leaves to :func:`_records`, which reads them with
    ``members_of`` and ``kind``.  The keys of the whole file are interned last.
    """
    parts, keyed, extras = [], [], []
    line_no, rest = 1, ""
    while text := stream.read(_BLOCK_CHARS) or rest and "\n":  # ends a last line that lacks one
        block = rest + text
        cut = block.rfind("\n") + 1
        block, rest = block[:cut], block[cut:]
        if not block:  # no whole line yet
            continue
        data = block.encode("utf-8", "surrogatepass")  # a lone surrogate round-trips
        keys, *extra, runs = lines_of(np.frombuffer(data, dtype=np.uint8))
        keyed.append(keys)
        extras += extra
        for first, start, stop in runs:  # runs end at newlines: no character is cut
            lines = data[start:stop].decode("utf-8", "surrogatepass").split("\n")
            parts.append(_records(lines, line_no + first, members_of, kind, edge_list, strict))
        line_no += block.count("\n")
    return parts, _intern_keys(keyed, edge_list.ids) if keyed else np.empty(0, np.int64), extras


def _records(
    lines: Iterable[str], first_line: int, members_of, kind: str, edge_list: EdgeList, strict: bool
) -> np.ndarray:
    """The per-line body: flat ``a, b, a, b, ...`` clique ids of the records in ``lines``.

    Blank lines and ``#`` comments are skipped.  ``members_of`` gives a
    stripped line's names, or ``None`` when the line is malformed: it is
    then counted or, with ``strict``, raised as a "bad <kind> record"
    :class:`ParseError` numbered from ``first_line``.  A repeated name is a
    self-pair, counted and left out of the clique.
    """
    ids = edge_list.ids
    pairs = array("q")
    for line_no, raw in enumerate(lines, start=first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        members = members_of(line)
        if members is None:
            if strict:
                raise ParseError(f"bad {kind} record {line!r}", line_no)
            edge_list.malformed_lines += 1
            continue
        distinct = dict.fromkeys(members)
        edge_list.self_pairs_dropped += len(members) - len(distinct)
        record = [ids.setdefault(name, len(ids)) for name in distinct]
        pairs.extend(itertools.chain.from_iterable(itertools.combinations(record, 2)))
    return np.frombuffer(pairs, dtype=np.int64)


def _runs(left: np.ndarray, ends: np.ndarray) -> list[tuple[int, int, int]]:
    """Each run of consecutive line indices in ``left`` as ``(first line, start, stop)``, where
    ``ends`` holds each line's newline offset and the run's bytes are ``raw[start:stop]``."""
    run_first = left[np.diff(left, prepend=-2) != 1]
    run_last = left[np.diff(left, append=len(ends) + 1) != 1]
    run_starts = np.where(run_first > 0, ends[run_first - 1] + 1, 0)
    return list(zip(run_first.tolist(), run_starts.tolist(), ends[run_last].tolist()))


# _KEEP[k] keeps the first k bytes of a big-endian 8-byte word
_KEEP = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)


def _name_keys(raw: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The names ``raw[start : start + length]`` as ``uint64`` keys.

    Each name is 1 to 8 bytes with no zero byte.  Its bytes are packed
    big-endian and zero-padded, so integer order is name order and no two
    names share a key.
    """
    padded = np.concatenate((raw, np.zeros(7, dtype=np.uint8)))
    words = np.ndarray(len(raw), ">u8", padded, strides=(1,))  # the 8 bytes at each offset
    keys = words[starts].astype(np.uint64)
    keys &= _KEEP[lengths]  # drop the bytes after the name
    return keys


def _intern_keys(keyed: list[np.ndarray], ids: dict[str, int]) -> np.ndarray:
    """Intern the names behind the key arrays in ``keyed`` (emptied) into ``ids``.

    One sort of every key gives the distinct names in order and each key's
    rank; the names join ``ids`` in that order, so a name already there keeps
    its id.  Returns the id of every key.
    """
    # each token-length array is dropped once spent (80 MB apiece at 10M tokens)
    keys = np.concatenate(keyed)
    keyed.clear()
    order = keys.argsort()
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    names = keys[first].astype(">u8").view("S8").astype(str).tolist()
    del keys
    rank = np.cumsum(first) - 1
    del first
    key_ids = np.empty_like(order)
    key_ids[order] = rank
    del order, rank
    if not ids:  # the ranks are the ids; measured faster and leaner than the setdefault pass
        ids.update(zip(names, range(len(names))))
        return key_ids
    remap = np.fromiter((ids.setdefault(name, len(ids)) for name in names), np.int64, len(names))
    return remap[key_ids]


# ---------------------------------------------------------------------------
# links file
# ---------------------------------------------------------------------------

def _link_members(line: str) -> list[str] | None:
    tokens = line.split()
    if len(tokens) < 3 or tokens[0] != "link":
        return None
    if not tokens[1].endswith(":") or len(tokens[1]) < 2:
        return None
    members = []
    for token in tokens[2:]:
        if not _MEMBER_RE.match(token):
            return None
        members.append(token.split(":", 1)[0])
    return members


_LINK_KEY = np.uint64(int.from_bytes(b"link".ljust(8, b"\0"), "big"))


def _dotted_quads(raw: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Whether each span ``raw[start:stop]`` is ``d.d.d.d``, each part 1 to 3 ASCII digits."""
    width = stops - starts
    padded = np.concatenate((raw, np.zeros(15, dtype=np.uint8)))
    window = np.lib.stride_tricks.sliding_window_view(padded, 15)[starts]
    inside = np.arange(15) < width[:, None]
    digit = ((window - 48) < 10) & inside
    dot = (window == 46) & inside
    flanked = np.zeros_like(dot)  # a digit on either side
    flanked[:, 1:-1] = digit[:, :-2] & digit[:, 2:]
    four_digits = digit[:, 3:] & digit[:, 2:-1] & digit[:, 1:-2] & digit[:, :-3]
    return (
        (width <= 15)
        & ((digit | dot) == inside).all(axis=1)
        & (np.count_nonzero(dot, axis=1) == 3)
        & (flanked | ~dot).all(axis=1)
        & ~four_digits.any(axis=1)
    )


def _link_lines(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
    """Classify the lines of a block of UTF-8 bytes that ends in a newline.

    A line is keyed when it is a record (token 0 is ``link``, token 1 is 2
    or more bytes ending in ``:``, every later token matches ``_MEMBER_RE``),
    each member name fits in 8 bytes, and it holds no control byte but its
    newline, where a control byte is any byte outside 0x20-0x7E (``str.split``
    may split there).  Returns the member keys of the keyed records in file
    order, each one's arity, and the runs (see :func:`_runs`) of the lines
    that are neither keyed, blank nor comments.
    """
    low = np.flatnonzero((raw - 32) >= 95)
    ends = low[raw[low] == 10]
    clean = np.bincount(np.searchsorted(ends, low), minlength=len(ends)) == 1  # no other control
    word = raw != 32
    word[ends] = False
    bounds = np.flatnonzero(np.diff(word, prepend=False))  # start, stop, start, stop, ...
    starts, stops = bounds[0::2], bounds[1::2]
    # byte counts per token are summed in uint8 (an int64 sum casts every byte);
    # they wrap past 255, but a member that fits is at most 24 bytes
    colon = raw == 58
    colons = np.add.reduceat(colon.view(np.uint8), starts, dtype=np.uint8)
    colon_at = np.flatnonzero(colon)
    nondigit = np.logical_and(word, (raw - 48) >= 10, out=word)
    nondigits = np.add.reduceat(nondigit.view(np.uint8), starts, dtype=np.uint8)
    del word, colon, nondigit

    tok_end = np.searchsorted(starts, ends)  # tokens up to each line's end
    count = np.diff(tok_end, prepend=0)
    lines = np.flatnonzero(count)  # lines with a token
    size = count[lines]
    head = tok_end[lines] - size  # each such line's first token
    member = np.ones(len(starts), dtype=bool)
    member[head] = False
    member[head[size >= 2] + 1] = False

    # member grammar: an N and digits, then maybe a colon and 3 dots among digits
    length = stops - starts
    name_lengths = length.copy()
    colon_tok = np.searchsorted(starts, colon_at, "right") - 1
    name_lengths[colon_tok] = colon_at - starts[colon_tok]
    fits = (
        (length <= 24)
        & (raw[starts] == 78)
        & (name_lengths >= 2)
        & (name_lengths <= 8)
        & (colons <= 1)
        & (nondigits == 1 + 4 * colons)
    )
    suffixed = np.flatnonzero(fits & member & (colons == 1))
    suffix_starts = starts[suffixed] + name_lengths[suffixed] + 1
    fits[suffixed] = _dotted_quads(raw, suffix_starts, stops[suffixed])
    misfit = np.logical_or.reduceat(member & ~fits, head)

    keyed = (size >= 3) & ~misfit & clean[lines]
    first = head[keyed]
    keyed[keyed] = (
        (length[first] == 4)
        & (_name_keys(raw, starts[first], np.full(len(first), 4)) == _LINK_KEY)
        & (length[first + 1] >= 2)
        & (raw[stops[first + 1] - 1] == 58)
    )
    tokens = np.flatnonzero(member & np.repeat(keyed, size))
    keys = _name_keys(raw, starts[tokens], name_lengths[tokens])

    left = lines[(raw[starts[head]] != 35) & ~keyed]  # not keyed and not a comment
    return keys, size[keyed] - 2, _runs(left, ends)


def _clique_pairs(members: np.ndarray, arity: np.ndarray, edge_list: EdgeList) -> list[np.ndarray]:
    """Flat ``a, b, a, b, ...`` clique ids, one array per arity, of records whose member ids lie
    end to end in ``members``.

    The records of one arity form a matrix, sorted row-wise: a member equal
    to its left neighbour is a self-repeat, counted in ``edge_list`` and left
    out of the clique.
    """
    offsets = np.cumsum(arity) - arity
    parts = []
    for r in np.flatnonzero(np.bincount(arity)).tolist():  # np.unique would import numpy.ma
        rows = np.sort(members[offsets[arity == r][:, None] + np.arange(r)], axis=1)
        fresh = np.ones(rows.shape, dtype=bool)
        np.not_equal(rows[:, 1:], rows[:, :-1], out=fresh[:, 1:])
        edge_list.self_pairs_dropped += fresh.size - int(np.count_nonzero(fresh))
        a, b = np.triu_indices(r, 1)
        keep = fresh[:, a] & fresh[:, b]
        parts.append(np.stack((rows[:, a][keep], rows[:, b][keep]), axis=1).ravel())
    return parts


def parse_links(stream: TextIO, strict: bool = False) -> EdgeList:
    """Parse a links file (a text stream with ``.read()``) into a deduplicated :class:`EdgeList`.

    Lines are read by :func:`_read_blocks`: the records that numpy keys (see
    :func:`_link_lines`) become cliques after one sort of every key; every
    other line goes through the per-line body :func:`_records`.

    Malformed lines are counted and skipped; with ``strict`` they raise
    :class:`ParseError` carrying the line number.  Counters and line numbers
    are the same on both paths.
    """
    edge_list = EdgeList()
    parts, members, arities = _read_blocks(
        stream, _link_lines, _link_members, "link", edge_list, strict
    )
    if arities:
        parts += _clique_pairs(members, np.concatenate(arities), edge_list)
    return edge_list.finalize(parts)


# ---------------------------------------------------------------------------
# edge TSV
# ---------------------------------------------------------------------------

def _edge_members(line: str) -> list[str] | None:
    names = line.split("\t")
    return names if len(names) == 2 and all(names) else None


def _edge_lines(raw: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Classify the lines of a block of UTF-8 bytes that ends in a newline.

    A line is keyed when it is an ``a<TAB>b`` record with no other control
    byte (any byte outside 0x20-0x7E), names of 1 to 8 bytes, and neither
    starts with ``#`` or a space nor ends with a space.  Stripping such a
    line changes nothing, so its names are the per-line body's.  Returns the
    flat ``a, b, a, b, ...`` name keys of the keyed lines and the runs (see
    :func:`_runs`) of the other lines that are not ``#`` comments.
    """
    low = np.flatnonzero((raw - 32) >= 95)  # tab, newline, tab, newline, ... where bare
    at = np.flatnonzero(raw[low] == 10)
    ends = low[at]
    starts = np.concatenate(([0], ends[:-1] + 1))
    tabs = low[at - 1]  # each line's last control byte but the newline, if it has one
    a_len, b_len = tabs - starts, ends - tabs - 1
    first = raw[starts]
    keyed = (
        (np.diff(at, prepend=-1) == 2) & (raw[tabs] == 9) & (first != 35) & (first != 32)
        & (raw[ends - 1] != 32) & (np.minimum(a_len, b_len) >= 1) & (np.maximum(a_len, b_len) <= 8)
    )
    rows = np.flatnonzero(keyed)
    spans = np.empty((2, 2 * len(rows)), dtype=np.int64)  # start and length of a, b, a, b, ...
    spans[:, 0::2] = starts[rows], a_len[rows]
    spans[:, 1::2] = tabs[rows] + 1, b_len[rows]
    return _name_keys(raw, *spans), _runs(np.flatnonzero(~keyed & (first != 35)), ends)


def parse_edges_tsv(stream: TextIO, strict: bool = False) -> EdgeList:
    """Parse a canonical two-column edge TSV (``#`` comments allowed).

    Lines are read by :func:`_read_blocks`: numpy keys the bare records (see
    :func:`_edge_lines`), interned by one sort of every key; every other line
    goes through the per-line body :func:`_records`.

    Counters and strict-mode line numbers are the same on both paths.  Only
    the provisional ids differ: per-line names are numbered on first
    mention, and the keyed names after them.
    """
    edge_list = EdgeList()
    parts, key_ids, _ = _read_blocks(stream, _edge_lines, _edge_members, "edge", edge_list, strict)
    return edge_list.finalize([*parts, key_ids])


def parse_nodes_tsv(stream: TextIO, edge_list: EdgeList) -> EdgeList:
    """Add the names of a node-list TSV (see :func:`read_nodes_tsv`) to ``edge_list``."""
    ids = edge_list.ids
    for name in read_nodes_tsv(stream):
        ids.setdefault(name, len(ids))
    return edge_list


@dataclass
class GeoLabels:
    """Country/region labels keyed by external node name.

    A region without a country is rejected at parse time, so
    ``region`` keys are always a subset of ``country`` keys.
    """

    country: dict[str, str] = field(default_factory=dict)
    region: dict[str, str] = field(default_factory=dict)
    rejected: int = 0
    duplicates: int = 0


def parse_geo(stream: Iterable[str], strict: bool = False) -> GeoLabels:
    """Parse a geo TSV into :class:`GeoLabels`.

    Records with a region but no country (or with no label at all) are
    rejected and counted, never fatal.  Structurally broken lines follow
    the links-file strict/lenient convention.  The name keeps its own
    whitespace, as in :func:`parse_edges_tsv`: ``"x \\tUS"`` labels node
    ``"x "``.
    """
    labels = GeoLabels()
    for line_no, raw in enumerate(stream, start=1):
        # keep trailing tabs: "x\t" is a record with no label, not a broken line
        line = raw.lstrip().rstrip("\r\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2 or not parts[0]:
            if strict:
                raise ParseError(f"bad geo record {line!r}", line_no)
            labels.rejected += 1
            continue
        name, country = parts[0], parts[1].strip()
        region = parts[2].strip() if len(parts) > 2 else ""
        if not country:
            labels.rejected += 1
            continue
        if name in labels.country:
            labels.duplicates += 1
            labels.region.pop(name, None)
        labels.country[name] = country
        if region:
            labels.region[name] = region
    return labels


# ---------------------------------------------------------------------------
# label / graph joins
# ---------------------------------------------------------------------------

GEO_LEVELS = ("country", "region")  # the code columns of label_codes, in order


def _code_column(ids: dict[str, int], keyed: Iterable) -> tuple[np.ndarray, list[str]]:
    """Each node's code (-1 = none) in the sorted table of the group keys of its
    ``(name, group key)`` pair, and that table; ``ids`` maps every node's name to
    its id, and names not in it are left out.
    """
    get = ids.get
    nodes, keys = [], []
    for name, key in keyed:
        node = get(name)
        if node is not None:
            nodes.append(node)
            keys.append(key)
    table = sorted(set(keys))
    code = dict(zip(table, range(len(table))))
    column = np.full(len(ids), -1, dtype=np.int32)
    column[nodes] = np.fromiter(map(code.__getitem__, keys), np.int32, len(keys))
    return column, table


def label_codes(graph: Graph, labels: GeoLabels) -> tuple[np.ndarray, list[str], list[str], int]:
    """Join ``labels`` to the graph's names, once.

    Returns an (n, 2) ``int32`` array of each node's country and
    ``country/region`` code in id order (-1 = none), the sorted country and
    region key tables those codes index (only groups with a node in the
    graph), and the count of labeled names not in the graph (reported, not
    fatal).  The name index is built here and dropped when the join ends.
    """
    ids = dict(zip(graph.names, range(graph.n)))
    codes = np.empty((graph.n, len(GEO_LEVELS)), dtype=np.int32)
    codes[:, 0], countries = _code_column(ids, labels.country.items())
    keyed = ((name, f"{labels.country[name]}/{region}") for name, region in labels.region.items())
    codes[:, 1], regions = _code_column(ids, keyed)
    unmatched = len(labels.country) - int(np.count_nonzero(codes[:, 0] >= 0))
    return codes, countries, regions, unmatched


def code_groups(column: np.ndarray, table: Sequence[str]) -> dict[str, np.ndarray]:
    """Sorted node-id sets keyed by ``table``, from each node's code in it (-1 = none).

    One stable sort puts the nodes of each code together, in id order.
    """
    order = np.argsort(column, kind="stable")
    sizes = np.bincount(column + 1, minlength=len(table) + 1)
    return dict(zip(table, np.split(order, np.cumsum(sizes[:-1]))[1:]))


def country_groups(graph: Graph, labels: GeoLabels) -> dict[str, np.ndarray]:
    """Node-id sets keyed by country code."""
    codes, countries, _, _ = label_codes(graph, labels)
    return code_groups(codes[:, 0], countries)


def region_groups(graph: Graph, labels: GeoLabels) -> dict[str, np.ndarray]:
    """Node-id sets keyed by ``country/region``."""
    codes, _, regions, _ = label_codes(graph, labels)
    return code_groups(codes[:, 1], regions)


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def tsv_rows(columns: Sequence[Sequence[str]]) -> str:
    """The TSV text of equal-length string columns: cells tab-joined, rows newline-ended."""
    width, rows = len(columns), len(columns[0])
    cells = ["\t"] * (2 * width * rows)
    for c, column in enumerate(columns):
        cells[2 * c :: 2 * width] = column
    cells[2 * width - 1 :: 2 * width] = ["\n"] * rows
    return "".join(cells)


def write_edges_tsv(graph: Graph, out: TextIO) -> None:
    """Emit the canonical edge TSV (name_a < name_b, rows sorted), one node range at a time."""
    names = np.array(graph.names, dtype=object)
    for nodes, span in graph.node_ranges():
        src, dst = graph.edge_id_pairs(nodes, span)
        out.write(tsv_rows([names[src].tolist(), names[dst].tolist()]))


def write_nodes_tsv(graph: Graph, out: TextIO) -> None:
    """Emit one name per line in id order, one node range at a time."""
    for nodes, _ in graph.node_ranges():
        out.write(tsv_rows([graph.names[nodes]]))


def read_nodes_tsv(stream: TextIO) -> list[str]:
    """The names of a node list, exactly as :func:`write_nodes_tsv` wrote them.

    Lines split at ``"\\n"`` alone and nothing is stripped or skipped: names
    may hold ``#``, edge whitespace, ``"\\x85"`` or ``"\\u2028"``.  Raises
    ``ValueError``, naming the stream's file, when the last line is not
    newline-terminated.
    """
    text = stream.read()
    if text and not text.endswith("\n"):
        name = getattr(stream, "name", "node list")
        raise ValueError(f"{name}: last line is not newline-terminated")
    names = text.split("\n")
    names.pop()
    return names


def write_geo_tsv(labels: GeoLabels, out: TextIO) -> None:
    """Emit labels sorted by node name, region column possibly empty, a run of names at a time."""
    names = sorted(labels.country)
    for start in range(0, len(names), _CHUNK_NODES):
        chunk = names[start : start + _CHUNK_NODES]
        regions = [labels.region.get(name, "") for name in chunk]
        out.write(tsv_rows([chunk, [labels.country[name] for name in chunk], regions]))
