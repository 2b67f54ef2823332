"""Topology ingestion: link records, geolocation labels, immutable adjacency graphs.

Input formats
-------------
Links file (router-topology style)::

    # comment
    link L1:  N1:1.2.3.4 N2 N3:5.6.7.8

Every link record is clique-expanded: a record naming r distinct routers
contributes all C(r, 2) unordered pairs.  The optional ``:<ipv4>`` interface
suffix on a member is ignored.  Self-pairs and duplicate pairs are dropped
with counters.

Canonical edge TSV: ``name_a<TAB>name_b`` with ``name_a < name_b``, rows
sorted.  Node list TSV: one name per line, sorted (carries isolated nodes
that the edge TSV cannot).  Geo TSV: ``name<TAB>country<TAB>region`` with
region optionally empty.
"""

from __future__ import annotations

import itertools
import operator
import re
import struct
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

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
    "parse_geo",
    "build_graph",
    "graph_from_id_edges",
    "level_tallies",
    "country_groups",
    "region_groups",
    "unmatched_names",
    "write_edges_tsv",
    "write_nodes_tsv",
    "write_geo_tsv",
    "write_adjacency_cache",
    "read_adjacency_cache",
]

_MEMBER_RE = re.compile(r"^N\d+(?::\d{1,3}(?:\.\d{1,3}){3})?$")


class ParseError(ValueError):
    """Malformed input line in strict mode."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EdgeList:
    """Node names and distinct unordered pairs read by one parser, with counters.

    ``ids`` maps each name to a provisional id, numbered as the parser reads
    (:func:`build_graph` puts the ids in name order); ``src``/``dst`` hold
    each distinct pair once, as int64 id arrays.
    """

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.src = np.empty(0, dtype=np.int64)
        self.dst = np.empty(0, dtype=np.int64)
        self.raw_pair_count = 0
        self.self_pairs_dropped = 0
        self.duplicate_pairs_dropped = 0
        self.malformed_lines = 0

    def finalize(self, pairs: np.ndarray | array) -> None:
        """Keep each distinct pair of the flat ``a, b, a, b, ...`` int64 id array once.

        Self-pairs are dropped and counted.
        """
        flat = np.asarray(pairs, dtype=np.int64)
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


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph in compressed sparse adjacency form.

    Internal ids are assigned in lexicographic order of external names, so id
    order and name order coincide.  Arrays are marked read-only; the graph is
    safe for unlimited concurrent readers.
    """

    n: int
    m: int
    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    names: tuple[str, ...]
    name_to_id: dict[str, int] = field(repr=False)

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of ``node``."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def edge_id_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as (src, dst) id arrays with src < dst, sorted."""
        row = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        mask = self.indices > row
        return row[mask], self.indices[mask]

    def equals(self, other: "Graph") -> bool:
        return (
            self.n == other.n
            and self.m == other.m
            and self.names == other.names
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _make_graph(names: Sequence[str], m: int, degrees: np.ndarray, indices: np.ndarray) -> Graph:
    """Final construction shared by every path that yields a :class:`Graph`."""
    indptr = np.zeros(len(names) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    name_to_id = {name: i for i, name in enumerate(names)}
    if len(name_to_id) != len(names):
        raise ValueError("node names are not distinct")
    return Graph(
        n=len(names),
        m=m,
        indptr=_freeze(indptr),
        indices=_freeze(indices),
        degrees=_freeze(degrees),
        names=tuple(names),
        name_to_id=name_to_id,
    )


def graph_from_id_edges(names: Sequence[str], src: ArrayLike, dst: ArrayLike) -> Graph:
    """Assemble the adjacency structure on ``names`` (in id order) from id pairs.

    Each unordered pair must appear once and join two distinct ids in
    [0, len(names)); raises ``ValueError`` otherwise.
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
    return _make_graph(names, m, degrees, keys)


def build_graph(edge_list: EdgeList) -> Graph:
    """Assemble the adjacency structure from a parsed edge list.

    Ids follow lexicographic name order; isolated names are retained with
    degree 0.  Raises ``ValueError`` when no node was ever mentioned.
    """
    if not edge_list.ids:
        raise ValueError("empty edge list: no nodes or edges to build from")
    names = list(edge_list.ids)  # provisional id order
    src, dst = edge_list.src, edge_list.dst
    # an all-keyed parse numbers in name order already; only other parses relabel
    if not all(map(operator.lt, names, itertools.islice(names, 1, None))):
        by_name = sorted(range(len(names)), key=names.__getitem__)
        relabel = np.empty(len(names), dtype=np.int64)
        relabel[by_name] = np.arange(len(names), dtype=np.int64)
        names = [names[prov] for prov in by_name]
        src, dst = relabel[src], relabel[dst]
    return graph_from_id_edges(names, src, dst)


# ---------------------------------------------------------------------------
# parsing
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


def parse_links(stream: Iterable[str], strict: bool = False) -> EdgeList:
    """Parse a links file into a deduplicated :class:`EdgeList`.

    Malformed lines are counted and skipped; with ``strict`` they raise
    :class:`ParseError` carrying the line number.
    """
    edge_list = EdgeList()
    ids = edge_list.ids
    pairs = array("q")
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        members = _link_members(line)
        if members is None:
            if strict:
                raise ParseError(f"bad link record {line!r}", line_no)
            edge_list.malformed_lines += 1
            continue
        distinct = dict.fromkeys(members)
        edge_list.self_pairs_dropped += len(members) - len(distinct)
        record = [ids.setdefault(name, len(ids)) for name in distinct]
        pairs.extend(itertools.chain.from_iterable(itertools.combinations(record, 2)))
    edge_list.finalize(pairs)
    return edge_list


# characters read per block of the edge TSV.  A block's tokens are all alive at
# once; at 8 MB they left a fragmented heap (ingest peak 894 against 640 MB at
# 1 MB on 1M nodes / 5M edges) and parsed no faster.
_BLOCK_CHARS = 1 << 20


def _edge_records(
    lines: Iterable[str], first_line: int, edge_list: EdgeList, strict: bool
) -> np.ndarray:
    """The per-line edge-record body: flat ``a, b, a, b, ...`` ids of the records in ``lines``.

    Blank lines and ``#`` comments are skipped, and malformed lines counted
    or, with ``strict``, raised as :class:`ParseError` numbered from
    ``first_line``.
    """
    ids = edge_list.ids
    pairs: list[int] = []
    for line_no, raw in enumerate(lines, start=first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            if strict:
                raise ParseError(f"bad edge record {line!r}", line_no)
            edge_list.malformed_lines += 1
            continue
        pairs += (ids.setdefault(parts[0], len(ids)), ids.setdefault(parts[1], len(ids)))
    return np.array(pairs, dtype=np.int64)


def _plain_records(block: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The ASCII bytes of ``block`` and the positions of its tabs and newlines, if bare.

    ``block`` ends in a newline.  Bare means that each line is an ``a<TAB>b``
    record: ASCII with no control byte but one tab and the newline, a name on
    each side of the tab, and no line that starts with ``#`` or a space or ends
    with a space.  Stripping such a line changes nothing, so the names between
    the separators are the per-line body's names.  Any other block gives ``None``.
    """
    try:
        raw = np.frombuffer(block.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    seps = np.flatnonzero(raw < 32)  # tab, newline, tab, newline, ... if bare
    tabs, ends = seps[0::2], seps[1::2]
    if len(tabs) != len(ends) or np.any(raw[tabs] != 9) or np.any(raw[ends] != 10):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    first, last = raw[starts], raw[ends - 1]
    if np.all((starts < tabs) & (tabs + 1 < ends)) and not np.any(
        (first == 35) | (first == 32) | (last == 32)
    ):
        return raw, seps
    return None


def _name_keys(raw: np.ndarray, seps: np.ndarray) -> np.ndarray | None:
    """Each name of a bare block as a ``uint64`` key, or ``None`` if one is over 8 bytes.

    A name's bytes are packed big-endian and zero-padded, so integer order is
    name order.  A bare block holds no zero byte, so no two names share a key.
    """
    starts = np.concatenate(([0], seps[:-1] + 1))
    lengths = seps - starts
    if lengths.max() > 8:
        return None
    padded = np.concatenate((raw, np.zeros(7, dtype=np.uint8)))
    words = np.lib.stride_tricks.sliding_window_view(padded, 8)[starts].view(">u8").ravel()
    shift = (8 * (8 - lengths)).astype(np.uint64)  # drop the bytes after the name
    return (words >> shift) << shift


def parse_edges_tsv(stream: TextIO, strict: bool = False) -> EdgeList:
    """Parse a canonical two-column edge TSV (``#`` comments allowed).

    The text is read in blocks of whole lines, and the block selects its path:

    - a block of bare records whose names all fit in 8 bytes is keyed: each
      name becomes a ``uint64`` key, and one sort of every key at the end of
      the file interns the keyed names, in name order;
    - any other block, a bare one with a longer name included, goes through
      the per-line body, which interns through the ``ids`` dict.

    Counters and strict-mode line numbers are the same on both paths.  Only
    the provisional ids differ: per-line names are numbered on first
    mention, and the keyed names after them.
    """
    edge_list = EdgeList()
    ids = edge_list.ids
    parts = []  # flat id pairs of the per-line blocks
    keyed = []  # flat name-key pairs of the keyed blocks
    line_no, rest = 1, ""
    while True:
        text = stream.read(_BLOCK_CHARS)
        if text:
            block = rest + text
            cut = block.rfind("\n") + 1
            block, rest = block[:cut], block[cut:]
        elif rest:
            block, rest = rest + "\n", ""  # the last line has no newline
        else:
            break
        if not block:
            continue
        plain = _plain_records(block)
        keys = _name_keys(*plain) if plain else None
        if keys is not None:
            keyed.append(keys)
        else:
            parts.append(_edge_records(block.split("\n"), line_no, edge_list, strict))
        line_no += block.count("\n")
    if keyed:
        parts.append(_intern_keys(keyed, ids))
    if len(parts) != 1:  # one part, as in an all-keyed file, is not copied
        parts = [np.concatenate([np.empty(0, dtype=np.int64), *parts])]
    edge_list.finalize(parts.pop())
    return edge_list


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


def parse_nodes_tsv(stream: Iterable[str], edge_list: EdgeList) -> EdgeList:
    """Add the names of a node-list TSV (one name per line) to ``edge_list``."""
    ids = edge_list.ids
    for raw in stream:
        line = raw.strip()
        if line and not line.startswith("#"):
            ids.setdefault(line, len(ids))
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

def level_tallies(labels: GeoLabels, names: Iterable[str]) -> tuple[int, int, int]:
    """Counts of (unlabeled, country-only, country-and-region) over ``names``."""
    none = country_only = both = 0
    for name in names:
        if name not in labels.country:
            none += 1
        elif name in labels.region:
            both += 1
        else:
            country_only += 1
    return none, country_only, both


def unmatched_names(graph: Graph, labels: GeoLabels) -> list[str]:
    """Labeled names that do not occur in the graph (reported, not fatal)."""
    return sorted(name for name in labels.country if name not in graph.name_to_id)


def _groups(graph: Graph, keyed: Iterable[tuple[str, str]]) -> dict[str, np.ndarray]:
    """Sorted node-id sets of the graph's names, from ``(name, group key)`` pairs."""
    groups: dict[str, list[int]] = {}
    for name, key in keyed:
        node = graph.name_to_id.get(name)
        if node is not None:
            groups.setdefault(key, []).append(node)
    return {k: np.array(sorted(v), dtype=np.int64) for k, v in sorted(groups.items())}


def country_groups(graph: Graph, labels: GeoLabels) -> dict[str, np.ndarray]:
    """Node-id sets keyed by country code."""
    return _groups(graph, labels.country.items())


def region_groups(graph: Graph, labels: GeoLabels) -> dict[str, np.ndarray]:
    """Node-id sets keyed by ``country/region``."""
    keyed = ((name, f"{labels.country[name]}/{region}") for name, region in labels.region.items())
    return _groups(graph, keyed)


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

_WRITE_CHUNK = 1 << 18


def tsv_rows(columns: Sequence[Sequence[str]]) -> str:
    """The TSV text of equal-length string columns: cells tab-joined, rows newline-ended."""
    width, rows = len(columns), len(columns[0])
    cells = ["\t"] * (2 * width * rows)
    for c, column in enumerate(columns):
        cells[2 * c :: 2 * width] = column
    cells[2 * width - 1 :: 2 * width] = ["\n"] * rows
    return "".join(cells)


def write_edges_tsv(graph: Graph, out: TextIO) -> None:
    """Emit the canonical edge TSV (name_a < name_b, rows sorted)."""
    src, dst = graph.edge_id_pairs()
    names = np.array(graph.names, dtype=object)
    for start in range(0, len(src), _WRITE_CHUNK):
        sl = slice(start, start + _WRITE_CHUNK)
        out.write(tsv_rows([names[src[sl]].tolist(), names[dst[sl]].tolist()]))


def write_nodes_tsv(graph: Graph, out: TextIO) -> None:
    out.writelines(f"{name}\n" for name in graph.names)


def write_geo_tsv(labels: GeoLabels, out: TextIO) -> None:
    """Emit labels sorted by node name, region column possibly empty."""
    for name in sorted(labels.country):
        out.write(f"{name}\t{labels.country[name]}\t{labels.region.get(name, '')}\n")


# ---------------------------------------------------------------------------
# binary adjacency cache
# ---------------------------------------------------------------------------

_CACHE_MAGIC = b"TSADJ\x00\x00\x01"


def write_adjacency_cache(graph: Graph, path: str) -> None:
    """Write the versioned binary adjacency cache (bit-exact per input)."""
    with open(path, "wb") as f:
        f.write(_CACHE_MAGIC)
        f.write(struct.pack("<qq", graph.n, graph.m))
        f.write(graph.degrees.astype("<i8").tobytes())
        f.write(graph.indices.astype("<i8").tobytes())


def read_adjacency_cache(path: str, names: Sequence[str]) -> Graph:
    """Rebuild the graph from the cache and its node names, in id order.

    Raises ``ValueError`` for a file that is not a cache, whose length does
    not match its header, whose degrees do not sum to 2m, whose neighbor ids
    fall outside [0, n), or whose node count differs from ``len(names)``.
    """
    with open(path, "rb") as f:
        data = f.read()
    header = len(_CACHE_MAGIC) + 16
    if data[: len(_CACHE_MAGIC)] != _CACHE_MAGIC or len(data) < header:
        raise ValueError(f"{path}: not an adjacency cache (bad header)")
    n, m = struct.unpack_from("<qq", data, len(_CACHE_MAGIC))
    if n < 0 or m < 0 or len(data) != header + 8 * n + 16 * m:
        raise ValueError(f"{path}: {len(data)} bytes do not hold n={n} m={m}")
    degrees = np.frombuffer(data, dtype="<i8", count=n, offset=header)
    indices = np.frombuffer(data, dtype="<i8", count=2 * m, offset=header + 8 * n)
    if int(degrees.sum()) != 2 * m:
        raise ValueError(f"{path}: degrees sum to {int(degrees.sum())}, expected 2m={2 * m}")
    if m and not 0 <= int(indices.min()) <= int(indices.max()) < n:
        raise ValueError(f"{path}: neighbor ids outside [0, {n})")
    if n != len(names):
        raise ValueError(f"{path}: holds n={n} nodes but {len(names)} names were given")
    return _make_graph(names, m, degrees, indices)
