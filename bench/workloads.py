"""Seeded input generators for the benchmark workloads.

Each generator writes the workload's input files into a directory and returns
a :class:`Workload`: the CLI argument lists of the command chain, the manifest
counters the generator planted (computed here in numpy, independently of
``toposig``), and the number of groups ``results.tsv`` must hold.

Group sizes are deterministic (Zipf proportions rounded to integers), and only
the node-to-group assignment depends on the seed.  So every seed sends the same
number of groups down the exact and the sampled pair paths, and run-to-run
spread comes from the machine, not from a changing amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ZIPF_EXPONENT = 1.5
LABEL_SHARE = 0.5
WRITE_CHUNK = 1 << 17
OUT = "{out}"


@dataclass
class Workload:
    commands: list[list[str]]  # CLI argument lists, run in order; OUT marks the run directory
    expected: dict[str, int]  # manifest key -> planted value, checked on 'ingest'
    groups: int  # rows results.tsv must hold
    check_groups: tuple[str, ...] | None = None  # "level:key" subset for the library check
    planted_power: bool = False
    info: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

def zipf_sizes(total: int, k: int, exponent: float = ZIPF_EXPONENT) -> np.ndarray:
    """``k`` integer group sizes summing to ``total``, proportional to rank**-exponent."""
    weights = np.arange(1, k + 1, dtype=np.float64) ** -exponent
    raw = total * weights / weights.sum()
    sizes = np.floor(raw).astype(np.int64)
    # largest remainders take the leftover units; ties go to the larger group
    order = np.argsort(-(raw - sizes), kind="stable")
    sizes[order[: total - int(sizes.sum())]] += 1
    return sizes


def write_geo(
    path: Path,
    names: list[str],
    node_ids: np.ndarray,
    countries: int,
    regions: tuple[int, ...],
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Label ``LABEL_SHARE`` of ``node_ids`` with Zipf-sized countries.

    The ``i``-th largest country gets ``regions[i]`` regions of near-equal
    size.  Returns the number of (country, region) groups planted.
    """
    labeled = rng.permutation(node_ids)[: int(len(node_ids) * LABEL_SHARE)]
    sizes = zipf_sizes(len(labeled), countries)
    if sizes.min() < 2:
        raise ValueError("a country would get fewer than 2 nodes")
    width = len(str(countries - 1))
    rows: list[tuple[int, str]] = []
    start = 0
    for c, size in enumerate(sizes.tolist()):
        members = labeled[start : start + size]
        start += size
        country = f"C{c:0{width}d}"
        if c < len(regions):
            for r, part in enumerate(np.array_split(members, regions[c])):
                if len(part) < 2:
                    raise ValueError("a region would get fewer than 2 nodes")
                rows.extend((int(node), f"{country}\tR{r:03d}") for node in part)
        else:
            rows.extend((int(node), f"{country}\t") for node in members)
    rows.sort()
    with open(path, "w", encoding="utf-8") as f:
        f.write("# node\tcountry\tregion\n")
        f.writelines(f"{names[node]}\t{label}\n" for node, label in rows)
    return countries, sum(regions)


def _library_subset(countries: int, regions: tuple[int, ...]) -> tuple[str, ...]:
    """Fixed groups for the library check.  The largest country always takes
    the sampled pair path, the smallest country and the regions the exact one."""
    width = len(str(countries - 1))
    keys = [f"country:C{c:0{width}d}" for c in (0, 2, countries // 2, countries - 1)]
    if regions:
        keys += [f"region:C{0:0{width}d}/R000", f"region:C{2:0{width}d}/R{regions[2] - 1:03d}"]
    return tuple(keys)


# ---------------------------------------------------------------------------
# planted_20k: the gravity generator itself is the input
# ---------------------------------------------------------------------------

PLANTED_N = 20_000
PLANTED_GROUPS = 20
PLANTED_STUBS = (1, 2, 3, 4, 5)


def planted(inputs: Path, seed: int) -> Workload:
    stubs = ",".join(map(str, PLANTED_STUBS))
    synth = ["synth", "--model", "gravity", "--n", str(PLANTED_N), "--groups",
             str(PLANTED_GROUPS), "--beta", "4", "--stubs", stubs, "--seed", str(seed),
             "--out", OUT]
    chain = ["all", "--edges", f"{OUT}/edges.tsv", "--geo", f"{OUT}/labels.tsv",
             "--out", OUT, "--seed", str(seed), "--level", "both"]
    # node i of group i % G attaches min(stubs[g], i) distinct earlier nodes
    i = np.arange(1, PLANTED_N, dtype=np.int64)
    stub = np.array(PLANTED_STUBS, dtype=np.int64)[(i % PLANTED_GROUPS) % len(PLANTED_STUBS)]
    m = int(np.minimum(stub, i).sum())
    return Workload(
        commands=[synth, chain],
        expected={"n": PLANTED_N, "m": m, "self_dropped": 0, "dup_dropped": 0, "malformed": 0},
        groups=2 * PLANTED_GROUPS,  # one country and one region group per gravity group
        planted_power=True,
    )


# ---------------------------------------------------------------------------
# edges: the criterion-8 graph shape, scaled
# ---------------------------------------------------------------------------

def edge_graph(n: int, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Path backbone (every node appears) plus uniform edges to ``m``; sorted, simple."""
    backbone = np.arange(n - 1, dtype=np.int64) * n + np.arange(1, n, dtype=np.int64)
    codes = backbone
    while len(codes) < m:
        src = rng.integers(0, n, size=m, dtype=np.int64)
        dst = rng.integers(0, n, size=m, dtype=np.int64)
        keep = src != dst
        lo = np.minimum(src[keep], dst[keep])
        hi = np.maximum(src[keep], dst[keep])
        codes = np.unique(np.concatenate([codes, lo * n + hi]))
    extra = codes[~np.isin(codes, backbone, assume_unique=True)]
    extra = rng.permutation(extra)[: m - len(backbone)]
    codes = np.sort(np.concatenate([backbone, extra]))
    return codes // n, codes % n


def edges(inputs: Path, seed: int, n: int, m: int) -> Workload:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    src, dst = edge_graph(n, m, rng)
    names = [f"N{i:07d}" for i in range(n)]
    edges_path = inputs / "input_edges.tsv"
    with open(edges_path, "w", encoding="utf-8") as f:
        for s in range(0, m, WRITE_CHUNK):
            f.writelines(
                f"{names[a]}\t{names[b]}\n"
                for a, b in zip(src[s : s + WRITE_CHUNK].tolist(), dst[s : s + WRITE_CHUNK].tolist())
            )
    regions = (150, 50, 50)
    countries = 150
    geo_path = inputs / "input_geo.tsv"
    n_countries, n_regions = write_geo(
        geo_path, names, np.arange(n, dtype=np.int64), countries, regions, rng
    )
    chain = ["all", "--edges", str(edges_path), "--geo", str(geo_path), "--out", OUT,
             "--seed", str(seed), "--level", "both"]
    return Workload(
        commands=[chain],
        expected={"n": n, "m": m, "self_dropped": 0, "dup_dropped": 0, "malformed": 0},
        groups=n_countries + n_regions,
        check_groups=_library_subset(countries, regions),
    )


# ---------------------------------------------------------------------------
# links: router link records in the real input format
# ---------------------------------------------------------------------------

ARITY_CHOICES = np.array([2, 3, 4, 5, 6, 7, 8, 9, 10])
ARITY_PROBS = np.array([0.85, 0.05, 0.05] + [0.05 / 6] * 6)
SUFFIX_SHARE = 0.7
SELF_REPEAT_SHARE = 0.01
REPEAT_SHARE = 0.02
MALFORMED_SHARE = 0.001
MALFORMED_LINES = (
    "link L{0} N{1} N{2}",  # id without the colon
    "lnk L{0}: N{1} N{2}",  # wrong keyword
    "link L{0}: N{1} X{2}",  # bad member name
    "link L{0}: N{1}:10.0.{2} N{2}",  # truncated interface address
    "link L{0}:",  # no members
)


def _clique_pairs(records: list[np.ndarray], n: int) -> tuple[np.ndarray, int, int]:
    """Unique pair codes, raw pair count and self-repeat count of the records.

    Works per arity on a sorted (records, r) matrix: a member equal to its left
    neighbour is a self-repeat and takes no part in the clique expansion.
    """
    by_arity: dict[int, list[np.ndarray]] = {}
    for rec in records:
        by_arity.setdefault(len(rec), []).append(rec)
    codes = []
    raw = self_rep = 0
    for r, rows in by_arity.items():
        mat = np.sort(np.array(rows, dtype=np.int64), axis=1)
        repeat = np.zeros(mat.shape, dtype=bool)
        repeat[:, 1:] = mat[:, 1:] == mat[:, :-1]
        self_rep += int(repeat.sum())
        a_idx, b_idx = np.triu_indices(r, 1)
        valid = ~repeat[:, a_idx] & ~repeat[:, b_idx]
        lo, hi = mat[:, a_idx][valid], mat[:, b_idx][valid]
        raw += len(lo)
        codes.append(lo * n + hi)
    return np.unique(np.concatenate(codes)), raw, self_rep


def links(inputs: Path, seed: int, routers: int, countries: int = 180) -> Workload:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    base_count = 2 * routers
    arity = rng.choice(ARITY_CHOICES, size=base_count, p=ARITY_PROBS)
    members = rng.integers(0, routers, size=int(arity.sum()), dtype=np.int64)
    records = np.split(members, np.cumsum(arity)[:-1])
    # a router repeated inside its own record
    for idx in rng.choice(base_count, size=int(base_count * SELF_REPEAT_SHARE), replace=False):
        records[idx] = records[idx].copy()
        records[idx][1] = records[idx][0]
    # whole records seen twice (as from two vantage points)
    repeats = rng.choice(base_count, size=int(base_count * REPEAT_SHARE), replace=False)
    records.extend(records[idx].copy() for idx in repeats)
    order = rng.permutation(len(records))
    records = [records[idx] for idx in order]

    codes, raw_pairs, self_rep = _clique_pairs(records, routers)
    mentioned = np.unique(np.concatenate(records))
    names = [f"N{i}" for i in range(routers)]

    n_malformed = max(int(len(records) * MALFORMED_SHARE), len(MALFORMED_LINES))
    malformed_at = set(rng.choice(len(records), size=n_malformed, replace=False).tolist())
    all_members = np.concatenate(records)
    suffix = rng.random(len(all_members)) < SUFFIX_SHARE
    octets = rng.integers(0, 256, size=(len(all_members), 4)).tolist()
    tokens = [
        f"N{r}:{o[0]}.{o[1]}.{o[2]}.{o[3]}" if s else f"N{r}"
        for r, s, o in zip(all_members.tolist(), suffix.tolist(), octets)
    ]
    links_path = inputs / "input.links"
    with open(links_path, "w", encoding="utf-8") as f:
        f.write(f"# router links, generated from seed {seed}\n")
        f.write(f"# {routers} routers, {len(records)} link records\n")
        pos = bad = 0
        for i, rec in enumerate(records):
            if i in malformed_at:
                a, b = rng.integers(0, routers, size=2).tolist()
                f.write(MALFORMED_LINES[bad % len(MALFORMED_LINES)].format(f"{i}x", a, b) + "\n")
                bad += 1
            f.write(f"link L{i}:  " + " ".join(tokens[pos : pos + len(rec)]) + "\n")
            pos += len(rec)

    geo_path = inputs / "input_geo.tsv"
    write_geo(geo_path, names, mentioned, countries, (), rng)
    chain = ["all", "--links", str(links_path), "--geo", str(geo_path), "--out", OUT,
             "--seed", str(seed), "--level", "country"]
    return Workload(
        commands=[chain],
        expected={
            "n": len(mentioned),
            "m": len(codes),
            "self_dropped": self_rep,
            "dup_dropped": raw_pairs - len(codes),
            "malformed": n_malformed,
        },
        groups=countries,
        check_groups=_library_subset(countries, ()),
        info={"raw_pairs": raw_pairs},
    )
