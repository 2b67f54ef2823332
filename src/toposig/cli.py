"""Staged command-line pipeline with file-based handoff.

Stages: ingest -> features -> embed -> null -> test -> report, plus `synth`
to fabricate labeled input graphs and `all` to run the whole chain.  Stages
hand off the forms they compute, each ``.npy`` read by ``_load_npy``: the CSR
graph as ``degrees.npy`` and ``neighbors.npy`` with the names in
``nodes.tsv``; each node's country and region code in ``label_codes.npy``
and the group keys they index in ``label_groups.tsv``; the float64 features
in ``features.npy``; and every node's whitened point in ``points.npy``.
``features`` is the only later stage that opens ``nodes.tsv``.  ``embed``
reads the features, ``null`` the points (both also the codes under
``--labeled-only``) and ``test`` the points and the codes; each checks its
rows against the length of ``degrees.npy``.  ``edges.tsv``, ``labels.tsv``,
``features.tsv`` and ``embedding_model.txt`` are written for people and later
stages never read them.  ``run_stage`` appends each stage's line to
``run_manifest.tsv``: stage, version, seed, config, digests of the inputs as
the stage opened them and of its outputs, and the timestamp, alone in the
final column so that identical runs match byte for byte elsewhere.

Exit codes: 0 ok, 2 missing input/artifact, bad config or too-small input
(among them argparse usage errors such as an unknown or abbreviated flag, a
flag the stage does not take, a negative ``--seed``, a ``--pair-budget`` below
1, text where a number is expected or both ``--links`` and ``--edges``; an
input file that is not UTF-8, a ``null_model.tsv`` or ``results.tsv`` row that
does not parse, named with its line, a null config that cannot be fitted, such
as a ``--sizes`` that is empty or shorter than 3, found by ``null`` before any
set is drawn and by ``all`` before ``ingest`` writes, and a ``test`` run in
which no label group has 2 or more nodes), 3 parse error in strict mode, 4
numerical degeneracy (among them a fitted null ``a`` or a group's sigma(N) that
is not finite and above 0).  A failed ``ingest`` or ``synth`` writes no
artifact and creates no ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, TextIO, TypeVar

import numpy as np

from . import __version__
from . import graph as gstore
from . import synth as synthmod
from .embedding import (
    DEFAULT_PAIR_BUDGET,
    DegenerateFeaturesError,
    fit_embedding,
    save_model,
    transform_all,
)
from .features import FEATURE_COLUMNS, compute_all_features, global_degree_stats, write_features_tsv
from .graph import GEO_LEVELS, ParseError
from .nullmodel import (
    DEFAULT_SET_SIZES,
    DEFAULT_SETS_PER_SIZE,
    FIT_MIN_SIZES,
    NullFitError,
    NullSamplingConfig,
    fit_null_scaling,
    read_null_model_tsv,
    read_results_tsv,
    sample_null,
    score_groups,
    summarize,
    write_null_model_tsv,
    write_null_samples_tsv,
    write_results_tsv,
    write_summary_tsv,
)

ALL_CHAIN = ("ingest", "features", "embed", "null", "test", "report")

EDGES_TSV = "edges.tsv"
NODES_TSV = "nodes.tsv"
DEGREES_NPY = "degrees.npy"
NEIGHBORS_NPY = "neighbors.npy"
LABELS_TSV = "labels.tsv"
LABEL_CODES_NPY = "label_codes.npy"
LABEL_GROUPS_TSV = "label_groups.tsv"
FEATURES_TSV = "features.tsv"
FEATURES_NPY = "features.npy"
MODEL_FILE = "embedding_model.txt"
POINTS_NPY = "points.npy"
FEATURE_WIDTHS = range(len(FEATURE_COLUMNS), len(FEATURE_COLUMNS) + 1)
POINT_WIDTHS = range(1, len(FEATURE_COLUMNS) + 1)  # the retained components
NULL_SAMPLES_TSV = "null_samples.tsv"
NULL_MODEL_TSV = "null_model.tsv"
RESULTS_TSV = "results.tsv"
SUMMARY_TSV = "summary.tsv"
MANIFEST = "run_manifest.tsv"
T = TypeVar("T")


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def _digest(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()[:12]


def _entry(path: Path) -> str:
    return f"{path.name}:{_digest(path)}"


def _append_manifest(
    cfg: argparse.Namespace, stage: str, inputs: list[str], result: tuple[str, list[Path], str]
) -> None:
    config_desc, outputs, info = result
    timestamp = datetime.now(timezone.utc).isoformat()
    line = "\t".join(
        [stage, __version__, str(cfg.seed), config_desc or "-", ";".join(inputs) or "-",
         ";".join(map(_entry, outputs)) or "-", info or "-", timestamp]
    )
    with open(cfg.out / MANIFEST, "a", encoding="utf-8") as f:
        f.write(line + "\n")


# the stages that write the graph and label handoff
GRAPH_STAGES = ("ingest", "synth")


def _require(path: Path, producers: tuple[str, ...], inputs: list[str]) -> Path:
    """``path``, hashed into ``inputs`` (the stage's manifest inputs) once it is a file."""
    if not path.is_file():
        stages = " or ".join(f"'{stage}'" for stage in producers)
        raise FileNotFoundError(f"missing {path} (produced by the {stages} stage)")
    inputs.append(_entry(path))
    return path


# ---------------------------------------------------------------------------
# shared loading
# ---------------------------------------------------------------------------

def _load_graph(cfg: argparse.Namespace, inputs: list[str]) -> gstore.Graph:
    degrees = _load_npy(cfg.out / DEGREES_NPY, GRAPH_STAGES, inputs)
    neighbors = _load_npy(cfg.out / NEIGHBORS_NPY, GRAPH_STAGES, inputs)
    nodes_path = _require(cfg.out / NODES_TSV, GRAPH_STAGES, inputs)
    with open(nodes_path, encoding="utf-8", newline="") as f:
        names = gstore.read_nodes_tsv(f)
    try:
        return gstore.graph_from_csr(names, degrees, neighbors)
    except ValueError as exc:
        raise ValueError(f"{cfg.out / DEGREES_NPY}, {NEIGHBORS_NPY}, {NODES_TSV}: {exc}") from None


def _load_npy(path: Path, producers: tuple[str, ...], inputs: list[str]) -> np.ndarray:
    """The array in a ``.npy`` handoff; a missing, empty or cut file exits 2."""
    if _require(path, producers, inputs).stat().st_size == 0:
        raise ValueError(f"{path}: empty file")
    try:
        return np.load(path, allow_pickle=False)
    except ValueError as exc:  # numpy's message does not name the file
        raise ValueError(f"{path}: {exc}") from None


def _load_label_codes(
    cfg: argparse.Namespace, n: int, inputs: list[str]
) -> tuple[np.ndarray, dict[str, list[str]], int]:
    """Each node's country and region code, the group keys per level that they
    index and the count of unmatched labeled names, checked against each other.
    """
    codes_path = cfg.out / LABEL_CODES_NPY
    codes = _load_npy(codes_path, GRAPH_STAGES, inputs)
    table_path = _require(cfg.out / LABEL_GROUPS_TSV, GRAPH_STAGES, inputs)
    with open(table_path, encoding="utf-8", newline="") as f:
        header, *lines = f.read().split("\n")  # keys may hold "\x85" or "\u2028"
    prefix, _, unmatched = header.partition("=")
    if prefix != "# unmatched" or not (unmatched.isascii() and unmatched.isdigit()):
        raise ValueError(f"{table_path}: first line is not '# unmatched=<count>'")
    if not lines or lines.pop() != "":
        raise ValueError(f"{table_path}: last line is not newline-terminated")
    tables: dict[str, list[str]] = {level: [] for level in GEO_LEVELS}
    for line_no, line in enumerate(lines, start=2):
        level, tab, key = line.partition("\t")
        if level not in tables or not tab or not key:
            raise ValueError(f"{table_path}: line {line_no} is not '<country|region><TAB><key>'")
        tables[level].append(key)
    if codes.dtype != np.int32 or codes.shape != (n, len(GEO_LEVELS)):
        raise ValueError(
            f"{codes_path}: {codes.dtype} array of shape {codes.shape}, expected int32"
            f" of shape ({n}, {len(GEO_LEVELS)}) for the {n} nodes in {DEGREES_NPY}"
        )
    sizes = np.array([len(tables[level]) for level in GEO_LEVELS])
    if np.any((codes < -1) | (codes >= sizes)):
        raise ValueError(f"{codes_path}: codes outside [-1, table size) of {table_path.name}")
    return codes, tables, int(unmatched)


def _load_rows(
    cfg: argparse.Namespace, name: str, producer: str, widths: range, inputs: list[str]
) -> np.ndarray:
    """A float64 array of one row per node and a column count in ``widths``."""
    path = cfg.out / name
    values = _load_npy(path, (producer,), inputs)
    if (degrees := _load_npy(cfg.out / DEGREES_NPY, GRAPH_STAGES, inputs)).ndim != 1:
        raise ValueError(f"{cfg.out / DEGREES_NPY}: {degrees.ndim}-d array, expected 1-d")
    n = len(degrees)
    if values.dtype != np.float64 or values.shape not in [(n, cols) for cols in widths]:
        cols = widths[0] if len(widths) == 1 else f"{widths[0]}..{widths[-1]}"
        raise ValueError(
            f"{path}: {values.dtype} array of shape {values.shape}, expected float64"
            f" of shape ({n}, {cols}) for the {n} nodes in {DEGREES_NPY}"
        )
    return values


def _read_tsv(path: Path, producer: str, inputs: list[str], read: Callable[[TextIO], T]) -> T:
    """``read`` of the handoff TSV ``path``; a malformed file exits 2 naming it."""
    with open(_require(path, (producer,), inputs), encoding="utf-8") as f:
        try:
            return read(f)
        except ValueError as exc:  # the readers name the line, not the file
            raise ValueError(f"{path}: {exc}") from None


def _labeled_rows(cfg: argparse.Namespace, rows: np.ndarray, inputs: list[str]) -> np.ndarray:
    """``rows`` cut to the geolocated nodes under ``--labeled-only``."""
    if not cfg.labeled_only:
        return rows
    codes = _load_label_codes(cfg, len(rows), inputs)[0]
    return rows[codes[:, 0] >= 0]


def _write_graph_artifacts(
    cfg: argparse.Namespace, graph: gstore.Graph, labels: gstore.GeoLabels | None
) -> tuple[list[Path], str]:
    """Create ``--out`` and write the graph and the labels joined to it; return
    the paths written and the label tallies for the manifest ("" without labels).
    """
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValueError(f"--out {cfg.out} is not a directory") from None
    outputs = [cfg.out / name for name in (EDGES_TSV, NODES_TSV, DEGREES_NPY, NEIGHBORS_NPY)]
    with open(outputs[0], "w", encoding="utf-8") as f:
        gstore.write_edges_tsv(graph, f)
    with open(outputs[1], "w", encoding="utf-8") as f:
        gstore.write_nodes_tsv(graph, f)
    np.save(outputs[2], graph.degrees)
    np.save(outputs[3], graph.indices)
    if labels is None:
        # a label handoff left by an earlier run would be scored against this graph
        for name in (LABELS_TSV, LABEL_CODES_NPY, LABEL_GROUPS_TSV):
            (cfg.out / name).unlink(missing_ok=True)
        return outputs, ""
    codes, countries, regions, unmatched = gstore.label_codes(graph, labels)
    labels_path = cfg.out / LABELS_TSV
    codes_path = cfg.out / LABEL_CODES_NPY
    table_path = cfg.out / LABEL_GROUPS_TSV
    with open(labels_path, "w", encoding="utf-8") as f:
        gstore.write_geo_tsv(labels, f)
    np.save(codes_path, codes)
    with open(table_path, "w", encoding="utf-8") as f:
        f.write(f"# unmatched={unmatched}\n")
        for level, table in zip(GEO_LEVELS, (countries, regions)):
            f.writelines(f"{level}\t{key}\n" for key in table)
    none = int(np.count_nonzero(codes[:, 0] < 0))
    both = int(np.count_nonzero(codes[:, 1] >= 0))
    tallies = (
        f" geo_none={none} geo_country={graph.n - none - both} geo_region={both}"
        f" geo_rejected={labels.rejected} geo_duplicates={labels.duplicates}"
        f" geo_unmatched={unmatched}"
    )
    return outputs + [labels_path, codes_path, table_path], tallies


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _parse_input(path: Path, parse, strict: bool):
    """``parse`` of the UTF-8 text file ``path``; other bytes exit 2 naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse(f, strict=strict)
    except UnicodeDecodeError as exc:  # the codec names neither the file nor a file offset
        raise ValueError(
            f"{path}: not UTF-8 text: {exc.reason} {exc.object[exc.start:exc.end]!r}"
        ) from None


def _stage_ingest(cfg: argparse.Namespace, inputs: list[str]) -> tuple[str, list[Path], str]:
    if cfg.links is not None:
        source, parse = cfg.links, gstore.parse_links
    elif cfg.edges is not None:
        source, parse = cfg.edges, gstore.parse_edges_tsv
    else:
        raise FileNotFoundError("missing input: pass --links or --edges to ingest")
    sources = [path for path in (source, cfg.geo) if path is not None]
    if missing := [path for path in sources if not path.is_file()]:
        raise FileNotFoundError(f"missing input file {missing[0]}")
    inputs += map(_entry, sources)  # before parsing: --out may hold a source it rewrites
    edge_list = _parse_input(source, parse, cfg.strict)
    graph = gstore.build_graph(edge_list)
    info = (
        f"n={graph.n} m={graph.m} self_dropped={edge_list.self_pairs_dropped}"
        f" dup_dropped={edge_list.duplicate_pairs_dropped}"
        f" malformed={edge_list.malformed_lines}"
        f" isolated={int(np.sum(graph.degrees == 0))}"
    )
    del edge_list  # its name index and pair arrays are spent
    # geo is parsed once the graph is built (a lower peak) and before anything
    # is written, so a bad geo file leaves no half-written ingest behind
    labels = None if cfg.geo is None else _parse_input(cfg.geo, gstore.parse_geo, cfg.strict)
    outputs, tallies = _write_graph_artifacts(cfg, graph, labels)
    return f"strict={int(cfg.strict)}", outputs, info + tallies


def _stage_features(cfg: argparse.Namespace, inputs: list[str]) -> tuple[str, list[Path], str]:
    graph = _load_graph(cfg, inputs)
    values = compute_all_features(graph)
    stats = global_degree_stats(graph)
    tsv_path = cfg.out / FEATURES_TSV
    npy_path = cfg.out / FEATURES_NPY
    with open(tsv_path, "w", encoding="utf-8") as f:
        write_features_tsv(graph, values, stats, f)
    with open(npy_path, "wb") as f:
        np.save(f, values)
    info = f"mean_degree={stats.mean_degree:.9g} degree_std={stats.degree_std:.9g}"
    return "-", [tsv_path, npy_path], info


def _stage_embed(cfg: argparse.Namespace, inputs: list[str]) -> tuple[str, list[Path], str]:
    values = _load_rows(cfg, FEATURES_NPY, "features", FEATURE_WIDTHS, inputs)
    model = fit_embedding(_labeled_rows(cfg, values, inputs))
    model_path = cfg.out / MODEL_FILE
    points_path = cfg.out / POINTS_NPY
    with open(model_path, "w", encoding="utf-8") as f:
        save_model(model, f)
    with open(points_path, "wb") as f:
        np.save(f, transform_all(model, values))  # every row, also those left out of the fit
    eigs = " ".join(f"{v:.6g}" for v in model.eigenvalues)
    desc = f"labeled_only={int(cfg.labeled_only)}"
    return desc, [model_path, points_path], f"retained={model.retained} eigenvalues=[{eigs}]"


def _null_config(cfg: argparse.Namespace) -> NullSamplingConfig:
    """The null's sampling config; one it cannot fit exits 2 before any work."""
    config = NullSamplingConfig(set_sizes=cfg.sizes, sets_per_size=cfg.sets,
                                pair_budget=cfg.pair_budget, seed=cfg.seed)
    if len(config.set_sizes) < FIT_MIN_SIZES:
        raise ValueError(f"--sizes gives {len(config.set_sizes)} set sizes; fitting alpha"
                         f" needs at least {FIT_MIN_SIZES}")
    return config


def _stage_null(cfg: argparse.Namespace, inputs: list[str]) -> tuple[str, list[Path], str]:
    config = _null_config(cfg)
    points = _labeled_rows(cfg, _load_rows(cfg, POINTS_NPY, "embed", POINT_WIDTHS, inputs), inputs)
    samples = sample_null(points, config)
    model = fit_null_scaling(samples)
    samples_path = cfg.out / NULL_SAMPLES_TSV
    model_path = cfg.out / NULL_MODEL_TSV
    with open(samples_path, "w", encoding="utf-8") as f:
        write_null_samples_tsv(samples, f)
    with open(model_path, "w", encoding="utf-8") as f:
        write_null_model_tsv(model, f)
    desc = (
        f"sizes={','.join(map(str, cfg.sizes))} sets={cfg.sets}"
        f" pair_budget={cfg.pair_budget} labeled_only={int(cfg.labeled_only)}"
    )
    info = f"mu_r={model.mu_r:.9g} a={model.a:.9g} alpha={model.alpha:.9g}"
    return desc, [samples_path, model_path], info


def _stage_test(cfg: argparse.Namespace, inputs: list[str]) -> tuple[str, list[Path], str]:
    points = _load_rows(cfg, POINTS_NPY, "embed", POINT_WIDTHS, inputs)
    null_model = _read_tsv(cfg.out / NULL_MODEL_TSV, "null", inputs, read_null_model_tsv)
    codes, tables, unmatched = _load_label_codes(cfg, len(points), inputs)
    levels = GEO_LEVELS if cfg.level == "both" else (cfg.level,)
    memberships = {
        level: gstore.code_groups(codes[:, GEO_LEVELS.index(level)], tables[level])
        for level in levels
    }
    empty = [level for level in levels if not memberships[level]]
    if len(empty) == len(levels):
        raise ValueError(f"no {'- or '.join(empty)}-level groups found in labels")

    results, skipped, se_fracs = score_groups(points, null_model, memberships,
                                              cfg.pair_budget, cfg.seed)
    out_path = cfg.out / RESULTS_TSV
    with open(out_path, "w", encoding="utf-8") as f:
        write_results_tsv(results, f)
    desc = f"level={cfg.level} pair_budget={cfg.pair_budget}"
    info = (
        f"groups={len(results)} skipped={len(skipped)} unmatched_names={unmatched}"
        f" sampled={len(se_fracs)} pair_se_frac={max(se_fracs, default=0.0):.3g}"
    )
    if empty:
        info += f" empty_levels={','.join(empty)}"
    return desc, [out_path], info


def _stage_report(cfg: argparse.Namespace, inputs: list[str]) -> tuple[str, list[Path], str]:
    results = _read_tsv(cfg.out / RESULTS_TSV, "test", inputs, read_results_tsv)
    summary = summarize(results)
    out_path = cfg.out / SUMMARY_TSV
    with open(out_path, "w", encoding="utf-8") as f:
        write_summary_tsv(summary, f)
    frac = summary.n_significant / summary.n_groups
    print(f"groups tested: {summary.n_groups}")
    print(f"significant (|z| > 2): {summary.n_significant} ({100 * frac:.1f}%)")
    print(f"strongly similar (z < -2): {summary.n_low}")
    print(f"strongly dissimilar (z > +2): {summary.n_high}")
    info = (
        f"groups={summary.n_groups} significant={summary.n_significant}"
        f" low={summary.n_low} high={summary.n_high}"
    )
    return "-", [out_path], info


def _stage_synth(cfg: argparse.Namespace, inputs: list[str]) -> tuple[str, list[Path], str]:
    if cfg.random_groups and cfg.model == "gravity":
        raise ValueError("--random-groups applies to --model er and ba only")
    labels = None
    if cfg.model == "er":
        graph = synthmod.gen_er(cfg.n, cfg.p, cfg.seed)
        desc = f"model=er n={cfg.n} p={cfg.p:.9g}"
    elif cfg.model == "ba":
        graph = synthmod.gen_pref_attach(cfg.n, cfg.attach, cfg.seed)
        desc = f"model=ba n={cfg.n} attach={cfg.attach}"
    else:  # gravity: --model's choices leave no other
        params = synthmod.make_gravity_params(
            n=cfg.n, groups=cfg.groups, beta=cfg.beta, stubs=cfg.stubs, seed=cfg.seed
        )
        graph, labels = synthmod.gen_spatial_gravity(params)
        desc = (
            f"model=gravity n={cfg.n} groups={cfg.groups} beta={cfg.beta:.9g}"
            f" stubs={','.join(map(str, cfg.stubs))}"
        )

    if cfg.random_groups:
        labels = synthmod.random_group_labels(
            graph, cfg.random_groups, cfg.group_sizes, cfg.seed
        )
        desc += f" random_groups={cfg.random_groups}"

    outputs, _ = _write_graph_artifacts(cfg, graph, labels)
    return desc, outputs, f"n={graph.n} m={graph.m}"


_STAGE_FUNCS = {
    "ingest": _stage_ingest,
    "features": _stage_features,
    "embed": _stage_embed,
    "null": _stage_null,
    "test": _stage_test,
    "report": _stage_report,
    "synth": _stage_synth,
}


def run_stage(stage: str, cfg: argparse.Namespace) -> int:
    """Run one stage and append its manifest line; raises on failure (main maps to exit codes)."""
    if stage not in _STAGE_FUNCS:
        raise ValueError(f"unknown stage {stage!r}")
    inputs: list[str] = []
    result = _STAGE_FUNCS[stage](cfg, inputs)  # config, outputs and info
    _append_manifest(cfg, stage, inputs, result)
    return 0


def run_all(cfg: argparse.Namespace) -> int:
    """ingest -> ... -> report, stopping on failure; a bad null config stops it before ingest."""
    _null_config(cfg)
    for stage in ALL_CHAIN:
        run_stage(stage, cfg)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _integer(text: str) -> int:
    """``int(text)``; argparse names the type function on a ValueError, so raise its own error."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(_integer(tok) for tok in text.split(",") if tok)


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        if (value := _integer(text)) < low:
            bound = "a non-negative integer" if low == 0 else f"an integer of at least {low}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _int_pair(text: str) -> tuple[int, int]:
    parts = _int_list(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO,HI, got {text!r}")
    return parts[0], parts[1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toposig",
        description="Feature-space geographic-clustering tests for network topologies.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--out", type=Path, required=True, help="artifact directory")
    base.add_argument("--seed", type=_int_at_least(0), default=0)

    # flags are spelled in full: a prefix such as --lab is an unknown flag
    chain = {
        stage: sub.add_parser(stage, parents=[base], allow_abbrev=False)
        for stage in (*ALL_CHAIN, "all", "synth")
    }
    for stage_parser in chain.values():
        # main reports an unknown flag through the stage's parser, with its usage line
        stage_parser.set_defaults(stage_parser=stage_parser)

    def add(readers: tuple[str, ...], *flag: str, **spec) -> None:
        """Give ``flag`` to the stages that read it and to ``all``."""
        for stage in (*readers, "all"):
            chain[stage].add_argument(*flag, **spec)

    for stage in ("ingest", "all"):
        source = chain[stage].add_mutually_exclusive_group()
        source.add_argument("--links", type=Path, help="router links file")
        source.add_argument("--edges", type=Path, help="canonical edge TSV")
    add(("ingest",), "--geo", type=Path, help="geolocation TSV")
    add(("null",), "--sets", type=int, default=DEFAULT_SETS_PER_SIZE, help="random sets per size")
    add(("null",), "--sizes", type=_int_list, default=DEFAULT_SET_SIZES,
        help="comma list of set sizes")
    add(("null", "test"), "--pair-budget", type=_int_at_least(1), default=DEFAULT_PAIR_BUDGET)
    add(("test",), "--level", choices=("country", "region", "both"), default="country")
    add(("ingest",), "--strict", action="store_true", help="fail on malformed lines")
    add(("embed", "null"), "--labeled-only", action="store_true",
        help="restrict the stage's node set to geolocated nodes")

    synth = chain["synth"]
    synth.add_argument("--model", choices=("er", "ba", "gravity"), default="gravity")
    synth.add_argument("--n", type=int, default=20_000)
    synth.add_argument("--p", type=float, default=0.001, help="edge probability (er)")
    synth.add_argument("--attach", type=int, default=2, help="edges per arrival (ba)")
    synth.add_argument("--groups", type=int, default=20)
    synth.add_argument("--beta", type=float, default=4.0)
    synth.add_argument("--stubs", type=_int_list, default=(1, 2, 3, 4, 5))
    synth.add_argument(
        "--random-groups", type=_int_at_least(0), default=0, help="N random label groups (er/ba)"
    )
    synth.add_argument("--group-sizes", type=_int_pair, default=(50, 500))
    return parser


def main(argv: list[str] | None = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # reported by the stage's own parser, whose usage shows the flags it takes
        args.stage_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        if args.command == "all":
            return run_all(args)
        return run_stage(args.command, args)
    except FileNotFoundError as exc:
        print(f"toposig: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"toposig: parse error: {exc}", file=sys.stderr)
        return 3
    except (DegenerateFeaturesError, NullFitError) as exc:
        print(f"toposig: degenerate input: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"toposig: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
