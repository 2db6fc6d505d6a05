"""Dataset ingestion, seeded experiment orchestration, and reporting.

An experiment is a grid over (algorithm, k, repetition). Every cell derives
its own seed as a pure function of the master seed and the cell coordinates,
runs with a fresh oracle handle, and yields one RunRecord; cells are fully
isolated, so repetitions may fan out across worker processes without
changing any value or query count. The instance reaches each worker once,
when the worker starts, and every cell after that ships only its algorithm
name and solver config.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import baselines, fastsolve
from .config import DEFAULT_EPS, DEFAULT_FLIP_POINT, DEFAULT_REPS, P_PRACTICAL, SolverConfig
from .csr import MAX_N, CSRMatrix
from .errors import ConfigError, EmptyInputError, ParseError
from .objectives import (
    COVERAGE,
    CUT,
    Instance,
    gen_synthetic,
    make_handle,
    objective_value,
)
from .oracle import Solution

log = logging.getLogger(__name__)


@dataclass
class RunRecord:
    """One seeded execution: its outcome, query count, and wall time."""

    algo: str
    k: int
    seed: int
    value: float
    queries: int
    wall_ms: float
    failed: bool


@dataclass
class SummaryRow:
    algo: str
    k: int
    mean_value: float
    std_value: float
    mean_queries: float
    failure_rate: float


@dataclass
class SyntheticSpec:
    """Parameters for generating an instance instead of loading one."""

    kind: str
    n: int
    density: float = 0.5
    lam: float = 0.75
    instance_seed: int = 0


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce one experiment grid. The grid is
    checked and its cells made when the spec is made: k must lie in
    [1, n], with n read from the instance or from its synthetic spec."""

    instance: Instance | SyntheticSpec
    algos: list[str]
    ks: list[int]
    eps: float = DEFAULT_EPS
    t_s: float = DEFAULT_FLIP_POINT
    p_mode: str = P_PRACTICAL
    reps: int = DEFAULT_REPS
    master_seed: int = 0

    def __post_init__(self):
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if not self.ks:
            raise ConfigError("need at least one k value")
        if not self.algos:
            raise ConfigError("need at least one algorithm")
        for algo in self.algos:
            if algo not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {algo!r}")
        # A repeated value would run its cells twice under one summary key.
        for what, values in (("algorithm", self.algos), ("k", self.ks)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"repeated {what} {value!r}")
        src = self.instance
        n = src.n_real if isinstance(src, Instance) else src.n
        for k in self.ks:
            if not 1 <= k <= n:
                raise ConfigError(f"k={k} invalid for instance with n={n}")
        # (algo, solver config) of every cell, so a bad eps or t_s is
        # refused here too, before any instance is built.
        self.cells = [
            (algo, SolverConfig(k=k, eps=self.eps, t_s=self.t_s, p_mode=self.p_mode,
                                seed=derive_cell_seed(self.master_seed, ai, k, rep)))
            for ai, algo in enumerate(self.algos) for k in self.ks for rep in range(self.reps)
        ]


# ---------------------------------------------------------------------------
# Algorithm registry
# ---------------------------------------------------------------------------


def _run_fastls(handle, cfg):
    sol = fastsolve.fast_local_search(handle, cfg)
    if sol is None:
        return Solution(cfg.k), True
    return sol, False


def _run_guided_rg(handle, cfg):
    # Standalone guided variant: guide with the classical local search,
    # report the greedy output itself (warmup_solve takes the max instead).
    rng = np.random.default_rng(cfg.seed)
    guide = baselines.local_search(handle, cfg, rng)
    return baselines.guided_random_greedy(handle, guide, cfg, rng), False


def _run_guided_sg(handle, cfg):
    # Same idea with the fast local search; a failed guide leaves Z empty.
    rng = np.random.default_rng(cfg.seed)
    guide = fastsolve.fast_local_search(handle, cfg, rng)
    failed = guide is None
    if failed:
        guide = Solution(cfg.k)
    return fastsolve.guided_stochastic_greedy(handle, guide, cfg, rng), failed


ALGORITHMS = {
    "main": fastsolve.run_main,
    "warmup": lambda h, c: (baselines.warmup_solve(h, c), False),
    "localsearch": lambda h, c: (baselines.local_search(h, c), False),
    "fastls": _run_fastls,
    "randomgreedy": lambda h, c: (baselines.random_greedy(h, c), False),
    "samplegreedy": lambda h, c: (baselines.sample_greedy(h, c), False),
    "guidedrg": _run_guided_rg,
    "guidedsg": _run_guided_sg,
}


# ---------------------------------------------------------------------------
# Experiment orchestration
# ---------------------------------------------------------------------------


def derive_cell_seed(master_seed: int, algo_index: int, k: int, rep: int) -> int:
    """Pure function of the cell coordinates; lets any single cell re-run."""
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(algo_index, k, rep))
    return int(seq.generate_state(1, np.uint64)[0])


def build_instance(src: Instance | SyntheticSpec) -> Instance:
    """`src` itself, or the synthetic instance it describes."""
    if isinstance(src, Instance):
        return src
    rng = np.random.default_rng(src.instance_seed)
    return gen_synthetic(src.kind, src.n, rng, density=src.density, lam=src.lam)


def materialize_instance(spec: ExperimentSpec) -> Instance:
    return build_instance(spec.instance)


def run_cell(inst: Instance, algo: str, cfg: SolverConfig) -> tuple[RunRecord, list[int], int]:
    """One seeded run on a fresh handle: its record, the sorted real ids of
    its set, and the answers the objective computed (`ledger.evaluated`)."""
    handle = make_handle(inst, cfg.k)
    t0 = time.perf_counter()
    sol, failed = ALGORITHMS[algo](handle, cfg)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    real = sorted(sol.strip_dummies(handle.ground))
    # Record value through the reference formulas so the ledger only
    # reflects what the solver itself spent.
    value = objective_value(inst, real)
    record = RunRecord(
        algo=algo,
        k=cfg.k,
        seed=cfg.seed,
        value=float(value),
        queries=handle.ledger.queries,
        wall_ms=wall_ms,
        failed=failed,
    )
    return record, real, handle.ledger.evaluated


_held_instance: Instance | None = None


def _hold_instance(inst: Instance) -> None:
    """Pool initializer: keep the instance for every cell this worker runs."""
    global _held_instance
    _held_instance = inst


def _run_held_cell(algo: str, cfg: SolverConfig) -> RunRecord:
    return run_cell(_held_instance, algo, cfg)[0]


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[RunRecord]:
    """Run the full (algo, k, repetition) grid and return one record per cell."""
    inst = materialize_instance(spec)
    cells = spec.cells
    if workers <= 1:
        return [run_cell(inst, algo, cfg)[0] for algo, cfg in cells]
    # No more workers than cells: each worker holds a copy of the parent.
    with ProcessPoolExecutor(
        max_workers=min(workers, len(cells)),
        initializer=_hold_instance,
        initargs=(inst,),
    ) as pool:
        futures = [pool.submit(_run_held_cell, algo, cfg) for algo, cfg in cells]
        return [f.result() for f in futures]


def summarize(records: list[RunRecord]) -> list[SummaryRow]:
    """Group means and population standard deviations per (algo, k)."""
    if not records:
        raise EmptyInputError("no records to summarize")
    groups: dict[tuple[str, int], list[RunRecord]] = {}
    for rec in records:
        groups.setdefault((rec.algo, rec.k), []).append(rec)
    rows = []
    for (algo, k) in sorted(groups):
        members = groups[(algo, k)]
        values = np.array([r.value for r in members])
        queries = np.array([r.queries for r in members], dtype=float)
        rows.append(
            SummaryRow(
                algo=algo,
                k=k,
                mean_value=float(values.mean()),
                std_value=float(values.std()),
                mean_queries=float(queries.mean()),
                failure_rate=sum(r.failed for r in members) / len(members),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def text_lines(path):
    """(line number, stripped line) for each non-blank line of a UTF-8 text
    file. A file that is not UTF-8 raises ParseError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from None


def load_similarity_csv(path, kind: str = COVERAGE, lam: float = 0.75) -> Instance:
    """Parse an n x n comma-separated matrix of reals (no header row).

    Finite negative entries are clamped to zero with a logged warning,
    matching the non-negativity requirement of the similarity objectives;
    `Instance` rejects the non-finite ones.
    """
    # The first row's width w fixes the shape a square matrix must have, so
    # the rows are parsed straight into one w x w array; rows past the w-th
    # are still parsed, and counted, so that a bad cell is reported first.
    mat = np.empty((0, 0))
    nrows = clamped = 0
    for lineno, line in text_lines(path):
        cells = line.split(",")
        if not nrows:
            mat = np.empty((len(cells), len(cells)))
        elif len(cells) != mat.shape[1]:
            raise ParseError(f"ragged row: expected {mat.shape[1]} cells, got {len(cells)}", lineno)
        try:
            row = np.array([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(f"non-numeric cell: {exc}", lineno) from None
        if nrows < len(mat):
            neg = (row < 0) & np.isfinite(row)
            clamped += int(neg.sum())
            row[neg] = 0.0
            mat[nrows] = row
        nrows += 1
    if not nrows or nrows != len(mat):
        shape = (nrows, len(mat)) if nrows else (0,)
        raise ParseError(f"matrix must be square, got shape {shape}")
    if clamped:
        log.warning("clamped %d negative similarity entries to 0 in %s", clamped, path)
    return Instance(kind=kind, data=mat, lam=lam)


def load_edge_list(path) -> Instance:
    """Parse whitespace-separated "u v w" lines into a symmetric graph.

    Duplicate directed pairs are summed, both directions of the same edge
    are summed, and self-loops are dropped with a warning.
    """
    entries: dict[tuple[int, int], float] = {}
    n = 0
    for lineno, line in text_lines(path):
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'u v w', got {len(parts)} fields", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {parts[:2]}", lineno) from None
        try:
            w = float(parts[2])
        except ValueError:
            raise ParseError(f"non-numeric weight {parts[2]!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative node id in {parts[:2]}", lineno)
        if w < 0:
            raise ParseError(f"negative edge weight {w}", lineno)
        n = max(n, u + 1, v + 1)
        if u == v:
            log.warning("dropping self-loop at node %d (line %d)", u, lineno)
            continue
        key = (min(u, v), max(u, v))
        entries[key] = entries.get(key, 0.0) + w
    if n == 0:
        raise ParseError(f"no edges in {path}")
    try:
        if n > MAX_N:
            raise MemoryError  # row * n + col would not fit in an int64
        pairs = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
        weights = np.fromiter(entries.values(), dtype=np.float64, count=len(entries))
        return Instance(kind=CUT, data=CSRMatrix.symmetric(n, pairs[:, 0], pairs[:, 1], weights))
    except (ValueError, MemoryError):
        raise ParseError(
            f"largest node id {n - 1} gives n={n}, whose per-node arrays of {8 * n} bytes "
            "cannot be allocated"
        ) from None


def load_instance(path, kind: str, lam: float) -> Instance:
    """Read an instance of `kind` from the format `write_instance` writes."""
    if kind == CUT:
        return load_edge_list(path)
    return load_similarity_csv(path, kind=kind, lam=lam)


def write_instance(inst: Instance, path) -> None:
    """Inverse of the loaders: edge list for graphs, CSV for similarities."""
    if inst.kind == CUT:
        # The stored upper triangle, row by row, with the zeros left out, then
        # a zero-weight pair on node n - 1 that carries n to the loader.
        w = inst.data
        rows = w.entry_rows()
        upper = (w.indices > rows) & (w.weights != 0.0)
        with open(path, "w") as fh:
            for u, v, x in zip(rows[upper].tolist(), w.indices[upper].tolist(),
                               w.weights[upper].tolist()):
                fh.write(f"{u} {v} {x!r}\n")
            fh.write(f"0 {w.shape[0] - 1} 0.0\n")
    else:
        with open(path, "w") as fh:
            for row in inst.data:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

RECORD_HEADER = "algo,k,seed,value,queries,wall_ms,failed"


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def write_csv(records: list[RunRecord], path) -> None:
    """Run records to CSV; reals carry 9 significant digits."""
    lines = [RECORD_HEADER]
    for r in records:
        lines.append(
            f"{r.algo},{r.k},{r.seed},{_fmt(r.value)},{r.queries},"
            f"{_fmt(r.wall_ms)},{int(r.failed)}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records_csv(path) -> list[RunRecord]:
    """Parse a file written by `write_csv`; a malformed row raises
    ParseError naming its line."""
    lines = text_lines(path)
    lineno, header = next(lines, (1, ""))
    if lineno != 1 or header != RECORD_HEADER:
        raise ParseError(f"unexpected header {header!r}", 1)
    records = []
    for lineno, line in lines:
        try:
            algo, k, seed, value, queries, wall_ms, failed = line.split(",")
            records.append(
                RunRecord(
                    algo=algo,
                    k=int(k),
                    seed=int(seed),
                    value=float(value),
                    queries=int(queries),
                    wall_ms=float(wall_ms),
                    failed=bool(int(failed)),
                )
            )
        except ValueError as exc:
            raise ParseError(f"malformed row: {exc}", lineno) from None
    return records


# ---------------------------------------------------------------------------
# SVG output
# ---------------------------------------------------------------------------

SVG_WIDTH = 720
SVG_HEIGHT = 480
SVG_MARGIN_LEFT = 70
SVG_MARGIN_RIGHT = 160
SVG_MARGIN_TOP = 30
SVG_MARGIN_BOTTOM = 50

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
]


def svg_x(k: float, k_lo: float, k_hi: float) -> float:
    span = (k_hi - k_lo) or 1.0
    inner = SVG_WIDTH - SVG_MARGIN_LEFT - SVG_MARGIN_RIGHT
    return SVG_MARGIN_LEFT + (k - k_lo) / span * inner


def svg_y(v: float, v_lo: float, v_hi: float) -> float:
    span = (v_hi - v_lo) or 1.0
    inner = SVG_HEIGHT - SVG_MARGIN_TOP - SVG_MARGIN_BOTTOM
    return SVG_HEIGHT - SVG_MARGIN_BOTTOM - (v - v_lo) / span * inner


def render_svg(rows: list[SummaryRow], path) -> None:
    """Mean value against k per algorithm, with a translucent band of one
    standard deviation around each polyline."""
    if not rows:
        raise EmptyInputError("no summary rows to plot")
    algos = sorted({r.algo for r in rows})
    k_lo = min(r.k for r in rows)
    k_hi = max(r.k for r in rows)
    v_lo = min(r.mean_value - r.std_value for r in rows)
    v_hi = max(r.mean_value + r.std_value for r in rows)
    if v_lo == v_hi:
        v_lo -= 1.0
        v_hi += 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    # axes
    x0, y0 = svg_x(k_lo, k_lo, k_hi), svg_y(v_lo, v_lo, v_hi)
    x1, y1 = svg_x(k_hi, k_lo, k_hi), svg_y(v_hi, v_lo, v_hi)
    parts.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y0:.2f}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{SVG_HEIGHT - 12}" text-anchor="middle" '
        f'font-size="14">k</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.2f})">mean value</text>'
    )
    for ai, algo in enumerate(algos):
        color = _PALETTE[ai % len(_PALETTE)]
        pts = sorted((r.k, r.mean_value, r.std_value) for r in rows if r.algo == algo)
        band_top = [(svg_x(k, k_lo, k_hi), svg_y(m + s, v_lo, v_hi)) for k, m, s in pts]
        band_bot = [(svg_x(k, k_lo, k_hi), svg_y(m - s, v_lo, v_hi)) for k, m, s in reversed(pts)]
        band = " ".join(f"{x:.2f},{y:.2f}" for x, y in band_top + band_bot)
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
        line = " ".join(
            f"{svg_x(k, k_lo, k_hi):.2f},{svg_y(m, v_lo, v_hi):.2f}" for k, m, _ in pts
        )
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for k, m, _ in pts:
            parts.append(
                f'<circle cx="{svg_x(k, k_lo, k_hi):.2f}" cy="{svg_y(m, v_lo, v_hi):.2f}" '
                f'r="3" fill="{color}"/>'
            )
        ly = SVG_MARGIN_TOP + 18 * ai + 10
        lx = SVG_WIDTH - SVG_MARGIN_RIGHT + 16
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly + 4}" font-size="13">{algo}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
