"""Command line interface.

Subcommands:
  solve       one seeded run of one algorithm on one instance
  bench       a full (algo, k, repetition) grid with CSV/SVG reporting
  bruteforce  exhaustive optimum for desk-scale instances
  gen         write a synthetic instance to a data file

Exit codes: 0 on success, 1 on configuration or parse errors (bad flags
included), 2 on I/O errors. A flat key=value config file can seed the
bench flags; explicit flags override it.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import (
    ALGORITHMS,
    ExperimentSpec,
    SyntheticSpec,
    build_instance,
    load_instance,
    render_svg,
    run_cell,
    run_experiment,
    summarize,
    text_lines,
    write_csv,
    write_instance,
)
from .config import DEFAULT_EPS, DEFAULT_FLIP_POINT, DEFAULT_REPS, SolverConfig
from .errors import ConfigError, ParseError, SubmaxError
from .objectives import (
    COVERAGE,
    CUT,
    FACILITY,
    brute_force_opt,
    gen_synthetic,
    make_handle,
)

OBJECTIVES = {"coverage": COVERAGE, "facility": FACILITY, "cut": CUT}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError instead of exiting 2.
    Flags must be spelled out, so a config key that only abbreviates a
    flag is rejected as unknown."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _int_at_least(name: str, low: int, rule: str):
    """argparse type, named `name` in errors, of an integer flag >= `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} {rule}, got {value}")
        return value

    parse.__name__ = name
    return parse


# numpy takes non-negative seeds only.
_SEED = _int_at_least("seed", 0, "must be non-negative")


def _comma_list(item):
    """argparse type of a comma list of `item` values; blank entries are skipped."""

    def parse(text: str) -> list:
        return [item(x.strip()) for x in text.split(",") if x.strip()]

    parse.__name__ = f"{item.__name__} list"
    return parse


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--objective", choices=sorted(OBJECTIVES), default="coverage")
    p.add_argument("--data", help="similarity CSV or edge list; omit to use a synthetic instance")
    p.add_argument("--lambda", dest="lam", type=float, default=0.75,
                   help="diversity weight for the coverage objective")
    p.add_argument("--n", type=int, default=100, help="synthetic instance size")
    p.add_argument("--density", type=float, default=0.5, help="synthetic edge density")
    p.add_argument("--instance-seed", type=_SEED, default=0, help="synthetic generation seed")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--ts", type=float, default=DEFAULT_FLIP_POINT,
                   help="flip point for the guided phase")
    p.add_argument("--p-mode", choices=["practical", "theoretical"], default="practical")
    p.add_argument("--seed", type=_SEED, default=0)


def _instance_source(args):
    """The --data file's instance, or the parameters of a synthetic one."""
    kind = OBJECTIVES[args.objective]
    if args.data:
        return load_instance(args.data, kind, args.lam)
    return SyntheticSpec(kind, args.n, args.density, args.lam, args.instance_seed)


def _config_flags(path) -> list[str]:
    """Flat key=value lines mirroring the bench flags, as `--key=value`
    flags; # starts a comment."""
    flags = []
    for lineno, line in text_lines(path):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", lineno)
        key, value = line.split("=", 1)
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def cmd_solve(args) -> int:
    cfg = SolverConfig(k=args.k, eps=args.eps, t_s=args.ts, p_mode=args.p_mode, seed=args.seed)
    inst = build_instance(_instance_source(args))
    rec, real, evaluated = run_cell(inst, args.algo, cfg)
    print(f"algo={rec.algo} k={rec.k} seed={rec.seed}")
    print(f"value={rec.value:.9g} queries={rec.queries} "
          f"evaluated={evaluated} wall_ms={rec.wall_ms:.3f} failed={int(rec.failed)}")
    print("elements=" + ",".join(map(str, real)))
    return 0


def cmd_bench(args) -> int:
    if args.algo is None:
        raise ConfigError("bench requires --algo (comma list) or a config file")
    spec = ExperimentSpec(
        instance=_instance_source(args),
        algos=args.algo,
        ks=args.k,
        eps=args.eps,
        t_s=args.ts,
        p_mode=args.p_mode,
        reps=args.reps,
        master_seed=args.seed,
    )
    records = run_experiment(spec, workers=args.workers)
    table = summarize(records)
    for row in table:
        print(f"{row.algo:>14s} k={row.k:<4d} mean={row.mean_value:.6g} "
              f"std={row.std_value:.4g} queries={row.mean_queries:.4g} "
              f"fail={row.failure_rate:.3f}")
    if args.out:
        write_csv(records, args.out)
        print(f"records -> {args.out}")
    if args.svg:
        render_svg(table, args.svg)
        print(f"plot -> {args.svg}")
    return 0


def cmd_bruteforce(args) -> int:
    inst = build_instance(_instance_source(args))
    handle = make_handle(inst, args.k)
    cert = brute_force_opt(handle, args.k)
    ids = sorted(cert.opt_set.elements)
    print(f"opt_value={cert.opt_value:.9g}")
    print("opt_set=" + ",".join(map(str, ids)))
    print(f"enumerated={cert.enumerated}")
    return 0


def cmd_gen(args) -> int:
    kind = OBJECTIVES[args.objective]
    rng = np.random.default_rng(args.seed)
    inst = gen_synthetic(
        kind, args.n, rng,
        density=args.density, lam=args.lam,
        weight_range=(args.weight_lo, args.weight_hi),
    )
    write_instance(inst, args.out)
    print(f"{kind} n={args.n} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="submax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one algorithm once")
    _add_instance_flags(p)
    _add_solver_flags(p)
    p.add_argument("--algo", choices=sorted(ALGORITHMS), default="main")
    p.add_argument("--k", type=int, required=True, help="cardinality bound")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="seeded experiment grid")
    _add_instance_flags(p)
    _add_solver_flags(p)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--algo", type=_comma_list(str), help="comma-separated algorithm names")
    p.add_argument("--k", type=_comma_list(int), default="10", help="comma-separated k sweep")
    p.add_argument("--reps", type=int, default=DEFAULT_REPS)
    p.add_argument("--workers", type=_int_at_least("workers", 1, "must be >= 1"), default=1,
                   help="worker processes for the grid's cells (1 runs them in this process)")
    p.add_argument("--out", help="write per-run records CSV here")
    p.add_argument("--svg", help="write the value-vs-k plot here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bruteforce", help="exhaustive optimum (small n only)")
    _add_instance_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("gen", help="write a synthetic instance to file")
    p.add_argument("--objective", choices=sorted(OBJECTIVES), default="cut")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--lambda", dest="lam", type=float, default=0.75)
    p.add_argument("--weight-lo", type=float, default=0.0)
    p.add_argument("--weight-hi", type=float, default=1.0)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # File values go before the explicit flags, so the flags win.
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        return args.func(args)
    except SubmaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
