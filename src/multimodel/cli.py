import argparse
import json
import sys

from .bench import bench_bufferpool, bench_mshj, write_report
from .errors import EngineError
from .executor import Catalog, EngineConfig, format_result, run_script


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="multimodel",
        description="Run query scripts and benchmarks over relational, "
                    "document and tiled-array datasets.")
    sub = p.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="execute a query script")
    runp.add_argument("script", help="script file to run")
    runp.add_argument("--explain", action="store_true",
                      help="print the partitioned plan as JSON instead of "
                           "executing")
    runp.add_argument("--buffer-bytes", type=int, default=64 << 20,
                      help="buffer pool capacity (default 64 MiB)")
    runp.add_argument("--data", default=".",
                      help="catalog directory (default: cwd)")
    runp.add_argument("--seed", type=int, default=0,
                      help="base seed for rand() arrays")
    runp.add_argument("--strategy", default="auto",
                      choices=["auto", "mshj", "convert", "probe-only"],
                      help="inter-model join strategy")
    runp.add_argument("--tile", type=int, default=0,
                      help="tile extent per dimension for materialized "
                           "arrays (0 = single tile)")

    benchp = sub.add_parser("bench", help="run a benchmark")
    bsub = benchp.add_subparsers(dest="bench_cmd", required=True)

    mshjp = bsub.add_parser("mshj", help="join-strategy sweep")
    mshjp.add_argument("--dims", type=int, default=2, choices=[2, 3, 4])
    mshjp.add_argument("--layout", default="dense",
                       choices=["dense", "coo", "csr"])
    mshjp.add_argument("--n-sweep", default="1000:100000:5",
                       help="record counts as lo:hi:steps")
    mshjp.add_argument("--strategy", default="all",
                       choices=["mshj", "convert", "probe-only", "all"])
    mshjp.add_argument("--capacity-tiles", type=int, default=0,
                       help="pool capacity in tiles (0 = effectively "
                            "unbounded)")
    mshjp.add_argument("--seed", type=int, default=0)
    mshjp.add_argument("--repeat", type=int, default=3)
    mshjp.add_argument("--out", default="report.csv")

    poolp = bsub.add_parser("pool", help="buffer-pool policy comparison")
    poolp.add_argument("--capacity", type=int, default=1 << 20)
    poolp.add_argument("--mode", default="both",
                       choices=["unified", "split", "both"])
    poolp.add_argument("--seed", type=int, default=0)
    poolp.add_argument("--out", default="")

    ing = sub.add_parser("ingest", help="validate a file into the catalog")
    ing.add_argument("format", choices=["csv", "jsonl", "coo"])
    ing.add_argument("path")
    ing.add_argument("--as", dest="name", required=True,
                     help="dataset name in the catalog")
    ing.add_argument("--data", default=".")
    ing.add_argument("--size", default="",
                     help="comma-separated array extent (coo only)")
    ing.add_argument("--tile-size", default="",
                     help="comma-separated tile extent (coo only)")
    ing.add_argument("--layout", default="dense",
                     choices=["dense", "coo", "csr"])
    return p


def _fields(text: str) -> list[str] | None:
    return text.split(",") if text else None


def _print_rows(rows) -> None:
    for r in rows:
        print(f"{r['scenario']:>14} {r['strategy']:>10} n={r['n']:<8} "
              f"wall={r['wall_ms']:<10} evictions={r['pool_evictions']}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "run":
            cfg = EngineConfig(data_dir=args.data,
                               buffer_bytes=args.buffer_bytes,
                               seed=args.seed, strategy=args.strategy,
                               default_tile=args.tile)
            result, doc = run_script(args.script, cfg, explain=args.explain)
            if args.explain:
                print(json.dumps(doc, indent=2))
            else:
                out = format_result(result)
                print(out, end="" if out.endswith("\n") else "\n")
        elif args.cmd == "bench" and args.bench_cmd == "mshj":
            rows = bench_mshj(args.dims, args.layout, args.n_sweep,
                              args.strategy, seed=args.seed,
                              capacity_tiles=args.capacity_tiles,
                              repeat=args.repeat)
            write_report(rows, args.out)
            _print_rows(rows)
            print(f"wrote {args.out}")
        elif args.cmd == "bench" and args.bench_cmd == "pool":
            rows, _ = bench_bufferpool(args.capacity, args.mode,
                                       seed=args.seed)
            if args.out:
                write_report(rows, args.out)
                print(f"wrote {args.out}")
            _print_rows(rows)
        elif args.cmd == "ingest":
            dst = Catalog(args.data).ingest(
                args.format, args.path, args.name,
                size=_fields(args.size), tile=_fields(args.tile_size),
                layout=args.layout)
            print(f"ingested {args.name!r} -> {dst}")
    except EngineError as e:
        where = getattr(e, "partition", None)
        suffix = f" (partition {where})" if where is not None else ""
        print(f"error: {e}{suffix}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
