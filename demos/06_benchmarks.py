"""Micro-benchmarks for the join strategies and the shared pool.

bench_mshj sweeps probe-set sizes over a generated array and times each join
strategy cold (fresh pool, fresh load, median of repeats). bench_bufferpool
replays one mixed record/array workload against a unified pool and against
two half-sized private pools. Both are also reachable from the command line:

    multimodel bench mshj --dims 2 --n-sweep 500:5000:4 --out report.csv
    multimodel bench pool --capacity 100000

Run with:  python3 demos/06_benchmarks.py
"""

from multimodel import bench_bufferpool, bench_mshj

rows = bench_mshj(dims=2, layout="csr", n_sweep="200:1600:3",
                  strategy="all", seed=5, repeat=1,
                  size=(90, 90), tile=(30, 30))

print("join strategies, 90x90 csr array, 9 tiles:")
print(f"{'n':>6} {'strategy':>10} {'wall_ms':>8} {'pins':>5} "
      f"{'reads':>6} {'scans':>6} {'checksum':>12}")
for r in rows:
    print(f"{r['n']:>6} {r['strategy']:>10} {r['wall_ms']:>8.2f} "
          f"{r['tile_pins']:>5} {r['tile_reads']:>6} {r['block_scans']:>6} "
          f"{r['checksum']:>12}")

agree = all(len({r["checksum"] for r in rows if r["n"] == n}) == 1
            for n in {r["n"] for r in rows})
print("checksums agree across strategies per n:", agree)

print("\nunified pool vs two half-sized pools, same workload:")
pool_rows, _events = bench_bufferpool(100_000, mode="both", seed=1)
for r in pool_rows:
    print(f"  {r['scenario']:>5} {r['strategy']:>8}: "
          f"evictions={r['pool_evictions']:3d} hits={r['pool_hits']}")
