"""Script execution: catalog lookup, partitioning, per-model dispatch.

A bound plan is rewritten (``planner.rewrite``: matmul chains reordered,
transposes folded into matmul, filters pushed below record–array joins)
and partitioned; partitions run in topological order, record partitions
first among those ready (``topo_order``), and every partition's result
lands in a registry keyed by its output node's id, where downstream
partitions pick it up.  Relational and document partitions run as operator
trees, and a record node's value is the Relation or Collection its tree
made (``rd_engine``): every reader of the node, in any partition, sees the
same columns and qualifiers, and so does the caller when the node is the
run's target (a collection result is renamed ``result``, its columns
shared).  Array partitions run node by node on tiled arrays; inter-model
partitions are the conversion / join bridge calls, which take and give
records as they are.  A record–array join passes the plan's
predicate, output model and names to ``bridge.dispatch_join`` as they are,
with the configured strategy; the bridge routes it.  A conversion passes
its records to ``bridge.to_array`` with only the default tile extent and
spool directory; the bridge derives the array's extent, value types and
tiling from its one walk over the records.  A matmul read only by a
record–array join whose records have run computes only the tiles that join
probes (``_tile_demand``).

Intermediates live until their last consumer has run: each node's consumers
are counted from the plan, and when the count reaches zero the node's
registry entry is dropped and, for an array, ``StoredArray.release`` takes
its tiles out of the pool unspilled and deletes its spill file.  Array
partitions count per node, the other partitions when the whole partition
has run.  The run's target is never freed; a failed run frees every array
still registered.  A dataset is one scan node (``script``), so one
partition loads it, into that partition's own scope: a table or collection
is dropped when the partition ends, or, when its scan node's value is read
by later partitions, after the last of them, like any other node.  A run
never holds data an earlier run loaded.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from . import array_engine
from .array_store import StoredArray
from .bridge import JoinStats, dispatch_join, join_tiles, to_array, to_relation
from .buffer_pool import BufferPool
from .errors import (ConfigError, DataFormatError, EngineError, NotFoundError,
                     PlanError)
from .models import (FLOAT, STRING, UINT, ArrayMeta, CellSchema, Collection,
                     Relation, _csv_row_line, collection_from_jsonl,
                     collection_to_jsonl, csv_row_count, relation_from_csv,
                     relation_to_csv, tile_extent)
from .planner import (LogicalPlan, Partition, dag_to_trees,
                      partition, partition_dag_to_dict, plan_to_dict, rewrite,
                      topo_order)
from .rd_engine import execute_tree
from .script import bind_script

_EXT = {"relational": ".csv", "document": ".jsonl", "array": ".m2ar"}


@dataclass
class EngineConfig:
    data_dir: str = "."
    buffer_bytes: int = 64 << 20
    seed: int = 0
    default_tile: int = 0  # per-dimension tile extent; 0 = one tile per array
    strategy: str = "auto"  # inter-model join routing
    spool_dir: str | None = None


class Catalog:
    """Datasets in a directory, one file per dataset, format by extension."""

    def __init__(self, data_dir: str):
        self.data_dir = data_dir

    def path(self, name: str, model: str) -> str:
        return os.path.join(self.data_dir, name + _EXT[model])

    def exists(self, name: str, model: str) -> bool:
        return os.path.isfile(self.path(name, model))

    def _read(self, name: str, model: str) -> str:
        p = self.path(name, model)
        if not os.path.isfile(p):
            raise NotFoundError(f"dataset {name!r} not found in "
                                f"{self.data_dir!r}")
        with open(p, "r", encoding="utf-8") as f:
            return f.read()

    def load_table(self, name: str) -> Relation:
        return relation_from_csv(self._read(name, "relational"), name=name)

    def load_collection(self, name: str) -> Collection:
        return collection_from_jsonl(self._read(name, "document"), name)

    def load_array(self, name: str, pool: BufferPool, *,
                   spool_dir: str | None = None) -> StoredArray:
        p = self.path(name, "array")
        if not os.path.isfile(p):
            raise NotFoundError(f"dataset {name!r} not found in "
                                f"{self.data_dir!r}")
        return StoredArray.load(p, pool, name=name, spool_dir=spool_dir)

    def count(self, name: str, model: str) -> int:
        if model == "relational":
            return csv_row_count(self._read(name, "relational"), name)
        if model == "document":
            return len(self.load_collection(name))
        raise ConfigError(f"cannot count a {model} dataset at bind time")

    # -- ingestion --------------------------------------------------------

    def ingest(self, fmt: str, src_path: str, name: str, *,
               size=None, tile=None, layout: str = "dense") -> str:
        """Validate an external file and store it under the catalog name.
        Returns the stored path.

        A ``coo`` file is the CSV that ``format_result`` prints for an
        array: read by the CSV loader with its first ``len(size)`` columns
        typed ``uint`` and the rest's types inferred (a value column no
        bool, int or float reads, or one without cells, is read as float),
        then made an array by ``to_array`` with the given extent, tiling
        and layout.  An empty, repeated or out-of-range cell, or an int
        beyond int64, is refused with its line."""
        if not os.path.isfile(src_path):
            raise NotFoundError(f"no such file: {src_path}")
        with open(src_path, "r", encoding="utf-8") as f:
            text = f.read()
        os.makedirs(self.data_dir, exist_ok=True)
        if fmt == "csv":
            rel = relation_from_csv(text, name=name)
            dst = self.path(name, "relational")
            payload = relation_to_csv(rel)
        elif fmt == "jsonl":
            col = collection_from_jsonl(text, name)
            dst = self.path(name, "document")
            payload = collection_to_jsonl(col)
        elif fmt == "coo":
            if not size:
                raise ConfigError("coo ingestion needs --size to fix the "
                                  "array extent")
            size = _extent("--size", size)
            tile = _extent("--tile-size", tile) if tile else size
            header = next(filter(None, csv.reader(io.StringIO(text))), [])
            d = len(size)
            if len(header) <= d:
                raise ConfigError("coo header needs dimension columns plus "
                                  "at least one value column")
            dims, values = header[:d], header[d:]
            rel = relation_from_csv(text, [(n, UINT) for n in dims] +
                                    [(n, None) for n in values], name)
            nulls = [c.null_mask() for c in rel.columns]
            if (bad := np.logical_or.reduce(nulls)).any():
                r = int(np.argmax(bad))
                col = next(n for n, null in zip(header, nulls) if null[r])
                raise DataFormatError(f"column {col!r}: empty cell", name,
                                      _csv_row_line(text, r + 1))
            if STRING in (vt for _, vt in rel.schema):
                # as float, whose parse names the first cell it cannot read
                rel = relation_from_csv(text, [(n, FLOAT if vt == STRING else vt)
                                               for n, vt in rel.schema], name)
            try:
                meta = ArrayMeta(CellSchema(tuple(dims), tuple(values), tuple(
                    vt for _, vt in rel.schema[d:])), size, tile, layout)
            except ValueError as e:
                raise ConfigError(f"coo array: {e}") from None
            try:
                arr = to_array(rel, dims, values, meta, BufferPool(1 << 30),
                               name=name)
            except EngineError as e:
                if e.index is None:
                    raise
                raise DataFormatError(e.detail, name,
                                      _csv_row_line(text, e.index + 1)) from None
            dst = self.path(name, "array")
            arr.save(dst)
            return dst
        else:
            raise ConfigError(f"unknown ingestion format {fmt!r}")
        with open(dst, "w", encoding="utf-8") as f:
            f.write(payload)
        return dst


def _extent(option: str, values) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in values)
    except ValueError:
        raise ConfigError(f"{option} takes comma-separated integers, got "
                          f"{','.join(map(str, values))!r}") from None


class Engine:
    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.catalog = Catalog(self.config.data_dir)
        self.pool = BufferPool(self.config.buffer_bytes)
        self.join_stats: list[JoinStats] = []

    # -- entry points ------------------------------------------------------

    def plan_script(self, text: str) -> tuple[LogicalPlan, int]:
        """The plan that runs: the script as bound, then rewritten."""
        return rewrite(*bind_script(text, self.catalog, self.config))

    def explain(self, text: str) -> dict:
        """The plan that runs, partitioned, with the plan as bound (before
        ``rewrite``) under ``bound`` in the same form."""
        bound = bind_script(text, self.catalog, self.config)
        doc = _plan_document(*rewrite(*bound))
        doc["bound"] = _plan_document(*bound)
        return doc

    def run(self, text: str):
        plan, target = self.plan_script(text)
        return self.run_plan(plan, target)

    def run_plan(self, plan: LogicalPlan, target: int):
        self.join_stats = []  # the joins of this run only
        pd = partition(plan)
        reg: dict[int, object] = {}  # node id -> value
        live = _Liveness(plan, target, reg)
        try:
            for part in topo_order(pd):
                try:
                    self._run_partition(plan, part, reg, live)
                except EngineError as e:
                    e.partition = part.index  # which stage failed, for reporting
                    raise
            res = reg[target]
            if isinstance(res, Collection):  # named alike whatever made it
                res = Collection.from_columns("result", res.shapes,
                                              res.shape_ids, res.columns,
                                              res.quals)
            return res
        except BaseException:
            for value in reg.values():
                if isinstance(value, StoredArray):
                    value.release()
            raise

    # -- per-partition dispatch ---------------------------------------------

    def _run_partition(self, plan: LogicalPlan, part: Partition, reg: dict,
                       live: _Liveness):
        if part.model in ("relational", "document"):
            self._run_rd_partition(plan, part, reg)
            live.ran(part.node_ids)
        elif part.model == "array":
            for nid in sorted(part.node_ids):  # inputs have lower ids
                n = plan.node(nid)
                reg[nid] = self._array_node(
                    n, reg, tiles=self._tile_demand(plan, n, live.target, reg))
                live.ran((nid,))
        else:
            nid = part.output_node
            reg[nid] = self._bridge_node(plan.node(nid), reg)
            live.ran((nid,))

    def _run_rd_partition(self, plan, part, reg):
        scope = dict(reg)  # and each dataset the partition scans, by name
        for n in map(plan.node, part.node_ids):
            if n.op == "scan":
                load = (self.catalog.load_table if n.model == "relational"
                        else self.catalog.load_collection)
                scope[n.params["name"]] = load(n.params["name"])
        main, trees = dag_to_trees(plan, part)
        for nid, tree in trees:
            scope[nid] = reg[nid] = execute_tree(tree, scope)
        reg[part.output_node] = execute_tree(main, scope)

    def _tile_demand(self, plan, n, target, reg):
        """The tiles of matmul n's result that its one reader, a
        record–array join whose records have run, probes (``join_tiles``);
        None, for every tile, anywhere else."""
        cons = plan.consumers()[n.id]
        if n.op != "matmul" or n.id == target or len(cons) != 1:
            return None
        join = plan.node(cons[0])
        records = reg.get(join.inputs[0])
        if join.op != "join_rel_array" or join.inputs[1] != n.id or \
                records is None:
            return None
        meta = array_engine.matmul_meta(*(
            array_engine.transposed_meta(reg[i].meta)
            if n.params.get(flag) else reg[i].meta
            for i, flag in zip(n.inputs, ("transpose_a", "transpose_b"))))
        p = join.params
        return join_tiles(records, meta, p["pred"],
                          rec_name=p["rec_name"], arr_name=p["arr_name"],
                          strategy=self.config.strategy)

    def _array_node(self, n, reg, tiles=None) -> StoredArray:
        ins = [reg[i] for i in n.inputs]
        p = n.params
        if n.op == "rand":
            size = tuple(p["size"])
            return array_engine.rand(size,
                                     tile_extent(size, self.config.default_tile),
                                     p["seed"], self.pool,
                                     spool_dir=self.config.spool_dir)
        if n.op == "scan_array":
            return self.catalog.load_array(p["name"], self.pool,
                                           spool_dir=self.config.spool_dir)
        if n.op == "matmul":
            return array_engine.matmul(
                ins[0], ins[1], transpose_a=p.get("transpose_a", False),
                transpose_b=p.get("transpose_b", False), tiles=tiles)
        if n.op == "transpose":
            return array_engine.transpose(ins[0])
        if n.op == "ewise":
            return array_engine.ewise(p["fn"], ins[0], ins[1])
        if n.op == "spatial_join":
            return array_engine.spatial_join_array(ins[0], ins[1])
        raise PlanError(f"unsupported array operator {n.op!r}")

    def _bridge_node(self, n, reg):
        p = n.params
        if n.op == "to_array":
            return to_array(reg[n.inputs[0]], p["dims"],
                            p["values"], None, self.pool,
                            default_tile=self.config.default_tile,
                            spool_dir=self.config.spool_dir)
        if n.op == "join_rel_array":
            records, arr = reg[n.inputs[0]], reg[n.inputs[1]]
            stats = JoinStats()
            res = dispatch_join(records, arr, p["pred"], p["out_model"],
                                rec_name=p["rec_name"],
                                arr_name=p["arr_name"],
                                strategy=self.config.strategy, stats=stats)
            self.join_stats.append(stats)
            return res
        raise PlanError(f"unsupported inter-model operator {n.op!r}")


def _plan_document(plan: LogicalPlan, target: int) -> dict:
    doc = plan_to_dict(plan)
    doc.update(partition_dag_to_dict(partition(plan)))
    doc["target"] = target
    return doc


class _Liveness:
    """Remaining consumers per plan node; frees a node's registry entry once
    none is left."""

    def __init__(self, plan: LogicalPlan, target: int, reg: dict):
        self.plan, self.target, self.reg = plan, target, reg
        self.remaining = {nid: len(set(cs))
                          for nid, cs in plan.consumers().items()}

    def ran(self, nids) -> None:
        """`nids` have run: each of their inputs has one consumer fewer, and
        whatever has none left (a node nothing reads included) is freed."""
        done = set(nids)
        for nid in nids:
            for i in set(self.plan.node(nid).inputs):
                self.remaining[i] -= 1
                done.add(i)
        for nid in done:
            if self.remaining[nid] == 0 and nid != self.target:
                value = self.reg.pop(nid, None)
                if isinstance(value, StoredArray):
                    value.release()


def run_script(path: str, config: EngineConfig | None = None, *,
               explain: bool = False):
    """Load and run a script file.  Returns ``(result, None)``, or
    ``(None, plan_document)`` when explaining instead of executing."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    engine = Engine(config)
    if explain:
        return None, engine.explain(text)
    return engine.run(text), None


def format_result(value) -> str:
    if isinstance(value, Relation):
        return relation_to_csv(value)
    if isinstance(value, Collection):
        return collection_to_jsonl(value)
    if isinstance(value, StoredArray):
        return relation_to_csv(to_relation(value))
    return json.dumps(value, default=str)
