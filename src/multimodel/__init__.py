"""Embeddable multi-model analytic engine.

Relational, document, and array data under one buffer pool, with an
order-preserving multi-stage hash join between arrays and record models.
"""

from .errors import (
    ArrayFileError,
    BindingError,
    BoundsError,
    CapacityError,
    ConfigError,
    DataFormatError,
    DuplicateCellError,
    EngineError,
    InternalError,
    NotFoundError,
    OutputSpecError,
    PathError,
    PlanError,
    ScriptError,
    ShapeError,
    TooLargeError,
    TypeMismatchError,
)
from .models import (
    ABSENT,
    ArrayMeta,
    CellSchema,
    Collection,
    Relation,
    ValueType,
    collection_from_jsonl,
    collection_to_jsonl,
    relation_from_csv,
    relation_to_csv,
)
from .buffer_pool import BufferObject, BufferPool, PoolStats
from .array_store import (
    ArrayBuilder,
    StoredArray,
    Tile,
)
from .array_engine import (
    ewise,
    matmul,
    spatial_join_array,
    transpose,
)
from .planner import (
    LogicalPlan,
    Partition,
    PartitionDag,
    PlanNode,
    TreeNode,
    dag_to_trees,
    partition,
    partition_dag_to_dict,
    plan_to_dict,
    topo_order,
)
from .predicates import parse_predicate, parse_sort_spec
from .bridge import (
    JoinStats,
    JoinTrace,
    dispatch_join,
    to_array,
    to_relation,
)
from .executor import Catalog, Engine, EngineConfig, format_result, run_script
from .script import bind_script, parse_script
from .bench import bench_bufferpool, bench_mshj, checksum, write_report

__version__ = "0.1.0"
