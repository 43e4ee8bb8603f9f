"""Query engine: SQL text → logical plan → physical plan → rows.

A deliberately compact SparkSQL stand-in with the pieces Maxson touches:
expression trees containing ``get_json_object`` calls, replaceable scan
operators, SARG pushdown, and read/parse/compute cost attribution.
"""

from .cancel import CancelToken
from .catalog import Catalog, TableInfo
from .functions import SCALAR_FUNCTIONS, FunctionCall, is_scalar_function
from .errors import (
    CatalogError,
    DeadlineExceededError,
    EngineError,
    ExecutionError,
    PlanError,
    QueryCancelledError,
    SqlSyntaxError,
)
from .expressions import (
    AggregateCall,
    Alias,
    Between,
    BinaryOp,
    CachedField,
    CastExpr,
    Column,
    EvalContext,
    Expression,
    ExtractionCall,
    GetJsonObject,
    GetXmlObject,
    InList,
    Literal,
    UnaryOp,
    transform,
    walk,
)
from .logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    SortKey,
)
from .metrics import QueryMetrics
from .parallel import MorselAggregateExec, MorselPipelineExec, parallelize_plan
from .physical import (
    AggregateExec,
    ExecState,
    FilterExec,
    HashJoinExec,
    LimitExec,
    PhysicalPlan,
    ProjectExec,
    ScanExec,
    SortExec,
)
from .cachebudget import BUDGETED_TIERS, CacheLedger
from .plancache import PlanCache
from .planner import PlannedQuery, Planner
from .resultcache import CanonicalStatement, ResultCache, canonicalize
from .session import QueryResult, Session
from .sqlparser import parse_sql

__all__ = [
    "Session",
    "QueryResult",
    "QueryMetrics",
    "Catalog",
    "TableInfo",
    "parse_sql",
    "Planner",
    "PlannedQuery",
    "EngineError",
    "SqlSyntaxError",
    "PlanError",
    "CatalogError",
    "ExecutionError",
    "QueryCancelledError",
    "DeadlineExceededError",
    "CancelToken",
    "EvalContext",
    "Expression",
    "Column",
    "Literal",
    "Alias",
    "ExtractionCall",
    "GetJsonObject",
    "GetXmlObject",
    "CachedField",
    "BinaryOp",
    "UnaryOp",
    "CastExpr",
    "InList",
    "Between",
    "AggregateCall",
    "FunctionCall",
    "SCALAR_FUNCTIONS",
    "is_scalar_function",
    "walk",
    "transform",
    "LogicalPlan",
    "LogicalScan",
    "LogicalJoin",
    "LogicalFilter",
    "LogicalProject",
    "LogicalAggregate",
    "LogicalSort",
    "LogicalLimit",
    "SortKey",
    "PhysicalPlan",
    "ScanExec",
    "FilterExec",
    "ProjectExec",
    "AggregateExec",
    "SortExec",
    "LimitExec",
    "HashJoinExec",
    "ExecState",
    "MorselPipelineExec",
    "MorselAggregateExec",
    "parallelize_plan",
    "PlanCache",
    "CacheLedger",
    "BUDGETED_TIERS",
    "ResultCache",
    "CanonicalStatement",
    "canonicalize",
]
