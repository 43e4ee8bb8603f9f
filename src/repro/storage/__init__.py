"""Storage substrate: simulated HDFS + ORC-like columnar format + SARGs."""

from .codec import CodecError, checksum_of
from .fs import BlockFileSystem, FileStatus, FsError, TransientFsError
from .orc import (
    DEFAULT_ROW_GROUP_SIZE,
    DEFAULT_STRIPE_BYTES,
    CorruptStripeError,
    OrcError,
    OrcFileReader,
    OrcWriter,
    RowGroupInfo,
    StripeInfo,
)
from .readers import OrcReader, ReadResult
from .sargs import (
    AndSarg,
    ColumnStats,
    ComparisonSarg,
    OrSarg,
    Sarg,
    SargOp,
    Truth,
    always_true,
)
from .schema import DataType, Field, Schema, SchemaError

__all__ = [
    "BlockFileSystem",
    "FileStatus",
    "FsError",
    "TransientFsError",
    "CodecError",
    "checksum_of",
    "OrcError",
    "CorruptStripeError",
    "OrcWriter",
    "OrcFileReader",
    "OrcReader",
    "ReadResult",
    "RowGroupInfo",
    "StripeInfo",
    "DEFAULT_ROW_GROUP_SIZE",
    "DEFAULT_STRIPE_BYTES",
    "Sarg",
    "SargOp",
    "ComparisonSarg",
    "AndSarg",
    "OrSarg",
    "ColumnStats",
    "Truth",
    "always_true",
    "DataType",
    "Field",
    "Schema",
    "SchemaError",
]
