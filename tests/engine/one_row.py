"""An expression's value on one row, through the engine's only evaluator:
compiled by an :class:`~repro.engine.batch.ExpressionProgram` and
evaluated over a one-row :class:`~repro.engine.batch.ColumnBatch`."""

from repro.engine.batch import ColumnBatch, ExpressionProgram
from repro.engine.expressions import EvalContext
from repro.engine.physical import ExecState


def one_row(expr, row=None):
    row = {} if row is None else row
    state = ExecState(catalog=None, context=EvalContext())
    batch = ColumnBatch.from_rows([row], names=row)
    (value,) = ExpressionProgram().compile(expr).evaluate(batch, state)
    return value
