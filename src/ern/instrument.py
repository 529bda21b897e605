"""Float-operation accounting for the inference path.

Inference-path code that performs real-valued arithmetic (the embedding
setup, the final logit scaling) calls :func:`note_float_ops` with the
number of operations it executed; the integer kernels never do.  Each
``execute`` call opens its own counter with :func:`counting_float_ops`
around the steps between the pixel embedding and the pool (the core,
through the final conv), so the reported count is a runtime witness that
the core ran no float math.
Offline stages (compiler, oracle) are deliberately not instrumented:
they are free to use reals.

The active counter lives in a :class:`contextvars.ContextVar`, so calls
running concurrently in different threads never see each other's
operations, and float math outside any counted call is not recorded.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator


@dataclass
class FloatOpCounter:
    count: int = 0


_active: ContextVar[FloatOpCounter | None] = ContextVar("ern_float_ops", default=None)


@contextmanager
def counting_float_ops() -> Iterator[FloatOpCounter]:
    """Route :func:`note_float_ops` to a fresh counter for the block's duration."""
    counter = FloatOpCounter()
    token = _active.set(counter)
    try:
        yield counter
    finally:
        _active.reset(token)


def note_float_ops(n: int) -> None:
    counter = _active.get()
    if counter is not None:
        counter.count += int(n)
