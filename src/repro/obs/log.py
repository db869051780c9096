"""Package-wide structured logging configuration.

Every module in ``repro`` logs through ``logging.getLogger(__name__)``,
which all roll up to the ``"repro"`` logger.  The package attaches a
``NullHandler`` to that root at import (library etiquette: silent unless
the application opts in), and :func:`configure_logging` is the opt-in —
one call attaches a stream handler with a structured single-line format
carrying the logger name, level, and message.

Events routed through this logger include supervisor shard restarts,
degraded-mode compile fallbacks, injected faults, store read/write
demotions, and request sheds.
"""

from __future__ import annotations

import logging
import sys
from typing import IO, Optional, Union

#: the package root logger every repro module rolls up to
ROOT_LOGGER = "repro"

_FORMAT = "%(asctime)s %(levelname)s %(name)s %(message)s"
_DATE_FORMAT = "%Y-%m-%dT%H:%M:%S"

#: marker attribute so repeated configure calls replace our handler
#: instead of stacking duplicates
_HANDLER_FLAG = "_repro_obs_handler"


def configure_logging(
    level: Union[int, str] = logging.INFO,
    stream: Optional[IO[str]] = None,
    fmt: str = _FORMAT,
) -> logging.Handler:
    """Attach a stream handler to the ``repro`` logger and return it.

    Idempotent: calling again replaces the handler installed by the
    previous call (adjusting level or stream) rather than duplicating
    output.  Pass ``stream=None`` for stderr.
    """
    logger = logging.getLogger(ROOT_LOGGER)
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_FLAG, False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter(fmt, datefmt=_DATE_FORMAT))
    setattr(handler, _HANDLER_FLAG, True)
    logger.addHandler(handler)
    logger.setLevel(level)
    return handler


def disable_logging() -> None:
    """Remove the handler installed by :func:`configure_logging`, if any."""
    logger = logging.getLogger(ROOT_LOGGER)
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_FLAG, False):
            logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)


__all__ = ["configure_logging", "disable_logging", "ROOT_LOGGER"]
