"""The compiled-row arm of the three-arm differentials.

The engine has no option that selects a lane: a full scan whose expressions
lower runs on column vectors, everything else on the row closures, and the
tree-walking interpreter (:func:`tests.oracle.oracle_arm`) is the oracle.
The differential suites still want the middle arm — the same
statements through the row closures the vector lane forks from — so this
helper builds it from the outside.
"""

from __future__ import annotations

from unittest import mock

from repro.hstore.engine import HStoreEngine


def compiled_row_arm(engine: HStoreEngine) -> HStoreEngine:
    """Pin ``engine`` to the compiled row closures, for its lifetime.

    Every plan it builds is compiled with ``repro.hstore.compile.lower_select``
    patched to return ``None``, i.e. as a statement that does not lower.
    Other engines alive at the same time are not affected.
    """
    finish = engine.planner._finish

    def finish_unlowered(plan):
        with mock.patch("repro.hstore.compile.lower_select", return_value=None):
            finish(plan)

    engine.planner._finish = finish_unlowered
    return engine
