"""Transaction-execution scoping for window state.

From the paper (§2): *"A window in SPi may contain state that was produced
by previous TEs of SPi.  Such state must be protected from the access of
arbitrary TEs.  Thus, we introduce the notion of 'scope of a transaction
execution' to restrict window access to only consecutive TEs of a given
stored procedure."*

Concretely: every window has exactly one *owner* stored procedure.  Any
statement that reads or writes the window's backing table from a different
procedure (or from ad-hoc SQL) raises :class:`ScopeViolationError`.  The
streaming engine consults this registry on every statement execution.
"""

from __future__ import annotations

from repro.errors import DuplicateObjectError, ScopeViolationError, UnknownObjectError

__all__ = ["WindowScopes"]


class WindowScopes:
    """Registry of window → owning stored procedure."""

    def __init__(self) -> None:
        self._owners: dict[str, str] = {}
        #: bumped by every :meth:`assign`; the engine remembers a passed
        #: access check only while this (and the catalog version) stand
        self.epoch = 0

    def assign(self, window_name: str, owner_procedure: str) -> None:
        window_name = window_name.lower()
        owner_procedure = owner_procedure.lower()
        existing = self._owners.get(window_name)
        if existing is not None and existing != owner_procedure:
            raise DuplicateObjectError(
                f"window {window_name!r} is already scoped to "
                f"{existing!r}; a window has exactly one owner"
            )
        self._owners[window_name] = owner_procedure
        self.epoch += 1

    def owner_of(self, window_name: str) -> str:
        try:
            return self._owners[window_name.lower()]
        except KeyError:
            raise UnknownObjectError(
                f"window {window_name!r} has no scope assignment"
            ) from None

    def is_window(self, table_name: str) -> bool:
        return table_name.lower() in self._owners

    def check_access(self, table_names: set[str], procedure_name: str | None) -> None:
        """Raise unless every window in ``table_names`` is owned by the
        accessing procedure (``None`` = ad-hoc / client access)."""
        for table_name in table_names:
            owner = self._owners.get(table_name.lower())
            if owner is None:
                continue
            if procedure_name is None or procedure_name.lower() != owner:
                accessor = procedure_name or "<ad-hoc client access>"
                raise ScopeViolationError(
                    f"window {table_name!r} is scoped to procedure {owner!r}; "
                    f"access from {accessor!r} violates transaction-execution "
                    f"scoping"
                )

    def windows(self) -> dict[str, str]:
        return dict(self._owners)
