"""Shared budget knobs.

Expensive enumerations (coset tables, group closures) take an explicit
``budget`` argument; when the caller passes None the default below applies.
ABELSLAB_BUDGET overrides the default globally, and must be an integer
>= 1.
"""

import os

DEFAULT_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed its element or coset budget."""


class BudgetError(ValueError):
    """ABELSLAB_BUDGET is not an integer >= 1."""


def get_budget(budget=None):
    if budget is not None:
        return int(budget)
    env = os.environ.get("ABELSLAB_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise BudgetError(f"ABELSLAB_BUDGET must be an integer >= 1, got {env!r}")
    return value
