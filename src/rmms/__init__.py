"""Exact fair-division toolkit for indivisible goods with monotone integer
valuations, centered on the residual maximin share."""

from .core import (
    Additive,
    Bundle,
    CapExceededError,
    CappedAdditive,
    Instance,
    InvariantError,
    MalformedBundleError,
    PartialAllocation,
    PreconditionError,
    QueryLedger,
    Table,
    compare_query,
    validate_instance,
    value_query,
)
from .shares import ShareReport, acceptable_partition, is_residual_feasible, mms, mxs, ratio_bound, rmms
from .fairness import EnvyVerdict, envy_between, is_ef, is_ef1, is_efl, is_efx
from .algorithms import (
    RunTrace,
    efl_complete,
    envy_cycle_run,
    preprocess_singletons,
    rmms_efl_full,
    rmms_efx_partial,
)

__all__ = [
    "Additive",
    "Bundle",
    "CapExceededError",
    "CappedAdditive",
    "EnvyVerdict",
    "Instance",
    "InvariantError",
    "MalformedBundleError",
    "PartialAllocation",
    "PreconditionError",
    "QueryLedger",
    "RunTrace",
    "ShareReport",
    "Table",
    "acceptable_partition",
    "compare_query",
    "efl_complete",
    "envy_between",
    "envy_cycle_run",
    "is_ef",
    "is_ef1",
    "is_efl",
    "is_efx",
    "is_residual_feasible",
    "mms",
    "mxs",
    "preprocess_singletons",
    "ratio_bound",
    "rmms",
    "rmms_efl_full",
    "rmms_efx_partial",
    "validate_instance",
    "value_query",
]

__version__ = "0.1.0"
