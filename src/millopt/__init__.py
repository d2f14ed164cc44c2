"""Profit-rate optimization of multi-tool CNC milling parameters.

Pick one cutting speed and one feed per operation so the part earns the
most profit per minute, subject to machine power, surface finish,
cutting force and recommended speed/feed windows.  A self-adaptive
evolution strategy does the searching; an independent grid-search oracle
certifies what it finds.
"""

from .case_study import (
    builtin_case,
    builtin_document_bytes,
    load_document,
    load_document_file,
)
from .es import EsConfig, run
from .milling import (
    ContractError,
    DecisionVector,
    DerivedCoefficients,
    DomainError,
    EconomicConstants,
    MachineSpec,
    MillingPlan,
    ModelError,
    OperationKind,
    OperationSpec,
    PlanError,
    ToolKind,
    ToolQuality,
    ToolSpec,
    constraint_margins,
    derive_coefficients,
    fitness,
    profit_rate,
    unit_cost,
    unit_time,
)
from .oracle import GridSpec, OracleError, OracleResult, dinkelbach_solve

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "builtin_case",
    "builtin_document_bytes",
    "load_document",
    "load_document_file",
    "EsConfig",
    "run",
    "ContractError",
    "DecisionVector",
    "DerivedCoefficients",
    "DomainError",
    "EconomicConstants",
    "MachineSpec",
    "MillingPlan",
    "ModelError",
    "OperationKind",
    "OperationSpec",
    "PlanError",
    "ToolKind",
    "ToolQuality",
    "ToolSpec",
    "constraint_margins",
    "derive_coefficients",
    "fitness",
    "profit_rate",
    "unit_cost",
    "unit_time",
    "GridSpec",
    "OracleError",
    "OracleResult",
    "dinkelbach_solve",
]
