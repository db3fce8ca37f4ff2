"""The code generator: ObjectMath 4.0's back half (Figure 9).

Expression transformer → compilable-subset verifier → task partitioning
(with cost model) → CSE → Python / Fortran 90 / C emission.
"""

from .costmodel import CostModel, DEFAULT_COST_MODEL
from .gen_c import CSource, NativeSource, generate_c, generate_c_tasks
from .gen_fortran import FortranSource, generate_fortran
from .native import (
    NativeCache,
    NativeModule,
    NativeUnavailable,
    build_native_module,
    find_compiler,
)
from .gen_numpy import NumpyModule, generate_numpy
from .gen_python import NameTable, PythonModule, generate_python
from .program import GeneratedProgram, generate_program
from .startvalues import apply_start_file, read_start_file, write_start_file
from .tasks import (
    Assignment,
    TaskBody,
    TaskPlan,
    partition_tasks,
    partition_tasks_array,
)
from .transform import (
    ArraySystem,
    FamilyLayout,
    OdeSystem,
    TransformError,
    make_array_system,
    make_ode_system,
    solve_linear,
)
from .verify import VerifyError, VerifyReport, verify_compilable

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "CSource",
    "NativeSource",
    "generate_c",
    "generate_c_tasks",
    "NativeCache",
    "NativeModule",
    "NativeUnavailable",
    "build_native_module",
    "find_compiler",
    "FortranSource",
    "generate_fortran",
    "NameTable",
    "NumpyModule",
    "PythonModule",
    "generate_numpy",
    "generate_python",
    "GeneratedProgram",
    "generate_program",
    "apply_start_file",
    "read_start_file",
    "write_start_file",
    "Assignment",
    "TaskBody",
    "TaskPlan",
    "partition_tasks",
    "partition_tasks_array",
    "ArraySystem",
    "FamilyLayout",
    "OdeSystem",
    "TransformError",
    "make_array_system",
    "make_ode_system",
    "solve_linear",
    "VerifyError",
    "VerifyReport",
    "verify_compilable",
]
