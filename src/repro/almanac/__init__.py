"""Almanac: the automata language for network M&M code (SIII)."""

from repro.almanac.analysis import (
    ConstEnv,
    PollVarInfo,
    ResolvedSeedSite,
    analyze_poll_var,
    analyze_util,
    const_eval,
    encode_polling_subjects,
    resolve_placements,
)
from repro.almanac.codegen import (
    MachineCode,
    MachineInstance,
    compile_closures,
    vector_kernel,
)
from repro.almanac.vector import VectorKernel, compile_vector_kernels
from repro.almanac.compiler import (
    MachineBlueprint,
    compile_machine,
    compile_source,
)
from repro.almanac.machine import (
    CompiledMachine,
    CompiledState,
    flatten_machine,
)
from repro.almanac.parser import parse, parse_machine
from repro.almanac.poly import (
    ConcaveUtility,
    LinPoly,
    PiecewiseUtility,
    RationalFunc,
    UtilityPiece,
)
from repro.almanac.stdlib import HostInterface, is_struct, make_struct
from repro.almanac.printer import (
    format_expr,
    format_machine,
    format_program,
)
from repro.almanac.typecheck import (
    Diagnostic,
    assert_well_formed,
    check_program,
)
from repro.almanac.xmlcodec import (
    decode_machine,
    decode_program,
    encode_machine,
    encode_program,
)

__all__ = [
    "ConstEnv", "PollVarInfo", "ResolvedSeedSite", "analyze_poll_var",
    "analyze_util", "const_eval", "encode_polling_subjects",
    "resolve_placements",
    "MachineCode", "compile_closures", "vector_kernel",
    "VectorKernel", "compile_vector_kernels",
    "MachineBlueprint", "compile_machine", "compile_source",
    "CompiledMachine", "CompiledState", "MachineInstance", "flatten_machine",
    "parse", "parse_machine",
    "ConcaveUtility", "LinPoly", "PiecewiseUtility", "RationalFunc",
    "UtilityPiece",
    "HostInterface", "is_struct", "make_struct",
    "Diagnostic", "assert_well_formed", "check_program",
    "format_expr", "format_machine", "format_program",
    "decode_machine", "decode_program", "encode_machine", "encode_program",
]
