"""The paper's contribution: the control replication compiler."""

from .builder import ProgramBuilder
from .compiler import CompilationReport, FragmentReport, control_replicate
from .explain import explain_shard, format_pipeline_ir, shard_communication_summary
from .ir import (
    BinOp,
    Block,
    ComputeIntersections,
    Const,
    Expr,
    FillReductionBuffer,
    FinalCopy,
    ForRange,
    IfStmt,
    IndexLaunch,
    InitCopy,
    PairwiseCopy,
    Program,
    Proj,
    PureCall,
    RegionArg,
    ScalarArg,
    ScalarAssign,
    ScalarCollective,
    ScalarRef,
    ShardLaunch,
    SingleCall,
    Stmt,
    UnaryOp,
    WhileLoop,
    as_expr,
    evaluate,
    format_program,
    walk,
)
from .normalize import normalize_projections
from .passes import (
    PASS_NAMES,
    Pass,
    PassContext,
    PassManager,
    PassTiming,
    PipelineIR,
    default_passes,
)
from .region_tree import (
    SymbolicRegionTree,
    partitions_may_interfere,
    regions_may_alias_symbolic,
)
from .shards import color_owners, owner_of_color, shard_owned_colors
from .target import (
    CRLegalityError,
    Fragment,
    FragmentUsage,
    check_launch_legality,
    find_fragments,
    fragment_usage,
)
from .verify import IRVerificationError, verify_ir

__all__ = [
    "BinOp", "Block", "CompilationReport", "ComputeIntersections",
    "Const", "CRLegalityError", "Expr", "FillReductionBuffer", "FinalCopy",
    "ForRange", "Fragment", "FragmentReport", "FragmentUsage", "IfStmt",
    "IndexLaunch", "InitCopy", "IRVerificationError", "PairwiseCopy",
    "Pass", "PassContext", "PassManager", "PassTiming", "PASS_NAMES",
    "PipelineIR", "Program", "ProgramBuilder",
    "Proj", "PureCall", "RegionArg", "ScalarArg", "ScalarAssign",
    "ScalarCollective", "ScalarRef", "ShardLaunch", "SingleCall", "Stmt",
    "SymbolicRegionTree", "UnaryOp", "WhileLoop", "as_expr",
    "check_launch_legality", "color_owners", "control_replicate",
    "default_passes",
    "evaluate", "explain_shard", "find_fragments",
    "format_pipeline_ir", "format_program", "fragment_usage",
    "normalize_projections",
    "owner_of_color", "partitions_may_interfere",
    "regions_may_alias_symbolic", "shard_communication_summary",
    "shard_owned_colors", "verify_ir", "walk",
]
