"""Control-program IR.

Regent programs are Terra ASTs; our programs are explicit IR trees built
with :mod:`repro.core.builder`.  The IR covers exactly the program class
the paper targets (§2.2): sequential control flow (``for``/``while``/
``if``) over scalar variables, containing forall-style *index launches* of
tasks whose region arguments are projections ``p[f(i)]`` of partitions,
plus scalar assignments and scalar reductions.

Control replication is IR-to-IR: the compiler phases of §3 insert the
copy/synchronization/intersection statements defined at the bottom of this
module and finally wrap the loop body into a :class:`ShardLaunch`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..regions.index_space import IndexSpace
from ..regions.partition import Partition
from ..regions.region import Region
from ..tasks.task import Task

__all__ = [
    "Expr", "Const", "ScalarRef", "BinOp", "UnaryOp", "PureCall",
    "as_expr", "evaluate",
    "Proj", "RegionArg", "ScalarArg", "LaunchArg",
    "Stmt", "Block", "ForRange", "WhileLoop", "IfStmt", "ScalarAssign",
    "IndexLaunch", "SingleCall",
    "CopyKind", "PartitionFill", "InitCopy", "FinalCopy", "PairwiseCopy",
    "ComputeIntersections", "FillReductionBuffer",
    "ScalarCollective", "ShardLaunch", "Program",
    "walk", "format_program", "format_stmts",
]

_uid = itertools.count()


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for scalar expressions (pure, replicable across shards)."""

    def refs(self) -> set[str]:
        """Names of scalar variables this expression reads."""
        return set()


@dataclass(frozen=True)
class Const(Expr):
    value: Any

    def refs(self) -> set[str]:
        return set()


@dataclass(frozen=True)
class ScalarRef(Expr):
    name: str

    def refs(self) -> set[str]:
        return {self.name}


_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "//": lambda a, b: a // b,
    "%": lambda a, b: a % b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "min": min,
    "max": max,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if self.op not in _BINOPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    def refs(self) -> set[str]:
        return self.lhs.refs() | self.rhs.refs()


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "-" or "not"
    operand: Expr

    def refs(self) -> set[str]:
        return self.operand.refs()


@dataclass(frozen=True)
class PureCall(Expr):
    """Application of a pure Python function to scalar arguments.

    Shards replicate scalar state, so any *deterministic pure* function is
    safe to evaluate redundantly on every shard (paper §4.4).
    """

    fn: Callable[..., Any]
    args: tuple[Expr, ...]

    def refs(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= a.refs()
        return out


def as_expr(x: Any) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, str):
        return ScalarRef(x)
    return Const(x)


def evaluate(expr: Expr, env: Mapping[str, Any]) -> Any:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, ScalarRef):
        try:
            return env[expr.name]
        except KeyError:
            raise NameError(f"scalar {expr.name!r} is not defined") from None
    if isinstance(expr, BinOp):
        return _BINOPS[expr.op](evaluate(expr.lhs, env), evaluate(expr.rhs, env))
    if isinstance(expr, UnaryOp):
        v = evaluate(expr.operand, env)
        return -v if expr.op == "-" else (not v)
    if isinstance(expr, PureCall):
        return expr.fn(*(evaluate(a, env) for a in expr.args))
    raise TypeError(f"not an expression: {expr!r}")


# ---------------------------------------------------------------------------
# Launch arguments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Proj:
    """A projected region argument ``partition[fn(i)]`` of an index launch.

    ``fn`` maps the launch index to a color; ``None`` is the identity.
    Non-identity projections are rewritten by
    :mod:`repro.core.normalize` into identity projections of fresh
    partitions (paper §2.2), so the compiler proper only sees ``p[i]``.
    """

    partition: Partition
    fn: Callable[[int], int] | None = None
    fn_name: str = "id"

    @property
    def is_identity(self) -> bool:
        return self.fn is None

    def color_for(self, index: int) -> int:
        return index if self.fn is None else int(self.fn(index))

    def __repr__(self) -> str:
        idx = "i" if self.fn is None else f"{self.fn_name}(i)"
        return f"{self.partition.name}[{idx}]"


@dataclass(frozen=True)
class RegionArg:
    proj: Proj

    def __repr__(self) -> str:
        return repr(self.proj)


@dataclass(frozen=True)
class ScalarArg:
    expr: Expr

    def __repr__(self) -> str:
        return f"scalar({self.expr!r})"


LaunchArg = RegionArg | ScalarArg


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class of IR statements."""

    def __init__(self) -> None:
        self.uid = next(_uid)

    def blocks(self) -> tuple["Block", ...]:
        return ()


class Block(Stmt):
    def __init__(self, stmts: Sequence[Stmt] = ()):
        super().__init__()
        self.stmts: list[Stmt] = list(stmts)

    def blocks(self) -> tuple["Block", ...]:
        return ()

    def __iter__(self):
        return iter(self.stmts)

    def __len__(self):
        return len(self.stmts)


class ForRange(Stmt):
    """Sequential ``for var = start, stop`` loop (e.g. the time loop)."""

    def __init__(self, var: str, start: Expr, stop: Expr, body: Block):
        super().__init__()
        self.var = var
        self.start = start
        self.stop = stop
        self.body = body

    def blocks(self):
        return (self.body,)


class WhileLoop(Stmt):
    def __init__(self, cond: Expr, body: Block):
        super().__init__()
        self.cond = cond
        self.body = body

    def blocks(self):
        return (self.body,)


class IfStmt(Stmt):
    def __init__(self, cond: Expr, then_block: Block, else_block: Block | None = None):
        super().__init__()
        self.cond = cond
        self.then_block = then_block
        self.else_block = else_block or Block()

    def blocks(self):
        return (self.then_block, self.else_block)


class ScalarAssign(Stmt):
    def __init__(self, name: str, expr: Expr):
        super().__init__()
        self.name = name
        self.expr = expr


class IndexLaunch(Stmt):
    """``for i in domain: task(args...)`` — a forall of task calls.

    ``reduce=(op, scalar_name)`` folds the tasks' scalar return values into
    a control-flow scalar (paper §4.4, e.g. the ``dt`` computation).
    """

    def __init__(self, task: Task, domain: IndexSpace,
                 args: Sequence[LaunchArg],
                 reduce: tuple[str, str] | None = None):
        super().__init__()
        self.task = task
        self.domain = domain
        self.args = tuple(args)
        self.reduce = reduce
        region_args = [a for a in self.args if isinstance(a, RegionArg)]
        if len(region_args) != task.num_region_args:
            raise TypeError(
                f"launch of {task.name}: expected {task.num_region_args} region args, "
                f"got {len(region_args)}")

    @property
    def region_args(self) -> tuple[RegionArg, ...]:
        return tuple(a for a in self.args if isinstance(a, RegionArg))

    @property
    def scalar_args(self) -> tuple[ScalarArg, ...]:
        return tuple(a for a in self.args if isinstance(a, ScalarArg))

    def point_args(self, index: int, scalars: Mapping[str, Any]) -> list:
        """Point task ``index``'s arguments in signature order: each region
        argument's subregion, each scalar evaluated with ``i`` bound."""
        env = {**scalars, "i": index}
        return [a.proj.partition[a.proj.color_for(index)]
                if isinstance(a, RegionArg) else evaluate(a.expr, env)
                for a in self.args]

    def privilege_pairs(self):
        """Yield ``(privilege, proj)`` for each region argument."""
        return tuple(zip(self.task.privileges, (a.proj for a in self.region_args)))


class SingleCall(Stmt):
    """A single task call on concrete regions (outside CR fragments)."""

    def __init__(self, task: Task, regions: Sequence[Region],
                 scalars: Sequence[Expr] = (), result: str | None = None):
        super().__init__()
        self.task = task
        self.regions = tuple(regions)
        self.scalars = tuple(scalars)
        self.result = result


# ---------------------------------------------------------------------------
# Compiler-introduced statements (output of the §3 phases)
# ---------------------------------------------------------------------------

class CopyKind:
    INIT = "init"          # parent region -> partition subregions
    FINAL = "final"        # partition subregions -> parent region
    EXCHANGE = "exchange"  # partition -> aliased partition (halo exchange)
    REDUCTION = "reduction"  # reduction buffer -> destination (apply with op)


class InitCopy(Stmt):
    """``for i in I: part[i] <- parent`` (paper Fig. 4a, initialization)."""

    def __init__(self, partition: Partition, fields: tuple[str, ...]):
        super().__init__()
        self.partition = partition
        self.fields = fields


class FinalCopy(Stmt):
    """``for i in I: parent <- part[i]`` (paper Fig. 4a, finalization)."""

    def __init__(self, partition: Partition, fields: tuple[str, ...]):
        super().__init__()
        self.partition = partition
        self.fields = fields


class PairwiseCopy(Stmt):
    """``for i, j in pairs: dst[j] <- src[i]`` (possibly a reduction apply).

    ``pairs_name`` names a precomputed intersection pair set (phase §3.3);
    ``None`` means all of ``I × I`` (the naive form of §3.1).  ``sync_mode``
    records the phase-§3.4 decision: ``none`` before synchronization
    insertion, ``barrier`` for the naive two-barrier form, ``p2p`` for
    point-to-point synchronization derived from the intersection pairs.
    """

    def __init__(self, src: Partition, dst: Partition, fields: tuple[str, ...],
                 pairs_name: str | None = None, redop: str | None = None,
                 sync_mode: str = "none"):
        super().__init__()
        self.src = src
        self.dst = dst
        self.fields = fields
        self.pairs_name = pairs_name
        self.redop = redop
        self.sync_mode = sync_mode

    @property
    def kind(self) -> str:
        return CopyKind.REDUCTION if self.redop else CopyKind.EXCHANGE


class ComputeIntersections(Stmt):
    """``pairs = { i, j | dst[j] ∩ src[i] ≠ ∅ }`` (paper Fig. 4b line 5).

    Evaluated with the shallow (interval join) pass followed by the
    complete pass; executors bind the result to ``name`` in the program
    environment.  Hoisted to program start by copy placement, as observed
    for all four evaluated applications (§3.3).
    """

    def __init__(self, name: str, src: Partition, dst: Partition):
        super().__init__()
        self.name = name
        self.src = src
        self.dst = dst


class FillReductionBuffer(Stmt):
    """Initialize a launch's temporary reduction buffers to the identity."""

    def __init__(self, partition: Partition, fields: tuple[str, ...], redop: str):
        super().__init__()
        self.partition = partition
        self.fields = fields
        self.redop = redop


class ScalarCollective(Stmt):
    """All-reduce of a replicated scalar across shards (paper §4.4)."""

    def __init__(self, name: str, redop: str):
        super().__init__()
        self.name = name
        self.redop = redop


class ShardLaunch(Stmt):
    """Launch of the replicated control flow: one shard task per shard.

    ``body`` is executed by every shard with its loop domains restricted to
    owned colors (paper Fig. 4d).  ``owned_launch_domains`` lists the launch
    domains that were block-distributed over shards.
    """

    def __init__(self, body: Block, num_shards: int,
                 launch_domains: tuple[IndexSpace, ...]):
        super().__init__()
        self.body = body
        self.num_shards = num_shards
        self.launch_domains = launch_domains

    def blocks(self):
        return (self.body,)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

@dataclass
class Program:
    """A control program: a statement block plus initial scalar bindings."""

    body: Block
    scalars: dict[str, Any] = dc_field(default_factory=dict)
    name: str = "main"

    def copy_shallow(self) -> "Program":
        return Program(body=self.body, scalars=dict(self.scalars), name=self.name)


def walk(stmt: Stmt) -> Iterator[Stmt]:
    """Pre-order traversal of a statement tree."""
    yield stmt
    if isinstance(stmt, Block):
        for s in stmt.stmts:
            yield from walk(s)
    else:
        for b in stmt.blocks():
            yield from walk(b)


# ---------------------------------------------------------------------------
# Pretty printing (for tests, docs, and debugging)
# ---------------------------------------------------------------------------

def _fmt_expr(e: Expr) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, ScalarRef):
        return e.name
    if isinstance(e, BinOp):
        if e.op in ("min", "max"):
            return f"{e.op}({_fmt_expr(e.lhs)}, {_fmt_expr(e.rhs)})"
        return f"({_fmt_expr(e.lhs)} {e.op} {_fmt_expr(e.rhs)})"
    if isinstance(e, UnaryOp):
        return f"({e.op} {_fmt_expr(e.operand)})"
    if isinstance(e, PureCall):
        return f"{getattr(e.fn, '__name__', 'fn')}({', '.join(_fmt_expr(a) for a in e.args)})"
    return repr(e)


def _fmt_stmt(s: Stmt, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(s, Block):
        for sub in s.stmts:
            _fmt_stmt(sub, indent, out)
    elif isinstance(s, ForRange):
        out.append(f"{pad}for {s.var} = {_fmt_expr(s.start)}, {_fmt_expr(s.stop)} do")
        _fmt_stmt(s.body, indent + 1, out)
        out.append(f"{pad}end")
    elif isinstance(s, WhileLoop):
        out.append(f"{pad}while {_fmt_expr(s.cond)} do")
        _fmt_stmt(s.body, indent + 1, out)
        out.append(f"{pad}end")
    elif isinstance(s, IfStmt):
        out.append(f"{pad}if {_fmt_expr(s.cond)} then")
        _fmt_stmt(s.then_block, indent + 1, out)
        if s.else_block.stmts:
            out.append(f"{pad}else")
            _fmt_stmt(s.else_block, indent + 1, out)
        out.append(f"{pad}end")
    elif isinstance(s, ScalarAssign):
        out.append(f"{pad}{s.name} = {_fmt_expr(s.expr)}")
    elif isinstance(s, IndexLaunch):
        args = ", ".join(repr(a) for a in s.args)
        red = f" reducing {s.reduce[0]} into {s.reduce[1]}" if s.reduce else ""
        out.append(f"{pad}for i in {s.domain.name}: {s.task.name}({args}){red}")
    elif isinstance(s, SingleCall):
        args = ", ".join(r.name for r in s.regions)
        out.append(f"{pad}{s.task.name}({args})")
    elif isinstance(s, InitCopy):
        out.append(f"{pad}for i: {s.partition.name}[i] <- {s.partition.parent.name}  -- fields {list(s.fields)}")
    elif isinstance(s, FinalCopy):
        out.append(f"{pad}for i: {s.partition.parent.name} <- {s.partition.name}[i]  -- fields {list(s.fields)}")
    elif isinstance(s, PairwiseCopy):
        dom = s.pairs_name if s.pairs_name else "I x I"
        op = f" ({s.redop}=)" if s.redop else ""
        out.append(f"{pad}for i, j in {dom}: {s.dst.name}[j] <-{op} {s.src.name}[i]"
                   f"  -- fields {list(s.fields)}, sync={s.sync_mode}")
    elif isinstance(s, ComputeIntersections):
        out.append(f"{pad}var {s.name} = {{ i, j | {s.dst.name}[j] ∩ {s.src.name}[i] ≠ ∅ }}")
    elif isinstance(s, FillReductionBuffer):
        out.append(f"{pad}fill_reduction({s.partition.name}, {list(s.fields)}, {s.redop})")
    elif isinstance(s, ScalarCollective):
        out.append(f"{pad}{s.name} = allreduce({s.redop}, {s.name})")
    elif isinstance(s, ShardLaunch):
        out.append(f"{pad}must_epoch for shard in 0..{s.num_shards}: shard_task:")
        _fmt_stmt(s.body, indent + 1, out)
        out.append(f"{pad}end")
    else:
        out.append(f"{pad}{s!r}")


def format_program(prog: Program) -> str:
    out: list[str] = [f"-- program {prog.name}"]
    _fmt_stmt(prog.body, 0, out)
    return "\n".join(out)


def format_stmts(stmts: Sequence[Stmt], indent: int = 0) -> str:
    """Render a bare statement sequence (e.g. one pipeline fragment part)."""
    out: list[str] = []
    for s in stmts:
        _fmt_stmt(s, indent, out)
    return "\n".join(out)
