"""Check-elimination optimizations (§3.4).

"During compilation, KGCC employs heuristics to eliminate unnecessary
checks. ... Another technique, common subexpression elimination, allowed
us to reduce the number of checks inserted by more than half for typical
kernel code."

Three passes over an instrumented AST:

* :func:`eliminate_safe_static_checks` — remove deref checks that are
  provably safe at compile time: a constant (literal, ``sizeof``-derived,
  or constant-folded), in-bounds index into a local array whose address
  never escapes.
* :func:`eliminate_verified_checks` — remove every check whose site the
  load-time verifier (:mod:`repro.safety.verifier`) proved safe by
  abstract interpretation; this subsumes the static pass on straight-line
  code and additionally handles loops, guards, and pointer arithmetic.
* :func:`eliminate_common_checks` — CSE over checks: within straight-line
  code, a check identical to an earlier one whose operands have not been
  reassigned (and with no intervening call, which could free heap objects)
  is redundant and removed.  Nested control flow is processed with fresh
  state (conservative, always sound).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cminus import ast_nodes as ast
from repro.cminus.compile import bump_generation
from repro.cminus.ctypes import ArrayType


@dataclass
class OptimizeReport:
    checks_before: int = 0
    checks_removed_static: int = 0
    checks_removed_verified: int = 0
    checks_removed_cse: int = 0

    @property
    def checks_removed(self) -> int:
        return (self.checks_removed_static + self.checks_removed_verified
                + self.checks_removed_cse)

    @property
    def checks_after(self) -> int:
        return self.checks_before - self.checks_removed


def _count_checks(program: ast.Program) -> int:
    return sum(1 for node in ast.walk(program) if isinstance(node, ast.Check))


# --------------------------------------------------------------- static pass

def const_fold(expr: ast.Expr) -> int | None:
    """Evaluate ``expr`` to an int when it is a compile-time constant.

    Handles literals, ``sizeof`` (with a resolved type), unary minus and
    bitwise-not, and the usual integer binary operators.  Returns ``None``
    for anything non-constant (including division by zero, which is left
    for the runtime to fault on).
    """
    if isinstance(expr, ast.Check):
        return const_fold(expr.inner)
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.SizeOf) and expr.ctype is not None:
        return expr.ctype.size
    if isinstance(expr, ast.UnOp):
        v = const_fold(expr.operand)
        if v is None:
            return None
        if expr.op == "-":
            return -v
        if expr.op == "~":
            return ~v
        if expr.op == "!":
            return 0 if v else 1
        return None
    if isinstance(expr, ast.BinOp):
        left = const_fold(expr.left)
        right = const_fold(expr.right)
        if left is None or right is None:
            return None
        try:
            return {
                "+": lambda: left + right,
                "-": lambda: left - right,
                "*": lambda: left * right,
                "/": lambda: int(left / right),
                "%": lambda: left - int(left / right) * right,
                "&": lambda: left & right,
                "|": lambda: left | right,
                "^": lambda: left ^ right,
                "<<": lambda: left << right,
                ">>": lambda: left >> right,
            }[expr.op]()
        except (KeyError, ZeroDivisionError, ValueError):
            return None
    return None


def eliminate_safe_static_checks(program: ast.Program,
                                 report: OptimizeReport | None = None
                                 ) -> OptimizeReport:
    """Drop deref checks on provably-in-bounds constant indexing."""
    report = report or OptimizeReport(checks_before=_count_checks(program))
    for func in program.funcs.values():
        # local arrays whose address never escapes in this function
        arrays: dict[str, int] = {}
        escaped: set[str] = set()
        for node in ast.walk(func.body):
            if isinstance(node, ast.VarDecl) and isinstance(node.ctype,
                                                            ArrayType):
                arrays[node.name] = node.ctype.length
            if isinstance(node, ast.AddrOf) and isinstance(node.target,
                                                           ast.Ident):
                escaped.add(node.target.name)
            if isinstance(node, ast.Call):
                for a in node.args:
                    base = a
                    while isinstance(base, ast.Check):
                        base = base.inner
                    if isinstance(base, ast.Ident):
                        escaped.add(base.name)
            if isinstance(node, ast.Assign) and isinstance(node.value,
                                                           ast.Ident):
                escaped.add(node.value.name)  # aliased through a pointer var

        def is_safe(check: ast.Check) -> bool:
            inner = check.inner
            if check.kind != "deref" or not isinstance(inner, ast.Index):
                return False
            if not isinstance(inner.base, ast.Ident):
                return False
            index = const_fold(inner.index)
            if index is None:
                return False
            name = inner.base.name
            if name in escaped or name not in arrays:
                return False
            return 0 <= index < arrays[name]

        removed = _replace_checks(func.body, is_safe)
        report.checks_removed_static += removed
    bump_generation(program)
    return report


# ------------------------------------------------------------ verifier pass

def eliminate_verified_checks(program: ast.Program, verifier_report,
                              report: OptimizeReport | None = None
                              ) -> OptimizeReport:
    """Drop every check at a site the load-time verifier proved safe.

    ``verifier_report`` is a
    :class:`~repro.safety.verifier.VerifierReport` produced by verifying
    this program (after instrumentation, with the same filename, so the
    site keys line up).  A site is dropped only when *every* check
    instance at that key was classified ``PROVEN``, which makes the
    removal sound regardless of how many AST nodes share the source line.
    """
    report = report or OptimizeReport(checks_before=_count_checks(program))
    proven = verifier_report.proven_sites()
    if not proven:
        return report
    for func in program.funcs.values():
        removed = _replace_checks(func.body,
                                  lambda check: check.site in proven)
        report.checks_removed_verified += removed
    bump_generation(program)
    return report


# ------------------------------------------------------------------ CSE pass

def _fingerprint(expr: ast.Expr) -> str:
    """Stable structural key for an expression."""
    if isinstance(expr, ast.IntLit):
        return f"#{expr.value}"
    if isinstance(expr, ast.StrLit):
        return f"${expr.value!r}"
    if isinstance(expr, ast.Ident):
        return expr.name
    if isinstance(expr, ast.BinOp):
        return f"({_fingerprint(expr.left)}{expr.op}{_fingerprint(expr.right)})"
    if isinstance(expr, ast.UnOp):
        return f"({expr.op}{_fingerprint(expr.operand)})"
    if isinstance(expr, ast.Deref):
        return f"(*{_fingerprint(expr.ptr)})"
    if isinstance(expr, ast.Index):
        return f"({_fingerprint(expr.base)}[{_fingerprint(expr.index)}])"
    if isinstance(expr, ast.AddrOf):
        return f"(&{_fingerprint(expr.target)})"
    if isinstance(expr, ast.Member):
        op = "->" if expr.arrow else "."
        return f"({_fingerprint(expr.base)}{op}{expr.field_name})"
    if isinstance(expr, ast.Check):
        return _fingerprint(expr.inner)
    if isinstance(expr, ast.Call):
        args = ",".join(_fingerprint(a) for a in expr.args)
        return f"{expr.func}({args})!"   # '!' marks non-CSE-able
    if isinstance(expr, ast.Assign):
        return f"(={_fingerprint(expr.target)})!"
    if isinstance(expr, ast.PostIncDec):
        return f"({_fingerprint(expr.target)}{expr.op})!"
    return f"?{type(expr).__name__}!"


def _names_in(expr: ast.Expr) -> set[str]:
    return {n.name for n in ast.walk(expr) if isinstance(n, ast.Ident)}


class _CseState:
    def __init__(self) -> None:
        self.seen: dict[str, ast.Check] = {}
        self.removed = 0

    def kill_names(self, names: set[str]) -> None:
        dead = [fp for fp in self.seen
                if names & _names_in(self.seen[fp].inner)]
        for fp in dead:
            del self.seen[fp]

    def kill_all(self) -> None:
        self.seen.clear()


def eliminate_common_checks(program: ast.Program,
                            report: OptimizeReport | None = None
                            ) -> OptimizeReport:
    """Remove checks dominated by an identical earlier check."""
    report = report or OptimizeReport(checks_before=_count_checks(program))
    for func in program.funcs.values():
        state = _CseState()
        _cse_stmt(func.body, state)
        report.checks_removed_cse += state.removed
    bump_generation(program)
    return report


def _cse_stmt(stmt: ast.Stmt, state: _CseState) -> None:
    if isinstance(stmt, ast.Block):
        for s in stmt.stmts:
            _cse_stmt(s, state)
        return
    if isinstance(stmt, ast.VarDecl):
        if stmt.init is not None:
            stmt.init = _cse_expr(stmt.init, state)
        state.kill_names({stmt.name})
        return
    if isinstance(stmt, ast.ExprStmt):
        stmt.expr = _cse_expr(stmt.expr, state)
        return
    if isinstance(stmt, ast.If):
        stmt.cond = _cse_expr(stmt.cond, state)
        # Branches execute conditionally: analyze each with a private copy
        # and keep nothing afterwards (conservative join).
        for branch in ("then", "orelse"):
            body = getattr(stmt, branch)
            if body is not None:
                sub = _CseState()
                sub.seen = dict(state.seen)
                _cse_stmt(body, sub)
                state.removed += sub.removed
        state.kill_all()
        return
    if isinstance(stmt, (ast.While, ast.For)):
        # Loop bodies: fresh state per static occurrence (sound; checks can
        # still be deduplicated *within* one iteration's straight-line code).
        if isinstance(stmt, ast.For) and stmt.init is not None:
            _cse_stmt(stmt.init, state)
        sub = _CseState()
        if isinstance(stmt, ast.While):
            stmt.cond = _cse_expr(stmt.cond, sub)
            _cse_stmt(stmt.body, sub)
        else:
            if stmt.cond is not None:
                stmt.cond = _cse_expr(stmt.cond, sub)
            _cse_stmt(stmt.body, sub)
            if stmt.step is not None:
                stmt.step = _cse_expr(stmt.step, sub)
        state.removed += sub.removed
        state.kill_all()
        return
    if isinstance(stmt, ast.Return):
        if stmt.value is not None:
            stmt.value = _cse_expr(stmt.value, state)
        return
    # Break/Continue: nothing to do


def _cse_expr(expr: ast.Expr, state: _CseState) -> ast.Expr:
    if isinstance(expr, ast.Check):
        expr.inner = _cse_expr(expr.inner, state)
        fp = f"{expr.kind}|{_fingerprint(expr.inner)}"
        if "!" not in fp:
            if fp in state.seen:
                state.removed += 1
                return expr.inner  # drop the redundant check
            state.seen[fp] = expr
        return expr
    if isinstance(expr, ast.BinOp):
        expr.left = _cse_expr(expr.left, state)
        expr.right = _cse_expr(expr.right, state)
        return expr
    if isinstance(expr, ast.UnOp):
        expr.operand = _cse_expr(expr.operand, state)
        if expr.op in ("++", "--") and isinstance(expr.operand, ast.Ident):
            state.kill_names({expr.operand.name})
        return expr
    if isinstance(expr, ast.Deref):
        expr.ptr = _cse_expr(expr.ptr, state)
        return expr
    if isinstance(expr, ast.Index):
        expr.base = _cse_expr(expr.base, state)
        expr.index = _cse_expr(expr.index, state)
        return expr
    if isinstance(expr, ast.Member):
        expr.base = _cse_expr(expr.base, state)
        return expr
    if isinstance(expr, ast.AddrOf):
        expr.target = _cse_expr(expr.target, state)
        return expr
    if isinstance(expr, ast.Assign):
        expr.value = _cse_expr(expr.value, state)
        expr.target = _cse_expr(expr.target, state)
        names = set()
        base = expr.target
        while isinstance(base, ast.Check):
            base = base.inner
        if isinstance(base, ast.Ident):
            names.add(base.name)
        state.kill_names(names)
        return expr
    if isinstance(expr, ast.PostIncDec):
        base = expr.target
        while isinstance(base, ast.Check):
            base = base.inner
        if isinstance(base, ast.Ident):
            state.kill_names({base.name})
        return expr
    if isinstance(expr, ast.Call):
        expr.args = [_cse_expr(a, state) for a in expr.args]
        state.kill_all()  # the callee may free objects or write anywhere
        return expr
    return expr


# ----------------------------------------------------------------- utilities

def _replace_checks(stmt: ast.Stmt, predicate) -> int:
    """Replace Check nodes satisfying ``predicate`` with their inner expr,
    anywhere under ``stmt``.  Returns the number removed."""
    removed = 0

    def fix_expr(expr: ast.Expr) -> ast.Expr:
        nonlocal removed
        if expr is None:
            return expr
        if isinstance(expr, ast.Check):
            expr.inner = fix_expr(expr.inner)
            if predicate(expr):
                removed += 1
                return expr.inner
            return expr
        for name, value in vars(expr).items():
            if isinstance(value, ast.Expr):
                setattr(expr, name, fix_expr(value))
            elif isinstance(value, list):
                setattr(expr, name,
                        [fix_expr(v) if isinstance(v, ast.Expr) else v
                         for v in value])
        return expr

    def fix_stmt(s: ast.Stmt) -> None:
        for name, value in vars(s).items():
            if isinstance(value, ast.Expr):
                setattr(s, name, fix_expr(value))
            elif isinstance(value, ast.Stmt):
                fix_stmt(value)
            elif isinstance(value, list):
                new = []
                for v in value:
                    if isinstance(v, ast.Expr):
                        new.append(fix_expr(v))
                    else:
                        if isinstance(v, ast.Stmt):
                            fix_stmt(v)
                        new.append(v)
                setattr(s, name, new)

    fix_stmt(stmt)
    return removed


def optimize(program: ast.Program,
             verifier_report=None) -> OptimizeReport:
    """Run all elimination passes; returns the combined report.

    When ``verifier_report`` (a verified :class:`VerifierReport` for this
    program) is supplied, checks at verifier-proven sites are removed
    between the static and CSE passes — they cost zero cycles at run time,
    paid for once by the load-time verification charge in the cost model.
    """
    report = OptimizeReport(checks_before=_count_checks(program))
    eliminate_safe_static_checks(program, report)
    if verifier_report is not None:
        eliminate_verified_checks(program, verifier_report, report)
    eliminate_common_checks(program, report)
    # structural Check removal invalidates compiled code for the program
    bump_generation(program)
    return report
