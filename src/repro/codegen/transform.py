"""The expression transformer: equations → RHS assignments.

"The expression transformer in the code generator accepts a list of first
order differential equations …  Various transformations are done, including
removing the derivatives and replacing the equations by assignments, where
the right-hand sides are the right-hand sides from the equations.  The
result represents what really needs to be computed by the generated code
when using a specific solver" (section 3.1).

Input is a :class:`~repro.model.flatten.FlatModel`; output is an
:class:`OdeSystem` — the ordered assignment list ``ydot[i] := rhs_i``.
Explicit algebraic definitions are inlined; residual implicit equations are
symbolically solved when they are *linear* in their matched unknown (a
small slice of the "algebraic transformations of equations" capability of
the ObjectMath environment), otherwise the model is rejected as outside
the compilable subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..analysis.matching import maximum_matching
from ..model.arrays import expand_reduces, rename_instance
from ..model.flatten import ArrayFlatModel, FlatModel, ImplicitEquation, ModelError
from ..symbolic.diff import diff
from ..symbolic.expr import Const, Expr, Sym, div, free_symbols, sub
from ..symbolic.simplify import simplify
from ..symbolic.subs import substitute

__all__ = [
    "OdeSystem",
    "FamilyLayout",
    "ArraySystem",
    "TransformError",
    "make_ode_system",
    "make_array_system",
    "solve_linear",
]


class TransformError(ModelError):
    """Raised when a model cannot be transformed to explicit ODE form."""


@dataclass(frozen=True)
class OdeSystem:
    """An explicit first-order ODE system ``ydot = f(y, t; p)``.

    This is the paper's "ODEs internal form" (Figure 7) — the hand-off from
    the ObjectMath compiler to the code generator.
    """

    name: str
    free_var: str
    state_names: tuple[str, ...]
    param_names: tuple[str, ...]
    #: rhs[i] defines d state_names[i] / dt
    rhs: tuple[Expr, ...]
    start_values: tuple[float, ...]
    param_values: tuple[float, ...]

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    @property
    def singleton_rhs(self) -> tuple[tuple[int, Expr], ...]:
        """Every state is a singleton: the :class:`ArraySystem` view."""
        return tuple(enumerate(self.rhs))

    @property
    def families(self) -> tuple["FamilyLayout", ...]:
        """No instance families: the :class:`ArraySystem` view."""
        return ()

    def state_index(self, name: str) -> int:
        return self.state_names.index(name)

    def param_map(self) -> dict[str, float]:
        return dict(zip(self.param_names, self.param_values))

    def __repr__(self) -> str:
        return (
            f"<OdeSystem {self.name}: {self.num_states} states, "
            f"{len(self.param_names)} parameters>"
        )


def solve_linear(eq: ImplicitEquation, var: str) -> Expr:
    """Solve ``eq`` for ``var``, assuming linearity.

    Writes the residual as ``a*var + b`` with ``a``, ``b`` free of ``var``
    and returns ``-b / a``.  Raises :class:`TransformError` when the
    residual is not linear in ``var`` or the coefficient is structurally
    zero.
    """
    sym = Sym(var)
    residual = eq.residual
    a = simplify(diff(residual, sym))
    if sym in free_symbols(a):
        raise TransformError(
            f"equation {eq.label or eq}: nonlinear in {var!r}; outside the "
            f"compilable subset"
        )
    if a.is_zero:
        raise TransformError(
            f"equation {eq.label or eq}: coefficient of {var!r} is zero"
        )
    b = simplify(substitute(residual, {sym: Const(0)}))
    return simplify(div(sub(Const(0), b), a))


def _solve_implicit(work: FlatModel, unknowns: frozenset[str]) -> FlatModel:
    """Replace residual implicit equations by explicit algebraic solves.

    Each implicit equation is matched to one of the not-yet-defined
    ``unknowns`` it mentions and solved symbolically (linear case only).
    """
    if not work.implicit:
        return work
    defined = {eq.state for eq in work.odes} | {
        eq.var for eq in work.explicit_algs
    }
    open_unknowns = sorted(unknowns - defined)
    labels = [
        eq.label or f"implicit[{i}]" for i, eq in enumerate(work.implicit)
    ]
    incidence = {}
    for eq, label in zip(work.implicit, labels):
        mentioned = {
            s.name
            for s in free_symbols(eq.residual)
            if s.name in open_unknowns
        }
        incidence[label] = sorted(mentioned)
    match = maximum_matching(incidence, open_unknowns)
    if len(match) < len(work.implicit):
        raise TransformError(
            "cannot match all implicit equations to unknowns; the "
            "system is structurally singular"
        )
    from ..model.flatten import AlgEquation

    new_algs = list(work.explicit_algs)
    for eq, label in zip(work.implicit, labels):
        var = match[label]
        if var in work.states:
            raise TransformError(
                f"equation {label}: implicitly determines state {var!r}; "
                f"only explicit first-order ODEs are in the compilable "
                f"subset"
            )
        new_algs.append(AlgEquation(var, solve_linear(eq, var), eq.label))
    return FlatModel(
        name=work.name,
        free_var=work.free_var,
        states=dict(work.states),
        algebraics=dict(work.algebraics),
        parameters=dict(work.parameters),
        odes=list(work.odes),
        explicit_algs=new_algs,
        implicit=[],
    )


def make_ode_system(flat: FlatModel, simplify_rhs: bool = True) -> OdeSystem:
    """Transform ``flat`` into an explicit ODE system.

    Steps:

    1. solve residual implicit equations for their matched unknowns
       (linear solve; nonlinear loops are rejected),
    2. inline all explicit algebraic definitions into the ODE right-hand
       sides (raising on algebraic loops),
    3. drop the ``der`` operators, leaving pure assignments.
    """
    work = _solve_implicit(
        flat, frozenset(flat.states) | frozenset(flat.algebraics)
    )

    work = work.inline_algebraics()

    missing = [s for s in work.states if s not in {e.state for e in work.odes}]
    if missing:
        raise TransformError(
            "states without defining ODE after transformation: "
            + ", ".join(missing[:10])
        )

    rhs_by_state = {eq.state: eq.rhs for eq in work.odes}
    state_names = tuple(work.states)
    rhs = tuple(rhs_by_state[s] for s in state_names)
    if simplify_rhs:
        rhs = tuple(simplify(e) for e in rhs)

    param_names = tuple(work.parameters)
    param_values = tuple(
        work.parameters[p].value if work.parameters[p].value is not None else 0.0
        for p in param_names
    )
    return OdeSystem(
        name=work.name,
        free_var=work.free_var.name,
        state_names=state_names,
        param_names=param_names,
        rhs=rhs,
        start_values=tuple(work.start_vector()),
        param_values=param_values,
    )


@dataclass(frozen=True)
class FamilyLayout:
    """Where one instance family lives inside the flat state/param vectors.

    Members are laid out instance-major with a uniform stride: member ``k``'s
    ``j``-th state sits at ``state_base + k * state_stride + j`` (parameters
    analogously).  ``template_rhs[j]`` is the representative's right-hand
    side for ``state_suffixes[j]``; instantiating it for member ``k`` is a
    pure prefix renaming, which the array code generators replace by index
    arithmetic (Python backend) or a strided slice (NumPy backend).
    """

    base: str
    count: int
    member_names: tuple[str, ...]
    representative: str
    state_base: int
    state_stride: int
    #: suffixes include the leading dot, e.g. ``".v.x"``
    state_suffixes: tuple[str, ...]
    template_rhs: tuple[Expr, ...]
    param_base: int
    param_stride: int
    param_suffixes: tuple[str, ...]

    def state_slots(self, j: int) -> tuple[int, ...]:
        """All member state indices for suffix ``j`` (one per member)."""
        return tuple(
            self.state_base + k * self.state_stride + j
            for k in range(self.count)
        )

    def member_state(self, k: int, j: int) -> int:
        return self.state_base + k * self.state_stride + j


@dataclass(frozen=True)
class ArraySystem:
    """An explicit ODE system with the instance axis kept symbolic.

    Duck-type compatible with :class:`OdeSystem` for layout queries
    (``state_names`` / ``start_values`` / … describe the *full* scalar
    vectors, bit-identical to scalar mode), but the right-hand sides are
    split: ``singleton_rhs`` holds ``(state_index, expr)`` for non-family
    states, and each :class:`FamilyLayout` holds one template RHS per family
    state suffix covering all members at once.  :meth:`expand` recovers the
    exact scalar :class:`OdeSystem` by renaming the representative.
    """

    name: str
    free_var: str
    state_names: tuple[str, ...]
    param_names: tuple[str, ...]
    start_values: tuple[float, ...]
    param_values: tuple[float, ...]
    singleton_rhs: tuple[tuple[int, Expr], ...]
    families: tuple[FamilyLayout, ...]

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    def state_index(self, name: str) -> int:
        return self.state_names.index(name)

    def param_map(self) -> dict[str, float]:
        return dict(zip(self.param_names, self.param_values))

    @property
    def num_symbolic_rhs(self) -> int:
        """Distinct expressions carried (templates counted once)."""
        return len(self.singleton_rhs) + sum(
            len(f.template_rhs) for f in self.families
        )

    @property
    def symbolic_rhs(self) -> tuple[Expr, ...]:
        """Every carried expression once — NOT aligned with state_names."""
        exprs = [e for _i, e in self.singleton_rhs]
        for fam in self.families:
            exprs.extend(fam.template_rhs)
        return tuple(exprs)

    def expand(self) -> OdeSystem:
        """Scalarize: the exact per-member :class:`OdeSystem`."""
        rhs: list[Expr | None] = [None] * self.num_states
        reduce_cache: dict[Expr, Expr] = {}
        for i, expr in self.singleton_rhs:
            # singleton RHS may carry symbolic family sums; lower them to
            # the canonical n-ary sums the scalar oracle builds
            rhs[i] = expand_reduces(expr, reduce_cache)
        for fam in self.families:
            for k, member in enumerate(fam.member_names):
                for j, expr in enumerate(fam.template_rhs):
                    idx = fam.member_state(k, j)
                    rhs[idx] = (
                        expr
                        if member == fam.representative
                        else rename_instance(expr, fam.representative, member)
                    )
        missing = [
            self.state_names[i] for i, e in enumerate(rhs) if e is None
        ]
        if missing:
            raise TransformError(
                "array system expand: states without RHS: "
                + ", ".join(missing[:10])
            )
        return OdeSystem(
            name=self.name,
            free_var=self.free_var,
            state_names=self.state_names,
            param_names=self.param_names,
            rhs=tuple(rhs),
            start_values=self.start_values,
            param_values=self.param_values,
        )

    def __repr__(self) -> str:
        return (
            f"<ArraySystem {self.name}: {self.num_states} states in "
            f"{len(self.singleton_rhs)} singleton + "
            f"{len(self.families)} family slice(s), "
            f"{self.num_symbolic_rhs} symbolic RHS>"
        )


def _family_layout(
    group, rhs_by_state: Mapping[str, Expr], state_pos: Mapping[str, int],
    param_pos: Mapping[str, int], simplify_rhs: bool,
) -> FamilyLayout:
    """Derive and *verify* one family's strided vector layout."""
    fam = group.family
    rep = fam.representative.name
    members = tuple(fam.member_names)

    def suffixes_of(positions: Mapping[str, int]) -> list[str]:
        return [
            name[len(rep):]
            for name in positions
            if name.partition(".")[0] == rep
        ]

    state_suffixes = suffixes_of(state_pos)
    param_suffixes = suffixes_of(param_pos)

    def verify(positions, suffixes, what) -> tuple[int, int]:
        if not suffixes:
            return 0, 0
        base = positions[members[0] + suffixes[0]]
        stride = len(suffixes)
        for k, member in enumerate(members):
            for j, suffix in enumerate(suffixes):
                name = member + suffix
                got = positions.get(name)
                want = base + k * stride + j
                if got != want:
                    raise TransformError(
                        f"family {fam.base}: non-uniform {what} layout; "
                        f"{name} at index {got}, expected {want} "
                        f"(instance-major stride {stride})"
                    )
        return base, stride

    state_base, state_stride = verify(state_pos, state_suffixes, "state")
    param_base, param_stride = verify(param_pos, param_suffixes, "parameter")

    missing = [s for s in state_suffixes if rep + s not in rhs_by_state]
    if missing:
        raise TransformError(
            f"family {fam.base}: template states without defining ODE: "
            + ", ".join(rep + s for s in missing[:10])
        )
    template_rhs = tuple(rhs_by_state[rep + s] for s in state_suffixes)
    if simplify_rhs:
        template_rhs = tuple(simplify(e) for e in template_rhs)

    return FamilyLayout(
        base=fam.base,
        count=fam.count,
        member_names=members,
        representative=rep,
        state_base=state_base,
        state_stride=state_stride,
        state_suffixes=tuple(state_suffixes),
        template_rhs=template_rhs,
        param_base=param_base,
        param_stride=param_stride,
        param_suffixes=tuple(param_suffixes),
    )


def make_array_system(
    aflat: ArrayFlatModel, simplify_rhs: bool = True
) -> ArraySystem:
    """Transform an array flat model without enumerating family members.

    Builds a *mini* flat model holding only the singleton equations plus
    each family's representative templates, pushes it through the same
    implicit-solve and inlining machinery as :func:`make_ode_system`, then
    splits the resulting ODEs into per-index singleton assignments and
    per-family template RHS.  Symbolic work is O(class structure); only the
    layout verification walks the full member list.

    Raises :class:`TransformError` when the model fell back to scalar
    enumeration (``fallback_reason``) or when a family's members are not
    laid out instance-major with uniform stride in the state vector.
    """
    if not isinstance(aflat, ArrayFlatModel) or not aflat.groups:
        raise TransformError(
            "make_array_system requires an array flat model with instance "
            "families; use make_ode_system for scalar flat models"
        )
    if aflat.fallback_reason:
        raise TransformError(
            f"array transform unavailable ({aflat.fallback_reason}); "
            f"scalarize first"
        )

    member_bases = set()
    rep_bases = set()
    for g in aflat.groups:
        member_bases.update(g.family.member_names)
        rep_bases.add(g.family.representative.name)

    def kept(name: str) -> bool:
        base = name.partition(".")[0]
        return base not in member_bases or base in rep_bases

    work = FlatModel(
        name=aflat.name,
        free_var=aflat.free_var,
        states={n: v for n, v in aflat.states.items() if kept(n)},
        algebraics={n: v for n, v in aflat.algebraics.items() if kept(n)},
        parameters=dict(aflat.parameters),
        odes=list(aflat.odes) + [eq for g in aflat.groups for eq in g.odes],
        explicit_algs=list(aflat.explicit_algs)
        + [eq for g in aflat.groups for eq in g.explicit_algs],
        implicit=list(aflat.implicit)
        + [eq for g in aflat.groups for eq in g.implicit],
    )
    work = _solve_implicit(
        work, frozenset(work.states) | frozenset(work.algebraics)
    )
    work = work.inline_algebraics()

    rhs_by_state = {eq.state: eq.rhs for eq in work.odes}

    # Full scalar vector layout — identical to scalar mode by construction.
    state_names = tuple(aflat.states)
    param_names = tuple(aflat.parameters)
    state_pos = {name: i for i, name in enumerate(state_names)}
    param_pos = {name: i for i, name in enumerate(param_names)}

    singleton_rhs = []
    for i, name in enumerate(state_names):
        if name.partition(".")[0] in member_bases:
            continue
        expr = rhs_by_state.get(name)
        if expr is None:
            raise TransformError(
                f"state without defining ODE after transformation: {name}"
            )
        singleton_rhs.append((i, simplify(expr) if simplify_rhs else expr))

    families = tuple(
        _family_layout(g, rhs_by_state, state_pos, param_pos, simplify_rhs)
        for g in aflat.groups
    )

    param_values = tuple(
        aflat.parameters[p].value
        if aflat.parameters[p].value is not None
        else 0.0
        for p in param_names
    )
    return ArraySystem(
        name=aflat.name,
        free_var=aflat.free_var.name,
        state_names=state_names,
        param_names=param_names,
        start_values=tuple(aflat.start_vector()),
        param_values=param_values,
        singleton_rhs=tuple(singleton_rhs),
        families=families,
    )
