"""Time integration of u_t = (dispersal)u + u f(x, u) and the order
structure that KPP flows preserve: comparison of ordered solutions,
the part metric on strictly positive states, and exponential-envelope
super-solution checks.

Two explicit schemes share one stepping loop (clip accounting,
invariant-region guard, record rule).  It steps a stack of rows that
differ in their data and amplitudes only, each bitwise its march alone
at the stack's step and with its own clip count, invariant-region bound,
observer and Trajectory.  A single march is the stack of one.

rk4   classical fourth-order Runge-Kutta, the scheme of evolve.  It
      preserves the order of solutions at evolve's step bound
      (stability_dt_bound), so the comparison and part-metric checks
      march their pair as one evolve stack, and it is the oracle for rkc2
      and for the march.  march steps rk4 at its stability step instead
      (about 4x longer for the nonlocal and discrete kinds), which keeps
      it stable but not order-preserving.
rkc2  second-order Runge-Kutta-Chebyshev with damping 2/13 (Sommeijer,
      Shampine & Verwer 1998; Verwer, Sommeijer & Hundsdorfer 2004).  Its
      s stages reach the stability interval beta(s), about 0.65 s^2, so
      the random kind is not held to the h^2 step of rk4.  It is not
      order-preserving; march (the front and spreading runs) uses it
      wherever it costs fewer right-hand sides per unit time than rk4,
      which only a stencil whose bound grows as 1 / h^2 (the random
      kind's) can reach.

march_plan states the march's step rule once: scheme, step, stage count
and bound, all from one spectral bound rho of the linearized right-hand
side, read from each u0 only through its habitat and max(u0), so a
caller can check a step before it builds the initial data; its maxima
run over the stack, so a stack steps at the smallest step of its rows.
The step rules read the dispersal through its stencil's rho and clause
mass (dispersal._Stencil) and never ask which kind it is.
Step sizes are refused up front when they violate the plan's bound,
negatives produced by roundoff are clipped to zero with systematic
negativity counted, and divergence is reported with the first bad time.

The record rule: a march of n >= 1 steps to t_end = n dt >= T records
t = 0, every record_every-th step and the last.  Each row of evolve keeps
a snapshot of each record.  A row of march does too, unless it is given an
observer: then each record is handed to observer(t, values, t_end) as it
arrives and the row's Trajectory keeps only the initial and final
snapshots, so a reader that folds what it needs holds no history.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dispersal import DispersalOperator
from .domain import Field, Habitat, Reaction, unit_direction

RK4 = "rk4"
RKC2 = "rkc2"

_CLIP_NOISE = 1e-14  # negatives beyond this magnitude count as systematic
_STABILITY_SAFETY = 0.2
_STEP_FRACTION = 0.95  # automatic steps stay this far inside the bound
_RK4_INTERVAL = 2.785  # rk4 is stable on the real interval [-2.785, 0]
_RK4_MARCH_FRACTION = 0.6  # the march's rk4 bound is this share of it over rho
_RKC2_DAMPING = 2.0 / 13.0
_RKC2_STAGE_SAFETY = 1.05  # beta(s) must cover 1.05 dt times the spectral bound
_RECORDED_SNAPSHOTS = 240  # the automatic record rule keeps about this many
_COMPARISON_TOL = 5e-10
_PART_METRIC_SLACK = 1e-8


class StabilityError(ValueError):
    """Requested dt violates the explicit stability bound."""


class IntegrationDivergedError(RuntimeError):
    """Solution left the comparison bound or turned non-finite."""


@dataclass(eq=False)
class Trajectory:
    """Recorded evolution of one row: strictly increasing times and one
    snapshot each.  A row of evolve, or of a march without an observer,
    keeps every record; a row with an observer keeps t = 0 and the final
    time only."""

    habitat: Habitat
    times: np.ndarray
    snapshots: list
    clip_count: int = 0
    scheme: str = RK4  # the stepping scheme, rk4 or rkc2
    rhs_evals: int = 0  # right-hand-side evaluations over the whole march

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def initial(self) -> Field:
        return self.snapshots[0]

    @property
    def final(self) -> Field:
        return self.snapshots[-1]


class MarchPlan(NamedTuple):
    """How a march steps: its scheme, step dt, right-hand sides per step
    (4 for rk4, the stage count s for rkc2) and the largest admissible dt."""

    scheme: str
    dt: float
    stages: int
    bound: float

    @property
    def stable(self) -> bool:
        return self.dt <= self.bound * (1.0 + 1e-12)


def _reaction_maxima(growth, top):
    """(max|f|, max|d_u(u f)|) over the grid and u in [0, top] of the bound
    growth u -> f(x, u) (Reaction.bind), the maxima over the rows of a
    stack with a top per row; the march takes top = reaction.ceiling(max
    u0).  Both are linear in u, d_u(u f) = f(x, 0) - 2 slope u = f(x, 2u),
    so each is taken at the two ends: f at u in {0, top} and d_u(u f)
    through f at u in {0, 2 top}."""
    at_0, at_m, at_2m = (float(np.abs(growth(u)).max()) for u in (0.0, top, 2.0 * top))
    return max(at_0, at_m), max(at_0, at_2m)


def _stack(reactions, u0s):
    """(habitat, growth, ceilings) of the stack whose row j marches u0s[j]
    under reactions[j]: growth is Reaction.bind on the stack, ceilings each
    row's reaction.ceiling(max u0), shaped to broadcast over it.  The rows
    must share one habitat and differ in amplitude only."""
    habitat = u0s[0].habitat
    if (any(u0.habitat != habitat for u0 in u0s)
            or len({dataclasses.replace(r, amplitude=0.0) for r in reactions}) != 1):
        raise ValueError("the rows of a stack must share one habitat and differ in "
                         "their reactions' amplitudes only")
    ceilings = [r.ceiling(u0.max) for r, u0 in zip(reactions, u0s, strict=True)]
    return (habitat, reactions[0].bind(habitat, [r.amplitude for r in reactions]),
            np.reshape(ceilings, (-1,) + (1,) * habitat.dim))


def _step_inputs(op: DispersalOperator, reactions, u0s):
    """(stencil, max|f|, rho) of the flow of a stack: the dispersal._Stencil,
    and over its rows and u in [0, M], M a row's reaction.ceiling(max u0),
    max|f| and the Gershgorin bound rho = rho_D + max|d_u(u f)| of the
    linearized right-hand side, rho_D the stencil's; the one statement of
    rho.  The maxima are those of the worst row."""
    habitat, growth, ceilings = _stack(reactions, u0s)
    st = op._stencil(habitat.dim, habitat.spacing)
    max_f, max_df = _reaction_maxima(growth, ceilings)
    return st, max_f, st.rho + max_df


def spectral_bound(op: DispersalOperator, reaction: Reaction, u0: Field) -> float:
    """The Gershgorin bound rho of the linearized right-hand side that
    march_plan steps by, as _step_inputs states it."""
    return _step_inputs(op, [reaction], [u0])[2]


def _clause(mass: float, max_f: float) -> float:
    """The bounded-operator clause 0.25 / (mass + max|f| + 1)."""
    return 0.25 / (mass + max_f + 1.0)


def stability_dt_bound(op: DispersalOperator, reaction: Reaction, u0: Field) -> float:
    """Largest admissible step of evolve for the row u0 under reaction
    (a stack steps within the smallest of its rows'), the step at which
    rk4 preserves the order of solutions: the smaller of

    the clause   0.25 / (mass + max|f| + 1), a bounded-operator bound with
                 the stencil's clause mass (the rate sum of the discrete
                 kind, 1 otherwise)
    the stencil  2 / ((1 + safety) rho_D), safety 0.2: h^2 / (2.4 dim) for
                 the random kind (to 1 ulp); for the bounded kinds rho_D
                 is twice the clause mass, and this term never binds

    max|f| is evaluated at u in {0, M} with M = reaction.ceiling(max u0)
    = max(max u0, beta0) + u0*.  march does not use this bound: march_plan
    states its own.
    """
    st, max_f, _ = _step_inputs(op, [reaction], [u0])
    clause = _clause(st.mass, max_f)
    return min(clause, 2.0 / ((1.0 + _STABILITY_SAFETY) * st.rho))


# ----------------------------------------------------------------------
# rkc2 coefficients and the march's step rule
# ----------------------------------------------------------------------


def _chebyshev(s: int, w: float):
    """T_j(w), T_j'(w) and T_j''(w) for j = 0..s by the three-term recurrence."""
    t, d1, d2 = [1.0, w], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        t.append(2.0 * w * t[j - 1] - t[j - 2])
        d1.append(2.0 * t[j - 1] + 2.0 * w * d1[j - 1] - d1[j - 2])
        d2.append(4.0 * d1[j - 1] + 2.0 * w * d2[j - 1] - d2[j - 2])
    return t, d1, d2


def rkc2_coefficients(s: int):
    """(mu~_1, stages, beta) of the damped s-stage rkc2 scheme (Verwer,
    Sommeijer & Hundsdorfer 2004, eq. 2.6), with stages the tuples
    (mu_j, nu_j, mu~_j, gamma~_j) for j = 2..s.  Its stability polynomial
    is R_s(z) = a_s + b_s T_s(w0 + w1 z), with |R_s| <= 1 on [-beta, 0]."""
    if s < 2:
        raise ValueError(f"rkc2 needs at least 2 stages, got {s}")
    w0 = 1.0 + _RKC2_DAMPING / s ** 2
    t, d1, d2 = _chebyshev(s, w0)
    w1 = d1[s] / d2[s]
    b = [d2[max(j, 2)] / d1[max(j, 2)] ** 2 for j in range(s + 1)]  # b_0 = b_1 = b_2
    stages = []
    for j in range(2, s + 1):
        mu_t = 2.0 * b[j] * w1 / b[j - 1]
        a_prev = 1.0 - b[j - 1] * t[j - 1]
        stages.append((2.0 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2], mu_t, -a_prev * mu_t))
    return b[1] * w1, stages, (1.0 + w0) / w1


def _rkc2_stages(dt: float, rho: float) -> int:
    """The smallest s >= 2 with beta(s) >= 1.05 dt rho."""
    s = 2
    while rkc2_coefficients(s)[2] < _RKC2_STAGE_SAFETY * dt * rho:
        s += 1
    return s


def march_plan(op: DispersalOperator, reactions, u0s, dt: float = None) -> MarchPlan:
    """The MarchPlan of march, row j from u0s[j] under reactions[j]: the
    one statement of the march's step rule.

    Both schemes read one Gershgorin bound of the linearized right-hand
    side, rho = rho_D + max|d_u(u f)| over the rows and u in [0, M], with
    rho_D the dispersal stencil's bound (4 dim / h^2 for the random kind,
    twice the clause mass otherwise).  rk4 is bounded by 0.6 * 2.785 /
    rho, a share of its real stability interval (its stability region
    also holds every disc |z + r| <= r with r <= 1.39, which covers the
    discs of the non-symmetric clamp rows), and steps at dt, else at 0.95
    times that bound.  rkc2 is bounded by the bounded-operator clause
    0.25 / (mass + max|f| + 1), steps at dt, else at 0.5 * 0.95 times the
    clause (the half keeps the front speed within 1e-3 of rk4's), and
    takes the smallest s with beta(s) >= 1.05 dt rho (a dt above the
    bound gets the bound's s).  The scheme does not follow dt: it is rkc2
    when, at the two automatic steps, s / dt_rkc2 < 4 / dt_rk4, and rk4
    otherwise, which only the random kind can reach.  Each u0 enters
    through its habitat and max(u0) only.
    """
    st, max_f, rho = _step_inputs(op, reactions, u0s)
    rk4 = _RK4_MARCH_FRACTION * _RK4_INTERVAL / rho
    rk4_dt = _STEP_FRACTION * rk4
    clause = _clause(st.mass, max_f)
    auto = 0.5 * (_STEP_FRACTION * clause)
    # Cost alone picks the scheme, and only an h^2-limited stencil can pass:
    # beta(s) grows as about 0.65 s^2, so rkc2 pays only where rho_D does as
    # 1 / h^2.  For a bounded stencil rho_D = 2 mass, and with F = max|f|
    # on [0, M], max|d_u(u f)| = max(|f(x, 0)|, |2 f(x, M) - f(x, 0)|) <= 3 F,
    # so rho <= 2 mass + 3 F < 3 (mass + F + 1).  The test below reads
    # s * 1.58745 (mass + F + 1) < 0.475 rho, which fails for every s >= 2:
    # every bounded kind steps by rk4.
    if _rkc2_stages(auto, rho) * rk4_dt < 4.0 * auto:
        step = auto if dt is None else dt
        return MarchPlan(RKC2, step, _rkc2_stages(min(step, clause), rho), clause)
    return MarchPlan(RK4, rk4_dt if dt is None else dt, 4, rk4)


def _rkc2_stepper(dt: float, s: int):
    """One rkc2 step in increment form: with D_j = Y_j - u,
    D_j = mu_j D_{j-1} + nu_j D_{j-2} + dt (mu~_j F(u + D_{j-1}) + gamma~_j F0),
    so a state with F = 0 exactly (a constant equilibrium, the zeros
    ahead of a front) is kept bit for bit.

    rhs must return a new array on each call, which the step writes into:
    each stage sum D_j accumulates in place in F(u + D_{j-1}), and the
    stage states u + D_{j-1} and the scaled terms all go through one
    buffer per step (rhs must not keep its argument).  The floating-point
    operations and their order are those of the plain expressions, so the
    result is bit-identical.  The step returns D_s + u in D_s's own array,
    a fresh one each step, so an earlier result (an array handed to an
    observer) is never written again."""
    first, stages, _ = rkc2_coefficients(s)
    first *= dt
    scaled = [(m, n, dt * mt, dt * gt) for m, n, mt, gt in stages]

    def step(rhs, u):
        buf = np.empty_like(u)
        f0 = rhs(u)
        d_prev, d = None, first * f0
        for j, (m, n, mt, gt) in enumerate(scaled, start=2):
            y = rhs(np.add(u, d, out=buf))
            y *= mt
            y += np.multiply(f0, gt, out=buf)
            y += np.multiply(d, m, out=buf)
            if j > 2:  # D_0 = 0
                y += np.multiply(d_prev, n, out=buf)
            d_prev, d = d, y
        d += u
        return d

    return step


def _rk4_stepper(dt: float):
    """One classical rk4 step, u + dt/6 (k1 + 2 k2 + 2 k3 + k4).

    rhs must return a new array on each call, which the step writes into:
    the weighted sum accumulates in place in k1 as each k_j arrives, and
    the three stage states u + c dt k_j go through one buffer per step
    (rhs must not keep its argument).  The floating-point operations and
    their order are those of the plain expression, so the result is
    bit-identical.  The step returns the result in k1's own array, a
    fresh one each step, so an earlier result (an array handed to an
    observer) is never written again."""
    half, sixth = 0.5 * dt, dt / 6.0

    def step(rhs, u):
        y = np.empty_like(u)
        k1 = rhs(u)
        np.add(u, np.multiply(k1, half, out=y), out=y)
        k2 = rhs(y)
        np.add(u, np.multiply(k2, half, out=y), out=y)
        k2 *= 2.0
        k1 += k2  # k1 + 2 k2
        k3 = rhs(y)
        np.add(u, np.multiply(k3, dt, out=y), out=y)
        k3 *= 2.0
        k1 += k3  # + 2 k3
        k1 += rhs(y)  # + k4
        k1 *= sixth
        k1 += u
        return k1

    return step


def evolve(op: DispersalOperator, reactions, u0s, T: float, dt: float,
           record_every: int = 1) -> tuple:
    """The order-preserving march: every row j from u0s[j] under
    reactions[j], all as one stack by rk4 at dt to final time >= T, with
    a Trajectory per row that keeps every record (every record_every-th
    step, at least 1, and the last).  A single run is the stack of one.

    dt must not exceed the smallest stability_dt_bound of the rows
    (StabilityError otherwise).  Each u0 must be nonnegative.  All
    snapshots are nonnegative (roundoff negatives are zeroed; clip_count
    counts values below -1e-14) and each row is bounded by its
    invariant-region bound reaction.ceiling(max u0) = max(max u0, beta0)
    + u0*; any excursion past it or a non-finite value aborts with the
    first bad time.
    """
    bound = min(stability_dt_bound(op, r, u0) for r, u0 in zip(reactions, u0s, strict=True))
    return _step_loop(op, reactions, u0s, T, MarchPlan(RK4, dt, 4, bound), record_every,
                      [None] * len(u0s))


def march(op: DispersalOperator, reactions, u0s, T: float, dt: float = None,
          record_every: int = None, observers=None) -> tuple:
    """The march of the front and spreading runs: every row j from u0s[j]
    under reactions[j], all as one stack by the plan of march_plan (dt
    None is its automatic step; a dt above its bound raises
    StabilityError), with a Trajectory per row.  A single march is the
    stack of one.  record_every None makes about 240 records.  Records
    obey evolve's clip, bound and record rules, row by row.

    A row without an observer (observers None: no row has one) keeps
    every record as a snapshot.  A row's observer(t, values, t_end) is
    called at t = 0 and at each later record in time order, with t_end
    the final recorded time, and the row's Trajectory holds the initial
    and final snapshots only; clip_count, scheme and rhs_evals are those
    of the whole march.  At each record the observers are called in row
    order.  values is a read-only array that the march never changes
    afterwards, so the observer may keep it.
    """
    return _step_loop(op, reactions, u0s, T, march_plan(op, reactions, u0s, dt), record_every,
                      observers or [None] * len(u0s))


def _step_loop(op, reactions, u0s, T, plan, record_every, observers):
    """The stepping loop of every scheme, on the stack of the rows u0s:
    input and stability checks, then u <- step(rhs, u), each row's clip
    accounting and invariant-region guard and the record rule
    (record_every None makes about 240 records), each row's records kept
    as snapshots or, given its observer, handed to it."""
    dt = plan.dt
    if not all(u0.is_nonnegative() for u0 in u0s):
        raise ValueError("initial data must be nonnegative")
    if not (T > 0 and dt > 0):
        raise ValueError("T and dt must be positive")
    if record_every is None:
        record_every = max(1, int(math.ceil(T / dt / _RECORDED_SNAPSHOTS)))
    elif record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    if not plan.stable:
        raise StabilityError(f"dt={dt} violates the {plan.scheme} stability bound "
                             f"{plan.bound:.6g} for kind={op.kind}")
    step = _rk4_stepper(dt) if plan.scheme == RK4 else _rkc2_stepper(dt, plan.stages)

    habitat, growth, m_bounds = _stack(reactions, u0s)
    m_bounds = m_bounds.ravel()
    m_low = m_bounds.min()
    disp = op.bind(habitat, len(u0s))

    def rhs(u):
        # a new array each call, as the steppers require
        out = disp(u)
        g = growth(u)
        g *= u
        out += g
        return out

    # at least one step: for T below 1e-12 dt the ceiling alone gives none
    n_steps = max(1, int(math.ceil(T / dt - 1e-12)))
    t_end = n_steps * dt

    # Allocate and free one untouched 16 MiB block.  Under glibc, freeing a
    # mapped block raises the dynamic mmap threshold to its size, so the
    # stage temporaries below (341 KiB each on a 209 x 209 grid) are then
    # reused from the heap instead of being mapped and page-faulted afresh
    # on every step (about 2,300 minor faults and twice the time per step
    # on that grid).
    np.empty(1 << 21)

    kept = [([0.0], [u0]) for u0 in u0s]  # each row's times and snapshots
    calls = []  # each row's observer, or one that keeps every record
    for observer, (times, snapshots) in zip(observers, kept, strict=True):
        if observer is None:
            def observer(t, values, t_end, times=times, snapshots=snapshots):
                times.append(t)
                snapshots.append(Field(habitat, values))
        else:
            observer(0.0, snapshots[0].values, t_end)
        calls.append(observer)

    u = np.stack([u0.values for u0 in u0s])
    grid_axes = tuple(range(1, u.ndim))
    clip_counts = np.zeros(len(u0s), dtype=int)
    for k in range(1, n_steps + 1):
        # step and the clip below return fresh arrays, never writing into u,
        # so an array handed to an observer is never changed afterwards
        u = step(rhs, u)
        t = k * dt

        umin = u.min()
        if umin < 0.0:
            clip_counts += np.count_nonzero(u < -_CLIP_NOISE, axis=grid_axes)
            u = np.maximum(u, 0.0)
        # not <=, so that a non-finite value fails too; the rows are read
        # only once some value exceeds the lowest bound
        if not u.max() <= m_low:
            umax = u.max(axis=grid_axes)
            j = int(np.argmin(umax <= m_bounds))  # the first row beyond its bound
            if not umax[j] <= m_bounds[j]:
                raise IntegrationDivergedError(f"integration diverged at t={t:.6g} "
                                               f"(max={umax[j]:.6g}, bound={m_bounds[j]:.6g})")

        if k % record_every == 0 or k == n_steps:
            u.setflags(write=False)
            for observer, values in zip(calls, u):
                observer(t, values, t_end)

    for observer, (times, snapshots), values in zip(observers, kept, u):
        if observer is not None:
            times.append(t_end)
            snapshots.append(Field(habitat, values))
    return tuple(Trajectory(habitat, np.asarray(times), snapshots, int(clips), plan.scheme,
                            plan.stages * n_steps)
                 for (times, snapshots), clips in zip(kept, clip_counts))


@dataclass(frozen=True)
class ViolationReport:
    """The worst violation of an order check over its records, the time
    it occurred and the tolerance it was held to."""

    ok: bool
    violation: float
    worst_time: float
    tolerance: float


def check_comparison(op: DispersalOperator, reaction: Reaction, lo: Field, hi: Field,
                     T: float, dt: float, record_every: int = 1) -> ViolationReport:
    """Ordered initial data lo <= hi should stay ordered: marches the pair
    as one evolve stack and reports the largest positive part of lo - hi
    over all recorded times (passes up to 5e-10)."""
    t_lo, t_hi = evolve(op, [reaction] * 2, [lo, hi], T, dt, record_every)
    # after evolve, which refuses a pair on two habitats
    if np.any(lo.values > hi.values):
        raise ValueError("precondition violated: lo exceeds hi")
    violation = 0.0
    worst_time = 0.0
    for t, s1, s2 in zip(t_lo.times, t_lo.snapshots, t_hi.snapshots):
        v = float(np.max(s1.values - s2.values))
        if v > violation:
            violation, worst_time = v, float(t)
    violation = max(violation, 0.0)
    return ViolationReport(violation <= _COMPARISON_TOL, violation, worst_time, _COMPARISON_TOL)


def part_metric(u: Field, v: Field) -> float:
    """rho(u, v) = max |ln u - ln v| = inf{ln a : u/a <= v <= a u} on
    strictly positive fields."""
    if not (u.is_strictly_positive() and v.is_strictly_positive()):
        raise ValueError("part metric requires strictly positive fields")
    return float(np.max(np.abs(np.log(u.values) - np.log(v.values))))


@dataclass(frozen=True)
class PartMetricReport:
    ok: bool
    rhos: np.ndarray
    times: np.ndarray
    violations: tuple
    slack: float


def check_part_metric_decay(
    op: DispersalOperator,
    reaction: Reaction,
    u0: Field,
    v0: Field,
    T: float,
    dt: float,
    record_every: int = 1,
) -> PartMetricReport:
    """The part metric between two strictly positive solutions must be
    non-increasing along the flow (up to a roundoff slack of 1e-8 per
    recorded step).  The pair marches as one evolve stack, and the metric
    is taken at each record."""
    if not (u0.is_strictly_positive() and v0.is_strictly_positive()):
        raise ValueError("initial data must be strictly positive")
    tu, tv = evolve(op, [reaction] * 2, [u0, v0], T, dt, record_every)
    rhos = np.array([part_metric(a, b) for a, b in zip(tu.snapshots, tv.snapshots)])
    bad = tuple((float(tu.times[k]), float(rhos[k] - rhos[k - 1])) for k in range(1, len(rhos))
                if rhos[k] > rhos[k - 1] + _PART_METRIC_SLACK)
    return PartMetricReport(not bad, rhos, tu.times, bad, _PART_METRIC_SLACK)


def check_exponential_supersolution(
    traj: Trajectory, d: float, mu: float, c: float, xi
) -> ViolationReport:
    """Check u(t, x) <= d exp(-mu (x.xi - c t)) along a trajectory.

    The initial data must already sit below the envelope; that is an
    input error, not a dynamics failure.  Passes when the worst excess
    is at most 1e-8 * d.
    """
    proj = traj.habitat.projection(unit_direction(xi, traj.habitat.dim))
    env0 = d * np.exp(np.minimum(-mu * proj, 60.0))
    if np.any(traj.initial.values > env0):
        raise ValueError("input error: initial data exceeds the envelope d exp(-mu x.xi)")
    violation = -np.inf
    worst_time = 0.0
    for t, snap in zip(traj.times, traj.snapshots):
        # cap the exponent: e^60 dwarfs any admissible u, avoids overflow
        env = d * np.exp(np.minimum(-mu * (proj - c * t), 60.0))
        v = float(np.max(snap.values - env))
        if v > violation:
            violation, worst_time = v, float(t)
    tol = 1e-8 * d
    return ViolationReport(violation <= tol, violation, worst_time, tol)
