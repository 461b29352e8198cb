"""Structure-exploiting steady-state solver for the GPRS chain.

Generic sparse LU factorisation suffers severe fill-in on the GPRS chain
because its transition graph is a four-dimensional lattice.  This module
implements a solver that exploits three structural properties of the model
instead:

1. **The phase process is autonomous.**  The components ``(n, m, r)`` (GSM
   calls, GPRS sessions, sessions in the off state) evolve with rates that do
   not depend on the buffer occupancy ``k``, so their marginal stationary
   distribution is the stationary distribution of the much smaller *phase
   chain*.

2. **The phase chain is a direct product.**  No transition couples the GSM
   component ``n`` with the GPRS component ``(m, r)``, so the phase chain is
   the Kronecker sum of a birth--death chain over ``n`` and a session chain
   over ``(m, r)`` -- its stationary distribution is the Kronecker *product*
   of two tiny marginals.  Each factor chain is one diagonal block of the
   phase coupling (the ``n = 0`` block and the ``(m, r) = (0, 0)`` block), so
   both are read from the same stencil and solved exactly (GTH elimination
   up to 600 states) in microseconds instead of a sparse LU solve of the
   full phase chain.

3. **For a fixed phase, the buffer occupancy is a birth--death fibre.**
   Packet arrivals and services only move ``k`` by one and never change the
   phase, so conditioned on the cross-phase inflows the balance equations of
   one phase form a tridiagonal system of size ``K + 1`` that the Thomas
   algorithm solves in ``O(K)``.  The elimination coefficients depend only on
   the rates, not on the right-hand side, so they are factorised **once** per
   configuration and every sweep performs only the two O(K) substitution
   passes.

The solver iterates block-Jacobi sweeps over all phase fibres (vectorised
over phases, so one sweep costs a handful of numpy operations on ``(K+1, B)``
arrays) and, after every sweep, rescales each fibre so that its mass matches
the exact phase marginal (an aggregation/disaggregation step).  Every few
sweeps a **reduced-rank extrapolation** (RRE) step combines the recent
iterates into a minimal-residual linear combination, which typically removes
the slowly-decaying error modes and cuts the sweep count roughly in half; the
extrapolated iterate is only accepted when it measurably lowers the residual,
so a failed extrapolation can never degrade the solution.  Convergence is
measured by the residual of the full balance equations (evaluated per sweep
directly on the ``(K+1, B)`` grid, where it costs a few vector operations),
so the result is the stationary distribution of the complete chain, not an
approximation.

On deep buffers a **two-level coarse-space correction** targets the
slowly-diffusing buffer modes directly.  The phases are aggregated by the
pair ``(n, m - r)`` -- the only coordinates the buffer rates depend on (the
arrival rate of a fibre is a function of the active sessions ``m - r`` alone,
the service rate of the free channels ``C - n`` alone), so the restricted
birth/death rates of the coarse chain over ``(k, n, m - r)`` are *exact*, and
no transition of the chain moves ``k`` and the phase at once, so the coarse
operator keeps the fine operator's level structure.  The coarse system (a few
hundred times smaller than the chain) is factorised once per engaged solve
with a fill-reducing sparse LU; at each extrapolation-window boundary the
balance residual is restricted, the coarse correction equation is solved
exactly, and the prolongated correction is applied.  Each correction is
accepted only when it measurably lowers the true residual, so -- like the
reduced-rank extrapolation -- it can never degrade the solution.  The
machinery engages lazily (deep buffers only, and only once the iteration has
proven slow), so short warm-started solves never pay the factorisation; with
the correction disabled the iteration is bitwise identical to the plain
path.  This is what stops the sweep count from scaling with the buffer size
``K``.

Arrival-rate sweeps can reuse a :class:`StructuredSolveContext` across
points: it caches everything that does not depend on the swept arrival rate
(the rate grids, the fibre couplings and the frozen sparsity pattern of the
phase chain), mirroring what :class:`~repro.core.template.GeneratorTemplate`
does for the full generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.parameters import GprsModelParameters
from repro.core.state_space import GprsStateSpace
from repro.obs.metrics import current_registry
from repro.obs.trace import current_tracer
from repro.markov.solvers import SolverError, SteadyStateResult, solve_steady_state
from repro.traffic.units import MAX_TIME_SLOTS_PER_STATION

__all__ = ["StructuredSolveContext", "solve_structured", "build_phase_generator"]


def _phase_arrays(space: GprsStateSpace):
    """Return per-phase arrays (n, m, r) in phase order ``phi = n * P + p``."""
    pair_count = (space.max_sessions + 1) * (space.max_sessions + 2) // 2
    phases = (space.gsm_channels + 1) * pair_count
    pair_m = np.empty(pair_count, dtype=np.int64)
    pair_r = np.empty(pair_count, dtype=np.int64)
    position = 0
    for m in range(space.max_sessions + 1):
        count = m + 1
        pair_m[position : position + count] = m
        pair_r[position : position + count] = np.arange(count)
        position += count
    n = np.repeat(np.arange(space.gsm_channels + 1), pair_count)
    m = np.tile(pair_m, space.gsm_channels + 1)
    r = np.tile(pair_r, space.gsm_channels + 1)
    return phases, pair_count, n, m, r


def build_phase_generator(
    params: GprsModelParameters,
    space: GprsStateSpace,
    *,
    gsm_handover_arrival_rate: float,
    gprs_handover_arrival_rate: float,
) -> sp.csr_matrix:
    """Return the generator of the autonomous phase chain ``(n, m, r)``.

    The phase chain contains every transition of Table 1 that does not involve
    the buffer occupancy: GSM/GPRS arrivals and departures (including
    handovers) and the on/off switches of the aggregated traffic source.
    """
    phases, pair_count, n, m, r = _phase_arrays(space)
    index = np.arange(phases, dtype=np.int64)

    gsm_arrival = params.gsm_arrival_rate + gsm_handover_arrival_rate
    gprs_arrival = params.gprs_arrival_rate + gprs_handover_arrival_rate
    gsm_departure = params.gsm_completion_rate + params.gsm_handover_departure_rate
    gprs_departure = params.gprs_completion_rate + params.gprs_handover_departure_rate
    start_on = params.probability_session_starts_on

    sessions = np.arange(space.max_sessions + 1, dtype=np.int64)
    pair_offset = sessions * (sessions + 1) // 2  # offset[m] = m(m+1)/2

    def phase_index(n_new, m_new, r_new):
        return n_new * pair_count + pair_offset[m_new] + r_new

    rows, cols, values = [], [], []

    def add(mask, target, rate):
        rate = np.broadcast_to(np.asarray(rate, dtype=float), mask.shape)
        keep = mask & (rate > 0)
        rows.append(index[keep])
        cols.append(target[keep])
        values.append(rate[keep])

    # GSM arrivals / departures.
    mask = n < space.gsm_channels
    add(mask, phase_index(np.minimum(n + 1, space.gsm_channels), m, r), gsm_arrival)
    mask = n > 0
    add(mask, phase_index(np.maximum(n - 1, 0), m, r), n * gsm_departure)
    # GPRS session arrivals (starting on or off).
    mask = m < space.max_sessions
    m_next = np.minimum(m + 1, space.max_sessions)
    add(mask, phase_index(n, m_next, np.minimum(r, m_next)), start_on * gprs_arrival)
    add(mask, phase_index(n, m_next, np.minimum(r + 1, m_next)), (1 - start_on) * gprs_arrival)
    # GPRS session departures (leaving session off / on).
    m_prev = np.maximum(m - 1, 0)
    mask = (m > 0) & (r > 0)
    add(mask, phase_index(n, m_prev, np.maximum(r - 1, 0)), r * gprs_departure)
    mask = (m > 0) & (r < m)
    add(mask, phase_index(n, m_prev, np.minimum(r, m_prev)), (m - r) * gprs_departure)
    # Aggregated source switches.
    mask = r < m
    add(mask, phase_index(n, m, np.minimum(r + 1, m)), (m - r) * params.on_to_off_rate)
    mask = r > 0
    add(mask, phase_index(n, m, np.maximum(r - 1, 0)), r * params.off_to_on_rate)

    row = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    col = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    data = np.concatenate(values) if values else np.empty(0, dtype=float)
    off_diagonal = sp.coo_matrix((data, (row, col)), shape=(phases, phases)).tocsr()
    off_diagonal.sum_duplicates()
    exit_rates = np.asarray(off_diagonal.sum(axis=1)).ravel()
    return (off_diagonal - sp.diags(exit_rates)).tocsr()


def _rate_grids(params: GprsModelParameters, space: GprsStateSpace):
    """Return arrival, service and TCP-capped arrival rates on the (K+1, B) grid.

    The grid is indexed ``[k, phi]`` with ``phi = n * P + p`` matching
    :func:`build_phase_generator`.
    """
    phases, pair_count, n, m, r = _phase_arrays(space)
    levels = space.buffer_size + 1
    k = np.arange(levels)[:, None]

    free_channels = params.number_of_channels - n[None, :]
    capacity = np.minimum(free_channels, MAX_TIME_SLOTS_PER_STATION * k)
    service = capacity * params.pdch_service_rate

    uncontrolled = ((m - r) * params.packet_rate)[None, :] * np.ones((levels, 1))
    throttled = np.minimum(uncontrolled, service)
    above = (np.arange(levels) > params.tcp_threshold_packets)[:, None]
    offered = np.where(above, throttled, uncontrolled)
    # No arrival transition out of the full buffer (offered packets are lost).
    arrival = offered.copy()
    arrival[-1, :] = 0.0
    return arrival, service, offered


def _phase_marginal(phase_off: sp.csr_matrix, pair_count: int) -> np.ndarray:
    """Exact stationary distribution of the phase chain from its coupling.

    The phase chain is the direct product of the GSM birth--death chain and
    the ``(m, r)`` session chain, so its stationary distribution is the
    Kronecker product of the two factor marginals.  Each factor chain is a
    diagonal block of the off-diagonal phase matrix ``phase_off``: the
    ``(m, r) = (0, 0)`` phases (every ``P``-th one) hold the GSM transitions,
    and the ``n = 0`` phases (the first ``P``) the session transitions.
    """
    factors = []
    for block in (
        phase_off[::pair_count, ::pair_count],
        phase_off[:pair_count, :pair_count],
    ):
        block.eliminate_zeros()  # frozen arrival slots of a zero arrival rate
        exit_rates = np.asarray(block.sum(axis=1)).ravel()
        generator = (block - sp.diags(exit_rates)).tocsr()
        factors.append(solve_steady_state(generator, method="auto").distribution)
    return np.kron(*factors)


# ---------------------------------------------------------------------- #
# Reusable per-configuration context
# ---------------------------------------------------------------------- #
@dataclass
class StructuredSolveContext:
    """Arrival-rate-independent scaffolding of the structured solver.

    Everything here depends only on the fixed part of the configuration
    (state-space shape, service/packet/switch rates), so one context serves
    every point of an arrival-rate sweep.  The phase-chain sparsity pattern
    is frozen the same way :class:`~repro.core.template.GeneratorTemplate`
    freezes the full generator: per sweep point only its ``data`` array is
    rewritten.
    """

    space: GprsStateSpace
    levels: int
    phases: int
    pair_count: int
    arrival: np.ndarray = field(repr=False)
    service: np.ndarray = field(repr=False)
    sub: np.ndarray = field(repr=False)
    sup: np.ndarray = field(repr=False)
    fibre_exit: np.ndarray = field(repr=False)  # arrival + service per grid cell
    # Frozen off-diagonal pattern of the phase chain.
    phase_indptr: np.ndarray = field(repr=False)
    phase_indices: np.ndarray = field(repr=False)
    phase_base_data: np.ndarray = field(repr=False)
    phase_gsm_slots: np.ndarray = field(repr=False)
    phase_on_slots: np.ndarray = field(repr=False)
    phase_off_slots: np.ndarray = field(repr=False)
    #: Start-on/start-off weight of each arrival-dependent phase slot.
    phase_weight: np.ndarray = field(repr=False)

    @classmethod
    def build(
        cls, params: GprsModelParameters, space: GprsStateSpace
    ) -> "StructuredSolveContext":
        phases, pair_count, n, m, r = _phase_arrays(space)
        levels = space.buffer_size + 1
        arrival, service, _ = _rate_grids(params, space)
        sub = np.zeros((levels, phases))
        sup = np.zeros((levels, phases))
        sub[1:, :] = arrival[:-1, :]
        sup[:-1, :] = service[1:, :]

        # Off-diagonal phase pattern with unit scales per event family:
        # fixed rates are stored, arrival-dependent slots are marked.
        gsm_departure = params.gsm_completion_rate + params.gsm_handover_departure_rate
        gprs_departure = params.gprs_completion_rate + params.gprs_handover_departure_rate
        sessions = np.arange(space.max_sessions + 1, dtype=np.int64)
        pair_offset = sessions * (sessions + 1) // 2
        index = np.arange(phases, dtype=np.int64)

        def phase_index(n_new, m_new, r_new):
            return n_new * pair_count + pair_offset[m_new] + r_new

        rows, cols, values, classes = [], [], [], []

        def add(mask, target, rate, code):
            rate = np.broadcast_to(np.asarray(rate, dtype=float), mask.shape)
            keep = mask & (rate > 0)
            rows.append(index[keep])
            cols.append(target[keep])
            values.append(rate[keep])
            classes.append(np.full(int(keep.sum()), code, dtype=np.int8))

        # Unit scales freeze the pattern of the arrival classes (codes 1-3);
        # fixed classes (code 0) store their true rates.
        start_on = params.probability_session_starts_on
        mask = n < space.gsm_channels
        add(mask, phase_index(np.minimum(n + 1, space.gsm_channels), m, r), 1.0, 1)
        mask = n > 0
        add(mask, phase_index(np.maximum(n - 1, 0), m, r), n * gsm_departure, 0)
        mask = m < space.max_sessions
        m_next = np.minimum(m + 1, space.max_sessions)
        add(mask, phase_index(n, m_next, np.minimum(r, m_next)), start_on, 2)
        add(mask, phase_index(n, m_next, np.minimum(r + 1, m_next)), 1.0 - start_on, 3)
        m_prev = np.maximum(m - 1, 0)
        mask = (m > 0) & (r > 0)
        add(mask, phase_index(n, m_prev, np.maximum(r - 1, 0)), r * gprs_departure, 0)
        mask = (m > 0) & (r < m)
        add(mask, phase_index(n, m_prev, np.minimum(r, m_prev)), (m - r) * gprs_departure, 0)
        mask = r < m
        add(mask, phase_index(n, m, np.minimum(r + 1, m)), (m - r) * params.on_to_off_rate, 0)
        mask = r > 0
        add(mask, phase_index(n, m, np.maximum(r - 1, 0)), r * params.off_to_on_rate, 0)

        row = np.concatenate(rows)
        col = np.concatenate(cols)
        data = np.concatenate(values)
        code = np.concatenate(classes)

        order = sp.csr_matrix(
            (np.arange(1, row.shape[0] + 1, dtype=np.float64), (row, col)),
            shape=(phases, phases),
        )
        order.sum_duplicates()
        order.sort_indices()
        position = np.rint(order.data).astype(np.int64) - 1

        slot_code = code[position]
        base = np.where(slot_code == 0, data[position], 0.0)
        weight = np.where(slot_code == 2, start_on, 1.0 - start_on)

        return cls(
            space=space,
            levels=levels,
            phases=phases,
            pair_count=pair_count,
            arrival=arrival,
            service=service,
            sub=sub,
            sup=sup,
            fibre_exit=arrival + service,
            phase_indptr=order.indptr.copy(),
            phase_indices=order.indices.copy(),
            phase_base_data=base,
            phase_gsm_slots=np.flatnonzero(slot_code == 1),
            phase_on_slots=np.flatnonzero(slot_code == 2),
            phase_off_slots=np.flatnonzero(slot_code == 3),
            phase_weight=weight,
        )

    def phase_coupling(
        self, gsm_arrival: float, gprs_arrival: float
    ) -> tuple[sp.csr_matrix, np.ndarray]:
        """Return the off-diagonal phase matrix and per-phase exit rates."""
        data = self.phase_base_data.copy()
        data[self.phase_gsm_slots] = gsm_arrival
        weight = self.phase_weight
        data[self.phase_on_slots] = weight[self.phase_on_slots] * gprs_arrival
        data[self.phase_off_slots] = weight[self.phase_off_slots] * gprs_arrival
        matrix = sp.csr_matrix(
            (data, self.phase_indices, self.phase_indptr),
            shape=(self.phases, self.phases),
            copy=False,
        )
        matrix.has_sorted_indices = True
        matrix.has_canonical_format = True
        exit_rates = np.asarray(matrix.sum(axis=1)).ravel()
        return matrix, exit_rates

    def coarse_groups(self) -> tuple[np.ndarray, int]:
        """Return the phase aggregation map of the two-level correction.

        Phases are grouped by ``(n, m - r)`` -- the only coordinates the
        buffer rates depend on, so the coarse birth/death rates are exact
        under restriction.  When that grouping would be large (paper-size
        session caps), it falls back to grouping by ``n`` alone, which keeps
        the coarse factorisation trivially cheap at a modest loss of
        correction quality.  The map depends only on the configuration, so it
        is computed once per context and cached (the ``GeneratorTemplate``
        pattern applied to the coarse level).
        """
        cached = self.__dict__.get("_coarse_groups")
        if cached is None:
            _, _, n, m, r = _phase_arrays(self.space)
            gid = n * (self.space.max_sessions + 1) + (m - r)
            groups = int(gid.max()) + 1
            if groups > _COARSE_MAX_GROUPS:
                gid = n
                groups = self.phases // self.pair_count
            cached = (gid, groups)
            self.__dict__["_coarse_groups"] = cached
        return cached

    # Grid <-> flat reordering (flat index = (n (K+1) + k) P + p).
    def to_flat(self, grid: np.ndarray) -> np.ndarray:
        cube = grid.reshape(self.levels, -1, self.pair_count)
        return np.transpose(cube, (1, 0, 2)).reshape(-1)

    def from_flat(self, flat: np.ndarray) -> np.ndarray:
        cube = flat.reshape(-1, self.levels, self.pair_count)
        return np.transpose(cube, (1, 0, 2)).reshape(self.levels, self.phases)


def _thomas_factorise(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
    """Precompute the Thomas elimination coefficients of the fibre systems.

    Returns ``(c_prime, inv_pivot, sub_scaled)`` such that the solve for any
    right-hand side is two O(K) substitution passes.  Guards against exactly
    singular pivots (isolated degenerate fibres).
    """
    levels = diag.shape[0]
    tiny = 1e-300

    def _safe(x):
        return np.where(np.abs(x) < tiny, np.where(x < 0, -tiny, tiny), x)

    c_prime = np.zeros_like(diag)
    inv_pivot = np.zeros_like(diag)
    pivot = _safe(diag[0])
    inv_pivot[0] = 1.0 / pivot
    c_prime[0] = sup[0] * inv_pivot[0]
    for k in range(1, levels):
        pivot = _safe(diag[k] - sub[k] * c_prime[k - 1])
        inv_pivot[k] = 1.0 / pivot
        if k < levels - 1:
            c_prime[k] = sup[k] * inv_pivot[k]
    return c_prime, inv_pivot, sub * inv_pivot


def _thomas_solve(factors, rhs: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Solve the factorised tridiagonal systems for one right-hand side batch.

    ``work`` is an optional scratch array of one row (``(B,)``); the forward
    pass writes into ``rhs`` in place and the result reuses its storage-shape,
    so a caller that owns ``rhs`` pays no allocations beyond the output.
    """
    c_prime, inv_pivot, sub_scaled = factors
    levels = rhs.shape[0]
    if work is None:
        work = np.empty(rhs.shape[1])
    d = rhs  # forward elimination in place
    np.multiply(d[0], inv_pivot[0], out=d[0])
    for k in range(1, levels):
        np.multiply(sub_scaled[k], d[k - 1], out=work)
        np.multiply(d[k], inv_pivot[k], out=d[k])
        np.subtract(d[k], work, out=d[k])
    x = d  # back substitution in place
    for k in range(levels - 2, -1, -1):
        np.multiply(c_prime[k], x[k + 1], out=work)
        np.subtract(x[k], work, out=x[k])
    return x


class _CoarseCorrector:
    """Two-level correction for one solve.

    Holds the per-engagement scaffolding of the correction: the sparse LU
    factorisation of the level-aggregated coarse operator, grounded at one
    unknown (the coarse generator is singular, and the acceptance gate makes
    the grounding choice harmless).  Built only from the solve's own inputs,
    so reuse never couples solves: the parallel == serial and warm == cold
    contracts are untouched.
    """

    def __init__(
        self,
        context: StructuredSolveContext,
        weights: np.ndarray,
        phase_off: sp.csr_matrix,
        phase_exit: np.ndarray,
    ) -> None:
        import scipy.sparse.linalg as spla

        levels, phases = context.levels, context.phases
        self._levels = levels
        gid, groups = context.coarse_groups()
        self._gid = gid
        self._groups = groups
        group_mass = np.zeros(groups)
        np.add.at(group_mass, gid, weights)
        # Prolongation weights: the phase marginal conditioned within each
        # group (the restriction itself is the plain group sum).
        self._weights = weights / np.where(group_mass[gid] > 0, group_mass[gid], 1.0)
        unknowns = levels * groups
        pin = int(np.argmax(group_mass))
        self._keep = np.flatnonzero(np.arange(unknowns) != pin)
        restrict = sp.csr_matrix(
            (np.ones(phases), (np.arange(phases), gid)), shape=(phases, groups)
        )
        prolong = sp.csr_matrix(
            (self._weights, (gid, np.arange(phases))), shape=(groups, phases)
        )
        coupling = (prolong @ phase_off @ restrict).tocoo()
        exit_c = prolong @ phase_exit
        birth = (prolong @ context.arrival.T).T  # (levels, groups); exact
        death = (prolong @ context.service.T).T
        # Assemble the Galerkin coarse operator over (k, group): birth/death
        # move k within a group, the restricted phase coupling acts within a
        # level -- exactly the structure of the fine chain, a few hundred
        # times smaller.
        ks = np.arange(levels)
        level_up = np.repeat(ks[:-1] * groups, groups) + np.tile(
            np.arange(groups), levels - 1
        )
        level_dn = np.repeat(ks[1:] * groups, groups) + np.tile(
            np.arange(groups), levels - 1
        )
        off_mask = coupling.row != coupling.col
        couple_a = np.tile(coupling.row[off_mask], levels)
        couple_b = np.tile(coupling.col[off_mask], levels)
        couple_v = np.tile(coupling.data[off_mask], levels)
        couple_k = np.repeat(ks * groups, int(off_mask.sum()))
        self_coupling = np.zeros(groups)
        diag_mask = ~off_mask
        np.add.at(self_coupling, coupling.row[diag_mask], coupling.data[diag_mask])
        diag_v = (-(birth + death) - exit_c[None, :] + self_coupling[None, :]).ravel()
        rows = np.concatenate(
            [level_up, level_dn, couple_k + couple_a, np.arange(unknowns)]
        )
        cols = np.concatenate(
            [level_up + groups, level_dn - groups, couple_k + couple_b,
             np.arange(unknowns)]
        )
        values = np.concatenate(
            [birth[:-1, :].ravel(), death[1:, :].ravel(), couple_v, diag_v]
        )
        operator = sp.coo_matrix(
            (values, (rows, cols)), shape=(unknowns, unknowns)
        ).tocsc()
        # Row-vector correction equation e A_c = -r_c.  The coarse generator
        # is singular with solution family e + t nu (nu = its stationary
        # distribution), so one unknown is grounded -- at level 0 of the
        # heaviest group, where nu is largest: grounding where nu is
        # negligible (e.g. the top buffer level) would admit an enormous
        # near-null component that dumps mass into zero-probability states.
        # MMD(A^T + A) keeps the LU fill far below the default ordering on
        # this lattice-like pattern.
        grounded = operator.T[self._keep][:, self._keep].tocsc()
        self._lu = spla.splu(grounded, permc_spec="MMD_AT_PLUS_A")

    def direction(self, residual_grid: np.ndarray) -> np.ndarray:
        """Return the coarse correction direction for one residual grid."""
        restricted = np.zeros((self._levels, self._groups))
        np.add.at(restricted.T, self._gid, residual_grid.T)
        correction = np.zeros(self._levels * self._groups)
        correction[self._keep] = self._lu.solve(-restricted.ravel()[self._keep])
        correction = correction.reshape(self._levels, self._groups)
        return correction[:, self._gid] * self._weights[None, :]


def _combine_seed_stack(stack: np.ndarray, generator: sp.csr_matrix) -> np.ndarray:
    """Return the affine combination of previous solutions minimising ``||x Q||``.

    The coefficients sum to one, so the combination stays (approximately) a
    distribution; it is the cross-point analogue of the in-solve reduced-rank
    extrapolation and is what makes adjacent sweep points start several
    decades inside the cold iteration.  Falls back to the newest solution when
    the least-squares system is degenerate or does not actually improve.
    """
    newest = stack[-1]
    if stack.shape[0] == 1:
        return newest
    residuals = np.asarray([row @ generator for row in stack])
    gram = residuals @ residuals.T
    try:
        solution = np.linalg.solve(gram, np.ones(stack.shape[0]))
    except np.linalg.LinAlgError:
        return newest
    if not np.isfinite(solution).all() or solution.sum() == 0:
        return newest
    coefficients = solution / solution.sum()
    candidate = coefficients @ stack
    candidate_norm = float(np.max(np.abs(candidate @ generator)))
    newest_norm = float(np.max(np.abs(residuals[-1])))
    return candidate if candidate_norm < newest_norm else newest


#: Number of sweeps combined by one reduced-rank extrapolation step.
_RRE_WINDOW = 6
#: State count above which the extrapolation window is shortened to bound
#: the memory of the stored iterates.
_RRE_LARGE_STATE_LIMIT = 1_000_000
#: Sweep budget; a solve that exhausts it without converging raises
#: :class:`~repro.markov.solvers.SolverError` unless its best iterate
#: certifies anyway.
_MAX_SWEEPS = 5000
#: Buffer levels below which the coarse correction never engages: shallow
#: buffers converge in a handful of windows and their iteration stays
#: bitwise identical to the plain path.
_COARSE_MIN_LEVELS = 48
#: Coarse-space size cap: beyond it the (n, m - r) grouping falls back to
#: grouping by n alone so the coarse factorisation stays trivially cheap.
_COARSE_MAX_GROUPS = 320
#: Extrapolation window used while the correction pass is enabled on a deep
#: buffer (slow diffusion modes reward a longer difference history).
_COARSE_RRE_WINDOW = 10
#: Completed windows before the coarse operator is factorised: a solve that
#: converges quickly (every warm-started sweep point) never pays the setup.
_COARSE_TRIGGER_WINDOWS = 2
#: Residual (in units of ``tol``) below which a pending coarse engagement is
#: skipped -- the iterate is about to converge anyway.
_COARSE_TRIGGER_RESIDUAL = 100.0
#: Scaled seed residual above which the coarse operator is factorised before
#: the first sweep: a cold seed's smooth error is exactly what the coarse
#: space removes (warm seeds start decades lower and skip the setup).
_COARSE_SEED_RESIDUAL = 1e-4


def solve_structured(
    params: GprsModelParameters,
    space: GprsStateSpace,
    generator: sp.csr_matrix,
    *,
    gsm_handover_arrival_rate: float,
    gprs_handover_arrival_rate: float,
    tol: float = 1e-9,
    initial: np.ndarray | None = None,
    context: StructuredSolveContext | None = None,
    coarse_correction: bool = True,
) -> SteadyStateResult:
    """Compute the stationary distribution with the fibre/phase iteration.

    Parameters
    ----------
    params, space:
        Model parameters and the matching state space.
    generator:
        The full generator matrix (used to certify the final residual; the
        per-sweep convergence test runs on the equivalent grid form).
    gsm_handover_arrival_rate, gprs_handover_arrival_rate:
        Balanced handover arrival rates (must match those used to build
        ``generator``).
    tol:
        Convergence threshold on the scaled residual
        ``||pi Q||_inf / max|Q_ii|``.
    initial:
        Optional warm-start guess: a stationary vector in the flat state
        ordering of ``space`` (typically the solution of an adjacent sweep
        point), or a ``(j, n)`` stack of several previous solutions (most
        recent last).  Given a stack, the seed is the affine combination of
        the rows that minimises the residual under *this* point's generator
        -- a polynomial-extrapolation-quality seed that typically starts
        several decades closer than the newest solution alone.  A usable
        guess replaces the cold geometric seed and cuts the sweep count; an
        unusable one (wrong length raises, non-normalisable mass falls back)
        leaves the cold path untouched.
    context:
        Optional :class:`StructuredSolveContext` shared across the points of
        an arrival-rate sweep; built on the fly when absent.
    coarse_correction:
        Enable the two-level coarse-space correction.  On deep buffers (``K + 1 >= 48`` levels) the extrapolation window is
        widened and, once the iteration has proven slow, the level-aggregated
        coarse operator over ``(k, n, m - r)`` is factorised and a gated
        correction is applied at every window boundary; the step is accepted
        only when it lowers the true residual.  This removes most of the
        sweep count's growth with the buffer size ``K`` while quick
        (warm-started) solves never pay the factorisation.  ``False``
        restores the plain iteration bitwise; shallow buffers are bitwise
        identical either way.
    """
    registry = current_registry()
    registry.count("solver.structured.solves")
    registry.count(
        "solver.structured.warm_seeded"
        if initial is not None
        else "solver.structured.cold_seeded"
    )
    with current_tracer().span("solver.structured", states=space.size):
        result = _solve_structured_impl(
            params,
            space,
            generator,
            gsm_handover_arrival_rate=gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=gprs_handover_arrival_rate,
            tol=tol,
            initial=initial,
            context=context,
            coarse_correction=coarse_correction,
        )
    registry.count("solver.structured.sweeps", result.iterations)
    registry.count("solver.structured.coarse_corrections", result.coarse_corrections)
    return result


def _solve_structured_impl(
    params: GprsModelParameters,
    space: GprsStateSpace,
    generator: sp.csr_matrix,
    *,
    gsm_handover_arrival_rate: float,
    gprs_handover_arrival_rate: float,
    tol: float,
    initial: np.ndarray | None,
    context: StructuredSolveContext | None,
    coarse_correction: bool,
) -> SteadyStateResult:
    if context is None or context.space is not space:
        context = StructuredSolveContext.build(params, space)
    levels, phases = context.levels, context.phases

    gsm_arrival = params.gsm_arrival_rate + gsm_handover_arrival_rate
    gprs_arrival = params.gprs_arrival_rate + gprs_handover_arrival_rate
    phase_off, phase_exit = context.phase_coupling(gsm_arrival, gprs_arrival)
    phase_marginal = _phase_marginal(phase_off, context.pair_count)

    sub, sup = context.sub, context.sup
    diag = -(context.fibre_exit + phase_exit[None, :])
    factors = _thomas_factorise(sub, diag, sup)

    # Initial guess: a supplied warm start (adjacent sweep points), otherwise
    # the phase marginal spread geometrically towards small k.
    pi = None
    if initial is not None:
        guess = np.asarray(initial, dtype=float)
        if guess.ndim == 2:
            if guess.shape[1] != space.size or guess.shape[0] == 0:
                raise ValueError(
                    f"initial stack has shape {guess.shape}, expected (j, {space.size})"
                )
            guess = _combine_seed_stack(guess, generator)
        if guess.shape != (space.size,):
            raise ValueError(
                f"initial guess has shape {guess.shape}, expected ({space.size},)"
            )
        guess = np.maximum(context.from_flat(guess), 0.0)
        total = guess.sum()
        if total > 0 and np.isfinite(total):
            pi = guess / total
    warm_seeded = pi is not None
    if pi is None:
        pi = np.tile(phase_marginal[None, :], (levels, 1))
        weights = np.exp(-np.arange(levels, dtype=float))[:, None]
        pi = pi * weights
        pi /= pi.sum()

    scale = float(np.max(np.abs(generator.diagonal()))) or 1.0

    def grid_balance(x: np.ndarray, inflow: np.ndarray) -> np.ndarray:
        """``x Q`` on the grid, given the phase inflow ``x @ phase_off``."""
        balance = diag * x
        balance[1:] += sub[1:] * x[:-1]
        balance[:-1] += sup[:-1] * x[1:]
        balance += inflow
        return balance

    def grid_residual(x: np.ndarray, inflow: np.ndarray) -> float:
        """Scaled ``||x Q||_inf`` evaluated on the grid (a few vector ops)."""
        return float(np.max(np.abs(grid_balance(x, inflow)))) / scale

    def rescale(grid: np.ndarray) -> np.ndarray | None:
        """Clip, match the exact phase marginal and normalise, all in place.

        The caller owns ``grid`` (it comes out of the fibre solve), so the
        sweep pays no further allocations here.  Returns ``None`` when the
        iterate cannot be normalised.
        """
        np.maximum(grid, 0.0, out=grid)
        fibre_mass = grid.sum(axis=0)
        safe_mass = np.where(fibre_mass > 0, fibre_mass, 1.0)
        grid *= (phase_marginal / safe_mass)[None, :]
        empty = fibre_mass <= 0
        if np.any(empty):
            grid[0, empty] = phase_marginal[empty]
        total = grid.sum()
        if total <= 0 or not np.isfinite(total):
            return None
        grid /= total
        return grid

    coarse_enabled = coarse_correction and levels >= _COARSE_MIN_LEVELS
    corrector: _CoarseCorrector | None = None
    corrections = 0

    def correction_step(pi, inflow, residual):
        """One two-level correction, gated on improvement.

        The candidate is the full coarse step (the exact solution of the
        coarse correction equation).  A rejected step hands the iterate back
        untouched, so the correction can never regress.  Returns
        ``(pi, inflow, residual, accepted)``.
        """
        # A named direction is never a temporary numpy may reuse for the sum,
        # so the candidate takes the iterate's memory layout, which fixes the
        # summation order of the rescaling.
        direction = corrector.direction(grid_balance(pi, inflow))
        candidate = rescale(pi + direction)
        if candidate is None:
            return pi, inflow, residual, False
        candidate_inflow = candidate @ phase_off
        candidate_residual = grid_residual(candidate, candidate_inflow)
        if candidate_residual < residual:
            return candidate, candidate_inflow, candidate_residual, True
        return pi, inflow, residual, False

    window = _RRE_WINDOW if space.size <= _RRE_LARGE_STATE_LIMIT else 4
    if coarse_enabled and space.size <= _RRE_LARGE_STATE_LIMIT:
        window = _COARSE_RRE_WINDOW
    inflow = pi @ phase_off
    residual = grid_residual(pi, inflow)
    # A cold seed's smooth error is exactly what the coarse space removes, so
    # the corrector engages immediately; warm-started solves converge in a
    # couple of windows and only engage through the window trigger below if
    # the iteration proves unexpectedly slow.
    if (
        coarse_enabled
        and not warm_seeded
        and tol <= residual
        and residual > _COARSE_SEED_RESIDUAL
    ):
        corrector = _CoarseCorrector(context, phase_marginal, phase_off, phase_exit)
        pi, inflow, residual, accepted = correction_step(pi, inflow, residual)
        if accepted:
            corrections += 1
    best_pi, best_residual = pi, residual
    sweeps = 0
    completed_windows = 0
    # Ring storage for the extrapolation: the window's base iterate plus one
    # difference vector per sweep, written in place (no per-sweep stacking).
    differences = np.empty((window, space.size))
    window_base = pi.ravel().copy()
    previous_flat = window_base
    filled = 0
    # The residual is evaluated at extrapolation boundaries (where it gates
    # acceptance anyway); in between each sweep is a handful of vector
    # operations, so a converged iterate is recognised at most ``window``
    # sweeps late.
    while residual >= tol and sweeps < _MAX_SWEEPS:
        sweeps += 1
        pi = rescale(_thomas_solve(factors, -inflow))
        if pi is None:
            raise SolverError("structured solver diverged")
        inflow = pi @ phase_off

        current_flat = pi.ravel()
        np.subtract(current_flat, previous_flat, out=differences[filled])
        previous_flat = current_flat.copy()
        filled += 1
        if filled == window:
            residual = grid_residual(pi, inflow)
            # Reduced-rank extrapolation: the linear combination of the
            # window's iterates (coefficients summing to one) that minimises
            # the norm of the iterate differences.  Accepted only when it
            # lowers the true residual.
            gram = differences @ differences.T
            try:
                solution = np.linalg.solve(gram, np.ones(window))
            except np.linalg.LinAlgError:
                solution = None
            if solution is not None and np.isfinite(solution).all() and solution.sum() != 0:
                gamma = solution / solution.sum()
                # x* = sum_i gamma_i x_i over the window's first `window`
                # iterates; in difference form x* = x_base + D^T w with
                # w_j = sum_{i >= j} gamma_i (the last difference only
                # enters through the Gram matrix).
                weights = np.cumsum(gamma[::-1])[::-1][1:]
                candidate_flat = window_base + weights @ differences[:-1]
                candidate = rescale(candidate_flat.reshape(levels, phases))
                if candidate is not None:
                    candidate_inflow = candidate @ phase_off
                    candidate_residual = grid_residual(candidate, candidate_inflow)
                    if candidate_residual < residual:
                        pi = candidate
                        inflow = candidate_inflow
                        residual = candidate_residual
            completed_windows += 1
            if (
                coarse_enabled
                and completed_windows >= _COARSE_TRIGGER_WINDOWS
                and residual >= tol
                and (
                    corrector is not None
                    or residual > _COARSE_TRIGGER_RESIDUAL * tol
                )
            ):
                if corrector is None:
                    corrector = _CoarseCorrector(
                        context, phase_marginal, phase_off, phase_exit
                    )
                pi, inflow, residual, accepted = correction_step(pi, inflow, residual)
                if accepted:
                    corrections += 1
            window_base = pi.ravel().copy()
            previous_flat = window_base
            filled = 0
            if residual < best_residual:
                best_pi, best_residual = pi, residual

    if best_residual < residual:
        pi, residual = best_pi, best_residual
        inflow = pi @ phase_off

    flat = np.maximum(context.to_flat(pi), 0.0)
    flat /= flat.sum()
    # Certify against the actual generator matrix (the grid residual is the
    # same balance up to assembly rounding).
    certified = float(np.max(np.abs(flat @ generator))) / scale
    if certified > max(tol * 50, 1e-6):
        raise SolverError(
            f"structured solver did not converge: scaled residual {certified:.2e} "
            f"after {sweeps} sweeps"
        )
    return SteadyStateResult(flat, "structured", sweeps, certified * scale, corrections)
