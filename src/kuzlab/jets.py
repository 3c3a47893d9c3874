"""Time-derivative cascade: reconstructing d_t^k u from (u, u_t).

Differentiating the quasilinear equation i times in t and applying the
Leibniz rule isolates the highest layer:

    (1 - alpha*eps u^(1)) u^(i+2) = c^2 Lap u^(i) + nu*eps Lap u^(i+1)
        + alpha*eps sum_{k=0}^{i-1} C(i,k) u^(i-k+1) u^(k+2)
        + beta*eps  sum_{k=0}^{i}   C(i,k) grad u^(i-k) . grad u^(k+1),

so every layer above the first is computable from the two evolved fields.
The cascade is exact for the linear models and shares its kernels with the
dynamics right-hand side; layer 2 is the acceleration kernel's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import (
    ModelKind,
    PhysicalParams,
    SimState,
    _accel_kernel,
    _spectra,
    acceleration,
    effective_coefficients,
)
from .fields import Field, FloatArray, Grid, _gradient_from_spectrum, _to_spectral, derivative_values

MAX_JET_ORDER = 6


@dataclass(frozen=True, eq=False)
class Jet:
    """Tower of time-derivative fields u^(0)..u^(K) at one time instant."""

    grid: Grid
    layers: tuple[Field, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a jet needs at least the order-0 layer")
        if len(self.layers) - 1 > MAX_JET_ORDER:
            raise ValueError(f"jet order {len(self.layers) - 1} exceeds max {MAX_JET_ORDER}")
        for layer in self.layers:
            if layer.grid != self.grid:
                raise ValueError("all jet layers must share the jet grid")

    @property
    def order(self) -> int:
        return len(self.layers) - 1

    def layer(self, k: int) -> Field:
        if not 0 <= k <= self.order:
            raise ValueError(f"jet holds layers 0..{self.order}, requested {k}")
        return self.layers[k]

    def shift_time(self, k: int = 1) -> Jet:
        """Jet of w = d_t^k u: drops the lowest k layers."""
        if k > self.order:
            raise ValueError(f"cannot shift jet of order {self.order} by {k}")
        return Jet(self.grid, self.layers[k:])

    def shift_space(self, axis: int) -> Jet:
        """Jet of w = d_{x_axis} u: differentiates every layer."""
        shifted = tuple(
            Field(self.grid, derivative_values(self.grid, layer.values, axis, 1))
            for layer in self.layers
        )
        return Jet(self.grid, shifted)


@dataclass(frozen=True)
class MultiIndex:
    """Mixed derivative orders A = (A_0, A_1, ..., A_n); A_0 counts d_t."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(int(a) for a in self.orders))
        if len(self.orders) < 2:
            raise ValueError("a multi-index needs a time slot and >= 1 spatial slot")
        if any(a < 0 for a in self.orders):
            raise ValueError("multi-index orders must be nonnegative")

    @property
    def time_order(self) -> int:
        return self.orders[0]

    @property
    def spatial_orders(self) -> tuple[int, ...]:
        return self.orders[1:]

    @property
    def total(self) -> int:
        return sum(self.orders)

    @property
    def spatial_total(self) -> int:
        return sum(self.orders[1:])


def build_jet(
    state: SimState,
    p: PhysicalParams,
    K: int,
    kind: ModelKind = ModelKind.KUZNETSOV,
) -> Jet:
    """Reconstruct layers u^(0)..u^(K) from the state by the cascade.

    Every layer above the first is one call of the dynamics acceleration
    kernel: assembled in spectral space, its quadratic Leibniz sums
    dealiased, brought back by one inverse transform and divided by
    1 - alpha*eps u^(1), which raises HyperbolicityBreakdown at the floor.
    """
    if not 0 <= K <= MAX_JET_ORDER:
        raise ValueError(f"jet order must be 0..{MAX_JET_ORDER}, got {K}")
    grid = state.grid
    layers: list[FloatArray] = [state.u.values, state.v.values][: K + 1]
    if K < 2:
        return Jet(grid, tuple(Field(grid, arr) for arr in layers))
    alpha_eff, beta_eff, _ = effective_coefficients(p, kind)
    v, t = state.v.values, state.t
    spectra = list(_spectra(state))
    layers.append(acceleration(state, p, kind).values)
    gradients: list[list[FloatArray]] = []
    for i in range(1, K - 1):
        # Layer i + 2: the kernel on the spectra of layers i and i + 1, with
        # the Leibniz sums over layers 0..i+1 as its quadratic term.
        spectra.append(_to_spectral(grid, layers[i + 1]))
        quad = None
        if beta_eff != 0.0:
            gradients += [_gradient_from_spectrum(grid, s) for s in spectra[len(gradients) :]]
            quad = beta_eff * p.eps * sum(
                math.comb(i, k) * sum(x * y for x, y in zip(gradients[i - k], gradients[k + 1]))
                for k in range(i + 1)
            )
        if alpha_eff != 0.0:
            cubic = alpha_eff * p.eps * sum(
                math.comb(i, k) * layers[i - k + 1] * layers[k + 2] for k in range(i)
            )
            quad = cubic if quad is None else quad + cubic
        layers.append(_accel_kernel(grid, spectra[i], spectra[i + 1], v, p, kind, t, quad=quad).acc)
    return Jet(grid, tuple(Field(grid, arr) for arr in layers))


def apply_multi_derivative(jet: Jet, A: MultiIndex) -> Field:
    """D^A u = d_t^{A_0} d_{x_1}^{A_1} ... d_{x_n}^{A_n} u from jet layers."""
    grid = jet.grid
    if len(A.spatial_orders) != grid.n:
        raise ValueError(
            f"multi-index has {len(A.spatial_orders)} spatial slots, grid has {grid.n}"
        )
    if A.time_order > jet.order:
        raise ValueError(
            f"multi-index needs jet order >= {A.time_order}, jet has {jet.order}"
        )
    values = jet.layers[A.time_order].values
    for axis, order in enumerate(A.spatial_orders):
        if order > 0:
            values = derivative_values(grid, values, axis, order)
    return Field(grid, values)
