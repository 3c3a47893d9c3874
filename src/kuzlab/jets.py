"""Time-derivative cascade: reconstructing d_t^k u from (u, u_t).

Differentiating the quasilinear equation i times in t and applying the
Leibniz rule isolates the highest layer:

    (1 - alpha*eps u^(1)) u^(i+2) = c^2 Lap u^(i) + nu*eps Lap u^(i+1)
        + alpha*eps sum_{k=0}^{i-1} C(i,k) u^(i-k+1) u^(k+2)
        + beta*eps  sum_{k=0}^{i}   C(i,k) grad u^(i-k) . grad u^(k+1),

so every layer above the first is computable from the two evolved fields.
The cascade is exact for the linear models and shares its kernels with the
dynamics right-hand side; layer 2 is the state's u_tt, the one public reading
of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dynamics import (
    ModelKind,
    PhysicalParams,
    SimState,
    _accel_kernel,
    _acceleration,
    effective_coefficients,
)
from .fields import (
    ComplexArray,
    Field,
    FloatArray,
    Grid,
    _derivative_multiplier,
    _gradient_from_spectrum,
    _to_physical,
    _to_spectral,
)

MAX_JET_ORDER = 6


@dataclass(frozen=True, eq=False)
class Jet:
    """Tower of time-derivative fields u^(0)..u^(K) at one time instant.

    A jet also holds, by layer, the transforms and gradients already at hand
    when it was built; spectrum() transforms any other layer once, on first
    use. Built by hand from the same layers and transforms, a jet agrees.
    """

    grid: Grid
    layers: tuple[Field, ...]
    _spectra: dict[int, ComplexArray] = field(default_factory=dict, init=False, repr=False)
    _gradients: dict[int, list[FloatArray]] = field(default_factory=dict, init=False, repr=False)

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

    def require(self, order: int, what: str) -> None:
        """Raise ValueError unless the jet reaches order, which what needs."""
        if self.order < order:
            raise ValueError(f"{what} needs jet order {order}, jet has {self.order}")

    def layer(self, k: int) -> Field:
        if not 0 <= k <= self.order:
            raise ValueError(f"jet holds layers 0..{self.order}, requested {k}")
        return self.layers[k]

    def spectrum(self, k: int) -> ComplexArray:
        """Transform of layer k: the held one, else one forward transform kept for reuse."""
        spec = self._spectra.get(k)
        if spec is None:
            spec = self._spectra[k] = _to_spectral(self.grid, self.layer(k).values)
        return spec


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
    Layer 2 is the state's u_tt as dynamics._acceleration gives it, read
    from a carried evaluation where there is one. The jet keeps the layer
    transforms and gradients the cascade forms, starting from those the
    state carries.
    """
    if not 0 <= K <= MAX_JET_ORDER:
        raise ValueError(f"jet order must be 0..{MAX_JET_ORDER}, got {K}")
    grid = state.grid
    layers: list[FloatArray] = [state.u.values, state.v.values][: K + 1]
    ev = state._fsal
    spectra: list[ComplexArray] = []
    gradients: list[list[FloatArray]] = []
    if K >= 2:
        # A kernel run for layer 2 forms the gradients of layers 0 and 1 when
        # the cascade goes on to 3.
        ev = _acceleration(state, p, kind, gradients=K > 2)
        layers.append(ev.acc)
    if ev is not None:
        spectra = [ev.u_hat, ev.v_hat]
        if ev.grad_u is not None:
            gradients = [ev.grad_u, ev.grad_v]
    alpha_eff, beta_eff, _ = effective_coefficients(p, kind)
    v, t = state.v.values, state.t
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
    jet = Jet(grid, tuple(Field(grid, arr) for arr in layers))
    jet._spectra.update(enumerate(spectra[: K + 1]))
    jet._gradients.update(enumerate(gradients[: K + 1]))
    return jet


def apply_multi_derivative(jet: Jet, A: MultiIndex) -> Field:
    """D^A u = d_t^{A_0} d_{x_1}^{A_1} ... d_{x_n}^{A_n} u from jet layers.

    One inverse transform of the layer's spectrum times the mixed multiplier,
    or none for a pure time derivative or a gradient the jet holds.
    """
    grid = jet.grid
    if len(A.spatial_orders) != grid.n:
        raise ValueError(
            f"multi-index has {len(A.spatial_orders)} spatial slots, grid has {grid.n}"
        )
    jet.require(A.time_order, f"multi-index {A.orders}")
    k, spatial = A.time_order, A.spatial_orders
    if A.spatial_total == 0:
        return jet.layers[k]
    if A.spatial_total == 1 and k in jet._gradients:
        return Field(grid, jet._gradients[k][spatial.index(1)])
    spec = jet.spectrum(k) * _derivative_multiplier(grid, spatial)
    return Field(grid, _to_physical(grid, spec, consume=True))
