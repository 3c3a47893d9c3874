"""Periodic grids, real scalar fields, and discrete Fourier spectral calculus.

The spatial domain is a periodic box (R/L_1 Z) x ... x (R/L_n Z), n <= 3,
sampled on a uniform tensor grid with power-of-two point counts.  All
differential operators are exact spectral multipliers behind one real
transform pair, ``_to_spectral``/``_to_physical``: rfftn/irfftn's axis passes
in their own order, bit for bit, made by calling numpy's pocketfft ufuncs
(the kernels behind ``numpy.fft``) without its Python wrappers, the complex
passes written in place into one array rather than a fresh array per axis.
``transform_counts`` counts the pair's calls, one per transform.

Every norm of derivatives is one box-measure quadrature of
m_k (1 + |k|^2)^s |f_k|^2 over the spectrum, ``_quadrature``, with m = 1 for
H^s, ``Grid.gradient_weight`` for sum_i ||d_i f||^2 and |k|^4 for
||Lap f||^2; discrete and continuum norms agree on trigonometric polynomials.
The two norms every energy is built from are written once, beside it:
``_l2_sq``, ||f||^2 as the cell-volume sum of f^2, and ``_grad_sq``,
||grad f||^2 from one forward transform. ``Grid.center`` is the one box
centre (the origin on a centred grid, else L_i/2), from which the Gaussian
presets are placed and the support monitor measures.

Functions
---------
laplacian_values, gradient_values
    Spectral Laplacian and gradient of grid values (the gradient zeroes
    each axis Nyquist mode).
dealias_values
    2/3-rule truncation for quadratic nonlinearities.
linf_norm
    Grid maximum of |f|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.typing as npt

# The kernels numpy.fft's rfft/fft/ifft/irfft dispatch to; grids are powers of
# two, so only the even-length real forward kernel is needed. A numpy without
# them fails here, at import.
from numpy.fft._pocketfft_umath import fft as _fft
from numpy.fft._pocketfft_umath import ifft as _ifft
from numpy.fft._pocketfft_umath import irfft as _irfft
from numpy.fft._pocketfft_umath import rfft_n_even as _rfft

from .errors import NonFiniteFieldError

FloatArray = npt.NDArray[np.float64]
ComplexArray = npt.NDArray[np.complex128]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic box in n <= 3 dimensions.

    Parameters
    ----------
    lengths : tuple of float
        Per-axis box lengths L_i > 0.
    points : tuple of int
        Per-axis sample counts N_i; powers of two, N_i >= 8.
    origin_centered : bool
        If True, coordinates run over [-L_i/2, L_i/2); otherwise [0, L_i).
        Centered coordinates are required by the coordinate-weighted vector
        fields.
    """

    lengths: tuple[float, ...]
    points: tuple[int, ...]
    origin_centered: bool = False

    def __post_init__(self) -> None:
        if not 1 <= len(self.lengths) <= 3:
            raise ValueError(f"dimension must be 1..3, got {len(self.lengths)}")
        if len(self.points) != len(self.lengths):
            raise ValueError("lengths and points must have equal arity")
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        object.__setattr__(self, "points", tuple(int(N) for N in self.points))
        for L in self.lengths:
            if not (math.isfinite(L) and L > 0):
                raise ValueError(f"box length must be positive and finite, got {L}")
        for N in self.points:
            if N < 8 or not _is_power_of_two(N):
                raise ValueError(f"point count must be a power of two >= 8, got {N}")

    @classmethod
    def cube(
        cls, n: int, points: int, length: float = 2.0 * math.pi, origin_centered: bool = False
    ) -> Grid:
        """Isotropic box with identical length and resolution per axis."""
        return cls((length,) * n, (points,) * n, origin_centered)

    @cached_property
    def n(self) -> int:
        """Spatial dimension."""
        return len(self.lengths)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @cached_property
    def axes(self) -> tuple[int, ...]:
        """The trailing axes a field occupies when members are stacked ahead of it."""
        return tuple(range(-self.n, 0))

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of the real-to-complex transform coefficient array."""
        return self.points[:-1] + (self.points[-1] // 2 + 1,)

    @cached_property
    def total_points(self) -> int:
        return int(np.prod(self.points))

    @cached_property
    def box_volume(self) -> float:
        return float(np.prod(self.lengths))

    @cached_property
    def cell_volume(self) -> float:
        return self.box_volume / self.total_points

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / N for L, N in zip(self.lengths, self.points))

    def axis_coordinates(self, axis: int) -> FloatArray:
        """Sample coordinates along one axis (1-D array of length N_axis)."""
        L, N = self.lengths[axis], self.points[axis]
        x = np.arange(N, dtype=np.float64) * (L / N)
        if self.origin_centered:
            x -= L / 2.0
        return x

    def coordinate_mesh(self, axis: int) -> FloatArray:
        """Coordinate x_axis broadcast over the full grid shape."""
        x = self.axis_coordinates(axis)
        shape = [1] * self.n
        shape[axis] = self.points[axis]
        return np.broadcast_to(x.reshape(shape), self.shape)

    def mode_indices(self, axis: int) -> npt.NDArray[np.int64]:
        """Integer mode indices j along one axis in the transform layout.

        Full axes use the signed fftfreq ordering; the last axis uses the
        half-spectrum ordering 0..N/2 of the real transform.
        """
        N = self.points[axis]
        if axis == self.n - 1:
            return np.arange(N // 2 + 1, dtype=np.int64)
        return (np.fft.fftfreq(N) * N).astype(np.int64)

    def wavenumbers(self, axis: int) -> FloatArray:
        """Physical wavenumbers 2*pi*j/L_axis in the transform layout."""
        return 2.0 * math.pi / self.lengths[axis] * self.mode_indices(axis).astype(np.float64)

    def _axis_view(self, arr_1d: FloatArray, axis: int) -> FloatArray:
        """A per-axis array shaped to broadcast along that axis of a field or spectrum."""
        shape = [1] * self.n
        shape[axis] = arr_1d.shape[0]
        return arr_1d.reshape(shape)

    @cached_property
    def k_squared(self) -> FloatArray:
        """|k|^2 on the transform layout (broadcast to spectral_shape)."""
        total = np.zeros(self.spectral_shape, dtype=np.float64)
        for axis in range(self.n):
            k = self.wavenumbers(axis)
            total = total + self._axis_view(k, axis) ** 2
        return total

    @cached_property
    def k_squared_table(self) -> tuple[FloatArray, npt.NDArray[np.int32]]:
        """|k|^2's distinct values, and the int32 index of each mode's value on
        the transform layout: values[index] is k_squared bit for bit."""
        values, index = np.unique(self.k_squared, return_inverse=True)
        return values, index.reshape(self.spectral_shape).astype(np.int32)

    @cached_property
    def hermitian_weight(self) -> FloatArray:
        """Multiplicity of each half-spectrum coefficient in the full spectrum.

        The last-axis modes j = 0 and j = N/2 are self-conjugate (weight 1);
        all other last-axis modes stand for a conjugate pair (weight 2).
        """
        N = self.points[-1]
        w = np.full(N // 2 + 1, 2.0)
        w[0] = 1.0
        w[N // 2] = 1.0
        return self._axis_view(w, self.n - 1)

    @cached_property
    def center(self) -> tuple[float, ...]:
        """The box centre: the origin on a centred grid, else (L_i/2)."""
        if self.origin_centered:
            return (0.0,) * self.n
        return tuple(L / 2.0 for L in self.lengths)

    def _band(self, fraction: float) -> npt.NDArray[np.bool_]:
        """True where every |mode index| <= fraction * N_i."""
        keep = np.ones(self.spectral_shape, dtype=bool)
        for axis in range(self.n):
            j = np.abs(self.mode_indices(axis)).astype(np.float64)
            keep &= self._axis_view(j, axis) <= fraction * self.points[axis]
        return keep

    @cached_property
    def dealias_mask(self) -> npt.NDArray[np.bool_]:
        """True where all |mode index| <= N_i/3 (the 2/3 rule keeps these)."""
        return self._band(1.0 / 3.0)

    @cached_property
    def resolved_tail_mask(self) -> npt.NDArray[np.bool_]:
        """Top third of the dealias-resolved band: kept modes past 2N_i/9.

        The evolved state lives inside the dealias band, so under-resolution
        shows up as energy accumulating against that band's outer edge; this
        mask selects the outer third of the band for the tail monitor.
        """
        return self.dealias_mask & ~self._band(2.0 / 9.0)

    @cached_property
    def derivative_multipliers(self) -> tuple[ComplexArray, ...]:
        """Per-axis first-derivative multipliers 1j*k_axis, zero on the axis Nyquist mode."""
        mults = []
        for axis in range(self.n):
            off_nyquist = np.abs(self.mode_indices(axis)) != self.points[axis] // 2
            mults.append(self._axis_view(1j * self.wavenumbers(axis) * off_nyquist, axis))
        return tuple(mults)

    @cached_property
    def gradient_weight(self) -> FloatArray:
        """sum_i |derivative_multipliers[i]|^2, the spectral weight of |grad f|^2."""
        return sum(np.abs(mult) ** 2 for mult in self.derivative_multipliers)


@dataclass(frozen=True, eq=False)
class Field:
    """Real scalar sampled on a Grid; immutable after construction.

    Identity-based equality: fields wrap large arrays and are compared (and
    hashed, e.g. for evaluation caches) by instance.
    """

    grid: Grid
    values: FloatArray

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.shape != self.grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(values)):
            raise NonFiniteFieldError("field contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, grid: Grid) -> Field:
        return cls(grid, np.zeros(grid.shape))


# Array-level kernels.  Every module that differentiates shares these, so
# that cross-module consistency is exact, not merely approximate.
# The transform pair acts on the trailing grid axes, so it also takes fields
# stacked along leading member axes, each row transformed on its own.

# Transforms the pair has taken since import: one per call, whatever the
# number of axis passes.
transform_counts = {"forward": 0, "inverse": 0}


def _to_spectral(grid: Grid, values: FloatArray) -> ComplexArray:
    """Real transform of grid values to the half-spectrum: rfftn's own passes.

    One real pass over the last axis, then the complex passes over the others
    in rfftn's order, each written into the spectrum in place, so one array
    is allocated where rfftn allocates one per axis. The passes call numpy's
    pocketfft ufuncs with the scale numpy passes them (1 forward), so the
    result is bitwise rfftn's; in 1-d, which has no complex passes, it is one
    kernel call, as is the inverse.
    """
    transform_counts["forward"] += 1
    spec = np.empty(values.shape[:-1] + (values.shape[-1] // 2 + 1,), np.complex128)
    _rfft(values, 1.0, out=spec)
    for axis in grid.axes[-2::-1]:
        _fft(spec, 1.0, axes=[(axis,), (), (axis,)], out=spec)
    return spec


def _to_physical(grid: Grid, spec: ComplexArray, *, consume: bool = False) -> FloatArray:
    """Inverse real transform of a half-spectrum back to grid values: irfftn's own passes.

    The complex passes over all axes but the last go into one work array, in
    place from the second pass on, then one real pass over the last axis,
    each pass scaled by 1/N of its axis as numpy scales it. Bitwise irfftn's
    result. consume lets the first pass overwrite spec itself; pass it only
    for a fresh temporary that nothing else references.
    """
    transform_counts["inverse"] += 1
    work = spec
    for axis in grid.axes[:-1]:
        out = work if consume or work is not spec else np.empty_like(spec)
        work = _ifft(work, 1.0 / grid.points[axis], axes=[(axis,), (), (axis,)], out=out)
    points = grid.points[-1]
    return _irfft(work, 1.0 / points, out=np.empty(work.shape[:-1] + (points,)))


def _gradient_from_spectrum(grid: Grid, spec: ComplexArray) -> list[FloatArray]:
    return [_to_physical(grid, spec * mult, consume=True) for mult in grid.derivative_multipliers]


def _axis_multiplier(grid: Grid, axis: int, order: int) -> ComplexArray:
    """Spectral multiplier of d^order/dx_axis^order, thin along the other axes."""
    if order % 2 == 1:
        # The Nyquist mode carries no sign information for odd derivatives.
        return grid.derivative_multipliers[axis] ** order
    return grid._axis_view((1j * grid.wavenumbers(axis)) ** order, axis)


def _derivative_multiplier(grid: Grid, orders: tuple[int, ...]) -> ComplexArray | float:
    """Multiplier of the mixed derivative prod_i d_i^orders[i]: the product of the
    per-axis multipliers (odd orders zero the axis Nyquist mode, even orders keep
    it), so one inverse transform gives what a per-axis chain of derivatives gives."""
    mult: ComplexArray | float = 1.0
    for axis, order in enumerate(orders):
        if order > 0:
            mult = mult * _axis_multiplier(grid, axis, order)
    return mult


def laplacian_values(grid: Grid, values: FloatArray) -> FloatArray:
    spec = _to_spectral(grid, values)
    spec *= -grid.k_squared
    return _to_physical(grid, spec, consume=True)


def gradient_values(grid: Grid, values: FloatArray) -> list[FloatArray]:
    return _gradient_from_spectrum(grid, _to_spectral(grid, values))


def dealias_values(grid: Grid, values: FloatArray) -> FloatArray:
    spec = _to_spectral(grid, values)
    spec *= grid.dealias_mask
    return _to_physical(grid, spec, consume=True)


def _quadrature(
    grid: Grid, spec: ComplexArray, s: float = 0.0, weight: FloatArray | None = None
) -> float:
    """|box| sum_k w_k m_k (1 + |k|^2)^s |spec_k / N|^2 over the half-spectrum.

    w is the Hermitian multiplicity and m the spectral weight (1 when None).
    For the transform spec of f this is ||f||_{H^s}^2; m = grid.gradient_weight
    gives sum_i ||d_i f||_{H^s}^2 and m = |k|^4 gives ||Lap f||_{H^s}^2.
    """
    density = grid.hermitian_weight * np.abs(spec / grid.total_points) ** 2
    if weight is not None:
        density = density * weight
    if s != 0.0:
        density = density * (1.0 + grid.k_squared) ** s
    return grid.box_volume * float(np.sum(density))


def _l2_sq(grid: Grid, values: FloatArray) -> float:
    """||f||^2 by the cell-volume quadrature: cell volume * sum of f^2."""
    return grid.cell_volume * float(np.sum(values**2))


def _grad_sq(grid: Grid, values: FloatArray) -> float:
    """||grad f||^2 = sum_i ||d_i f||^2 from one forward transform."""
    return _quadrature(grid, _to_spectral(grid, values), weight=grid.gradient_weight)


def linf_norm(f: Field) -> float:
    """Grid maximum of |f|."""
    return float(np.max(np.abs(f.values)))
