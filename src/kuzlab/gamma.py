"""Symbolic algebra of the generalized derivatives and their grid action.

The generators are the scaling field L0 = t d_t + sum_i x_i d_{x_i}, the
boosts L_i = x_i d_t + t d_{x_i}, the rotations
Omega_ik = x_i d_{x_k} - x_k d_{x_i}, and the coordinate derivatives d_t,
d_{x_i}.  In the canonical enumeration Gamma_0..Gamma_mu they appear in the
order L0, L_1..L_n, Omega_12..Omega_{n-1 n}, d_t, d_{x_1}..d_{x_n}, with
mu = (n^2 + 3n + 2)/2.

Products Gamma^A are ordered words over this alphabet (length <= 2 here).
``expand_gamma`` rewrites a word as an exact finite sum of terms
coeff * t^a * x^b * D^A by the product rule, applying factors right to left,
so e.g. the word (d_t, L0) expands to d_t + t d_t^2 + sum_i x_i d_{x_i} d_t.
The Klainerman sweep evaluates such an expansion on a jet at a given time:
``_term_factors`` weights each term, and the term loop ``_word_values`` sums
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import Grid
from .jets import MultiIndex

MAX_WORD_LENGTH = 2


@dataclass(frozen=True)
class Generator:
    """One generalized derivative; axes are 0-based internally.

    kind is one of "L0" (scaling), "L" (boost along ``axis``), "Omega"
    (rotation in the ``axis``-``axis2`` plane, axis < axis2), "dt", "dx"
    (coordinate derivative along ``axis``).
    """

    kind: str
    axis: int = 0
    axis2: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("L0", "L", "Omega", "dt", "dx"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "Omega" and not self.axis < self.axis2:
            raise ValueError("rotation needs axis < axis2")

    def __str__(self) -> str:
        if self.kind == "L0":
            return "L_0"
        if self.kind == "L":
            return f"L_{self.axis + 1}"
        if self.kind == "Omega":
            return f"Omega_{self.axis + 1}{self.axis2 + 1}"
        if self.kind == "dt":
            return "d_t"
        return f"d_x{self.axis + 1}"

    def max_axis(self) -> int:
        if self.kind in ("L0", "dt"):
            return -1
        if self.kind == "Omega":
            return self.axis2
        return self.axis


@dataclass(frozen=True)
class GammaIndex:
    """A word over the generator alphabet, length <= 2, in dimension n."""

    word: tuple[Generator, ...]
    n: int

    def __post_init__(self) -> None:
        if len(self.word) > MAX_WORD_LENGTH:
            raise ValueError(f"gamma words are capped at length {MAX_WORD_LENGTH}")
        if not 1 <= self.n <= 3:
            raise ValueError("dimension must be 1..3")
        for g in self.word:
            if g.max_axis() >= self.n:
                raise ValueError(f"generator {g} exceeds dimension {self.n}")

    def __str__(self) -> str:
        return " ".join(str(g) for g in self.word) if self.word else "Id"


@dataclass(frozen=True)
class GammaTerm:
    """One summand coeff * t^t_power * prod_j x_j^x_powers[j] * D^derivative."""

    coeff: float
    t_power: int
    x_powers: tuple[int, ...]
    derivative: MultiIndex


def generalized_derivatives(n: int) -> list[Generator]:
    """Gamma_0..Gamma_mu in the canonical order; mu = (n^2 + 3n + 2)/2."""
    gens = [Generator("L0")]
    gens += [Generator("L", axis=i) for i in range(n)]
    gens += [
        Generator("Omega", axis=i, axis2=k) for i in range(n) for k in range(i + 1, n)
    ]
    gens.append(Generator("dt"))
    gens += [Generator("dx", axis=i) for i in range(n)]
    return gens


def gamma_words(n: int, max_len: int = MAX_WORD_LENGTH) -> list[GammaIndex]:
    """All ordered words with length <= max_len: (), (G_i,), (G_i, G_j) i <= j."""
    if max_len > MAX_WORD_LENGTH:
        raise ValueError(f"gamma words are capped at length {MAX_WORD_LENGTH}")
    gens = generalized_derivatives(n)
    words: list[GammaIndex] = [GammaIndex((), n)]
    if max_len >= 1:
        words += [GammaIndex((g,), n) for g in gens]
    if max_len >= 2:
        words += [
            GammaIndex((gens[i], gens[j]), n)
            for i in range(len(gens))
            for j in range(i, len(gens))
        ]
    return words


def _first_order_pieces(g: Generator, n: int) -> list[tuple[float, int, tuple[int, ...], int]]:
    """Monomial-weighted single derivatives; slot -1 means d_t, else d_{x_slot}."""
    zero = (0,) * n

    def unit(axis: int) -> tuple[int, ...]:
        e = [0] * n
        e[axis] = 1
        return tuple(e)

    if g.kind == "dt":
        return [(1.0, 0, zero, -1)]
    if g.kind == "dx":
        return [(1.0, 0, zero, g.axis)]
    if g.kind == "L0":
        return [(1.0, 1, zero, -1)] + [(1.0, 0, unit(i), i) for i in range(n)]
    if g.kind == "L":
        return [(1.0, 0, unit(g.axis), -1), (1.0, 1, zero, g.axis)]
    # Omega_ik = x_i d_{x_k} - x_k d_{x_i}
    return [(1.0, 0, unit(g.axis), g.axis2), (-1.0, 0, unit(g.axis2), g.axis)]


def _derivative_slot(A: MultiIndex, slot: int) -> MultiIndex:
    orders = list(A.orders)
    orders[slot + 1] += 1
    return MultiIndex(tuple(orders))


def _apply_first_order(
    g: Generator, terms: tuple[GammaTerm, ...], n: int
) -> dict[tuple[int, tuple[int, ...], tuple[int, ...]], float]:
    out: dict[tuple[int, tuple[int, ...], tuple[int, ...]], float] = {}

    def add(coeff: float, t_pow: int, x_pows: tuple[int, ...], A: MultiIndex) -> None:
        key = (t_pow, x_pows, A.orders)
        out[key] = out.get(key, 0.0) + coeff

    for c_p, a_p, b_p, slot in _first_order_pieces(g, n):
        for term in terms:
            # Product rule on the monomial of the inner term.
            if slot == -1:
                if term.t_power > 0:
                    add(
                        c_p * term.coeff * term.t_power,
                        a_p + term.t_power - 1,
                        tuple(x + y for x, y in zip(b_p, term.x_powers)),
                        term.derivative,
                    )
            else:
                if term.x_powers[slot] > 0:
                    new_x = list(term.x_powers)
                    new_x[slot] -= 1
                    add(
                        c_p * term.coeff * term.x_powers[slot],
                        a_p + term.t_power,
                        tuple(x + y for x, y in zip(b_p, new_x)),
                        term.derivative,
                    )
            # Transport of the derivative past the monomial.
            add(
                c_p * term.coeff,
                a_p + term.t_power,
                tuple(x + y for x, y in zip(b_p, term.x_powers)),
                _derivative_slot(term.derivative, slot),
            )
    return out


@lru_cache(maxsize=None)
def expand_gamma(index: GammaIndex) -> tuple[GammaTerm, ...]:
    """Exact expansion of the word into monomial-weighted mixed derivatives.

    Factors act right to left (the last generator in the word touches the
    function first); the result is canonically sorted with exact integer
    coefficients and zero terms dropped.
    """
    n = index.n
    terms: tuple[GammaTerm, ...] = (
        GammaTerm(1.0, 0, (0,) * n, MultiIndex((0,) * (n + 1))),
    )
    for g in reversed(index.word):
        combined = _apply_first_order(g, terms, n)
        terms = tuple(
            GammaTerm(coeff, t_pow, x_pows, MultiIndex(orders))
            for (t_pow, x_pows, orders), coeff in sorted(combined.items())
            if coeff != 0.0
        )
    return terms


def _term_factors(grid: Grid, t: float, terms: tuple[GammaTerm, ...]) -> list[tuple[tuple[int, ...], list]]:
    """Per term, the orders of its D^A and the factors that weight it: thin
    per-axis coordinate powers with the term's weight folded into the first.
    ValueError off an origin-centered grid, where the powers of x_i mean nothing."""
    if not grid.origin_centered:
        raise ValueError("gamma application needs an origin-centered grid")
    coords = [grid._axis_view(grid.axis_coordinates(axis), axis) for axis in range(grid.n)]
    plan = []
    for term in terms:
        weight = term.coeff * t**term.t_power
        factors = [coords[axis] ** power for axis, power in enumerate(term.x_powers) if power > 0]
        if factors:
            factors[0] = weight * factors[0]
        elif weight != 1.0:
            factors = [weight]
        plan.append((term.derivative.orders, factors))
    return plan


def _word_values(plan, memo: dict, buf: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Sum the weighted terms of a word into total and return it: the first
    term is formed in total itself, every later one in buf. memo maps the
    orders of each D^A in the plan to its grid values."""
    for i, (key, factors) in enumerate(plan):
        piece = memo[key]
        out = buf if i else total
        for factor in factors:
            piece = np.multiply(piece, factor, out=out)
        if i:
            total += piece
        elif piece is not total:
            np.copyto(total, piece)
    return total
