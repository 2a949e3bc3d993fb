"""1D spectral-volume partitions and their control-volume subdivisions."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .quadrature import gauss_rule, right_radau_nodes

__all__ = [
    "MAX_DEGREE",
    "MIN_ELEMENTS",
    "SubdivisionRule",
    "BoundaryCondition",
    "Mesh1D",
    "reference_nodes",
    "uniform_mesh",
    "perturbed_mesh",
    "splitmix64_stream",
]

MAX_DEGREE = 12
MIN_ELEMENTS = {"uniform": 2, "perturbed": 4}  # by builder: uniform_mesh, perturbed_mesh


class SubdivisionRule(str, enum.Enum):
    """How a spectral volume is split into control volumes."""

    LSV = "lsv"             # Gauss-Legendre interior points
    RRSV = "rrsv"           # right-Radau interior points
    RSV_ADAPTIVE = "rsv"    # per-element Radau orientation from the sign of alpha


class BoundaryCondition(str, enum.Enum):
    PERIODIC = "periodic"
    INFLOW_ZERO = "inflow_zero"


@lru_cache(maxsize=None)
def reference_nodes(rule, k: int, left_oriented: bool = False) -> np.ndarray:
    """Subdivision points y_0 = -1 < y_1 .. y_k < y_{k+1} = 1 of the reference element:
    the k Gauss-Legendre points (LSV) or the interior right-Radau points (RRSV, RSV),
    mirrored on left-oriented RSV elements. Cached, read-only."""
    rule = SubdivisionRule(rule)
    if not 1 <= k <= MAX_DEGREE:
        raise ValueError(f"k must be in 1..{MAX_DEGREE}, got {k}")
    interior = gauss_rule(k)[0] if rule == SubdivisionRule.LSV else right_radau_nodes(k + 1)[:-1]
    y = np.concatenate([[-1.0], interior, [1.0]])
    if rule == SubdivisionRule.RSV_ADAPTIVE and left_oriented:
        y = -y[::-1]
    y.flags.writeable = False
    return y


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Partition of [a, b] into N spectral volumes, each split into k+1 CVs.

    ``cv_bounds[i]`` holds x_{i,0} < ... < x_{i,k+1} with x_{i,0} and
    x_{i,k+1} the element boundaries; ``left_oriented[i]`` marks elements
    whose subdivision uses the mirrored (left-Radau) reference points;
    ``lengths`` are the element lengths it was built with.
    """

    rule: SubdivisionRule
    k: int
    bc: BoundaryCondition
    boundaries: np.ndarray          # (N+1,)
    cv_bounds: np.ndarray           # (N, k+2)
    left_oriented: np.ndarray       # (N,) bool
    lengths: np.ndarray = field(repr=False)                 # (N,) element lengths
    domain: tuple[float, float] = field(init=False)
    centers: np.ndarray = field(init=False, repr=False)     # (N,) element midpoints
    cv_widths: np.ndarray = field(init=False, repr=False)   # (N, k+1)

    def __post_init__(self):
        object.__setattr__(self, "domain", (float(self.boundaries[0]), float(self.boundaries[-1])))
        for name, value in (("lengths", self.lengths),
                            ("centers", 0.5 * (self.boundaries[:-1] + self.boundaries[1:])),
                            ("cv_widths", np.diff(self.cv_bounds, axis=1))):
            value.flags.writeable = False  # computed once, shared by every reader
            object.__setattr__(self, name, value)
        if not (np.isfinite(self.boundaries).all() and np.all(self.lengths > 0)):
            raise ValueError("element boundaries must be finite and strictly increasing")
        if not np.all(self.cv_widths > 0):  # NaN-safe
            raise ValueError("CV boundaries must be strictly increasing")

    @property
    def n_elements(self) -> int:
        return len(self.boundaries) - 1

    @property
    def regularity_ratio(self) -> float:
        h = self.lengths
        return float(h.max() / h.min())

    @property
    def min_cv_width(self) -> float:
        return float(self.cv_widths.min())


def _resolve_orientation(rule, boundaries, alpha):
    """Per-element left/right Radau orientation for the adaptive rule."""
    n = len(boundaries) - 1
    rule = SubdivisionRule(rule)
    if rule != SubdivisionRule.RSV_ADAPTIVE:
        return np.zeros(n, dtype=bool)
    if alpha is None:
        raise ValueError("RSV_ADAPTIVE needs the coefficient alpha to orient elements")
    a_vals = np.broadcast_to(alpha(boundaries), boundaries.shape).astype(float)
    a_left, a_right = a_vals[:-1], a_vals[1:]
    # right-Radau when both endpoints are >= 0 and on a genuine sign change;
    # left-Radau only for fully non-positive elements
    return (a_left <= 0.0) & (a_right <= 0.0) & ~((a_left >= 0.0) & (a_right >= 0.0))


def _build_mesh(boundaries, h, rule, k, bc, alpha):
    """The mesh on ``boundaries`` with element lengths ``h``."""
    rule = SubdivisionRule(rule)
    bc = BoundaryCondition(bc)
    y = reference_nodes(rule, k)
    boundaries = np.asarray(boundaries, dtype=float)
    left = _resolve_orientation(rule, boundaries, alpha)
    if left.any():
        y = np.where(left[:, None], reference_nodes(rule, k, True), y)
    centers = 0.5 * (boundaries[:-1] + boundaries[1:])
    cv = centers[:, None] + 0.5 * h[:, None] * y
    cv[:, 0] = boundaries[:-1]
    cv[:, -1] = boundaries[1:]
    return Mesh1D(rule, k, bc, boundaries, cv, left, h)


def uniform_mesh(a, b, n, rule, k, bc, alpha=None) -> Mesh1D:
    """N spectral volumes on [a, b], subdivided per the rule, each of length (b-a)/N
    exactly (not np.diff of the rounded boundaries), so that with a constant
    coefficient every element's operator row is bit-identical."""
    if not (np.isfinite([a, b]).all() and a < b):
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    if n < MIN_ELEMENTS["uniform"]:
        raise ValueError(f"need at least {MIN_ELEMENTS['uniform']} elements, got {n}")
    return _build_mesh(np.linspace(a, b, n + 1), np.full(n, (b - a) / n), rule, k, bc, alpha)


def splitmix64_stream(seed: int):
    """Deterministic uniform (0,1) stream from the splitmix64 generator."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        yield ((z >> 11) + 0.5) * 2.0**-53


def perturbed_mesh(n, seed, rule, k, bc, alpha=None) -> Mesh1D:
    """Randomly perturbed partition of [0, 2*pi]: x_i = 2*pi*i/N + sin(i*pi/N)/(100N) * u_i."""
    if n < MIN_ELEMENTS["perturbed"]:
        raise ValueError(f"need at least {MIN_ELEMENTS['perturbed']} elements, got {n}")
    stream = splitmix64_stream(seed)
    i = np.arange(1, n)
    u = np.array([next(stream) for _ in i])
    boundaries = np.empty(n + 1)
    boundaries[0] = 0.0
    boundaries[-1] = 2.0 * np.pi
    boundaries[1:-1] = 2.0 * np.pi * i / n + np.sin(i * np.pi / n) / (100.0 * n) * u
    if np.any(np.diff(boundaries) <= 0):
        raise RuntimeError("perturbation broke monotonicity")  # unreachable for n >= 4
    return _build_mesh(boundaries, np.diff(boundaries), rule, k, bc, alpha)

