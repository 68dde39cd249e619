"""Effective degrees of freedom of the array-to-strip channel and spacing design."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .model import FocusScenario, Wave, _ascending_grid, _finite_positive, _int_at_least
from .field import ChannelMatrix, SingularDistanceError, channel_matrix


class DegenerateChannelError(ValueError):
    """The channel carries no energy, so the degrees of freedom are undefined."""


@dataclass(frozen=True)
class DofResult:
    """Effective DoF of a channel matrix H, with its Gram spectrum on request.

    ``entries`` is the M-by-N matrix H passed to :func:`effective_dof`, held
    by reference. ``eigenvalues`` is computed from it on first access and
    cached: the M eigenvalues of H H^H in descending order, clipped at zero.
    """

    effective_dof: float
    entries: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        h = self.entries
        # a Hermitian solver; tiny negative values are numerical noise from
        # the rank-deficient tail
        return np.clip(np.linalg.eigvalsh(h @ h.conj().T)[::-1], 0.0, None)


def _sum_abs2(a: np.ndarray) -> float:
    """Sum of |a|^2 over a stack of complex matrices as row sums, then NumPy's pairwise
    sum. No BLAS dot: it splits its sum across threads, so its last bits follow their count."""
    parts = np.ascontiguousarray(a).view(np.float64)
    return float(np.sum(np.einsum("...j,...j->...", parts, parts)))


def _fold(top: np.ndarray, middle_row: bool) -> np.ndarray:
    """Even and odd blocks of a centrosymmetric matrix H from its top ceil(M/2) rows,
    stacked (2, ceil(M/2), ceil(N/2)); ``middle_row`` says M is odd.

    With A the top-left and B the top-right quarter of H and J the column
    reversal, H is orthogonally similar to diag(A + B J, A - B J) (Cantoni and
    Butler, Linear Algebra Appl., 1976), so both blocks together carry the
    singular values of H. A middle column (odd N) joins the even block scaled by
    sqrt(2), a middle row (odd M) scaled by 1/sqrt(2), and the odd block holds
    zeros in their places.
    """
    rows, n = top.shape
    q = n // 2
    bj = top[:, ::-1][:, :q]
    blocks = np.zeros((2, rows, n - q), dtype=complex)
    blocks[0] = top[:, : n - q]
    blocks[0, :, :q] += bj
    # the middle row of an odd M is mirror-symmetric, so its odd part is exactly zero
    blocks[1, :, :q] = top[:, :q] - bj
    if n > 2 * q:
        blocks[0, :, q] *= math.sqrt(2.0)
    if middle_row:
        blocks[0, -1] *= math.sqrt(0.5)
    return blocks


def effective_dof(channel) -> DofResult:
    """Participation ratio (sum s)^2 / sum s^2 of the channel Gram eigenvalues.

    Accepts a :class:`ChannelMatrix` or a plain complex matrix H. The ratio
    is evaluated in trace form, tr(G)^2 / ||G||_F^2 with tr(G) = ||H||_F^2
    and G the Gram matrix on the smaller side of H (H H^H or H^H H), so no
    eigendecomposition is needed. H is first divided by max|H|, which makes
    the result independent of its overall scale.

    An exactly centrosymmetric H (``H[::-1, ::-1] == H`` entry for entry, as
    every :func:`channel_matrix` output is) is folded into two half-size
    blocks whose Gram matrices together have the spectrum of G; both sums
    then run over the two blocks, and the Gram products cost a quarter of the
    flops. Any other H takes the same steps on itself as a single block.
    """
    h = np.asarray(channel.entries if isinstance(channel, ChannelMatrix) else channel, dtype=complex)
    if h.ndim != 2 or h.size == 0:
        raise DegenerateChannelError(f"channel matrix must be 2-D and non-empty, got shape {h.shape}")
    peak = float(np.max(np.abs(h)))
    if not math.isfinite(peak):
        raise ValueError("channel matrix has non-finite entries")
    if peak == 0.0:
        raise DegenerateChannelError("all Gram eigenvalues are zero")
    m = h.shape[0]
    top = h[: m - m // 2]
    if np.array_equal(top, h[::-1, ::-1][: top.shape[0]]):
        hs = _fold(top / peak, m % 2 == 1)
    else:
        hs = (h / peak)[None]
    hsh = hs.conj().transpose(0, 2, 1)
    gram = hs @ hsh if h.shape[0] <= h.shape[1] else hsh @ hs
    trace = _sum_abs2(hs)
    return DofResult(effective_dof=trace * trace / _sum_abs2(gram), entries=h)


@dataclass(frozen=True)
class SpacingSweep:
    """Effective DoF as a function of element spacing, with the best point marked."""

    spacings: np.ndarray
    dof_curve: np.ndarray
    best_spacing: float
    best_dof: float


def dof_sweep(template: FocusScenario, spacings) -> SpacingSweep:
    """Sweep element spacing and record the effective DoF at each value.

    For every candidate d the scenario is rebuilt with transmit spacing d and
    the default receive strip, which copies the transmit count and spacing,
    so the strip tracks the array aperture. Each value is
    ``effective_dof(channel_matrix(scenario))`` at that spacing.
    Ties on the maximum resolve to the smallest spacing.
    """
    ds = _ascending_grid("spacings", spacings, 1)
    curve = np.empty_like(ds)
    for i, d in enumerate(ds):
        scenario = FocusScenario(tx=replace(template.tx, spacing=float(d)), focal_distance=template.focal_distance)
        try:
            curve[i] = effective_dof(channel_matrix(scenario)).effective_dof
        except (SingularDistanceError, DegenerateChannelError) as exc:
            raise type(exc)(f"sweep aborted at spacing {d:.6g} m: {exc}") from exc
    best = int(np.argmax(curve))
    return SpacingSweep(
        spacings=ds,
        dof_curve=curve,
        best_spacing=float(ds[best]),
        best_dof=float(curve[best]),
    )


def optimal_spacing(num_elements: int, focal_distance: float, wave: Wave, n: int = 1) -> float:
    """Closed-form spacing sqrt(n * lambda * z0 / N) that aligns the n-th
    focusing-gain null with the adjacent element offset. It is the small-angle
    limit: for n = 1 the swept DoF optimum lies above it by about 0.1 * N * lambda / z0 of it."""
    _int_at_least("num_elements", num_elements)
    _finite_positive("focal_distance", focal_distance)
    _int_at_least("null index n", n)
    return math.sqrt(n * wave.wavelength * focal_distance / num_elements)
