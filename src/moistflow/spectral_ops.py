"""Spectral differential operators and implicit solvers on the channel.

Horizontal directions are Fourier (period 2, so mode k carries wavenumber
pi*k); the vertical uses the Laplacian eigenbases of the channel: cosine
series cos(m pi z) for fields with homogeneous Neumann walls (horizontal
velocity, temperature, mixing ratios) and sine series sin(m pi z) for the
no-penetration vertical velocity.  A modal array is the whole
(nx, ny//2+1, nz) array or a leading extent of it, such as the kept block
of the 2/3 rule; the sine array keeps rows m = 0 and m = nz-1 identically
zero (the Nyquist sine mode vanishes on the collocation grid).

Every operator takes arrays and returns arrays, and is the one the solver
runs: a physical-to-physical operator is ``to_modal_values``, a modal
multiplier (``dz_modal``, ``laplacian_modal``, ``div_modal``) or a solve
(``helmholtz_modal``, ``vector_helmholtz_modal``), then
``to_phys_values``; a gradient is ``derivs`` of the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid

NEUMANN = "neumann_z"
DIRICHLET = "dirichlet_z"


def set_workers(n: int) -> None:
    """A no-op kept for ``bench/run_bench.py``, which calls it each episode:
    the transforms run numpy's FFT, which has no worker threads.  A count
    below 1 is still a ValueError."""
    if int(n) < 1:
        raise ValueError(f"the FFT worker count must be >= 1, got {n}")


# (x, y, z) derivative orders of each key ``derivs`` returns
_DERIV_ORDERS = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1),
                 "xx": (2, 0, 0), "yy": (0, 2, 0), "zz": (0, 0, 2),
                 "xy": (1, 1, 0), "xz": (1, 0, 1), "yz": (0, 1, 1)}
_DERIV_KEYS = {1: ("x", "y", "z"),
               2: ("x", "y", "z", "xx", "yy", "zz", "xy", "xz", "yz")}


class Basis:
    """Transform plans and Laplacian eigenvalues for one wall behavior.

    Eigenvalues are pi^2 (k1^2 + k2^2 + m^2) laid out on the modal grid;
    they are nonnegative and nondecreasing in each mode index.  Instances
    are immutable after construction, apart from the complement that
    ``other``, the weights that ``sobolev_weights`` and the matrices that
    ``inverse_matrices`` and ``forward_matrix`` build on first use; two
    threads that fill the same cache at once build the same entry twice,
    with the same values.
    """

    def __init__(self, grid: Grid, kind: str):
        if kind not in (NEUMANN, DIRICHLET):
            raise ValueError(f"unknown basis kind {kind!r}")
        self.grid = grid
        self.kind = kind
        kx_int = np.fft.fftfreq(grid.nx, d=1.0 / grid.nx)  # integers
        ky_int = np.fft.rfftfreq(grid.ny, d=1.0 / grid.ny)  # real-transform half
        mz = np.arange(grid.nz)
        self.kappa_x = (np.pi * kx_int)[:, None, None]
        self.kappa_y = (np.pi * ky_int)[None, :, None]
        self.kappa_z = (np.pi * mz)[None, None, :]
        self.eigenvalues = self.kappa_x**2 + self.kappa_y**2 + self.kappa_z**2
        # the 2/3 rule keeps |kx| <= nx//3, ky <= ny//3, m <= 2(nz-1)//3:
        # the kx rows in kx_keep, and the leading ky_keep columns and
        # mz_keep rows, the block a dealiased transform runs over
        self.kx_keep = np.abs(kx_int) <= grid.nx // 3
        self.ky_keep, self.mz_keep = grid.kept_extent
        # Parseval multiplicity of each retained ky column (conjugate pairs
        # are folded by the real transform except ky = 0 and the Nyquist)
        wy = np.full(ky_int.shape, 2.0)
        wy[0] = 1.0
        if grid.ny % 2 == 0:
            wy[-1] = 1.0
        self.ky_multiplicity = wy[None, :, None]
        # z-transform matrices, applied on the right of a (-1, nz) array:
        # z_fwd holds the DCT-I / DST-I with its normalisation folded in,
        # z_inv the cosine / sine series (zero sine wall rows and columns).
        # m k is reduced mod 2(nz-1), so each entry is of an exact angle.
        n = grid.nz - 1
        phase = (np.pi / n) * (np.outer(mz, mz) % (2 * n))
        w = np.ones(grid.nz)
        w[[0, -1]] = 0.5 if kind == NEUMANN else 0.0
        ww = np.outer(w, w)
        self.z_inv = np.cos(phase) if kind == NEUMANN else np.sin(phase) * ww
        self.z_fwd = self.z_inv * ww * (2.0 / n)
        self._other = None
        self._sobolev_weights = {}
        self._inverse_matrices = {}
        self._forward_matrices = {}

    @property
    def other(self) -> "Basis":
        """The complementary basis, in which z-derivatives live.  Built on
        first use and holding no reference back, so that bases form no
        reference cycle: a cycle would keep a dropped simulation's arrays
        alive until the next full garbage collection."""
        if self._other is None:
            self._other = Basis(self.grid, DIRICHLET if self.kind == NEUMANN else NEUMANN)
        return self._other

    def sobolev_weights(self, nky: int, nmz: int) -> tuple:
        """Parseval weights of the squared Sobolev norms of orders 0, 1, 2
        over the leading extent of nky columns and nmz rows, built once per
        extent and split in x to stay small: ``P`` (3 x nx) holds kx^0,
        kx^2, kx^4, and ``W`` (3 nky nmz x 3) the (ky, kz) weight of each of
        those x-moments, one column per order, each column cumulative.

        Horizontal modes integrate to 4 |a|^2 each over the doubly periodic
        cross-section; vertical cosine modes carry weight 1 (mean) or 1/2,
        sine modes 1/2.  z-differentiation swaps the parity weight, and the
        sine Nyquist row is invisible on the grid so it carries weight zero.
        One term per distinct multi-index of derivatives.
        """
        if (nky, nmz) not in self._sobolev_weights:
            nz = self.grid.nz
            cw = np.full(nz, 0.5)
            cw[0] = 1.0
            sw = np.full(nz, 0.5)
            sw[[0, -1]] = 0.0
            # an even number of z-derivatives keeps the basis' own weights
            w_even, w_odd = (cw, sw) if self.kind == NEUMANN else (sw, cw)
            even = 4.0 * self.ky_multiplicity[0] * w_even       # (nky, nz)
            odd = 4.0 * self.ky_multiplicity[0] * w_odd
            ky2, kz2 = self.kappa_y[0] ** 2, self.kappa_z[0] ** 2
            h1 = even * (1.0 + ky2) + odd * kz2
            h2 = h1 + even * (ky2 ** 2 + kz2 ** 2) + odd * ky2 * kz2
            zero = np.zeros_like(even)
            # rows: the x-moment kx^(2i); columns: the order; then (ky, kz)
            w = np.array([[even, h1, h2], [zero, even, h1], [zero, zero, even]])
            kx2 = self.kappa_x[:, 0, 0] ** 2
            self._sobolev_weights[nky, nmz] = (
                np.array([np.ones_like(kx2), kx2, kx2 ** 2]),
                w.transpose(0, 2, 3, 1)[:, :nky, :nmz].reshape(-1, 3))
        return self._sobolev_weights[nky, nmz]

    def _y_table(self, nky: int) -> tuple:
        """cos and sin, (ny, nky), of the angle pi ky y_j = 2 pi ky j / ny of
        the first nky columns, reduced mod 2 pi so that each entry is of an
        exact angle: the ky = 0 sines are exactly 0, and an even ny's
        Nyquist column, when nky reaches it, is given a sine of exactly 0."""
        ny = self.grid.ny
        angle = (2.0 * np.pi / ny) * (np.outer(np.arange(ny), np.arange(nky)) % ny)
        sin = np.sin(angle)
        if 2 * (nky - 1) == ny:
            sin[:, -1] = 0.0
        return np.cos(angle), sin

    def inverse_matrices(self, dealias: bool) -> tuple:
        """The factors of an inverse transform of derivatives over the
        extent ``_extents(self, dealias)`` (nky columns, nmz rows), built on
        first use; row r of each holds derivative order r = 0, 1, 2:

        - ``x`` (3, nx): the multipliers (i kx)^r, 0 on the kx rows the
          2/3 rule drops when ``dealias``;
        - ``y`` (3, ny, 2 nky): the real y-pass, applied on the left of the
          stacked (Re, Im) of the x-pass.  Row j holds w cos and -w sin of
          the angle pi ky y_j, times (i ky)^r, with the weights w of a real
          inverse FFT (1 for ky = 0, else 2).  An even ny's Nyquist column,
          in the whole extent, has w = 1 and a sine of exactly 0: only its
          real part counts;
        - ``z`` (3, nmz, nz): the z_inv rows of the basis each derivative
          lives in, times the factors of ``dz_modal`` (so the Neumann
          sine-Nyquist row is 0 for r >= 1).
        """
        if dealias not in self._inverse_matrices:
            nx, _, nz = self.grid.shape
            nky, nmz = _extents(self, dealias)
            keep = (self.kx_keep if dealias else np.ones(nx, bool))[:, None, None]
            x1 = dx_modal(keep.astype(complex), self)
            x = np.array([keep, x1, dx_modal(x1, self)])[:, :, 0, 0]
            cos, sin = self._y_table(nky)
            e = self.ky_multiplicity[0, :nky, 0] * (cos + 1j * sin)
            iky = 1j * self.kappa_y[0, :nky, 0]       # the multiplier of dy_modal
            # Re(c e) = Re c Re e - Im c Im e, for c e, c (iky e), c (iky^2 e)
            y = np.array([np.hstack([f.real, -f.imag]) for f in (e, iky * e, iky * (iky * e))])
            dz1 = dz_modal(np.ones(nz), self)[0, 0]
            dz2 = dz_modal(dz1, self.other)[0, 0]
            z = np.array([self.z_inv[:nmz], dz1[:nmz, None] * self.other.z_inv[:nmz],
                          dz2[:nmz, None] * self.z_inv[:nmz]])
            self._inverse_matrices[dealias] = (x, y, z)
        return self._inverse_matrices[dealias]

    def forward_matrix(self, dealias: bool) -> np.ndarray:
        """The (2 nky, ny) real y-pass of a forward transform over the
        extent ``_extents(self, dealias)``, built on first use: rows 2k and
        2k + 1 hold cos / ny and -sin / ny of the angle pi ky y_j, the real
        and imaginary parts of a forward DFT over y (numpy's
        ``norm="forward"``), so that a product with it on the right of
        y-lines gives complex numbers in place.  The sine rows of ky = 0
        and, in the whole extent of an even ny, of the Nyquist column are
        exactly 0, as in ``rfft``."""
        if dealias not in self._forward_matrices:
            ny = self.grid.ny
            nky = _extents(self, dealias)[0]
            cos, sin = self._y_table(nky)
            y = np.empty((2 * nky, ny))
            y[0::2], y[1::2] = cos.T / ny, -sin.T / ny
            self._forward_matrices[dealias] = y
        return self._forward_matrices[dealias]


@dataclass(frozen=True)
class BasisPair:
    neumann: Basis
    dirichlet: Basis


def make_bases(grid: Grid) -> BasisPair:
    """The Neumann basis and its complement."""
    neu = Basis(grid, NEUMANN)
    return BasisPair(neu, neu.other)


# ---------------------------------------------------------------------------
# Array-level transforms.  values: real (nx, ny, nz); modal: complex same shape.
# ---------------------------------------------------------------------------

def _z_product(values: np.ndarray, z: np.ndarray, first: bool = False) -> np.ndarray:
    """values @ z along the last axis, as one 2-D gemm on a copy of
    ``values`` laid out C-ordered as (y, x, z), so that the bits do not
    depend on the memory layout of ``values``; the result is the (x, y, z)
    view of the C-ordered (y, x, z) product.  With ``first`` each z-column's
    first sample is taken out before the product and put back into
    column 0, so that a column constant in z maps to exactly (c, 0, ...)."""
    nx, ny, nz = values.shape
    src = values.transpose(1, 0, 2)
    copy = np.empty((ny, nx, nz))
    if first:
        np.subtract(src, src[..., :1], out=copy)
    else:
        copy[...] = src
    out = (copy.reshape(-1, nz) @ z).reshape(ny, nx, z.shape[1])
    if first:
        out[..., 0] += src[..., 0]
    return out.transpose(1, 0, 2)


def _extents(basis: Basis, dealias: bool) -> tuple:
    """The ky columns and z rows a transform runs over: the 2/3 block with
    ``dealias``, else all of them."""
    if dealias:
        return basis.ky_keep, basis.mz_keep
    return basis.grid.ny // 2 + 1, basis.grid.nz


def to_modal_values(values: np.ndarray, basis: Basis,
                    dealias: bool = False) -> np.ndarray:
    """The mirror of ``_inverse_set``, over the extent of ``dealias``:

    - the z-product with the kept columns of ``z_fwd`` (``_z_product``, on
      a C-ordered (y, x, z) copy); a cosine transform takes out each
      z-column's first sample and puts it back into mode 0;
    - one real y-gemm with ``Basis.forward_matrix`` on the right of the
      product's y-lines, which it turns into complex (x, z, ky) lines; each
      y-line's first sample is taken out before it and put back into
      ky = 0, so that the ky > 0 coefficients of data constant in y are
      exactly 0, for every grid;
    - one complex fft over x, in place along the product's strided first
      axis, and a C-ordered copy in (x, ky, z) order.

    A constant field comes out as exactly its value in the mean and 0
    elsewhere only where that fft of a constant line is exact, as it is
    for power-of-two nx; other nx can leave the mean and the kx != 0 rows
    off by rounding.

    Without ``dealias`` the result is the whole (nx, ny//2+1, nz) array,
    what rfft2 (norm "forward") gives of the z-product, to rounding.  With
    ``dealias`` it is only the kept (nx, ky_keep, mz_keep) block of the 2/3
    rule, with the dropped kx rows exactly 0."""
    nx, ny, nz = basis.grid.shape
    nky, nmz = _extents(basis, dealias)
    y = basis.forward_matrix(dealias)
    zt = _z_product(values, basis.z_fwd[:, :nmz], basis.kind == NEUMANN)
    lines = zt.transpose(1, 0, 2).reshape(ny, nx * nmz)
    lines[1:] -= lines[0]
    re_im = lines[1:].T @ y[:, 1:].T
    re_im[:, 0] += lines[0]
    block = re_im.view(complex).reshape(nx, nmz, nky)
    np.fft.fft(block, axis=0, norm="forward", out=block)
    if dealias:
        block[~basis.kx_keep] = 0.0
    return np.ascontiguousarray(block.transpose(0, 2, 1))


def to_phys_values(modal: np.ndarray, basis: Basis,
                   dealias: bool = False) -> np.ndarray:
    """Inverse of to_modal_values: the value output of the pass that
    ``derivs`` runs.  With ``dealias`` it transforms ``modal`` truncated by
    the 2/3 rule, reading only the kept block (``kept_block``, which may be
    all ``modal`` holds); what ``modal`` holds outside it is ignored."""
    return _inverse_set(modal, basis, [(0, 0, 0)], dealias)[0]


def _inverse_set(modal: np.ndarray, basis: Basis, orders: list,
                 dealias: bool) -> list:
    """Physical arrays of the derivatives of the (x, y, z) ``orders`` of the
    field with coefficients ``modal``, over the extent of ``dealias``, with
    every pass the set can share shared (see ``Basis.inverse_matrices``):

    - the block is read once for each x-order 0..max: its x-multiplied
      copy goes into one reused buffer with x the contiguous last axis
      (numpy's FFT is several times slower along a strided axis), through
      one ifft over x in place, and by a transposing copy into its (Re, Im)
      rows of one stacked real array, x ahead of z;
    - each distinct (x, y) order pair is one real y-gemm on that array,
      which is freed after the last of them;
    - each output is one product with its z-matrix, written through the
      (y, x, z) view of the C-ordered result; a y-gemm's product is freed
      after the last output that reads it."""
    x, y, z = basis.inverse_matrices(dealias)
    nx, ny, nz = basis.grid.shape
    nky, nmz = _extents(basis, dealias)
    nxm = max(o[0] for o in orders) + 1
    block = modal[:, :nky, :nmz].transpose(1, 2, 0)
    re_im = np.empty((nxm, 2, nky, nx, nmz))
    xs = np.empty((nky, nmz, nx), dtype=complex)
    for a in range(nxm):
        np.multiply(block, x[a], out=xs)
        np.fft.ifft(xs, axis=-1, norm="forward", out=xs)
        re_im[a, 0] = xs.real.transpose(0, 2, 1)
        re_im[a, 1] = xs.imag.transpose(0, 2, 1)
    del xs          # freed before the outputs are allocated
    re_im = re_im.reshape(nxm, 2 * nky, nx * nmz)
    last = {(a, b): i for i, (a, b, _) in enumerate(orders)}
    gemms_left = len(last)
    ys = {}
    out = []
    for i, (a, b, c) in enumerate(orders):
        if (a, b) not in ys:
            ys[a, b] = (y[b] @ re_im[a]).reshape(ny, nx, nmz)
            gemms_left -= 1
            if not gemms_left:
                del re_im
        vals = np.empty((nx, ny, nz))
        np.matmul(ys[a, b], z[c], out=vals.transpose(1, 0, 2))
        out.append(vals)
        if last[a, b] == i:
            del ys[a, b]
    return out


# The multipliers take the whole (nx, ny//2+1, nz) array or any leading
# (nky, nmz) extent of it, such as a dealiased transform's kept block.

def kept_block(modal: np.ndarray, basis: Basis) -> np.ndarray:
    """The leading (ky_keep, mz_keep) extent of the whole array ``modal``:
    all that a dealiased inverse transform reads of it, kx rows the 2/3
    rule drops included."""
    return modal[:, :basis.ky_keep, :basis.mz_keep]


def _eigenvalues(basis: Basis, block: np.ndarray) -> np.ndarray:
    """The Laplacian eigenvalues over the extent of ``block``."""
    return basis.eigenvalues[:, :block.shape[1], :block.shape[2]]


def dx_modal(modal: np.ndarray, basis: Basis) -> np.ndarray:
    return modal * (1j * basis.kappa_x)


def dy_modal(modal: np.ndarray, basis: Basis) -> np.ndarray:
    return modal * (1j * basis.kappa_y[:, :modal.shape[1]])


def dz_modal(modal: np.ndarray, basis: Basis) -> np.ndarray:
    """Differentiate in z; the result lives in the complementary basis."""
    nz, nmz = basis.grid.nz, modal.shape[-1]
    if basis.kind == NEUMANN:
        out = -basis.kappa_z[..., :nmz] * modal
        if nmz == nz:
            out[..., nz - 1] = 0.0  # Nyquist sine mode vanishes on the grid
        return out
    return basis.kappa_z[..., :nmz] * modal


def derivs(modal: np.ndarray, basis: Basis, order: int = 1,
           dealias: bool = False) -> dict:
    """Spectral derivatives, as physical arrays keyed x, y, z (and xx, yy,
    zz, xy, xz, yz for order 2), of the field with modal coefficients
    ``modal`` in ``basis``, truncated by the 2/3 rule with ``dealias`` (the
    multipliers are diagonal, so the rule commutes with them).
    z-derivatives of odd order live in the complementary basis.

    The set is one pass (``_inverse_set``): 2 x-FFTs for order 1, 3 for
    order 2, and no multiplier product on the whole array.  The derivatives
    equal each multiplier (dx_modal, dy_modal, dz_modal) followed by
    ``to_phys_values`` to rounding, not bitwise."""
    keys = _DERIV_KEYS[order]
    return dict(zip(keys, _inverse_set(modal, basis, [_DERIV_ORDERS[k] for k in keys],
                                       dealias)))


def div_modal(m1: np.ndarray, m2: np.ndarray, mw: np.ndarray,
              bases: BasisPair) -> np.ndarray:
    """Divergence of the (Neumann, Neumann, Dirichlet) vector field with
    modal coefficients (m1, m2, mw); a cosine series whose (0, 0, 0) mode
    is exactly zero, so that its volume integral vanishes identically."""
    neu, diri = bases.neumann, bases.dirichlet
    return dx_modal(m1, neu) + dy_modal(m2, neu) + dz_modal(mw, diri)


def laplacian_modal(modal: np.ndarray, basis: Basis) -> np.ndarray:
    """Laplacian by modal multiplication; the result stays in ``basis``."""
    return -_eigenvalues(basis, modal) * modal


def modal_sobolev_sqs(modal: np.ndarray, basis: Basis, max_order: int = 2) -> tuple:
    """Squared Sobolev norms of orders 0..max_order (max_order <= 2) from
    modal coefficients, in one pass over |a|^2 and two products with the
    basis' ``sobolev_weights`` for the extent of ``modal`` (Parseval):
    the whole array or any leading (nky, nmz) extent of it, such as the
    kept block a dealiased solve returns."""
    if max_order not in (0, 1, 2):
        raise ValueError("sobolev order must be 0, 1, or 2")
    a2 = modal.real ** 2 + modal.imag ** 2
    P, W = basis.sobolev_weights(*modal.shape[1:])
    moments = P @ a2.reshape(basis.grid.nx, -1)
    return tuple(float(x) for x in moments.reshape(-1) @ W[:, :max_order + 1])


def extent_sum(a: np.ndarray, b: np.ndarray, subtract: bool = False) -> np.ndarray:
    """a + b, or a - b with ``subtract``, of two coefficient arrays of
    leading extents, one within the other: a new array of the larger
    extent, in which the smaller counts as 0 outside its own."""
    if all(na >= nb for na, nb in zip(a.shape, b.shape)):
        out = a.copy()
        lead = tuple(slice(n) for n in b.shape)
        if subtract:
            out[lead] -= b
        else:
            out[lead] += b
        return out
    out = -b if subtract else b.copy()
    out[tuple(slice(n) for n in a.shape)] += a
    return out


def representable(modal: np.ndarray, basis: Basis) -> np.ndarray:
    """The part of ``modal`` that survives ``to_phys_values``: the ky = 0
    plane (and the ky Nyquist plane, for even ny) is made Hermitian in kx,
    since the inverse y-pass keeps only the real part of those columns, and
    the sine wall rows are zeroed.  Then ``to_modal_values(to_phys_values(M))``
    equals ``representable(M)`` up to rounding.  Odd derivatives of the kx
    or ky Nyquist modes are what break the symmetry.  ``modal`` may be a
    leading (nky, nmz) extent, as the multipliers take."""
    out = modal.copy()
    _make_representable(out, basis)
    return out


def _make_representable(modal: np.ndarray, basis: Basis) -> None:
    """``representable`` in place; a Nyquist plane or sine wall row outside
    the extent of ``modal`` is left alone."""
    nx, ny, nz = basis.grid.shape
    flip = (-np.arange(nx)) % nx
    for j in (0, ny // 2) if ny % 2 == 0 else (0,):
        if j < modal.shape[1]:
            modal[:, j] = 0.5 * (modal[:, j] + np.conj(modal[flip, j]))
    if basis.kind == DIRICHLET:
        modal[..., 0] = 0.0
        if modal.shape[2] == nz:
            modal[..., nz - 1] = 0.0


def _solved(block: np.ndarray, denom: np.ndarray, basis: Basis) -> np.ndarray:
    """The representable coefficients of block / denom, on the extent of
    ``block``: the kept (nx, ky_keep, mz_keep) block of a dealiased
    forward, or the whole array."""
    out = np.divide(block, denom)
    _make_representable(out, basis)
    return out


def helmholtz_modal(g: np.ndarray, a: float, basis: Basis,
                    dealias: bool = False) -> np.ndarray:
    """Solve (I - a * Laplacian) f = g by modal division and return the
    representable modal coefficients of f on the extent the forward
    transform of g gives: the whole (nx, ny//2+1, nz) array, or with
    ``dealias`` the kept (nx, ky_keep, mz_keep) block of the 2/3 rule,
    outside which f is 0 and which is all the result holds."""
    if not a >= 0.0:        # NaN fails too
        raise ValueError("helmholtz coefficient a must be nonnegative")
    block = to_modal_values(g, basis, dealias)
    return _solved(block, 1.0 + a * _eigenvalues(basis, block), basis)


def vector_helmholtz_modal(g1: np.ndarray, g2: np.ndarray, g3: np.ndarray,
                           a_mu: float, a_mulam: float, bases: BasisPair,
                           dealias: bool = False) -> tuple:
    """Solve (I - a_mu * Lap - a_mulam * grad div) u = (g1, g2, g3) and
    return the representable modal coefficients of u on the extent the
    forward transforms give: the whole array, or with ``dealias`` the kept
    block of the 2/3 rule, outside which u is 0 and which is all each
    result holds.

    Uses the divergence/solenoidal modal split: the divergence coefficient
    solves a scalar Helmholtz problem with coefficient a_mu + a_mulam, after
    which each component is a diagonal division.  Horizontal components are
    cosine series in z, the vertical one a sine series.
    """
    if not (a_mu >= 0.0 and a_mu + a_mulam >= 0.0):        # NaN fails too
        raise ValueError("ill-posed coefficient combination in vector Helmholtz solve")
    neu, diri = bases.neumann, bases.dirichlet
    m1 = to_modal_values(g1, neu, dealias)
    m2 = to_modal_values(g2, neu, dealias)
    m3 = to_modal_values(g3, diri, dealias)
    eig_n, eig_d = _eigenvalues(neu, m1), _eigenvalues(diri, m3)

    d = div_modal(m1, m2, m3, bases) / (1.0 + (a_mu + a_mulam) * eig_n)

    denom_n = 1.0 + a_mu * eig_n
    return (_solved(m1 + a_mulam * dx_modal(d, neu), denom_n, neu),
            _solved(m2 + a_mulam * dy_modal(d, neu), denom_n, neu),
            _solved(m3 + a_mulam * dz_modal(d, neu), 1.0 + a_mu * eig_d, diri))
