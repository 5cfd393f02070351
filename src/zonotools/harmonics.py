"""Real spherical-harmonic analysis, synthesis and rotation, transform
multipliers, inverse transforms and the plateau cap admissibility rule.

Convention (used everywhere in this package): real, fully normalized,
Condon-Shortley-free harmonics

    Y_{l,0}(x)  = Q_{l,0}(cos theta)
    Y_{l,m}(x)  = sqrt(2) * Q_{l,m}(cos theta) * cos(m phi),   m > 0
    Y_{l,-m}(x) = sqrt(2) * Q_{l,m}(cos theta) * sin(m phi),   m > 0

where Q_{l,m} = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!) * P_{l,m} and P_{l,m}
carries no (-1)^m phase.  With this normalization the harmonics are
orthonormal for the surface measure, so Parseval reads
sum of coefficients squared = integral of f^2.

Both the cosine kernel |t| and the Funk kernel (integration over the
orthogonal great circle) act diagonally on this basis; the eigenvalue of
a kernel F on degree l is 2 pi * integral_{-1}^{1} F(t) P_l(t) dt, which
vanishes identically on odd degrees for both kernels.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Hard ceiling for inverse transforms; beyond this the cosine multipliers
#: (decaying like l^(-5/2)) push the inversion conditioning past ~1e5.
INVERSION_MAX_DEGREE = 64

#: Multipliers smaller than this are treated as numerically singular.
MULTIPLIER_FLOOR = 1e-12

#: Odd-degree coefficient mass above this fraction of the total norm
#: disqualifies an input that must be even.
ODD_MASS_TOL = 1e-8


def coeff_count(L):
    return (L + 1) * (L + 1)


def coeff_index(l, m):
    """Flat index of the (l, m) coefficient, degree-major."""
    return l * l + l + m


@dataclass
class HarmonicCoeffs:
    """Band-limited real spherical-harmonic coefficient table.

    ``c`` is the flat array of length (L+1)^2 ordered degree-major with
    orders -l..l inside each degree.
    """

    L: int
    c: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (coeff_count(self.L),):
            raise ValueError(
                f"band limit {self.L} needs {coeff_count(self.L)} coefficients, "
                f"got shape {self.c.shape}"
            )

    @classmethod
    def zeros(cls, L):
        return cls(L=L, c=np.zeros(coeff_count(L)))

    def get(self, l, m):
        return float(self.c[coeff_index(l, m)])

    def set(self, l, m, value):
        self.c[coeff_index(l, m)] = value

    def copy(self):
        return HarmonicCoeffs(L=self.L, c=self.c.copy())

    def degree_slice(self, l):
        return self.c[l * l : (l + 1) * (l + 1)]

    def degrees(self):
        return np.repeat(np.arange(self.L + 1), 2 * np.arange(self.L + 1) + 1)

    def norm2(self):
        """Parseval norm: equals the integral of f^2 for band-limited f."""
        return float(np.sum(self.c**2))

    def odd_mass_fraction(self):
        """Fraction of the squared norm carried by odd degrees."""
        total = self.norm2()
        if total == 0.0:
            return 0.0
        odd = self.degrees() % 2 == 1
        return float(np.sum(self.c[odd] ** 2)) / total

    def zonal(self):
        """The (L+1,) vector of m = 0 coefficients."""
        ls = np.arange(self.L + 1)
        return self.c[ls * ls + ls]

    def zonal_projected(self):
        """Copy with all m != 0 coefficients zeroed."""
        out = HarmonicCoeffs.zeros(self.L)
        ls = np.arange(self.L + 1)
        out.c[ls * ls + ls] = self.zonal()
        return out

    def split_orders(self):
        """Repack into (Ac, As): cosine/sine order matrices of shape (L+1, L+1).

        Ac[l, m] multiplies Q_{l,m} cos(m phi) (already including the sqrt(2)
        for m > 0); As[l, m] multiplies Q_{l,m} sin(m phi), m >= 1.
        """
        return _split_rows(self.c)

    @classmethod
    def from_split_orders(cls, Ac, As):
        L = Ac.shape[0] - 1
        l, m, scale, pos, neg = _order_index(L)
        c = np.empty(coeff_count(L))
        c[neg] = As[l, m] / scale  # the m = 0 slots are overwritten next
        c[pos] = Ac[l, m] / scale
        return cls(L=L, c=c)


@lru_cache(maxsize=None)
def _order_index(L):
    """The (l, m) pairs with 0 <= m <= l <= L, row-major, with the sqrt(2)
    scale of m > 0 and the flat indices of (l, m) and (l, -m); cached per
    band limit as read-only arrays."""
    l, m = np.tril_indices(L + 1)
    scale = np.where(m > 0, math.sqrt(2.0), 1.0)
    return _read_only(l, m, scale, l * l + l + m, l * l + l - m)


def _rows_band_limit(C):
    """The band limit L of coefficient rows of shape (..., (L+1)^2), one
    expansion per row."""
    L = math.isqrt(C.shape[-1]) - 1
    if (L + 1) ** 2 != C.shape[-1]:
        raise ValueError(f"coefficient rows must have (L+1)^2 columns, got shape {C.shape}")
    return L


def _split_rows(C):
    """split_orders of the expansions in the coefficient rows ``C`` of
    shape (..., (L+1)^2): the (..., L+1, L+1) arrays Ac, As."""
    L = _rows_band_limit(C)
    l, m, scale, pos, neg = _order_index(L)
    Ac = np.zeros(C.shape[:-1] + (L + 1, L + 1))
    As = np.zeros(C.shape[:-1] + (L + 1, L + 1))
    Ac[..., l, m] = scale * C[..., pos]
    As[..., l, m] = scale * C[..., neg]
    As[..., 0] = 0.0  # m = 0 has no sine term; neg read the cosine slot
    return Ac, As


@lru_cache(maxsize=None)
def _coeffs_csv_template(L):
    """The text coeffs_to_csv writes for band L, each value a ``%.17g``
    field in the coefficients' flat order; one string, cached per band."""
    return "l,m,value\n" + "".join(
        f"{l},{m},%.17g\n" for l in range(L + 1) for m in range(-l, l + 1)
    )


def coeffs_to_csv(path, coeffs):
    """Dump coefficients as CSV rows l,m,value, with 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_coeffs_csv_template(coeffs.L) % tuple(coeffs.c.tolist()))


# ----------------------------------------------------------------------
# Associated Legendre machinery
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _recurrence_coeffs(L):
    """Coefficients a[l, m], b[l, m] of the degree recurrence, cached per
    band limit as read-only arrays."""
    a = np.zeros((L + 1, L + 1))
    b = np.zeros((L + 1, L + 1))
    for l in range(2, L + 1):
        m = np.arange(0, l - 1)
        a[l, : l - 1] = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b[l, : l - 1] = np.sqrt(
            (2.0 * l + 1.0)
            * (l + m - 1.0)
            * (l - m - 1.0)
            / ((2.0 * l - 3.0) * (l * l - m * m))
        )
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def _legendre_rows(L, t, s=None):
    """Yield Q_{l,m}(t) for l = 0, 1, ..., L, one degree at a time.

    Each yielded array has shape (L+1, len(t)) and is indexed by order m;
    entries with m > l are zero.  ``s`` holds the sines of the colatitudes,
    sqrt(1 - t^2) when not given; near a pole that loses digits, so a
    caller that knows the sines to full relative precision passes them.
    The degree recurrence keeps three rows,
    vectorized over order and evaluation points, so memory stays
    proportional to (L+1) x len(t).  The yielded array is a work buffer that
    the recurrence overwrites in the next two degrees: copy it to keep it.
    """
    t = np.asarray(t, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t)) if s is None else np.asarray(s, dtype=float)
    a, b = _recurrence_coeffs(L)
    prev = np.zeros((L + 1, t.size))  # Q_{l-1, m}
    cur = np.zeros((L + 1, t.size))   # Q_{l, m}
    nxt = np.zeros((L + 1, t.size))
    cur[0] = 1.0 / math.sqrt(4.0 * math.pi)
    yield cur
    for l in range(1, L + 1):
        np.multiply(math.sqrt((2.0 * l + 1.0) / (2.0 * l)) * s, cur[l - 1], out=nxt[l])
        np.multiply(math.sqrt(2.0 * l + 1.0) * t, cur[l - 1], out=nxt[l - 1])
        if l >= 2:
            k = l - 1
            np.multiply(a[l, :k, None], t, out=nxt[:k])
            nxt[:k] *= cur[:k]
            prev[:k] *= b[l, :k, None]  # Q_{l-2} is not read again
            nxt[:k] -= prev[:k]
        prev, cur, nxt = cur, nxt, prev
        yield cur


def _normalized_legendre(L, t):
    """Fully normalized associated Legendre values Q_{l,m}(t).

    Returns an array of shape (L+1, L+1, len(t)) indexed [l, m]; entries
    with m > l are zero.
    """
    t = np.asarray(t, dtype=float)
    P = np.zeros((L + 1, L + 1, t.size))
    for l, row in enumerate(_legendre_rows(L, t)):
        P[l, : l + 1] = row[: l + 1]
    return P


def zonal_expansions(z, axes):
    """Coefficients of the zonal functions sum_l z[k, l] P_l(<x, axes[k]>).

    ``z`` is a (K, L+1) array of Legendre weights and ``axes`` a (K, 3)
    array of unit vectors; returns K band-L HarmonicCoeffs.  By the
    addition theorem P_l(<x, a>) = 4 pi/(2l+1) sum_m Y_{l,m}(x) Y_{l,m}(a),
    so coefficient (l, m) of case k is z[k, l] 4 pi/(2l+1) Y_{l,m}(axes[k]):
    one Legendre table at all the axes, read through the order index of
    split_orders.  A degree with zero weight gets exactly zero coefficients.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    L = z.shape[1] - 1
    axes = np.atleast_2d(np.asarray(axes, dtype=float))
    t, phi = np.clip(axes[:, 2], -1.0, 1.0), np.arctan2(axes[:, 1], axes[:, 0])
    l, m, scale, pos, neg = _order_index(L)
    Q = _normalized_legendre(L, t)  # (L+1, L+1, K)
    amp = (4.0 * math.pi / (2.0 * l + 1.0) * scale)[:, None] * z.T[l] * Q[l, m]
    angle = m[:, None] * phi
    c = np.empty((t.size, coeff_count(L)))
    c[:, neg] = (amp * np.sin(angle)).T  # the m = 0 slots are overwritten next
    c[:, pos] = (amp * np.cos(angle)).T
    return [HarmonicCoeffs(L=L, c=row) for row in c]


def _ring_cosines(t):
    """t, checked to hold ring cosines: finite and in [-1, 1]."""
    if not np.all(np.abs(t) <= 1.0):  # a NaN fails the test too
        raise ValueError(f"ring cosines must be finite and in [-1, 1], got {t!r}")
    return t


def _pole_safe_sin(t):
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    if np.any(s < 1e-12):
        raise ValueError("theta-derivative tables are singular at the poles")
    return s


def _theta_derivative(L, t, s, P):
    """dQ/dtheta from Q = P at t = cos theta, s = sin theta, by the
    degree-lowering relation

        sin(theta) dQ_{l,m}/dtheta = l t Q_{l,m} - s_{l,m} Q_{l-1,m},
        s_{l,m} = sqrt((2l+1)(l^2-m^2)/(2l-1)).

    Valid away from the poles (all Gauss-Legendre rings qualify).
    """
    dP = np.zeros_like(P)
    for l in range(L + 1):
        m = np.arange(0, l + 1)
        slm = np.zeros(l + 1)
        if l >= 1:
            slm[:l] = np.sqrt(
                (2.0 * l + 1.0) * (l * l - m[:l] ** 2) / (2.0 * l - 1.0)
            )
        low = slm[:, None] * (P[l - 1, : l + 1] if l >= 1 else 0.0)
        dP[l, : l + 1] = (l * t * P[l, : l + 1] - low) / s
    return dP


def _legendre_ode(l, m, t, s, Q, dQ, out=None):
    """d2Q/dtheta2 of degrees l and orders m (arrays that broadcast against
    Q and dQ) from Q and dQ/dtheta at t = cos theta, s = sin theta, by the
    associated Legendre ODE

        Q'' = -cot(theta) Q' - (l(l+1) - m^2/sin^2(theta)) Q,

    formed in ``out`` when given.  Where m > l, with Q = Q' = 0 there, it
    gives +0.0."""
    out = np.multiply(-(t / s), dQ, out=out)
    out -= (l * (l + 1.0) - m**2 / (s * s)) * Q
    return out


def ring_theta_tables(L, t):
    """Q_{l,m}(t) at the ring cosines t and its theta-derivative
    (``_theta_derivative``), each of shape (L+1, L+1, len(t)); built afresh
    on each call and not cached, for a caller that reads them once and
    drops them.  A caller that needs the second derivative forms it from
    these by ``_legendre_ode``.  Every operation is elementwise per ring, so
    on any subset of a grid's rings the tables are bitwise the whole grid's
    on those rings, and Q is bitwise the cached ``grid_legendre``.  Rejects
    cosines outside [-1, 1] and the poles."""
    t = _ring_cosines(np.asarray(t, dtype=float))
    s = _pole_safe_sin(t)
    P = _normalized_legendre(L, t)
    return P, _theta_derivative(L, t, s, P)


def _phi_tables(L, phi):
    """cos(m phi), sin(m phi) tables of shape (L+1, len(phi))."""
    m = np.arange(L + 1)[:, None]
    return np.cos(m * phi[None, :]), np.sin(m * phi[None, :])


# ----------------------------------------------------------------------
# Per-grid tables, cached
# ----------------------------------------------------------------------
#
# One store holds three kinds of table per band limit: Q on a set of rings
# (grid_legendre, and ring_samples by the same key), the radii tables E
# (grid_radii_tables), both keyed by the ring cosines, and the longitude
# tables of m equispaced longitudes (longitude_table), keyed by m.  The
# theta derivative Q' is not kept: ring_theta_tables builds it at any ring
# cosines for each caller that reads it, E's build among them.

#: Bytes of tables the per-grid store may hold.  Every table that one
#: command reads more than once fits: Q at band 48 on a 64-ring grid is
#: 1.23 MB, the longitude table of band 48 at m = 256 0.2 MB, and the
#: benchmark's counterexample run holds at most 1.74 MB, `verify --suite
#: all` 2.38 MB.  E at band 48 on 64 rings (3.7 MB), which a command reads
#: once, is over the budget.
GRID_TABLE_CACHE_BYTES = 3 * 2**20

#: The per-grid store: (builder, L, key) -> read-only table, least recently
#: used first.
_GRID_TABLES = OrderedDict()


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _table_key(a):
    """Cache key of a grid's ring or longitude array: its float64 bytes."""
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _grid_table(build, L, key):
    """The read-only table build(L, key), kept in the per-grid store.

    A table is kept while the store's tables, it included, fit in
    GRID_TABLE_CACHE_BYTES, evicting the least recently used ones first; a
    table larger than the whole budget is built for this call and not kept.
    """
    k = (build, L, key)
    table = _GRID_TABLES.get(k)
    if table is not None:
        _GRID_TABLES.move_to_end(k)
        return table
    table = build(L, key)
    table.flags.writeable = False
    if table.nbytes <= GRID_TABLE_CACHE_BYTES:
        while sum(t.nbytes for t in _GRID_TABLES.values()) + table.nbytes > GRID_TABLE_CACHE_BYTES:
            _GRID_TABLES.popitem(last=False)
        _GRID_TABLES[k] = table
    return table


def _ring_legendre(L, t_key):
    return _normalized_legendre(L, _ring_cosines(np.frombuffer(t_key)))


def _radii_tables(L, t, P, dP):
    """The ring-scaled radii tables of ``grid_radii_tables`` from the theta
    tables Q, Q' at ring cosines t, each block formed in place in the
    table (the E12 block holds cot Q' until E22 has read it); E11 reads Q''
    from ``_legendre_ode``."""
    s = _pole_safe_sin(t)
    cot = t / s
    m = np.arange(L + 1)[:, None]
    E = np.empty((L + 1, 3, t.size, L + 1))
    E11, E22, E12 = (E[:, k] for k in range(3))
    P, dP = (x.transpose(1, 2, 0) for x in (P, dP))  # [m, ring, l]
    _legendre_ode(np.arange(L + 1), m[:, :, None], t[:, None], s[:, None], P, dP, out=E11)
    E11 += P
    np.multiply(P, (1.0 - m * m / (s * s))[:, :, None], out=E22)
    np.multiply(cot[:, None], dP, out=E12)
    E22 += E12
    np.multiply(cot[:, None], P, out=E12)
    np.subtract(dP, E12, out=E12)
    E12 *= m[:, :, None]
    E12 /= s[:, None]
    return E.reshape(L + 1, 3 * t.size, L + 1)


def _ring_radii_tables(L, t_key):
    t = np.frombuffer(t_key)
    return _radii_tables(L, t, *ring_theta_tables(L, t))


def _longitude_tables(L, m):
    """[cos(k phi); sin(k phi)], k = 0..L, at the m longitudes
    phi = 2 pi j / m of ``sphere.build_grid``, shape (2(L+1), m)."""
    return np.vstack(_phi_tables(L, 2.0 * np.pi * np.arange(m) / m))


def grid_legendre(L, grid):
    """Q_{l,m}(cos theta) on the grid's rings, shape (L+1, L+1, n_theta).

    Cached per band limit and ring cosines (``_grid_table``), the key that
    ``ring_samples`` reads it by; the array is read-only.
    """
    return _grid_table(_ring_legendre, L, _table_key(grid.cos_theta))


def grid_radii_tables(L, grid):
    """The theta factors of the radii matrix on the grid's rings, scaled per
    ring, shape (L+1, 3 * n_theta, L+1) and indexed [m, k * n_theta + ring, l].

    With ' the theta-derivative, the three blocks k = 0, 1, 2 hold

        E11 = Q'' + Q,
        E22 = Q (1 - m^2 / sin^2 theta) + cot theta Q',
        E12 = m (Q' - cot theta Q) / sin theta,

    so that q11 and q22 are sums of E11 and E22 times
    Ac cos(m phi) + As sin(m phi), and q12 of E12 times
    As cos(m phi) - Ac sin(m phi).  Cached like grid_legendre, and kept only
    within the store's byte budget; read-only.  The theta tables it is
    built from (``ring_theta_tables``) are not kept.
    """
    return _grid_table(_ring_radii_tables, L, _table_key(grid.cos_theta))


def longitude_table(L, m):
    """[cos(k phi); sin(k phi)] at the m equispaced longitudes
    phi = 2 pi j / m, k = 0..L, as one (2(L+1), m) table; a grid's
    longitudes are those of m = n_phi.  Cached per band limit and m like
    grid_legendre; read-only."""
    return _grid_table(_longitude_tables, L, m)


def analyze(grid, values, L):
    """Harmonic coefficients of the L2 projection onto degrees <= L.

    The product quadrature is exact on products of band-L harmonics when
    n_theta >= L + 1 and n_phi >= 2L + 1; coarser grids are rejected.
    """
    if grid.n_theta < L + 1 or grid.n_phi < 2 * L + 1:
        raise ValueError(
            f"grid ({grid.n_theta}, {grid.n_phi}) too coarse to analyze band {L}; "
            f"needs n_theta >= {L + 1} and n_phi >= {2 * L + 1}"
        )
    values = np.asarray(getattr(values, "values", values), dtype=float)
    V = grid.ring_view(values)
    cs = longitude_table(L, grid.n_phi)
    cosm, sinm = cs[: L + 1], cs[L + 1 :]
    dphi = 2.0 * np.pi / grid.n_phi
    Fc = V @ cosm.T * dphi  # (n_theta, L+1) ring Fourier moments
    Fs = V @ sinm.T * dphi
    P = grid_legendre(L, grid)
    glw = grid.ring_weight * grid.n_phi / (2.0 * np.pi)
    Ac = np.einsum("lmr,rm->lm", P, glw[:, None] * Fc)
    As = np.einsum("lmr,rm->lm", P, glw[:, None] * Fs)
    # The einsum contracts against plain Q_{l,m}; the basis carries sqrt(2)
    # on m > 0 and from_split_orders removes another sqrt(2), hence the 2.
    Ac[:, 1:] *= 2.0
    As[:, 1:] *= 2.0
    return HarmonicCoeffs.from_split_orders(Ac, As)


def synthesize_grid(coeffs, grid):
    """Evaluate the expansion at every grid node: the ring route on the
    grid's rings (``ring_samples``)."""
    return ring_samples(coeffs.c, None, grid.cos_theta, grid.n_phi)[0].reshape(-1)


#: Expansions per ring_samples call of grid_minima: their samples take
#: 0.5 MB on 64 x 128.
GRID_MINIMA_CHUNK = 8


def grid_minima(C, grid):
    """Minimum over the grid nodes of each expansion in the (S, (L+1)^2)
    coefficient rows ``C``, sampled GRID_MINIMA_CHUNK expansions at a time
    by ``ring_samples``; each is bitwise the minimum of its synthesize_grid
    values."""
    out = np.empty(len(C))
    for a in range(0, len(C), GRID_MINIMA_CHUNK):
        V = ring_samples(C[a : a + GRID_MINIMA_CHUNK], None, grid.cos_theta, grid.n_phi)
        out[a : a + GRID_MINIMA_CHUNK] = np.min(V, axis=(1, 2))
    return out


# ----------------------------------------------------------------------
# Rotations
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _quarter_turns(L):
    """The quarter-turn tables J_0 .. J_L, each read-only: J_l maps the
    degree-l coefficients of f to those of x -> f(R_y(pi/2) x), as a
    (2l+1, 2l+1) matrix indexed by order + l.  Built on first use, once per
    band limit, in 8 (L+1)(2L+1)(2L+3)/3 bytes (1.25 MB at band 48).

    They come from the Wigner matrices d^l(pi/2) by the recursion of
    Trapani & Navaza (Acta Cryst. A62 (2006) 262): the edge row
    d^l_{l,k} = (-1)^(l-k) 2^-l sqrt(C(2l, l+k)), as running products
    from k = 0, then rows m = l-1 .. 0 by

        sqrt((l-m)(l+m+1)) d_{m,k} = 2k d_{m+1,k} - sqrt((l-m-1)(l+m+2)) d_{m+2,k},

    run away from the edge, the direction in which it is stable, for all
    degrees at once.  Only m, k >= 0 are needed: R_y commutes with
    y -> -y, so J_l maps cosine orders to cosine orders and sine orders to
    sine orders, and by the symmetries of d(pi/2) the function map of
    Y_{l,m} onto Y_{l,k} is ((-1)^(m+k) + (-1)^l) d_{m,k} between cosine
    orders (over sqrt(2) for each order 0) and ((-1)^(m+k) - (-1)^l) d_{m,k}
    between sine orders m, k >= 1.  J_l is its transpose.
    """
    n = L + 1
    k = np.arange(n)
    T = np.zeros((n, n, n))  # [l, l - m, k] = d^l_{m,k}, zero for k > l
    centre = np.cumprod(np.append(1.0, -np.sqrt((2.0 * k[1:] - 1.0) / (2.0 * k[1:]))))
    ratio = np.sqrt(np.maximum(k[:, None] - k[1:] + 1.0, 0.0) / (k[:, None] + k[1:]))
    T[:, 0, 0] = centre
    T[:, 0, 1:] = centre[:, None] * np.cumprod(-ratio, axis=1)
    with np.errstate(invalid="ignore"):  # l < j, which the loop does not read
        rise = np.sqrt(k[:, None] * (2.0 * k - k[:, None] + 1.0))  # [j, l]
        fall = np.sqrt((k[:, None] - 1.0) * (2.0 * k - k[:, None] + 2.0))
    for j in range(1, n):
        row = 2.0 * k * T[j:, j - 1]
        if j >= 2:
            row -= fall[j, j:, None] * T[j:, j - 2]
        T[j:, j] = row / rise[j, j:, None]
    # the factors of d[m, k] in J's cosine and sine blocks, by the parity of l
    sign = (-1.0) ** np.add.outer(k, k)
    w = np.ones(n)
    w[0] = math.sqrt(0.5)
    cosine = [(sign + p) * np.outer(w, w) for p in (1.0, -1.0)]
    sine = [sign - p for p in (1.0, -1.0)]
    tables = []
    for l in range(n):
        d = T[l, l::-1, : l + 1]  # [m, k], m = 0..l
        J = np.zeros((2 * l + 1, 2 * l + 1))
        np.multiply(d.T, cosine[l % 2][: l + 1, : l + 1], out=J[l:, l:])
        np.multiply(d[:0:-1, :0:-1].T, sine[l % 2][l:0:-1, l:0:-1], out=J[:l, :l])
        tables.append(J)
    return _read_only(*tables)


def _frame_rotations(frames):
    """The (S, 3, 3) stack of ``frames`` (one 3x3 frame, or a stack),
    checked to be proper rotations: finite, columns of unit norm and
    pairwise orthogonal to 1e-12, determinant +1."""
    R = np.asarray(frames, dtype=float)
    if R.shape[-2:] != (3, 3):
        raise ValueError(f"rotation frames must be 3x3 matrices, got shape {R.shape}")
    R = R.reshape(-1, 3, 3)
    G = R.transpose(0, 2, 1) @ R
    i = np.arange(3)
    G[:, i, i] = np.sqrt(G[:, i, i])  # the column norms
    off = np.max(np.abs(G - np.eye(3)), axis=(1, 2))
    with np.errstate(invalid="ignore"):  # a frame with non-finite entries
        det = np.linalg.det(R)
    bad = np.flatnonzero(~(off <= 1e-12) | (det < 0.0))  # NaN entries fail too
    if bad.size:
        s = bad[0]
        raise ValueError(
            f"rotation frame {s} is not a proper rotation: its columns are {off[s]:.3e} "
            f"from orthonormal (at most 1e-12) and its determinant is {det[s]:.3f}"
        )
    return R


def _euler_zyz(R):
    """Angles (alpha, beta, gamma) with R = R_z(alpha) R_y(beta) R_z(gamma)
    for a stack of rotations R, beta in [0, pi].

    alpha is read from R's last column, (cos a sin b, sin a sin b, cos b),
    and beta and gamma from R_z(-alpha) R = R_y(beta) R_z(gamma), whose
    middle row is (sin g, cos g, 0) and whose last column is
    (sin b, 0, cos b).  gamma is thus read from a unit vector whatever
    beta is, so near beta = 0 or pi, where alpha is set by rounding, gamma
    takes up what alpha leaves, and the three angles give back R to
    rounding.
    """
    alpha = np.arctan2(R[:, 1, 2], R[:, 0, 2])
    ca, sa = np.cos(alpha)[:, None], np.sin(alpha)[:, None]
    top = ca * R[:, 0] + sa * R[:, 1]
    middle = ca * R[:, 1] - sa * R[:, 0]
    return alpha, np.arctan2(top[:, 2], R[:, 2, 2]), np.arctan2(middle[:, 0], middle[:, 1])


def rotate_rows(C, frames):
    """Coefficient rows of x -> f_s(frames[s] @ x), f_s the expansion in
    row s of ``C``, shape (S, (L+1)^2), for S proper rotations ``frames``
    of shape (S, 3, 3).  One row of shape ((L+1)^2,) with one frame of
    shape (3, 3) gives one row back.

    Each degree is rotated on its own, by D^l = Z(gamma - pi/2) J^T Z(beta)
    J Z(alpha + pi/2) with the ZYZ angles of the frame (``_euler_zyz``):
    R_y(beta) is R_z(pi/2) R_y(pi/2) R_z(beta) R_y(-pi/2) R_z(-pi/2).  J is
    the degree's quarter-turn table (``_quarter_turns``), which is
    orthogonal, and Z(a) the exact turn x -> R_z(a) x, which sends the
    order pair a_q cos(q phi) + b_q sin(q phi) to
    (a_q c + b_q s) cos(q phi) + (b_q c - a_q s) sin(q phi), c = cos(q a) and
    s = sin(q a): v * c + v[::-1] * s on the degree's coefficients v, with
    s negated on the sine orders.  That is O(L^3) per row.  A degree whose coefficients are
    zero in every row, such as the odd degrees of even densities, stays
    exactly zero and is skipped.  Each row is turned alone, and J is
    applied to it by its own matrix-vector product, so a row's result is
    bitwise the same alone or in any stack, its zero degrees +0.0 in both.
    A frame that is not a proper rotation raises ValueError
    (``_frame_rotations``).
    """
    C = np.asarray(C, dtype=float)
    single = C.ndim == 1
    C = np.atleast_2d(C)
    L = _rows_band_limit(C)
    R = _frame_rotations(frames)
    if len(R) != len(C):
        raise ValueError(f"{R.shape[0]} rotation frames for {C.shape[0]} expansions")
    alpha, beta, gamma = _euler_zyz(R)
    q = np.arange(-L, L + 1)
    turns = [
        (np.cos(np.abs(q) * a[:, None]), np.sign(q) * np.sin(np.abs(q) * a[:, None]))
        for a in (alpha + 0.5 * math.pi, beta, gamma - 0.5 * math.pi)
    ]
    J = _quarter_turns(L)
    out = np.zeros(C.shape)
    for l in range(L + 1):
        v = C[:, l * l : (l + 1) * (l + 1)]
        if not np.any(v):
            continue
        k = slice(L - l, L + l + 1)
        # Z(alpha + pi/2) then J, Z(beta) then J^T, and Z(gamma - pi/2)
        for (c, s), T in zip(turns, (J[l].T, J[l], None)):
            v = v * c[:, k] + v[:, ::-1] * s[:, k]
            if T is not None:
                v = np.matmul(v[:, None, :], T)[:, 0]
        # + 0.0 turns the -0.0 that a row zero in this degree may get into
        # the +0.0 it has when the degree is skipped
        np.add(v, 0.0, out=out[:, l * l : (l + 1) * (l + 1)])
    return out[0] if single else out


def ring_samples(C, frames, t, m, derivatives=False):
    """Expansion s at m equispaced longitudes on rings of its own frame.

    ``C`` holds S coefficient rows, shape (S, (L+1)^2), ``frames`` S proper
    rotations, shape (S, 3, 3), or None for none, and ``t`` the (R,) ring
    cosines; returns the (S, R, m) samples of row s at the points
    frames[s] @ (sin θ cos φ, sin θ sin φ, t), φ = 2 pi j / m, or with
    ``derivatives`` the three arrays (h, ∂θh, ∂φh) in that frame.

    Each row is turned by ``rotate_rows``.  On the ring cos θ = t a band-L
    expansion is sum_k B_k cos(k φ) + B'_k sin(k φ), k <= L: its ring sums,
    one einsum over the stack of the split orders (``_split_rows``) with
    Q_{l,k}(t) (``grid_legendre``'s table, cached by the ring cosines), and
    then one matmul each with the cos and sin halves of the cached
    ``longitude_table(L, m)``.  Every order is evaluated exactly at the m
    nodes, so no spectrum is folded, whether 2L < m or not.  ∂θ reads Q' of
    ``ring_theta_tables``, which rejects the poles, in place of Q, and ∂φ
    is the same matmul on (k B'_k, -k B_k).  The matmuls are batched over
    the stack, one product per row, so each value is summed in the same
    order whatever S is, and a row's samples are bitwise the same alone or
    in any stack.  The ring cosines are checked (``_ring_cosines``) where
    their tables are built, so a cached Q's passed that check.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"ring cosines must be a 1-D array, got shape {t.shape}")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"ring longitude count must be a positive integer, got {m!r}")
    rotated = np.asarray(C, dtype=float) if frames is None else rotate_rows(C, frames)
    L = _rows_band_limit(rotated)
    Ac, As = (A.reshape(-1, L + 1, L + 1) for A in _split_rows(rotated))
    tables = ring_theta_tables(L, t) if derivatives else (_grid_table(_ring_legendre, L, _table_key(t)),)
    sums = [(np.einsum("lmr,slm->srm", Q, Ac), np.einsum("lmr,slm->srm", Q, As)) for Q in tables]
    if derivatives:
        k = np.arange(L + 1)
        Bc, Bs = sums[0]
        sums.append((k * Bs, -k * Bc))
    cs = longitude_table(L, m)
    out = []
    for Bc, Bs in sums:
        V = Bc @ cs[: L + 1]
        V += Bs @ cs[L + 1 :]
        out.append(V)
    return tuple(out) if derivatives else out[0]


# ----------------------------------------------------------------------
# Transform multipliers
# ----------------------------------------------------------------------

def _multipliers(kernel, L):
    """The multipliers of degrees 0..L in closed form; odd degrees are zero.

    Funk: 2 pi P_l(0), with P_0(0) = 1 and P_l(0) = -(l-1)/l P_{l-2}(0).
    Cosine: 4 pi int_0^1 t P_l(t) dt, which is 2 pi at l = 0, pi/2 at
    l = 2, and follows lam_{l+2} = -(l-1)/(l+4) lam_l for even l >= 2.
    """
    if kernel not in ("funk", "cosine"):
        raise ValueError(f"unknown kernel {kernel!r}")
    lam = np.zeros(L + 1)
    if kernel == "funk":
        p0 = 1.0
        for l in range(0, L + 1, 2):
            if l:
                p0 *= -(l - 1.0) / l
            lam[l] = 2.0 * math.pi * p0
        return lam
    lam[0] = 2.0 * math.pi
    val = 0.5 * math.pi
    for l in range(2, L + 1, 2):
        lam[l] = val
        val *= -(l - 1.0) / (l + 4.0)
    return lam


@lru_cache(maxsize=None)
def multiplier_table(kernel, L):
    """Multipliers of degrees 0..L, cached per (kernel, L) as a read-only array."""
    lam = _multipliers(kernel, L)
    lam.flags.writeable = False
    return lam


def apply_multipliers(coeffs, lam):
    """Multiply every degree-l coefficient by lam[l]."""
    return HarmonicCoeffs(L=coeffs.L, c=coeffs.c * lam[coeffs.degrees()])


def _require_even(coeffs, what):
    frac = coeffs.odd_mass_fraction()
    if frac > ODD_MASS_TOL:
        raise ValueError(
            f"{what} requires an even input; odd-degree mass fraction {frac:.3e} "
            f"exceeds {ODD_MASS_TOL:.0e}"
        )


def inverse_cosine_transform(coeffs):
    """Solve C(w) = G for w coefficientwise (even, band-limited G)."""
    what = "inverse cosine transform"
    _require_even(coeffs, what)
    if coeffs.L > INVERSION_MAX_DEGREE:
        raise ValueError(
            f"{what} limited to band {INVERSION_MAX_DEGREE}, got {coeffs.L}"
        )
    lam = multiplier_table("cosine", coeffs.L)
    for l in range(0, coeffs.L + 1, 2):
        if abs(lam[l]) <= MULTIPLIER_FLOOR:
            raise ValueError(
                f"{what}: multiplier at degree {l} is {lam[l]:.3e}, "
                "below the invertibility floor"
            )
    degrees = coeffs.degrees()
    even = degrees % 2 == 0
    c = np.zeros_like(coeffs.c)
    c[even] = coeffs.c[even] / lam[degrees[even]]
    return HarmonicCoeffs(L=coeffs.L, c=c)


# ----------------------------------------------------------------------
# Plateau admissibility
# ----------------------------------------------------------------------

def check_plateau_caps(cap_u, cap_v, transition):
    """Reject cap pairs that are inadmissible for the plateau build."""
    if transition <= 0.0:
        raise ValueError("transition width must be positive")
    caps = [cap_u, cap_u.antipodal(), cap_v, cap_v.antipodal()]
    names = ["U", "-U", "V", "-V"]
    for i in range(4):
        for j in range(i + 1, 4):
            sep = caps[i].separation(caps[j])
            if sep < 2.0 * transition:
                raise ValueError(
                    f"caps {names[i]} and {names[j]} are separated by {sep:.4f} rad, "
                    f"need at least 2*transition = {2.0 * transition:.4f}"
                )
