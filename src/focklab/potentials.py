"""Potential data types and the canonical splitting used everywhere else.

A macroscopic potential Q acts at the droplet scale.  Near the origin it splits
canonically as Q = Q0 + Re H + Q1 where Q0 is positive definite and homogeneous of
degree 2k, k read off Q by detect_k, H is a holomorphic polynomial of degree <= 2k,
and Q1 = O(|z|^{2k+1}).  The microscopic model is V0 = Q0 - 2c log|z|.  Each rule
on a weight has one check, which every type and routine applies: an integer argument
(k, a coefficient index, a degree, J, n, N, sweeps, burn_in, seed, draws, and each
integer flag of the commands) is a Python or numpy integer, not a bool, at least its
least value, and is kept as a Python int (_check_int); a coefficient map
{(i, j): a_ij} is finite, Hermitian and has integer indices >= 0 (_check_coeff_map),
and is kept with Python complex values; a homogeneous part is positive definite
when its minimum on |z| = 1 is above 1e-10 times its largest coefficient
(_positive_definite); k >= 1 and -1 < c < inf (_check_exponents); a scale is finite
and > 0 (_check_scale); an n list names at least one integer n >= 1 (_check_n_list); so
has each input of a density (_check_points, _check_grid, _check_overflow), each rule
under the name its caller gives.
The evaluators of a weight, value, q_of_r and evaluate, give its value for any
input type, +inf or -inf past the largest double with the weight's own sign there
(_weight_value); the equilibrium mass r Q'(r)/2 of a radial weight and its slope
have their one evaluator in equilibrium.  All types are immutable values; all
operations are pure.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DivergenceError

__all__ = [
    "HomogeneousHermitianPoly",
    "MicroscopicPotential",
    "MacroscopicPotential",
    "CanonicalDecomposition",
    "detect_k",
    "canonical_decompose",
    "normalize_potential",
    "load_potential_config",
]

_PD_THRESHOLD = 1e-10  # see _positive_definite
_ANGULAR_SCAN = 512  # least scan of the circle; see _angular_minimum


def _angular_values(coeffs: dict[tuple[int, int], complex], theta: np.ndarray, order: int = 0) -> np.ndarray:
    """The order-th theta-derivative of sum a_ij e^{i(i-j)theta} (real for Hermitian coefficient maps)."""
    out = np.zeros_like(theta, dtype=float)
    for (i, j), a in coeffs.items():
        out += (a * (1j * (i - j)) ** order * np.exp(1j * (i - j) * theta)).real
    return out


def _angular_minimum(coeffs: dict[tuple[int, int], complex]) -> tuple[float, float]:
    """Global minimum of the angular profile: a scan, then Newton steps on q'/q'' until a step is
    below 1e-15 or q'' <= 0; the scan point is kept unless the refined point is lower.  The scan
    takes max(512, 4 max|i-j|) angles, so no frequency i-j aliases to a constant on it."""
    points = max(_ANGULAR_SCAN, 4 * max((abs(i - j) for i, j in coeffs), default=0))
    theta = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    q = _angular_values(coeffs, theta)
    i0 = int(np.argmin(q))
    t = theta[i0:i0 + 1]
    for _ in range(50):
        d2 = _angular_values(coeffs, t, 2)[0]
        if not d2 > 0:
            break
        step = _angular_values(coeffs, t, 1)[0] / d2
        t = t - step
        if abs(step) < 1e-15:
            break
    qt = float(_angular_values(coeffs, t)[0])
    if qt <= q[i0]:
        return float(t[0]), qt
    return float(theta[i0]), float(q[i0])


def _laplacian_coeffs(coeffs: dict[tuple[int, int], complex]) -> dict[tuple[int, int], complex]:
    """Coefficients of d/dz d/dzbar of sum a_ij z^i conj(z)^j."""
    out: dict[tuple[int, int], complex] = {}
    for (i, j), a in coeffs.items():
        if i >= 1 and j >= 1:
            out[(i - 1, j - 1)] = out.get((i - 1, j - 1), 0.0) + i * j * a
    return out


def _check_int(value, what: str, least: int = 0):
    """An integer argument: a Python or numpy integer, not a bool, and >= least, returned as a Python int; an
    array or a list is checked element by element and returned as a numpy array (of ints if it is empty)."""
    if type(value) is int and value >= least:
        return value
    a = np.asarray(value, dtype=object)  # each element keeps its type: np.asarray([True, 2]) would make True 1
    if a.ndim:
        for v in a.flat:
            _check_int(v, what, least)
        return np.asarray(value, dtype=None if a.size else int)
    v = a.item()
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= least:
        return int(v)
    raise ConfigError(f"{what} must be an integer >= {least}, got {value!r}")


def _check_scale(value, what: str):
    """A positive scale (an amplitude, a radius r_n, a bin edge): finite and > 0, returned as given; what names it."""
    if not 0 < value < math.inf:
        raise ConfigError(f"{what} must be finite and > 0, got {value}")
    return value


def _check_n_list(n_list, what: str, each: str | None = None) -> np.ndarray:
    """At least one integer n >= 1, as a 1-d array in the given order; what names the list, each (default
    "each n in <what>") an n in it."""
    n = np.ravel(_check_int(n_list, each or f"each n in {what}", 1))
    if not n.size:
        raise ConfigError(f"{what} must name at least one n")
    return n


def _check_exponents(c: float, k: int = 1, what: str = "c") -> int:
    """k as an int >= 1, and -1 < c < inf: the ranges of V0 = Q0 - 2c log|z| with Q0 of degree 2k; what names c."""
    k = _check_int(k, "k", 1)
    if not -1 < c < math.inf:
        raise ConfigError(f"{what} must be finite and > -1, got {c}")
    return k


def _check_coeff_map(coeffs: dict[tuple[int, int], complex]) -> dict[tuple[int, int], complex]:
    """A map {(i, j): a_ij} that is finite, has integer indices >= 0 and is Hermitian, a_ji = conj(a_ij), as
    {(int, int): complex}."""
    if not all(map(cmath.isfinite, coeffs.values())):
        raise ConfigError(f"coefficients must be finite, got {coeffs}")
    coeffs = {(_check_int(i, "coefficient index"), _check_int(j, "coefficient index")): a
              for (i, j), a in coeffs.items()}
    scale = max(map(abs, coeffs.values()), default=0.0)
    for (i, j), a in coeffs.items():
        b = coeffs.get((j, i), 0.0)
        if abs(a - b.conjugate()) > 1e-12 * max(1.0, scale):
            raise ConfigError(f"coefficients not Hermitian: a[{i},{j}]={a} vs conj(a[{j},{i}])={b}")
    return {ij: complex(a) for ij, a in coeffs.items()}


def _check_points(c: float, z) -> np.ndarray:
    """The points z of a density with charge c as an array: finite, and not 0 when c < 0, where |z|^{2c} diverges."""
    z = np.asarray(z)
    if not np.isfinite(z).all():
        raise ConfigError("points must be finite")
    if c < 0 and np.count_nonzero(z) < z.size:
        raise DivergenceError("density diverges at z = 0 for c < 0")
    return z


def _check_grid(edges, what: str, least: int = 2) -> np.ndarray:
    """A radial grid as floats: one axis of at least `least` finite radii >= 0, strictly increasing."""
    g = np.asarray(edges, dtype=float)
    if g.ndim != 1 or g.size < least or not np.isfinite(g).all() or g[0] < 0 or np.any(np.diff(g) <= 0):
        raise ConfigError(f"{what} must be one axis of at least {least} finite radii >= 0, strictly increasing")
    return g


def _check_overflow(values: np.ndarray, what: str = "series overflow: the density") -> np.ndarray:
    """Values of a density, or of what, under np.errstate(over="ignore"); refused if one passed the largest double."""
    if np.isinf(values).any():
        raise DivergenceError(f"{what} passes the largest double")
    return values


def _log_power(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """p ln x, broadcast, with 0 ln 0 = 0: the log of x^p, also at x = 0, on the principal branch for complex x.

    Call under np.errstate(divide="ignore"), and for complex x also invalid="ignore".
    """
    ln_x = np.log(x)
    return np.multiply(p, ln_x, out=np.zeros(np.broadcast(p, ln_x).shape, ln_x.dtype), where=p != 0)


def _weight_value(coeffs: dict[tuple[int, int], complex], z, radial: bool = False):
    """The weight Re sum a_ij z^i conj(z)^j of coeffs at a point z, or of a radial map at a radius z, sum a_mm z^{2m}.

    z is a Python or numpy scalar, a float for a radius and complex for a
    point, or an array of that dtype: a float for a scalar, elementwise on
    an array.  The direct sum is kept where it is finite.  Past the largest
    double a Python power raises OverflowError, and numpy terms give inf, or
    inf - inf = NaN where their signs differ; only those entries are
    recomputed (_far_value), with no warning, so finite ones keep the direct
    sum's bits.
    """
    def direct(z):
        if radial:
            return sum(a.real * z ** (i + j) for (i, j), a in coeffs.items())
        return sum(a * z**i * z.conjugate() ** j for (i, j), a in coeffs.items()).real

    kind = float if radial else complex
    if np.ndim(z) == 0:
        try:
            v = direct(kind(z))
        except OverflowError:
            v = math.nan
        return v if math.isfinite(v) else float(_far_value(coeffs, np.array([kind(z)]))[0])
    z = np.asarray(z, dtype=kind)
    with np.errstate(over="ignore", invalid="ignore"):
        v = direct(z)
    # v.v is finite only if every entry is; a finite v past 1e154 only costs the scan
    if not math.isfinite(np.vdot(v, v)):
        far = ~np.isfinite(v)
        v[far] = _far_value(coeffs, z[far])
    return v


def _far_value(coeffs: dict[tuple[int, int], complex], z: np.ndarray) -> np.ndarray:
    """Re sum a_ij z^i conj(z)^j on a 1-d array, as a signed sum over degrees in base-2 log space.

    With A_d(theta) = Re sum_{i+j=d} a_ij e^{i(i-j)theta} and |z| = mu 2^e
    (np.frexp), the weight is sum_d A_d mu^d 2^{de}.  Each A_d mu^d is
    phi_d 2^{x_d} (A_d split by np.frexp and mu^d by _frexp_power, so no
    product underflows), so it is 2^E sum_d phi_d 2^{x_d+de-E} with E the largest
    exponent of a nonzero term.  Every scale is an exact power of two, and
    only terms below 2^{E-1074} underflow; np.ldexp gives +-inf with the
    sum's sign past the largest double.  A NaN point, or an infinite one
    where terms of both signs meet, gives +inf.
    """
    degrees = sorted({i + j for i, j in coeffs})
    deg = np.array(degrees, dtype=np.int64)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        mu, e = np.frexp(np.abs(z))
        amp, xa = np.frexp([_angular_values({ij: a for ij, a in coeffs.items() if sum(ij) == d}, np.angle(z))
                            for d in degrees])
        mu_d, xm = _frexp_power(mu, deg)
        phi, xp = np.frexp(amp * mu_d)
        x = np.where(phi != 0, xa + xm + xp + deg * e, np.iinfo(np.int64).min // 2)
        top = x.max(axis=0)
        return np.fmin(np.ldexp(np.ldexp(phi, x - top).sum(axis=0), top), np.inf)


def _frexp_power(mu: np.ndarray, deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mu**deg for mu in [0.5, 1) and integers deg >= 0, broadcast, as np.frexp's (mantissa, exponent).

    mu**deg = mu**(deg % 1000) (mu**1000)**(deg // 1000): a power of mu up
    to 1000 is at least 2^-1000, so none underflows, and the mantissa of
    mu**1000 is raised to deg // 1000 the same way.
    """
    m, x = np.frexp(mu ** (deg % 1000))
    if np.any(deg >= 1000):
        m_k, x_k = np.frexp(mu ** 1000)
        m_q, x_q = _frexp_power(m_k, deg // 1000)
        m, x_m = np.frexp(m * m_q)
        x = x + x_m + x_q + x_k * (deg // 1000)
    return m, x


def _positive_definite(part: dict[tuple[int, int], complex]) -> bool:
    """Whether a homogeneous part's minimum on |z| = 1 is above _PD_THRESHOLD times its largest coefficient."""
    # a diagonal part is the one term a_mm |z|^{2m}, whose minimum is Re a_mm
    q_min = sum(part.values()).real if all(i == j for i, j in part) else _angular_minimum(part)[1]
    return q_min > _PD_THRESHOLD * max(map(abs, part.values()), default=0.0)


def _validated(typename: str, field_names: str) -> type:
    """A named tuple for a subclass whose __new__ checks the fields; its _make, so also _replace, calls the subclass."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base


class HomogeneousHermitianPoly(_validated("HomogeneousHermitianPoly", "degree coeffs")):
    """Real-valued homogeneous polynomial sum a_ij z^i conj(z)^j, i+j = degree."""

    __slots__ = ()

    def __new__(cls, degree: int, coeffs: dict[tuple[int, int], complex]):
        degree = _check_int(degree, "degree")
        if degree % 2 != 0:
            raise ConfigError(f"degree must be a nonnegative even integer, got {degree}")
        coeffs = _check_coeff_map(coeffs)
        for i, j in coeffs:
            if i + j != degree:
                raise ConfigError(f"coefficient ({i},{j}) has total degree != {degree}")
        return super().__new__(cls, degree, coeffs)

    def evaluate(self, z):
        """Value at z: float for a scalar, elementwise on an array; +-inf past the largest double."""
        return _weight_value(self.coeffs, z)

    def angular_profile(self, theta: np.ndarray) -> np.ndarray:
        """Values on the unit circle, q(theta) = value at e^{i theta}."""
        return _angular_values(self.coeffs, np.asarray(theta, dtype=float))

    def angular_minimum(self) -> tuple[float, float]:
        return _angular_minimum(self.coeffs)

    def laplacian(self) -> "HomogeneousHermitianPoly":
        """d/dz d/dzbar of the polynomial (degree drops by 2)."""
        return HomogeneousHermitianPoly(max(self.degree - 2, 0), _laplacian_coeffs(self.coeffs))


class MicroscopicPotential(_validated("MicroscopicPotential", "k c q0")):
    """V0 = Q0 - 2c log|z| with Q0 positive definite homogeneous of degree 2k."""

    __slots__ = ()

    def __new__(cls, k: int, c: float, q0: HomogeneousHermitianPoly):
        k = _check_exponents(c, k)
        if q0.degree != 2 * k:
            raise ConfigError(f"q0 degree {q0.degree} != 2k = {2 * k}")
        if not _positive_definite(q0.coeffs):
            theta_min, q_min = q0.angular_minimum()
            raise ConfigError(f"q0 not positive definite: min over the circle = {q_min:.3e} at theta={theta_min:.6f}")
        return super().__new__(cls, k, c, q0)

    @property
    def is_radial(self) -> bool:
        return all(ij == (self.k, self.k) for ij, a in self.q0.coeffs.items() if a != 0)

    @property
    def amplitude(self) -> float:
        """Radial amplitude a in Q0 = a r^{2k}; equals the angular mean for radial q0."""
        return float(np.real(self.q0.coeffs.get((self.k, self.k), 0.0)))


class MacroscopicPotential(_validated("MacroscopicPotential", "kind c radial_coeffs hermitian_coeffs")):
    """Droplet-scale potential Q = Re sum a_ij z^i conj(z)^j with origin charge c (h0 = 0 in this package).

    Spelled radially, radial_coeffs={m: q_m} is Q(r) = sum q_m r^{2m}, or as
    hermitian_coeffs={(i, j): a_ij}.  Either way Q keeps one coefficient map of
    nonzero terms, hermitian_coeffs, with no constant term and a positive
    definite top-degree part.  kind is "radial" when every term is some
    |z|^{2m}, with radial_coeffs = {m: Re a_mm}; else kind is "hermitian", radial_coeffs None.
    """

    __slots__ = ()

    def __new__(cls, kind: str, c: float = 0.0, radial_coeffs: dict[int, float] | None = None,
                hermitian_coeffs: dict[tuple[int, int], complex] | None = None):
        if kind not in ("radial", "hermitian"):
            raise ConfigError(f"kind must be 'radial' or 'hermitian', got {kind!r}")
        _check_exponents(c)
        spelled = radial_coeffs if kind == "radial" else hermitian_coeffs
        if not spelled or radial_coeffs and hermitian_coeffs:
            raise ConfigError(f"a {kind} potential needs {kind}_coeffs and no other coefficients")
        if kind == "radial":
            spelled = {(m, m): q for m, q in spelled.items()}
        taylor = {ij: a for ij, a in spelled.items() if a != 0}  # a NaN term stays and is refused
        taylor = _check_coeff_map(taylor)
        if not taylor or (0, 0) in taylor:
            raise ConfigError("potential needs a nonzero term and must vanish at 0 (no constant term)")
        top_deg = max(i + j for i, j in taylor)
        if not _positive_definite({(i, j): a for (i, j), a in taylor.items() if i + j == top_deg}):
            raise ConfigError("leading homogeneous part must be positive definite (growth)")
        if all(i == j for i, j in taylor):
            return super().__new__(cls, "radial", c, {i: a.real for (i, _), a in taylor.items()}, taylor)
        return super().__new__(cls, "hermitian", c, None, taylor)

    @classmethod
    def _make(cls, fields):
        """Q from its fields, as _replace gives them: a radial Q spells its terms twice, is built from radial_coeffs,
        and is refused unless hermitian_coeffs spells the same terms."""
        kind, c, radial_coeffs, hermitian_coeffs = fields
        Q = cls(kind, c, radial_coeffs, None if kind == "radial" else hermitian_coeffs)
        if kind == "radial" and hermitian_coeffs is not None and Q != cls("hermitian", c, None, hermitian_coeffs):
            raise ConfigError("radial_coeffs and hermitian_coeffs of a radial potential spell different terms")
        return Q

    def __getnewargs__(self):
        """A copy or an unpickled Q is built from hermitian_coeffs, which spells every Q and gives back its fields."""
        return "hermitian", self.c, None, self.hermitian_coeffs

    # --- evaluation ---------------------------------------------------

    def value(self, zeta: complex | np.ndarray) -> float | np.ndarray:
        """Q(zeta) without the charge; float in, float out, arrays elementwise, +-inf past the largest double."""
        return self.q_of_r(np.abs(zeta)) if self.kind == "radial" else _weight_value(self.hermitian_coeffs, zeta)

    def q_of_r(self, r: float | np.ndarray) -> float | np.ndarray:
        """Q(r) = sum q_m r^{2m}; float in, float out, arrays elementwise; +-inf as in value."""
        self._require_radial()
        return _weight_value(self.hermitian_coeffs, r, radial=True)

    def scaled(self, factor: float) -> "MacroscopicPotential":
        """factor * Q at the same charge."""
        return MacroscopicPotential("hermitian", self.c, hermitian_coeffs={
            ij: factor * a for ij, a in self.hermitian_coeffs.items()})

    def _require_radial(self) -> None:
        if self.kind != "radial":
            raise ConfigError("operation requires a radial potential")

    def _check_charge(self, c: float) -> None:
        """Refuse a charge argument other than Q.c: the charge is part of the potential, V_n = Q - 2(c/n) log|z|."""
        if c != self.c:
            raise ConfigError(f"charge argument c={c!r} differs from the potential's charge Q.c={self.c!r}")


class CanonicalDecomposition(NamedTuple):
    """Q = Q0 + Re H + Q1 with H holomorphic of degree <= 2k and Q1 = O(|z|^{2k+1})."""

    q0: MicroscopicPotential
    h_coeffs: dict[int, complex]
    q1_coeffs: dict[tuple[int, int], complex]


def detect_k(Q: MacroscopicPotential) -> int:
    """Smallest k with a nonzero, positive definite degree-(2k-2) leading part of Delta Q."""
    lap = _laplacian_coeffs(Q.hermitian_coeffs)  # no zero terms, never empty: Q's top part has mean a_mm > 0
    d = min(i + j for i, j in lap)
    leading = {(i, j): a for (i, j), a in lap.items() if i + j == d}
    if d % 2 != 0 or not _positive_definite(leading):
        raise ConfigError("indefinite leading part of Delta Q at 0")
    return d // 2 + 1


def canonical_decompose(Q: MacroscopicPotential) -> CanonicalDecomposition:
    """Split Q at its k = detect_k(Q) into Q0 (homogeneous 2k, mixed terms), Re H (pure terms), and Q1."""
    k = detect_k(Q)
    h_coeffs: dict[int, complex] = {}
    q0_coeffs: dict[tuple[int, int], complex] = {}
    q1_coeffs: dict[tuple[int, int], complex] = {}
    for (i, j), a in Q.hermitian_coeffs.items():
        deg = i + j
        if deg <= 2 * k and j == 0:
            h_coeffs[i] = 2.0 * a
        elif deg <= 2 * k and i == 0:
            continue  # conjugate partner of a pure term, carried by Re H
        elif deg == 2 * k:
            q0_coeffs[(i, j)] = a
        else:  # degree > 2k: detect_k reads k off the lowest-degree mixed terms
            q1_coeffs[(i, j)] = a
    q0 = MicroscopicPotential(k=k, c=Q.c, q0=HomogeneousHermitianPoly(2 * k, q0_coeffs))
    return CanonicalDecomposition(q0=q0, h_coeffs=h_coeffs, q1_coeffs=q1_coeffs)


def normalize_potential(
    Q: MacroscopicPotential, k: int, c: float | None = None
) -> tuple[MacroscopicPotential, float]:
    """Scale Q so its degree-2k part satisfies the microscopic normalization at the charge c = Q.c.

    Returns (lam * Q, lam) with lam = (1+c) k ((k-1)!)^2 / Delta^k Q0(0),
    which reduces to (1+c)/(k a_kk) for the mixed-diagonal coefficient a_kk,
    the circle mean of the positive definite Q0 and so > 0.  After scaling
    the micro-amplitude a_kk becomes (1+c)/k.  Like c, k may only repeat Q's own.
    """
    if c is not None:
        Q._check_charge(c)
    k, p = _check_int(k, "k", 1), canonical_decompose(Q).q0
    if k != p.k:
        raise ConfigError(f"k argument k={k!r} differs from the potential's k={p.k} (detect_k)")
    lam = (1.0 + Q.c) / (k * p.amplitude)
    return Q.scaled(lam), lam


# --- config files -------------------------------------------------------


# layout and entry kinds of each config row: i an integer, x a finite number
_ROWS = {
    "radial_coeffs": ("[m, q_m]", "ix"),
    "hermitian_coeffs": ("[i, j, re, im]", "iixx"),
}
_KEYS = {"kind", "c", "k", *_ROWS}


def _row(row, kinds: str, what: str) -> list:
    """The numbers of one config row, by kinds; ConfigError on a wrong width, a non-number or a non-integer index."""
    if not (isinstance(row, list) and len(row) == len(kinds)):
        raise ConfigError(f"bad {what}: expected {len(kinds)} numbers")
    out = []
    for x, kind in zip(row, kinds):
        try:
            v = math.nan if isinstance(x, bool) or not isinstance(x, (int, float)) else float(x)
        except OverflowError:  # an integer beyond the float range
            v = math.inf
        if not math.isfinite(v) or kind == "i" and not v.is_integer():
            raise ConfigError(f"bad {what}: {x!r} is not {'an integer' if kind == 'i' else 'a finite number'}")
        out.append(int(v) if kind == "i" else v)
    return out


def _rows(doc: dict, key: str) -> list[list]:
    """The rows of doc[key] (default none), each read by _row."""
    layout, kinds = _ROWS[key]
    rows = doc.get(key, [])
    if not isinstance(rows, list):
        raise ConfigError(f"{key} must be a list of {layout} rows, got {rows!r}")
    return [_row(row, kinds, f"{key} row {row!r} ({layout})") for row in rows]


def load_potential_config(source: str | Path | dict) -> MacroscopicPotential:
    """Build a MacroscopicPotential from a JSON config file or a parsed dict.

    Schema: {"kind": "radial"|"hermitian", "c": float,
             "radial_coeffs": [[m, q_m], ...] or
             "hermitian_coeffs": [[i, j, re, im], ...], "k": optional int}
    Any other key, and the coefficients key of the other kind, is
    refused.  Powers and indices are integers, every
    number is finite, and rows with the same power or index add up.  As
    in MacroscopicPotential, zero rows drop out and a config whose terms
    are all |z|^{2i} is radial in either spelling.  A stated "k" is
    validated against detect_k.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            doc = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read potential config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"potential config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("potential config must be a JSON object")
    unknown = sorted(map(str, set(doc) - _KEYS))
    if unknown:
        raise ConfigError(f"unknown potential config keys {unknown}; allowed are {sorted(_KEYS)}")
    kind = doc.get("kind")
    (c,) = _row([doc.get("c", 0.0)], "x", "c")
    if kind not in ("radial", "hermitian"):
        raise ConfigError(f"config kind must be 'radial' or 'hermitian', got {kind!r}")
    other = "hermitian_coeffs" if kind == "radial" else "radial_coeffs"
    if other in doc:
        raise ConfigError(f"a {kind} config spells its terms in {kind}_coeffs and takes no {other}")
    if kind == "radial":
        coeffs: dict[int, float] = {}
        for m, q in _rows(doc, "radial_coeffs"):
            coeffs[m] = coeffs.get(m, 0.0) + q
        pot = MacroscopicPotential(kind="radial", c=c, radial_coeffs=coeffs)
    else:
        hcoeffs: dict[tuple[int, int], complex] = {}
        for i, j, re, im in _rows(doc, "hermitian_coeffs"):
            hcoeffs[(i, j)] = hcoeffs.get((i, j), 0.0) + complex(re, im)
        hcoeffs |= {(j, i): a.conjugate() for (i, j), a in hcoeffs.items() if (j, i) not in hcoeffs}
        pot = MacroscopicPotential(kind="hermitian", c=c, hermitian_coeffs=hcoeffs)
    if doc.get("k") is not None:
        (stated,) = _row([doc["k"]], "i", "k")
        found = detect_k(pot)
        if stated != found:
            raise ConfigError(f"config states k={stated} but the potential has k={found}")
    return pot
