"""Potential data types and the canonical splitting used everywhere else.

A macroscopic potential Q acts at the droplet scale.  Near the origin it
splits canonically as Q = Q0 + Re H + Q1 where Q0 is positive definite and
homogeneous of degree 2k, H is a holomorphic polynomial of degree <= 2k,
and Q1 = O(|z|^{2k+1}).  The microscopic model is V0 = Q0 - 2c log|z|.
All types are immutable value objects; all operations are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = [
    "HomogeneousHermitianPoly",
    "MicroscopicPotential",
    "Spectator",
    "MacroscopicPotential",
    "CanonicalDecomposition",
    "detect_k",
    "canonical_decompose",
    "normalize_potential",
    "kappa_shift",
    "load_potential_config",
]

# positive-definiteness threshold for the angular minimum of Q0 on |z| = 1
_PD_THRESHOLD = 1e-10
_ANGULAR_SCAN = 512


def _angular_values(coeffs: dict[tuple[int, int], complex], theta: np.ndarray, order: int = 0) -> np.ndarray:
    """The order-th theta-derivative of sum a_ij e^{i(i-j)theta} (real for Hermitian coefficient maps)."""
    out = np.zeros_like(theta, dtype=float)
    for (i, j), a in coeffs.items():
        out += (a * (1j * (i - j)) ** order * np.exp(1j * (i - j) * theta)).real
    return out


def _angular_minimum(coeffs: dict[tuple[int, int], complex]) -> tuple[float, float]:
    """Global minimum of the angular profile: 512-point scan plus Newton refinement.

    Newton steps on q'/q'' start from the scan minimum and stop once a step
    falls below 1e-15 or q'' <= 0; the scan point is kept unless the
    refined point is lower.
    """
    theta = np.linspace(0.0, 2 * np.pi, _ANGULAR_SCAN, endpoint=False)
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


def _hermitian_value(coeffs: dict[tuple[int, int], complex], z):
    """Re sum a_ij z^i conj(z)^j: float for a scalar z, elementwise on an array."""
    z = np.asarray(z, dtype=complex) if np.ndim(z) else complex(z)
    v = sum(a * z**i * np.conj(z) ** j for (i, j), a in coeffs.items()).real
    return v if isinstance(v, np.ndarray) else float(v)


def _laplacian_coeffs(coeffs: dict[tuple[int, int], complex]) -> dict[tuple[int, int], complex]:
    """Coefficients of d/dz d/dzbar of sum a_ij z^i conj(z)^j."""
    out: dict[tuple[int, int], complex] = {}
    for (i, j), a in coeffs.items():
        if i >= 1 and j >= 1:
            out[(i - 1, j - 1)] = out.get((i - 1, j - 1), 0.0) + i * j * a
    return out


def _check_hermitian(coeffs: dict[tuple[int, int], complex]) -> None:
    scale = max((abs(a) for a in coeffs.values()), default=0.0)
    for (i, j), a in coeffs.items():
        b = coeffs.get((j, i), 0.0)
        if abs(a - np.conj(b)) > 1e-12 * max(1.0, scale):
            raise ConfigError(
                f"coefficients not Hermitian: a[{i},{j}]={a} vs conj(a[{j},{i}])={b}"
            )


@dataclass(frozen=True)
class HomogeneousHermitianPoly:
    """Real-valued homogeneous polynomial sum a_ij z^i conj(z)^j, i+j = degree."""

    degree: int
    coeffs: dict[tuple[int, int], complex]

    def __post_init__(self) -> None:
        if self.degree < 0 or self.degree % 2 != 0:
            raise ConfigError(f"degree must be a nonnegative even integer, got {self.degree}")
        for (i, j), a in self.coeffs.items():
            if i < 0 or j < 0 or i + j != self.degree:
                raise ConfigError(f"coefficient ({i},{j}) has total degree != {self.degree}")
        _check_hermitian(self.coeffs)

    def evaluate(self, z):
        """Value at z: float for a scalar, elementwise on an array."""
        return _hermitian_value(self.coeffs, z)

    def angular_profile(self, theta: np.ndarray) -> np.ndarray:
        """Values on the unit circle, q(theta) = value at e^{i theta}."""
        return _angular_values(self.coeffs, np.asarray(theta, dtype=float))

    def angular_minimum(self) -> tuple[float, float]:
        return _angular_minimum(self.coeffs)

    def is_positive_definite(self) -> bool:
        return self.angular_minimum()[1] > _PD_THRESHOLD

    def laplacian(self) -> "HomogeneousHermitianPoly":
        """d/dz d/dzbar of the polynomial (degree drops by 2)."""
        return HomogeneousHermitianPoly(max(self.degree - 2, 0), _laplacian_coeffs(self.coeffs))

    def scaled(self, factor: float) -> "HomogeneousHermitianPoly":
        return HomogeneousHermitianPoly(
            self.degree, {ij: factor * a for ij, a in self.coeffs.items()}
        )


@dataclass(frozen=True)
class MicroscopicPotential:
    """V0 = Q0 - 2c log|z| with Q0 positive definite homogeneous of degree 2k."""

    k: int
    c: float
    q0: HomogeneousHermitianPoly

    def __post_init__(self) -> None:
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ConfigError(f"k must be an integer >= 1, got {self.k}")
        if not self.c > -1:
            raise ConfigError(f"c must be > -1, got {self.c}")
        if self.q0.degree != 2 * self.k:
            raise ConfigError(f"q0 degree {self.q0.degree} != 2k = {2 * self.k}")
        theta_min, q_min = self.q0.angular_minimum()
        if not q_min > _PD_THRESHOLD:
            raise ConfigError(
                f"q0 not positive definite: min over the circle = {q_min:.3e} at theta={theta_min:.6f}"
            )

    @property
    def kappa(self) -> complex:
        """Coefficient of the pure z^{2k} term; 0 when the no-pure-term condition holds."""
        return complex(self.q0.coeffs.get((2 * self.k, 0), 0.0))

    @property
    def is_radial(self) -> bool:
        return all(
            (i, j) == (self.k, self.k) or abs(a) == 0.0 for (i, j), a in self.q0.coeffs.items()
        )

    @property
    def amplitude(self) -> float:
        """Radial amplitude a in Q0 = a r^{2k}; equals the angular mean for radial q0."""
        return float(np.real(self.q0.coeffs.get((self.k, self.k), 0.0)))

    def evaluate(self, z):
        return self.q0.evaluate(z)


@dataclass(frozen=True)
class Spectator:
    """Fixed point charge: contributes 2 cj log|z - position| to h."""

    position: complex
    charge: float

    def __post_init__(self) -> None:
        if self.position == 0:
            raise ConfigError("spectator position must be nonzero")
        if not self.charge > -1:
            raise ConfigError(f"spectator charge must be > -1, got {self.charge}")


@dataclass(frozen=True)
class MacroscopicPotential:
    """Droplet-scale potential: radial Q(r) = sum q_m r^{2m} or a Hermitian Taylor model.

    Carries the origin charge c and any spectator charges; the smooth
    perturbation h0 is identically zero in this package.
    """

    kind: str
    c: float = 0.0
    radial_coeffs: dict[int, float] | None = None
    hermitian_coeffs: dict[tuple[int, int], complex] | None = None
    spectators: tuple[Spectator, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in ("radial", "hermitian"):
            raise ConfigError(f"kind must be 'radial' or 'hermitian', got {self.kind!r}")
        if not self.c > -1:
            raise ConfigError(f"c must be > -1, got {self.c}")
        if self.kind == "radial":
            if not self.radial_coeffs:
                raise ConfigError("radial potential needs radial_coeffs")
            if self.hermitian_coeffs:
                raise ConfigError("radial potential must not carry hermitian_coeffs")
            for m, q in self.radial_coeffs.items():
                if not (isinstance(m, int) and m >= 1):
                    raise ConfigError(f"radial power index must be an integer >= 1, got {m}")
            top = max(self.radial_coeffs)
            if not self.radial_coeffs[top] > 0:
                raise ConfigError("leading radial coefficient must be positive (growth)")
        else:
            if not self.hermitian_coeffs:
                raise ConfigError("hermitian potential needs hermitian_coeffs")
            if self.radial_coeffs:
                raise ConfigError("hermitian potential must not carry radial_coeffs")
            for (i, j), a in self.hermitian_coeffs.items():
                if i < 0 or j < 0:
                    raise ConfigError(f"bad coefficient index ({i},{j})")
                if i == j == 0 and abs(a) > 0:
                    raise ConfigError("potential must vanish at 0 (no constant term)")
            _check_hermitian(self.hermitian_coeffs)
            top_deg = max(i + j for (i, j), a in self.hermitian_coeffs.items() if abs(a) > 0)
            top = {
                (i, j): a for (i, j), a in self.hermitian_coeffs.items() if i + j == top_deg
            }
            if top_deg % 2 != 0 or not _angular_minimum(top)[1] > _PD_THRESHOLD:
                raise ConfigError("leading homogeneous part must be positive definite (growth)")
        positions = [s.position for s in self.spectators]
        if len(set(positions)) != len(positions):
            raise ConfigError("spectator positions must be distinct")

    # --- evaluation ---------------------------------------------------

    def value(self, zeta: complex | np.ndarray) -> float | np.ndarray:
        """Q(zeta), the smooth part only (no charges); float in, float out, arrays elementwise."""
        if self.kind == "radial":
            return self.q_of_r(abs(zeta))
        return _hermitian_value(self.hermitian_coeffs, zeta)

    def q_of_r(self, r: float | np.ndarray) -> float | np.ndarray:
        """Q(r) = sum q_m r^{2m}; like the two below, float in, float out, arrays elementwise."""
        self._require_radial()
        v = sum(q * r ** (2 * m) for m, q in self.radial_coeffs.items())
        return v if isinstance(v, np.ndarray) else float(v)

    def dq_dr(self, r: float | np.ndarray) -> float | np.ndarray:
        self._require_radial()
        v = sum(q * 2 * m * r ** (2 * m - 1) for m, q in self.radial_coeffs.items())
        return v if isinstance(v, np.ndarray) else float(v)

    def laplacian_radial(self, r: float | np.ndarray) -> float | np.ndarray:
        """Delta Q with Delta = d/dz d/dzbar: sum q_m m^2 r^{2m-2}."""
        self._require_radial()
        v = sum(q * m * m * r ** (2 * m - 2) for m, q in self.radial_coeffs.items())
        return v if isinstance(v, np.ndarray) else float(v)

    def spectator_log_weight(self, zeta: complex | np.ndarray) -> float | np.ndarray:
        """h(zeta) = sum 2 cj log|zeta - aj| (0 when there are no spectators).

        On a spectator it is -inf for a positive charge and +inf otherwise;
        float in, float out, arrays elementwise.
        """
        z = np.asarray(zeta, dtype=complex)
        total = np.zeros(z.shape)
        with np.errstate(divide="ignore"):
            for s in self.spectators:
                d = np.abs(z - complex(s.position))
                total += np.where(d == 0.0, -math.inf if s.charge > 0 else math.inf,
                                  2.0 * s.charge * np.log(d))
        return total if total.ndim else float(total)

    def taylor_coeffs(self) -> dict[tuple[int, int], complex]:
        if self.kind == "radial":
            return {(m, m): complex(q) for m, q in self.radial_coeffs.items()}
        return dict(self.hermitian_coeffs)

    def scaled(self, factor: float) -> "MacroscopicPotential":
        """factor * Q with charges untouched."""
        if self.kind == "radial":
            return MacroscopicPotential(
                kind="radial",
                c=self.c,
                radial_coeffs={m: factor * q for m, q in self.radial_coeffs.items()},
                spectators=self.spectators,
            )
        return MacroscopicPotential(
            kind="hermitian",
            c=self.c,
            hermitian_coeffs={ij: factor * a for ij, a in self.hermitian_coeffs.items()},
            spectators=self.spectators,
        )

    def _require_radial(self) -> None:
        if self.kind != "radial":
            raise ConfigError("operation requires a radial potential")


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Q = Q0 + Re H + Q1 with H holomorphic of degree <= 2k and Q1 = O(|z|^{2k+1})."""

    q0: MicroscopicPotential
    h_coeffs: dict[int, complex]
    q1_coeffs: dict[tuple[int, int], complex]


def detect_k(Q: MacroscopicPotential) -> int:
    """Smallest k with a nonzero, positive definite degree-(2k-2) leading part of Delta Q."""
    lap = _laplacian_coeffs(Q.taylor_coeffs())
    degrees = sorted({i + j for (i, j), a in lap.items() if abs(a) > 0})
    if not degrees:
        raise ConfigError("Delta Q vanishes at 0 to the available order")
    d = degrees[0]
    leading = {(i, j): a for (i, j), a in lap.items() if i + j == d}
    if d % 2 != 0 or not _angular_minimum(leading)[1] > _PD_THRESHOLD:
        raise ConfigError("indefinite leading part of Delta Q at 0")
    return d // 2 + 1


def canonical_decompose(Q: MacroscopicPotential, k: int) -> CanonicalDecomposition:
    """Split Q into Q0 (homogeneous 2k, mixed terms), Re H (pure terms), and Q1."""
    taylor = Q.taylor_coeffs()
    max_deg = max((i + j for (i, j), a in taylor.items() if abs(a) > 0), default=0)
    if max_deg < 2 * k:
        raise ConfigError(f"potential has degree {max_deg} < 2k = {2 * k}")
    scale = max(abs(a) for a in taylor.values())
    h_coeffs: dict[int, complex] = {}
    q0_coeffs: dict[tuple[int, int], complex] = {}
    q1_coeffs: dict[tuple[int, int], complex] = {}
    for (i, j), a in taylor.items():
        if abs(a) == 0:
            continue
        deg = i + j
        if deg <= 2 * k and j == 0:
            h_coeffs[i] = 2.0 * complex(a)
        elif deg <= 2 * k and i == 0:
            continue  # conjugate partner of a pure term, carried by Re H
        elif deg == 2 * k:
            q0_coeffs[(i, j)] = complex(a)
        elif deg > 2 * k:
            q1_coeffs[(i, j)] = complex(a)
        elif abs(a) > 1e-12 * max(1.0, scale):
            raise ConfigError(
                f"mixed term ({i},{j}) of degree {deg} < 2k violates Q1 = O(|z|^(2k+1))"
            )
    q0 = MicroscopicPotential(k=k, c=Q.c, q0=HomogeneousHermitianPoly(2 * k, q0_coeffs))
    return CanonicalDecomposition(q0=q0, h_coeffs=h_coeffs, q1_coeffs=q1_coeffs)


def normalize_potential(
    Q: MacroscopicPotential, k: int, c: float | None = None
) -> tuple[MacroscopicPotential, float]:
    """Scale Q so its degree-2k part satisfies the microscopic normalization.

    Returns (lam * Q, lam) with lam = (1+c) k ((k-1)!)^2 / Delta^k Q0(0),
    which reduces to (1+c)/(k a_kk) for the mixed-diagonal coefficient a_kk.
    After scaling the micro-amplitude a_kk becomes (1+c)/k.
    """
    if c is None:
        c = Q.c
    dec = canonical_decompose(Q, k)
    a_kk = float(np.real(dec.q0.q0.coeffs.get((k, k), 0.0)))
    if not a_kk > 0:
        raise ConfigError("normalization requires a positive (k,k) coefficient")
    lam = (1.0 + c) / (k * a_kk)
    return Q.scaled(lam), lam


def kappa_shift(p: MicroscopicPotential) -> tuple[MicroscopicPotential, complex]:
    """Strip the pure z^{2k} term: Q0 -> Q0 - 2 Re(kappa z^{2k}), returning kappa."""
    kap = p.kappa
    if kap == 0:
        return p, 0.0
    coeffs = {
        (i, j): a
        for (i, j), a in p.q0.coeffs.items()
        if (i, j) not in ((2 * p.k, 0), (0, 2 * p.k))
    }
    try:
        shifted = MicroscopicPotential(k=p.k, c=p.c, q0=HomogeneousHermitianPoly(2 * p.k, coeffs))
    except ConfigError as exc:
        raise ConfigError(f"potential loses positive definiteness after kappa shift: {exc}") from exc
    return shifted, kap


# --- config files -------------------------------------------------------


def load_potential_config(source: str | Path | dict) -> MacroscopicPotential:
    """Build a MacroscopicPotential from a JSON config file or a parsed dict.

    Schema: {"kind": "radial"|"hermitian", "c": float,
             "radial_coeffs": [[m, q_m], ...] or
             "hermitian_coeffs": [[i, j, re, im], ...],
             "spectators": [[re, im, cj], ...], "k": optional int}
    A stated "k" is validated against detect_k.
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
    kind = doc.get("kind")
    c = float(doc.get("c", 0.0))
    spectators = []
    for row in doc.get("spectators", []):
        try:
            re, im, cj = row
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad spectator row {row!r}: expected [re, im, cj]") from exc
        spectators.append(Spectator(position=complex(re, im), charge=float(cj)))
    if kind == "radial":
        rows = doc.get("radial_coeffs")
        if not rows:
            raise ConfigError("radial config needs radial_coeffs")
        coeffs: dict[int, float] = {}
        for row in rows:
            try:
                m, q = row
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad radial_coeffs row {row!r}: expected [m, q_m]") from exc
            coeffs[int(m)] = coeffs.get(int(m), 0.0) + float(q)
        pot = MacroscopicPotential(
            kind="radial", c=c, radial_coeffs=coeffs, spectators=tuple(spectators)
        )
    elif kind == "hermitian":
        rows = doc.get("hermitian_coeffs")
        if not rows:
            raise ConfigError("hermitian config needs hermitian_coeffs")
        hcoeffs: dict[tuple[int, int], complex] = {}
        for row in rows:
            try:
                i, j, re, im = row
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"bad hermitian_coeffs row {row!r}: expected [i, j, re, im]"
                ) from exc
            hcoeffs[(int(i), int(j))] = hcoeffs.get((int(i), int(j)), 0.0) + complex(
                float(re), float(im)
            )
        for (i, j), a in list(hcoeffs.items()):
            hcoeffs.setdefault((j, i), complex(np.conj(a)))
        pot = MacroscopicPotential(
            kind="hermitian", c=c, hermitian_coeffs=hcoeffs, spectators=tuple(spectators)
        )
    else:
        raise ConfigError(f"config kind must be 'radial' or 'hermitian', got {kind!r}")
    if "k" in doc and doc["k"] is not None:
        stated = int(doc["k"])
        found = detect_k(pot)
        if stated != found:
            raise ConfigError(f"config states k={stated} but the potential has k={found}")
    return pot
