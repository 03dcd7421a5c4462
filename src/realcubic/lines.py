"""The 27 lines of a nonsingular cubic surface, by homotopy continuation.

A line is tracked in the Grassmannian chart where two fixed coordinates are
pivots: rows (e_i + a e_k + b e_l) and (e_j + c e_k + d e_l) span it.
Restricting the cubic to the span and reading off the four coefficients of
the binary cubic gives four polynomial equations in (a, b, c, d), solved by
a total-degree homotopy (81 paths per chart, all tracked as one numpy
batch).  The equations and their 16 partial derivatives are all written in
the 35 monomials of degree <= 3 in (a, b, c, d), so one (35 x 20)
coefficient matrix per chart evaluates the whole system and its Jacobian:
each homotopy step builds a power table of the points, multiplies out the
monomials and applies a single matmul.  Charts are tried in order until 27
distinct lines survive the backward-error filter.

Line bookkeeping is done on normalized Pluecker vectors: the canonical
representative divides by the largest-modulus coordinate, which also makes
real lines literally real.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import Poly
from .config import DEFAULT, LineSolveConfig
from .errors import InternalInconsistency, LineInPlane, NearDiscriminant

PAIR_ORDER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


# ---------------------------------------------------------------------------
# fast polynomial evaluation
# ---------------------------------------------------------------------------

def poly_arrays(p: Poly):
    """Exponent matrix and complex coefficient vector for batched eval."""
    expo = np.array(list(p.terms.keys()), dtype=np.int64).reshape(-1, len(p.vars))
    coeff = np.array([complex(c) if isinstance(c, complex) else float(c)
                      for c in p.terms.values()], dtype=complex)
    return expo, coeff


def eval_many(expo: np.ndarray, coeff: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate at many points: pts (n, nvars) -> (n,)."""
    if len(coeff) == 0:
        return np.zeros(len(pts), dtype=complex)
    return (pts[:, None, :] ** expo[None, :, :]).prod(axis=2) @ coeff


# ---------------------------------------------------------------------------
# chart equations
# ---------------------------------------------------------------------------

_CHART_VARS = ("s", "t", "a", "b", "c", "d")


def chart_system(F: Poly, pair: tuple) -> list:
    """The four equations in (a, b, c, d) cutting out lines with pivot
    columns `pair`.  Returned as Polys over (a, b, c, d) placeholders."""
    i, j = pair
    k, l = [m for m in range(4) if m not in pair]
    Fc = Poly(_CHART_VARS, {e + (0, 0): c for e, c in F.terms.items()})
    s, t, a, b, c, d = (Poly.var(v, _CHART_VARS) for v in _CHART_VARS)
    image = [None] * 4
    image[i] = s
    image[j] = t
    image[k] = s * a + t * c
    image[l] = s * b + t * d
    # F lives in slots 0..3 of the extended variable tuple (s, t take the
    # places of x, y after the rename below)
    restricted = Fc.substitute(dict(zip(_CHART_VARS[:4], image)))
    eqs = []
    s_coeffs = restricted.coeffs_in("s")       # degree 3 in s exactly
    for m in range(4):
        # coefficient of s^(3-m) t^m
        cs = s_coeffs[3 - m] if 3 - m < len(s_coeffs) else Poly.zero(_CHART_VARS)
        ct = cs.coeffs_in("t")
        eq = ct[m] if m < len(ct) else Poly.zero(_CHART_VARS)
        eqs.append(eq)
    return eqs


# every chart equation and each of its partial derivatives is a combination
# of the 35 monomials of degree <= 3 in (a, b, c, d)
_MONOMIALS = np.array([e for e in itertools.product(range(4), repeat=4)
                       if sum(e) <= 3])
_MONOMIAL_INDEX = {e: m for m, e in enumerate(map(tuple, _MONOMIALS.tolist()))}


def _chart_matrix(eqs: list) -> np.ndarray:
    """(35, 20) coefficient matrix over _MONOMIALS: column m holds equation
    m, column 4 + 4 m + n its partial derivative in unknown n."""
    C = np.zeros((len(_MONOMIALS), 20), dtype=complex)
    for m, eq in enumerate(eqs):
        for e, cf in eq.terms.items():
            # drop the s, t slots (always exponent zero by construction)
            assert e[0] == 0 and e[1] == 0
            e = e[2:]
            C[_MONOMIAL_INDEX[e], m] = complex(cf)
            for n in range(4):
                if e[n]:
                    d = e[:n] + (e[n] - 1,) + e[n + 1:]
                    C[_MONOMIAL_INDEX[d], 4 + 4 * m + n] = complex(cf * e[n])
    return C


def _monomial_values(X: np.ndarray) -> np.ndarray:
    """Points (n, 4) -> the values of _MONOMIALS at them, (n, 35)."""
    P = X[:, :, None] ** np.arange(4)
    return (P[:, 0, _MONOMIALS[:, 0]] * P[:, 1, _MONOMIALS[:, 1]]
            * P[:, 2, _MONOMIALS[:, 2]] * P[:, 3, _MONOMIALS[:, 3]])


# ---------------------------------------------------------------------------
# homotopy tracking
# ---------------------------------------------------------------------------

def _start_points(rho: np.ndarray) -> np.ndarray:
    """All 81 combinations of cube roots of rho_m."""
    roots = []
    for r in rho:
        base = abs(r) ** (1 / 3) * np.exp(1j * np.angle(r) / 3)
        roots.append([base * np.exp(2j * np.pi * k / 3) for k in range(3)])
    return np.array(list(itertools.product(*roots)), dtype=complex)


def _solve_batched(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched 4x4 linear solve that degrades gracefully on singular or
    non-finite systems (failed entries come back as nan)."""
    bad = ~(np.isfinite(J).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1))
    if bad.any():
        J = J.copy()
        rhs = rhs.copy()
        J[bad] = np.eye(4)
        rhs[bad] = np.nan
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    mag = np.abs(J).max(axis=(1, 2), keepdims=True)
    ridge = (1e-12 + 1e-12j) * np.maximum(mag, 1.0)
    J = J + ridge * np.eye(4)[None, :, :]
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.zeros_like(rhs)
        for m in range(len(J)):
            try:
                out[m] = np.linalg.lstsq(J[m], rhs[m], rcond=None)[0]
            except np.linalg.LinAlgError:
                out[m] = np.nan
        return out


def _track_chart(C: np.ndarray, cfg: LineSolveConfig, rng) -> np.ndarray:
    """Track the 81 total-degree paths of the chart system whose
    `_chart_matrix` is C; returns converged solutions (n, 4)."""
    gamma = np.exp(2j * np.pi * rng.random())
    rho = np.exp(2j * np.pi * rng.random(4)) * (0.7 + 0.8 * rng.random(4))
    X = _start_points(rho)
    npaths = len(X)
    t = np.zeros(npaths)
    dt = np.full(npaths, 0.05)
    alive = np.ones(npaths, dtype=bool)

    CF = C[:, :4]                 # the equations alone, for residuals
    scale = max(np.abs(CF).max(), 1.0)
    diag = np.arange(4)

    def H_and_J(Xv, tv):
        V = _monomial_values(Xv) @ C
        FX = V[:, :4]
        GX = Xv ** 3 - rho[None, :]
        H = tv[:, None] * FX + (1 - tv)[:, None] * gamma * GX
        J = tv[:, None, None] * V[:, 4:].reshape(-1, 4, 4)
        J[:, diag, diag] += (1 - tv)[:, None] * gamma * (3 * Xv ** 2)
        dHdt = FX - gamma * GX
        return H, J, dHdt

    def H_only(Xv, tv):
        FX = _monomial_values(Xv) @ CF
        GX = Xv ** 3 - rho[None, :]
        return tv[:, None] * FX + (1 - tv)[:, None] * gamma * GX

    max_steps = 2000
    for _ in range(max_steps):
        act = alive & (t < 1.0)
        if not act.any():
            break
        Xa, ta, dta = X[act], t[act], dt[act]
        t2 = np.minimum(1.0, ta + dta)
        H, J, dHdt = H_and_J(Xa, ta)
        dX = _solve_batched(J, -dHdt) * (t2 - ta)[:, None]
        X2 = Xa + dX
        # Newton correction at t2
        ok = np.ones(len(Xa), dtype=bool)
        for _ in range(3):
            H2, J2, _ = H_and_J(X2, t2)
            step = _solve_batched(J2, -H2)
            X2 = X2 + step
        H2 = H_only(X2, t2)
        mag = np.maximum(1.0, np.abs(X2).max(axis=1)) ** 3
        ok = (np.abs(H2).max(axis=1) < 1e-6 * scale * mag)
        ok &= np.isfinite(X2).all(axis=1)
        idx = np.flatnonzero(act)
        good, bad = idx[ok], idx[~ok]
        X[good] = X2[ok]
        t[good] = t2[ok]
        dt[good] = np.minimum(dt[good] * 1.7, cfg.dt_max)
        dt[bad] *= 0.4
        alive[bad] &= dt[bad] >= cfg.dt_min
        diverged = np.abs(X).max(axis=1) > cfg.divergence_cutoff
        alive &= ~diverged

    done = alive & (t >= 1.0)
    if not done.any():
        return np.empty((0, 4), dtype=complex)
    # endgame: plain Newton on the target system
    Xe = X[done]
    for _ in range(cfg.newton_steps):
        V = _monomial_values(Xe) @ C
        step = _solve_batched(V[:, 4:].reshape(-1, 4, 4), -V[:, :4])
        Xe = Xe + step
        if np.abs(step).max() < 1e-14 * max(1.0, np.abs(Xe).max()):
            break
    FX = _monomial_values(Xe) @ CF
    mag = np.maximum(1.0, np.abs(Xe).max(axis=1)) ** 3
    keep = np.abs(FX).max(axis=1) < 1e-9 * scale * mag
    keep &= np.isfinite(Xe).all(axis=1)
    # any line is caught with coordinates <= 1 in the chart of its largest
    # Pluecker coordinate; far larger solutions are low-accuracy copies of
    # lines that belong to a later chart
    keep &= np.abs(Xe).max(axis=1) < 1e4
    return Xe[keep]


# ---------------------------------------------------------------------------
# Pluecker bookkeeping
# ---------------------------------------------------------------------------

PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def plucker_from_basis(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.array([u[i] * v[j] - u[j] * v[i] for i, j in PLUCKER_PAIRS],
                    dtype=complex)


def normalize_plucker(p: np.ndarray) -> np.ndarray:
    # smallest index within a whisker of the max modulus, so that two noisy
    # copies of one line pick the same pivot even when moduli tie
    mods = np.abs(p)
    k = int(np.flatnonzero(mods >= mods.max() * (1 - 1e-8))[0])
    return p / p[k]


def plucker_residual(p: np.ndarray) -> float:
    """The quadric relation p01 p23 - p02 p13 + p03 p12, scaled."""
    val = p[0] * p[5] - p[1] * p[4] + p[2] * p[3]
    return float(abs(val) / max(np.abs(p).max() ** 2, 1e-300))


def meet_form(p: np.ndarray, q: np.ndarray) -> complex:
    """Polarized quadric; zero iff the lines intersect."""
    return (p[0] * q[5] - p[1] * q[4] + p[2] * q[3]
            + q[0] * p[5] - q[1] * p[4] + q[2] * p[3])


@dataclass
class PluckerLine:
    plucker: np.ndarray          # normalized, largest coordinate == 1
    basis: np.ndarray            # (2, 4) spanning points
    real: bool
    residual: float

    def conjugate_plucker(self) -> np.ndarray:
        return normalize_plucker(np.conj(self.plucker))

    def real_points(self):
        """Two independent real points when the line is real."""
        if not self.real:
            raise ValueError("line is not real")
        stack = np.vstack([self.basis.real, self.basis.imag])
        u_, s_, vt = np.linalg.svd(stack)
        return vt[0], vt[1]


def plucker_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Projective (phase-invariant) separation: the sine of the angle
    between the lines' Pluecker vectors, computed as a projection residual
    so that nearly equal lines resolve down to machine precision."""
    ph = p / np.linalg.norm(p)
    qh = q / np.linalg.norm(q)
    r = ph - np.vdot(qh, ph) * qh
    return float(np.linalg.norm(r))


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

@dataclass
class LineSet:
    lines: list
    real_count: int
    conj_pairs: list             # index pairs (i, j), i < j, conjugate lines
    charts_used: int


def _line_from_solution(sol: np.ndarray, pair: tuple, F_arrays,
                        imag_tol: float) -> PluckerLine:
    i, j = pair
    k, l = [m for m in range(4) if m not in pair]
    u = np.zeros(4, dtype=complex)
    v = np.zeros(4, dtype=complex)
    u[i], u[k], u[l] = 1.0, sol[0], sol[1]
    v[j], v[k], v[l] = 1.0, sol[2], sol[3]
    p = normalize_plucker(plucker_from_basis(u, v))
    expo, coeff = F_arrays
    samples = np.array([u, v, u + v, u - v, u + 2 * v])
    samples = samples / np.linalg.norm(samples, axis=1, keepdims=True)
    vals = np.abs(eval_many(expo, coeff, samples))
    resid = float(vals.max() / max(np.abs(coeff).sum(), 1e-300))
    real = bool(np.abs(p.imag).max() < imag_tol)
    if real:
        p = p.real.astype(complex)
    return PluckerLine(plucker=p, basis=np.vstack([u, v]), real=real,
                       residual=resid)


def solve_lines(F: Poly, cfg: LineSolveConfig = None) -> LineSet:
    """All 27 lines of the cubic surface F = 0.

    Raises NearDiscriminant when 27 clearly separated lines cannot be
    produced, which for exact nonsingular input means the homotopy failed
    and for inexact input usually means the surface is too close to the
    discriminant.
    """
    cfg = cfg or DEFAULT.lines
    if F.homogeneous_degree() != 3:
        raise ValueError("surface must be a homogeneous cubic")
    rng = np.random.default_rng(cfg.seed)
    F_arrays = poly_arrays(F)
    found: list = []

    def try_add(line: PluckerLine) -> bool:
        if line.residual > cfg.residual_tol:
            return False
        for other in found:
            if plucker_distance(line.plucker, other.plucker) < cfg.dedupe_tol:
                return False
        found.append(line)
        return True

    charts_used = 0
    for pair in PAIR_ORDER[: cfg.max_charts]:
        charts_used += 1
        sols = _track_chart(_chart_matrix(chart_system(F, pair)), cfg, rng)
        for sol in sols:
            try_add(_line_from_solution(sol, pair, F_arrays, cfg.imag_tol))
        if len(found) >= 27:
            break
    if len(found) < 27:
        raise NearDiscriminant(
            f"found {len(found)} separated lines, expected 27")
    if len(found) > 27:
        raise NearDiscriminant(
            f"found {len(found)} line candidates, expected 27")
    for line in found:
        if plucker_residual(line.plucker) > 1e-8:
            raise InternalInconsistency("Pluecker relation violated")

    def sort_key(line):
        return tuple((round(float(c.real), 8), round(float(c.imag), 8))
                     for c in line.plucker)

    found.sort(key=sort_key)
    real_count = sum(1 for l in found if l.real)
    if real_count not in (3, 7, 15, 27):
        raise NearDiscriminant(
            f"{real_count} real lines is impossible for a nonsingular surface")
    pairs = _conjugate_pairs(found, cfg.dedupe_tol)
    return LineSet(lines=found, real_count=real_count, conj_pairs=pairs,
                   charts_used=charts_used)


def _conjugate_pairs(lines: list, tol: float) -> list:
    pairs = []
    used = set()
    for i, li in enumerate(lines):
        if li.real or i in used:
            continue
        ci = li.conjugate_plucker()
        for j in range(i + 1, len(lines)):
            if j in used or lines[j].real:
                continue
            if plucker_distance(ci, lines[j].plucker) < tol:
                pairs.append((i, j))
                used.update((i, j))
                break
        else:
            # a real surface's complex lines come in conjugate pairs; a
            # missing partner means the numeric lines cannot be trusted,
            # as happens next to the discriminant
            raise NearDiscriminant(
                f"complex line {i} has no conjugate partner")
    return pairs


# ---------------------------------------------------------------------------
# incidence and tritangent planes
# ---------------------------------------------------------------------------

def meet_matrix(lines: list, tol: float = 1e-6) -> np.ndarray:
    n = len(lines)
    P = np.array([l.plucker for l in lines])
    M = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            M[i, j] = M[j, i] = abs(meet_form(P[i], P[j])) < tol
    return M


def tritangent_triples(lineset: LineSet, tol: float = 1e-6) -> list:
    """All triples of pairwise intersecting, coplanar lines, with the plane.

    Returns dicts {lines: (i, j, k), plane: ndarray(4), real: bool}.  On a
    nonsingular cubic there are exactly 45.
    """
    lines = lineset.lines
    M = meet_matrix(lines, tol)
    conj_index = {}
    for i, j in lineset.conj_pairs:
        conj_index[i], conj_index[j] = j, i
    for i, l in enumerate(lines):
        if l.real:
            conj_index[i] = i
    out = []
    n = len(lines)
    for i in range(n):
        for j in range(i + 1, n):
            if not M[i, j]:
                continue
            for k in range(j + 1, n):
                if not (M[i, k] and M[j, k]):
                    continue
                stacked = np.vstack([lines[i].basis, lines[j].basis,
                                     lines[k].basis])
                _, sv, vt = np.linalg.svd(stacked)
                if sv[-1] > tol * sv[0]:
                    continue            # concurrent but not coplanar
                plane = vt[-1]
                big = int(np.argmax(np.abs(plane)))
                plane = plane / plane[big]
                trip = (i, j, k)
                real = all(conj_index[m] in trip for m in trip)
                if real and np.abs(plane.imag).max() < 1e-6:
                    plane = plane.real.astype(complex)
                out.append({"lines": trip, "plane": plane, "real": real})
    return out


def line_plane_point(line: PluckerLine, h: np.ndarray,
                     tol: float = 1e-9) -> np.ndarray:
    """Intersection point of the line with the plane h.x = 0."""
    h = np.asarray(h, dtype=complex)
    u, v = line.basis
    cu, cv = u @ h, v @ h
    x = cv * u - cu * v
    scale = (np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(h))
    if np.linalg.norm(x) < tol * max(scale, 1e-300):
        raise LineInPlane("line lies in the plane")
    x = x / x[int(np.argmax(np.abs(x)))]
    if np.abs(x.imag).max() < 1e-8:
        x = x.real.astype(complex)
    return x


# ---------------------------------------------------------------------------
# reference surfaces with known lines
# ---------------------------------------------------------------------------

def fermat_surface() -> Poly:
    return Poly.parse("x^3 + y^3 + z^3 + w^3")


def clebsch_surface() -> Poly:
    return Poly.parse("x^3 + y^3 + z^3 + w^3 - (x + y + z + w)^3")


def fermat_lines_closed_form() -> list:
    """The 27 lines of the Fermat cubic as (u, v) basis pairs.

    For each pairing of the coordinates into two blocks, the lines are
    u + eta v = 0 blockwise with eta running over cube roots of unity.
    """
    zeta = np.exp(2j * np.pi / 3)
    pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
    out = []
    for (i, j), (k, l) in pairings:
        for e1 in (1, zeta, zeta ** 2):
            for e2 in (1, zeta, zeta ** 2):
                u = np.zeros(4, dtype=complex)
                v = np.zeros(4, dtype=complex)
                u[i], u[j] = -e1, 1.0
                v[k], v[l] = -e2, 1.0
                out.append(np.vstack([u, v]))
    return out
