"""The 27 lines of a nonsingular cubic surface, by parameter homotopy.

A line is written in one random affine patch of the Grassmannian: for a
random unitary 4 x 4 matrix A it is spanned by A0 + a A2 + b A3 and
A1 + c A2 + d A3 (rows of A).  Restricting the cubic to that span and
reading off the four coefficients of the binary cubic gives four
polynomial equations in (a, b, c, d).  The equations and their 16 partial
derivatives are all written in the 35 monomials of degree <= 3 in
(a, b, c, d), so one (35 x 20) coefficient matrix C(F) evaluates the whole
system and its Jacobian.  C(F) is linear in the cubic F.  With F written
as its symmetric 4 x 4 x 4 tensor T, F(x) = T(x, x, x), the span is
y A for y = (s, t, s a + t c, s b + t d), so F restricted to it is
T_A(y, y, y) with T_A = T(A., A., A.), and C(F) = K T_A for one fixed
integer matrix K built at import.  The same tensor evaluates F wherever a
float value of it is needed.

The 27 lines of the Fermat cubic are known in closed form.  They are mapped
into the patch and tracked along the coefficient-parameter homotopy
(1 - t) gamma C(Fermat) + t C(F) with a random complex gamma (Morgan and
Sommese, Appl. Math. Comput. 29, 1989), all 27 paths as one numpy batch.
Newton on C(F) finishes every path that did not diverge, also one that
stalled short of t = 1: on surfaces close to the discriminant the lines
are ill-conditioned and paths stall or merge near them.  A solution is
kept when its residual is small and Newton has stopped moving it.  When
fewer than 27 distinct lines come out, the same 27 paths are tracked again
in a fresh patch with a fresh gamma, up to ATTEMPTS times.  The 27 lines
are accepted only when each meets exactly 10 others.

Line bookkeeping is done on normalized Pluecker vectors: the canonical
representative divides by the largest-modulus coordinate, which also makes
real lines literally real.  The vectors are stacked, so that each dedupe
test and the meet matrix are one array operation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Poly
from .config import DEFAULT, LineSolveConfig
from .errors import InternalInconsistency, LineInPlane, NearDiscriminant
from .forms import form_tensor

ATTEMPTS = 6                 # patches tried before NearDiscriminant
DEDUPE_TOL = 1e-6            # Pluecker distance for merging paths
IMAG_TOL = 1e-7              # reality threshold after phase fix
NEWTON_STEPS = 40            # endgame Newton steps on the target system
NEWTON_SETTLED = 1e-6        # largest last endgame step (relative) kept
DT_MIN = 1e-7                # a path whose step falls below this dies
DT_MAX = 0.1
DIVERGENCE_CUTOFF = 1e7      # patch coordinates past this: path diverged


# ---------------------------------------------------------------------------
# the cubic as a symmetric tensor
# ---------------------------------------------------------------------------

def cubic_tensor(F: Poly) -> np.ndarray:
    """The symmetric tensor T of the cubic form F, so that F(x) = T(x, x, x):
    the exact tensor of `forms.form_tensor`, each entry rounded once."""
    n = len(F.vars)
    T, D = form_tensor(F)
    return np.array([float(Fraction(t, D)) for t in T]).reshape(n, n, n)


def cubic_values(T: np.ndarray, X: np.ndarray) -> np.ndarray:
    """F at the points X (n, 4), from its tensor T: (n,)."""
    return np.einsum("ijk,ni,nj,nk->n", T, X, X, X)


# ---------------------------------------------------------------------------
# patch equations
# ---------------------------------------------------------------------------

# every patch equation and each of its partial derivatives is a combination
# of the 35 monomials of degree <= 3 in (a, b, c, d)
_MONOMIALS = np.array([e for e in itertools.product(range(4), repeat=4)
                       if sum(e) <= 3])
_MONOMIAL_INDEX = {e: m for m, e in enumerate(map(tuple, _MONOMIALS.tolist()))}

# the point s u + t v of the line is y A with y = (s, t, s a + t c, s b + t d);
# each entry of y as its terms (power of t, exponent of (a, b, c, d))
_Y_TERMS = (((0, (0, 0, 0, 0)),),
            ((1, (0, 0, 0, 0)),),
            ((0, (1, 0, 0, 0)), (1, (0, 0, 1, 0))),
            ((0, (0, 1, 0, 0)), (1, (0, 0, 0, 1))))


def _patch_map() -> np.ndarray:
    """The integer matrix K, (700, 64), with C(F) = K T_A.

    F(s u + t v) = T_A(y, y, y); the coefficient of s^(3-m) t^m is equation
    m, and column 4 + 4 m + n of C holds its partial derivative in unknown
    n, both over _MONOMIALS."""
    K = np.zeros((len(_MONOMIALS), 20, 64))
    for col, pqr in enumerate(itertools.product(range(4), repeat=3)):
        for factors in itertools.product(*(_Y_TERMS[p] for p in pqr)):
            m = sum(f[0] for f in factors)
            e = tuple(map(sum, zip(*(f[1] for f in factors))))
            K[_MONOMIAL_INDEX[e], m, col] += 1
            for n in range(4):
                if e[n]:
                    d = e[:n] + (e[n] - 1,) + e[n + 1:]
                    K[_MONOMIAL_INDEX[d], 4 + 4 * m + n, col] += e[n]
    return K.reshape(-1, 64)


_K = _patch_map()


def patch_matrix(T: np.ndarray, A: np.ndarray) -> np.ndarray:
    """(35, 20) coefficient matrix over _MONOMIALS of the four equations in
    (a, b, c, d) cutting out the lines spanned by A0 + a A2 + b A3 and
    A1 + c A2 + d A3, for the rows of the 4 x 4 patch matrix A, and of
    their 16 partial derivatives: column m holds equation m, column
    4 + 4 m + n its derivative in unknown n.  T is the cubic's tensor; a
    permutation matrix A gives a coordinate chart."""
    TA = np.einsum("ijk,pi,qj,rk->pqr", T, A, A, A)
    return (_K @ TA.reshape(64)).reshape(len(_MONOMIALS), 20)


def _monomial_values(X: np.ndarray) -> np.ndarray:
    """Points (n, 4) -> the values of _MONOMIALS at them, (n, 35)."""
    P = X[:, :, None] ** np.arange(4)
    return (P[:, 0, _MONOMIALS[:, 0]] * P[:, 1, _MONOMIALS[:, 1]]
            * P[:, 2, _MONOMIALS[:, 2]] * P[:, 3, _MONOMIALS[:, 3]])


def _patch_coordinates(bases: list, A: np.ndarray) -> np.ndarray:
    """Patch coordinates (a, b, c, d) of the lines spanned by the (2, 4)
    bases: B = W A with W = [[1, 0, a, b], [0, 1, c, d]]."""
    W = np.array(bases) @ np.linalg.inv(A)
    W = np.linalg.solve(W[:, :, :2], W)
    return W[:, :, 2:].reshape(-1, 4)


# ---------------------------------------------------------------------------
# homotopy tracking
# ---------------------------------------------------------------------------

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


def _track(C0: np.ndarray, C1: np.ndarray, gamma: complex,
           X: np.ndarray) -> np.ndarray:
    """Track the paths of the homotopy (1 - t) gamma C0 + t C1 from the
    solutions X (n, 4) of C0 at t = 0; returns the converged solutions of
    C1, (m, 4).  C0 and C1 are `patch_matrix` results."""
    X = X.copy()
    npaths = len(X)
    t = np.zeros(npaths)
    dt = np.full(npaths, 0.05)
    alive = np.ones(npaths, dtype=bool)

    CC = np.hstack([gamma * C0, C1])
    scale = max(np.abs(C0[:, :4]).max(), np.abs(C1[:, :4]).max())

    def H_and_J(Xv, tv):
        V = _monomial_values(Xv) @ CC
        Vt = (1 - tv)[:, None] * V[:, :20] + tv[:, None] * V[:, 20:]
        dHdt = V[:, 20:24] - V[:, :4]
        return Vt[:, :4], Vt[:, 4:].reshape(-1, 4, 4), dHdt

    max_steps = 2000
    for _ in range(max_steps):
        act = alive & (t < 1.0)
        if not act.any():
            break
        Xa, ta, dta = X[act], t[act], dt[act]
        t2 = np.minimum(1.0, ta + dta)
        H, J, dHdt = H_and_J(Xa, ta)
        X2 = Xa + _solve_batched(J, -dHdt) * (t2 - ta)[:, None]
        # Newton correction at t2
        for _ in range(3):
            H2, J2, _ = H_and_J(X2, t2)
            X2 = X2 + _solve_batched(J2, -H2)
        H2, _, _ = H_and_J(X2, t2)
        mag = np.maximum(1.0, np.abs(X2).max(axis=1)) ** 3
        ok = (np.abs(H2).max(axis=1) < 1e-6 * scale * mag)
        ok &= np.isfinite(X2).all(axis=1)
        idx = np.flatnonzero(act)
        good, bad = idx[ok], idx[~ok]
        X[good] = X2[ok]
        t[good] = t2[ok]
        dt[good] = np.minimum(dt[good] * 1.7, DT_MAX)
        dt[bad] *= 0.4
        alive[bad] &= dt[bad] >= DT_MIN
        alive &= np.abs(X).max(axis=1) <= DIVERGENCE_CUTOFF

    # endgame: plain Newton on the target system, also from paths that
    # stalled short of t = 1
    Xe = X[np.abs(X).max(axis=1) <= DIVERGENCE_CUTOFF]
    for _ in range(NEWTON_STEPS):
        V = _monomial_values(Xe) @ C1
        step = _solve_batched(V[:, 4:].reshape(-1, 4, 4), -V[:, :4])
        Xe = Xe + step
        if np.abs(step).max(initial=0) < 1e-14 * np.abs(Xe).max(initial=1):
            break
    FX = _monomial_values(Xe) @ C1[:, :4]
    mag = np.maximum(1.0, np.abs(Xe).max(axis=1))
    keep = np.abs(FX).max(axis=1) < 1e-9 * np.abs(C1[:, :4]).max() * mag ** 3
    # where the patch is ill-conditioned at a line a small residual is not
    # enough: Newton must also have stopped moving the solution
    keep &= np.abs(step).max(axis=1) < NEWTON_SETTLED * mag
    keep &= np.isfinite(Xe).all(axis=1)
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


# the polarized Pluecker quadric as a matrix: meet_form(p, q) = p _MEET q
_MEET = np.fliplr(np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]))


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


def plucker_distances(P: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Projective (phase-invariant) separation of q from each row of P
    (n, 6): the sine of the angle between Pluecker vectors, computed as a
    projection residual so that nearly equal lines resolve down to machine
    precision."""
    Ph = P / np.linalg.norm(P, axis=1, keepdims=True)
    qh = q / np.linalg.norm(q)
    return np.linalg.norm(Ph - np.outer(Ph @ qh.conj(), qh), axis=1)


def plucker_distance(p: np.ndarray, q: np.ndarray) -> float:
    """`plucker_distances` for one pair of lines."""
    return float(plucker_distances(p[None, :], q)[0])


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

@dataclass
class LineSet:
    lines: list
    real_count: int
    conj_pairs: list             # index pairs (i, j), i < j, conjugate lines


def _line_from_solution(sol: np.ndarray, A: np.ndarray, T: np.ndarray,
                        norm: float) -> PluckerLine:
    u = np.array([1.0, 0.0, sol[0], sol[1]]) @ A
    v = np.array([0.0, 1.0, sol[2], sol[3]]) @ A
    p = normalize_plucker(plucker_from_basis(u, v))
    samples = np.array([u, v, u + v, u - v, u + 2 * v])
    samples = samples / np.linalg.norm(samples, axis=1, keepdims=True)
    vals = np.abs(cubic_values(T, samples))
    resid = float(vals.max() / max(norm, 1e-300))
    real = bool(np.abs(p.imag).max() < IMAG_TOL)
    if real:
        p = p.real.astype(complex)
    return PluckerLine(plucker=p, basis=np.vstack([u, v]), real=real,
                       residual=resid)


def solve_lines(F: Poly, cfg: LineSolveConfig = None) -> LineSet:
    """All 27 lines of the cubic surface F = 0.

    Raises NearDiscriminant when 27 clearly separated lines whose meet
    graph is that of the 27 lines (each meets exactly 10 others) cannot be
    produced, which for exact nonsingular input means the homotopy failed
    and for inexact input usually means the surface is too close to the
    discriminant.
    """
    cfg = cfg or DEFAULT.lines
    if F.homogeneous_degree() != 3:
        raise ValueError("surface must be a homogeneous cubic")
    rng = np.random.default_rng(cfg.seed)
    T = cubic_tensor(F)
    coeffs = [abs(c) for c in F.terms.values()]
    scale, norm = float(max(coeffs)), float(sum(coeffs))
    found: list = []
    P = np.zeros((0, 6), dtype=complex)     # Pluecker vectors of found
    for _ in range(ATTEMPTS):
        A = np.linalg.qr(rng.normal(size=(4, 4))
                         + 1j * rng.normal(size=(4, 4)))[0]
        gamma = np.exp(2j * np.pi * rng.random())
        C0 = patch_matrix(_FERMAT_TENSOR, A)
        C1 = patch_matrix(T, A) / scale
        for sol in _track(C0, C1, gamma,
                          _patch_coordinates(_FERMAT_LINES, A)):
            line = _line_from_solution(sol, A, T, norm)
            if line.residual <= cfg.residual_tol and (plucker_distances(
                    P, line.plucker) >= DEDUPE_TOL).all():
                found.append(line)
                P = np.vstack([P, line.plucker])
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
    degrees = meet_matrix(found).sum(axis=1)
    if (degrees != 10).any():
        raise NearDiscriminant(
            f"lines meet {sorted(set(degrees.tolist()))} others, "
            "expected 10 each")
    real_count = sum(1 for l in found if l.real)
    if real_count not in (3, 7, 15, 27):
        raise NearDiscriminant(
            f"{real_count} real lines is impossible for a nonsingular surface")
    pairs = _conjugate_pairs(found, DEDUPE_TOL)
    return LineSet(lines=found, real_count=real_count, conj_pairs=pairs)


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
    """Which pairs of lines meet: |meet_form| < tol, off the diagonal."""
    P = np.array([l.plucker for l in lines])
    M = np.abs(P @ _MEET @ P.T) < tol
    np.fill_diagonal(M, False)
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


# the homotopy's start system, built once
_FERMAT_TENSOR = cubic_tensor(fermat_surface())
_FERMAT_LINES = fermat_lines_closed_form()
