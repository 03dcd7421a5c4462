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
integer matrix K built at import.  The same tensor, scaled to largest
entry 1, evaluates F wherever a float value of it is needed.

The 27 lines of the Fermat cubic are known in closed form.  They are mapped
into the patch and tracked along the coefficient-parameter homotopy
(1 - t) gamma C(Fermat) + t C(F) with a random complex gamma (Morgan and
Sommese, Appl. Math. Comput. 29, 1989), all 27 paths as one numpy batch.
A step extrapolates the cubic Hermite interpolant of the last two accepted
points and their tangents and corrects by two Newton steps; the second
shares its factorization with the tangent at the corrected point, so a
step costs two evaluations of the system and two batched solves.  A step
is accepted when the first correction is small against the point and the
second is smaller still (Bates, Hauenstein, Sommese and Wampler,
Numerically Solving Polynomial Systems with Bertini, SIAM 2013).  Newton
on C(F) finishes every path that did not diverge, also one that stalled
short of t = 1: on surfaces close to the discriminant the lines are
ill-conditioned and paths stall or merge near them.  Each path stops at
its own noise floor, and is kept when its residual is small and Newton has
stopped moving it.  When fewer than 27 distinct lines come out, the same
27 paths are tracked again in a fresh patch with a fresh gamma, up to
ATTEMPTS times.  The 27 lines are accepted only when each meets exactly 10
others.

Line bookkeeping is done on normalized Pluecker vectors: the canonical
representative divides by the largest-modulus coordinate, which also makes
real lines literally real.  A patch's solutions become lines in one array
pass; the dedupe, conjugate pairing and tritangent planes each work from
one matrix of Pluecker distances or meet forms.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import Poly
from .errors import LineInPlane, NearDiscriminant
from .forms import form_tensor

ATTEMPTS = 6                 # patches tried before NearDiscriminant
RESIDUAL_TOL = 1e-10         # relative backward error of a kept line
DEDUPE_TOL = 1e-6            # Pluecker distance for merging paths
IMAG_TOL = 1e-7              # reality threshold after phase fix
MEET_TOL = 1e-6              # meet form, and coplanarity singular value
LINE_IN_PLANE_TOL = 1e-9     # relative size of a line's point on a plane
NEWTON_STEPS = 40            # most endgame Newton steps of a path
NEWTON_SETTLED = 1e-6        # largest last endgame step (relative) kept
DT_MIN = 1e-7                # a path whose step falls below this dies
DT_MAX = 0.1
# the largest second Newton correction of an accepted step, relative to the
# point.  On 270 surfaces (30 benchmark batch entries and 240 affine images
# of the pool), bounds of 1e-2, 2e-2, 3e-2 and 5e-2 took 280, 281, 287 and
# 323 patches and 499k, 465k, 460k and 497k point evaluations: 2e-2 costs 1%
# more evaluations than the cheapest bound and loses hardly more paths than
# the strictest, while past 3e-2 more steps jump paths or are retried
CORRECTION_TOL = 2e-2
DIVERGENCE_CUTOFF = 1e7      # patch coordinates past this: path diverged


# ---------------------------------------------------------------------------
# the cubic as a symmetric tensor
# ---------------------------------------------------------------------------

def cubic_tensor(T: list) -> np.ndarray:
    """The float tensor of the cubic F with the integer tensor T of
    `forms.form_tensor`, F(x) = s T(x, x, x) for s > 0: T over its largest
    entry's modulus, each entry rounded once, so that none overflows."""
    top = max(map(abs, T))
    return np.array([t / top for t in T]).reshape(4, 4, 4)


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
# each monomial as a product of three entries of (1, a, b, c, d)
_FACTORS = np.array([[v + 1 for v in range(4) for _ in range(e[v])]
                     + [0] * (3 - sum(e)) for e in _MONOMIALS.tolist()]).T

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
# K's 472 nonzeros: C(F) = K T_A as a sum over them, which makes no BLAS
# call (a dense 700 x 64 product is large enough for BLAS to wake all its
# threads, and would cast K to complex each time)
_K_ROWS, _K_COLS = np.nonzero(_K)
_K_VALUES = _K[_K_ROWS, _K_COLS]


def patch_matrix(T: np.ndarray, A: np.ndarray) -> np.ndarray:
    """(35, 20) coefficient matrix over _MONOMIALS of the four equations in
    (a, b, c, d) cutting out the lines spanned by A0 + a A2 + b A3 and
    A1 + c A2 + d A3, for the rows of the 4 x 4 patch matrix A, and of
    their 16 partial derivatives: column m holds equation m, column
    4 + 4 m + n its derivative in unknown n.  T is the cubic's tensor; a
    permutation matrix A gives a coordinate chart."""
    TA = np.einsum("ijk,pi,qj,rk->pqr", T, A, A, A).reshape(64)
    C = np.zeros(len(_K), dtype=TA.dtype)
    np.add.at(C, _K_ROWS, _K_VALUES * TA[_K_COLS])
    return C.reshape(len(_MONOMIALS), 20)


def _monomial_values(X: np.ndarray) -> np.ndarray:
    """Points (n, 4) -> the values of _MONOMIALS at them, (n, 35)."""
    Y = np.ones((len(X), 5), dtype=X.dtype)
    Y[:, 1:] = X
    return Y[:, _FACTORS[0]] * Y[:, _FACTORS[1]] * Y[:, _FACTORS[2]]


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
    """Batched 4x4 linear solve of J x = rhs for rhs (n, 4), or (n, 4, k)
    for k right-hand sides that share one factorization, degrading
    gracefully on singular or non-finite systems (failed entries come back
    as nan, each column as if solved alone)."""
    B = rhs[..., None] if rhs.ndim == 2 else rhs
    try:
        out = np.linalg.solve(J, B)
    except np.linalg.LinAlgError:
        bad = ~np.isfinite(J).all(axis=(1, 2))
        J = np.where(bad[:, None, None], np.eye(4), J)
        B = np.where(bad[:, None, None]
                     | ~np.isfinite(B).all(axis=1, keepdims=True), np.nan, B)
        mag = np.abs(J).max(axis=(1, 2), keepdims=True)
        ridge = (1e-12 + 1e-12j) * np.maximum(mag, 1.0)
        J = J + ridge * np.eye(4)[None, :, :]
        try:
            out = np.linalg.solve(J, B)
        except np.linalg.LinAlgError:
            out = np.zeros_like(B)
            for m in range(len(J)):
                try:
                    out[m] = np.linalg.lstsq(J[m], B[m], rcond=None)[0]
                except np.linalg.LinAlgError:
                    out[m] = np.nan
    return out[..., 0] if rhs.ndim == 2 else out


def _predict(x0, t0, v0, x1, t1, v1, t2) -> np.ndarray:
    """Each path's point at t2 from its last two accepted points x0 at t0
    and x1 at t1, with tangents v0 and v1: the cubic Hermite extrapolation
    x1 + tau v1 + A r^2 + B r^3, tau = t2 - t1 and r = tau / (t1 - t0),
    or the Euler step where t0 == t1."""
    h, tau = t1 - t0, t2 - t1
    r = np.divide(tau, h, out=np.zeros_like(tau), where=h > 0)[:, None]
    e1 = x0 - x1 + h[:, None] * v1
    e2 = h[:, None] * (v0 - v1)
    return x1 + tau[:, None] * v1 + r ** 2 * (3 * e1 + e2) \
        + r ** 3 * (2 * e1 + e2)


def _track(C0: np.ndarray, C1: np.ndarray, gamma: complex,
           X: np.ndarray) -> np.ndarray:
    """Track the paths of the homotopy (1 - t) gamma C0 + t C1 from the
    solutions X (n, 4) of C0 at t = 0; returns the converged solutions of
    C1, (m, 4).  C0 and C1 are `patch_matrix` results.

    A step predicts, corrects once by Newton, and evaluates the homotopy
    once more at the corrected point: one solve there gives the second
    Newton correction and the tangent dX/dt for the next prediction."""
    CC = np.hstack([gamma * C0, C1])

    def H_and_J(Xv, tv):
        V = _monomial_values(Xv) @ CC
        Vt = (1 - tv)[:, None] * V[:, :20] + tv[:, None] * V[:, 20:]
        dHdt = V[:, 20:24] - V[:, :4]
        return Vt[:, :4], Vt[:, 4:].reshape(-1, 4, 4), dHdt

    # the arrays hold the paths still being tracked, path[i] naming row i;
    # a path's last point goes to `ends` when it reaches t = 1 or dies.
    # Each keeps its last accepted point X at t with tangent Xt, and the
    # point accepted before it (t0 == t marks a path that has none yet)
    X = X.copy()
    ends = np.empty_like(X)
    path = np.arange(len(X))
    t = np.zeros(len(X))
    dt = np.full(len(X), 0.05)
    _, J, dHdt = H_and_J(X, t)
    Xt = _solve_batched(J, -dHdt)
    X0, t0, Xt0 = X.copy(), t.copy(), Xt.copy()
    for _ in range(2000):
        if not len(path):
            break
        t2 = np.minimum(1.0, t + dt)
        X2 = _predict(X0, t0, Xt0, X, t, Xt, t2)
        H2, J2, _ = H_and_J(X2, t2)
        step1 = _solve_batched(J2, -H2)
        X2 = X2 + step1
        H2, J2, dHdt2 = H_and_J(X2, t2)
        sol = _solve_batched(J2, -np.stack([H2, dHdt2], axis=2))
        step2, tangent = sol[:, :, 0], sol[:, :, 1]
        X2 = X2 + step2
        # a first correction past 0.3 of the point's size marks a poor
        # prediction, from which Newton may reach another path; a second
        # one past CORRECTION_TOL marks a first that did not contract
        ok = np.abs(step1).max(axis=1) \
            <= 0.3 * np.maximum(1.0, np.abs(X).max(axis=1))
        ok &= np.abs(step2).max(axis=1) \
            <= CORRECTION_TOL * np.maximum(1.0, np.abs(X2).max(axis=1))
        ok &= np.isfinite(X2).all(axis=1)
        X0[ok], t0[ok], Xt0[ok] = X[ok], t[ok], Xt[ok]
        X[ok], t[ok], Xt[ok] = X2[ok], t2[ok], tangent[ok]
        dt[ok] = np.minimum(dt[ok] * 1.3, DT_MAX)
        dt[~ok] *= 0.4
        done = (t >= 1.0) | (dt < DT_MIN) \
            | (np.abs(X).max(axis=1) > DIVERGENCE_CUTOFF)
        if done.any():
            ends[path[done]] = X[done]
            live = ~done
            path, X, t, dt, Xt, X0, t0, Xt0 = (
                a[live] for a in (path, X, t, dt, Xt, X0, t0, Xt0))
    ends[path] = X

    # endgame: plain Newton on the target system, also from paths that
    # stalled short of t = 1.  A path stops at its noise floor: once its
    # step is below 1e-12 of it, or below 1e-9 of it and no longer
    # shrinking fourfold, as it would under Newton's quadratic convergence.
    Xe = ends[np.abs(ends).max(axis=1) <= DIVERGENCE_CUTOFF]
    last = np.full(len(Xe), np.inf)     # each path's last step
    run = np.arange(len(Xe))
    for _ in range(NEWTON_STEPS):
        if not len(run):
            break
        V = _monomial_values(Xe[run]) @ C1
        step = _solve_batched(V[:, 4:].reshape(-1, 4, 4), -V[:, :4])
        Xe[run] += step
        size = np.abs(step).max(axis=1)
        mag = np.maximum(1.0, np.abs(Xe[run]).max(axis=1))
        floor = (size < 1e-12 * mag) \
            | ((size > last[run] / 4) & (size < 1e-9 * mag))
        last[run] = size
        run = run[~floor & np.isfinite(size)]
    FX = _monomial_values(Xe) @ C1[:, :4]
    mag = np.maximum(1.0, np.abs(Xe).max(axis=1))
    keep = np.abs(FX).max(axis=1) < 1e-9 * np.abs(C1[:, :4]).max() * mag ** 3
    # where the patch is ill-conditioned at a line a small residual is not
    # enough: Newton must also have stopped moving the solution
    keep &= last < NEWTON_SETTLED * mag
    keep &= np.isfinite(Xe).all(axis=1)
    return Xe[keep]


# ---------------------------------------------------------------------------
# Pluecker bookkeeping
# ---------------------------------------------------------------------------

PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PI, _PJ = np.array(PLUCKER_PAIRS).T

# the polarized Pluecker quadric, zero on a pair of lines that meet:
# p _MEET q = p01 q23 - p02 q13 + p03 q12 + q01 p23 - q02 p13 + q03 p12
_MEET = np.fliplr(np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]))


@dataclass
class PluckerLine:
    plucker: np.ndarray          # normalized, largest coordinate == 1
    basis: np.ndarray            # (2, 4) spanning points
    real: bool
    residual: float

    def real_points(self):
        """Two independent real points when the line is real."""
        if not self.real:
            raise ValueError("line is not real")
        stack = np.vstack([self.basis.real, self.basis.imag])
        u_, s_, vt = np.linalg.svd(stack)
        return vt[0], vt[1]


def plucker_distances(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Projective (phase-invariant) separation of each row of Q (m, 6)
    from each row of P (n, 6), (n, m), or of the one vector Q (6,) from
    each row of P, (n,): the sine of the angle between Pluecker vectors,
    computed as a projection residual so that nearly equal lines resolve
    down to machine precision."""
    Ph = P / np.linalg.norm(P, axis=1, keepdims=True)
    Qh = np.atleast_2d(Q)
    Qh = Qh / np.linalg.norm(Qh, axis=1, keepdims=True)
    G = Ph @ Qh.conj().T
    D = np.linalg.norm(Ph[:, None, :] - G[:, :, None] * Qh[None, :, :],
                       axis=2)
    return D if np.ndim(Q) == 2 else D[:, 0]


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

@dataclass
class LineSet:
    lines: list
    real_count: int
    conj_pairs: list             # index pairs (i, j), i < j, conjugate lines


def _new_lines(S: np.ndarray, A: np.ndarray, T: np.ndarray, norm: float,
               found: list, tol: float) -> list:
    """The lines of the solutions S (m, 4) in the patch A, in order, with
    residual at most tol in T relative to `norm` and DEDUPE_TOL or more
    from each line found and each one kept before them."""
    B = A[:2] + S.reshape(-1, 2, 2) @ A[2:]        # the bases (u, v)
    u, v = B[:, 0], B[:, 1]
    P = u[:, _PI] * v[:, _PJ] - u[:, _PJ] * v[:, _PI]
    # divide by the first coordinate within a whisker of the largest
    # modulus, so that two noisy copies of a line pick the same pivot
    mods = np.abs(P)
    pivot = np.argmax(mods >= mods.max(axis=1, keepdims=True) * (1 - 1e-8),
                      axis=1)
    P = P / P[np.arange(len(P)), pivot][:, None]
    real = np.abs(P.imag).max(axis=1) < IMAG_TOL
    P[real] = P[real].real
    samples = np.stack([u, v, u + v, u - v, u + 2 * v], axis=1)
    samples /= np.linalg.norm(samples, axis=2, keepdims=True)
    vals = np.abs(cubic_values(T, samples.reshape(-1, 4))).reshape(-1, 5)
    resid = vals.max(axis=1) / max(norm, 1e-300)
    # the same greedy order as taking the solutions one by one
    close = plucker_distances(np.vstack([l.plucker for l in found] + [P]),
                              P) < DEDUPE_TOL
    kept, out = list(range(len(found))), []
    for i in np.flatnonzero(resid <= tol):
        if not close[kept, i].any():
            kept.append(len(found) + i)
            out.append(PluckerLine(P[i], B[i], bool(real[i]), float(resid[i])))
    return out


@functools.lru_cache(maxsize=4 * ATTEMPTS)
def _start_system(seed: int, attempt: int) -> tuple:
    """The patch A, the gamma, C(Fermat) in the patch and the Fermat lines'
    patch coordinates of the attempt-th patch drawn from the seed: they
    depend on nothing else, so each is built once.  The arrays are shared
    and read-only."""
    rng = np.random.default_rng(seed)
    for _ in range(attempt + 1):
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gamma = np.exp(2j * np.pi * rng.random())
    A = np.linalg.qr(M)[0]
    C0 = patch_matrix(_FERMAT_TENSOR, A)
    X = _patch_coordinates(_FERMAT_LINES, A)
    for a in (A, C0, X):
        a.setflags(write=False)
    return A, gamma, C0, X


def solve_lines(F: Poly, seed: int = 0, tensor: tuple = None) -> LineSet:
    """All 27 lines of the cubic surface F = 0.

    `seed` draws the patches and gammas, so a fixed seed gives the same
    lines; `tensor` is F's `form_tensor`, if built.  A path becomes a line
    when its residual in F, relative to the sum of |coefficients|, is at
    most RESIDUAL_TOL.

    Raises NearDiscriminant when 27 clearly separated lines whose meet
    graph is that of the 27 lines (each meets exactly 10 others) cannot be
    produced, which for exact nonsingular input means the homotopy failed
    and for inexact input usually means the surface is too close to the
    discriminant.
    """
    if F.homogeneous_degree() != 3:
        raise ValueError("surface must be a homogeneous cubic")
    T = cubic_tensor((tensor or form_tensor(F))[0])
    norm = float(np.abs(T).sum())     # the sum of |coefficients| of T
    found: list = []
    for attempt in range(ATTEMPTS):
        A, gamma, C0, X = _start_system(seed, attempt)
        S = _track(C0, patch_matrix(T, A), gamma, X)
        found += _new_lines(S, A, T, norm, found, RESIDUAL_TOL)
        if len(found) >= 27:
            break
    if len(found) < 27:
        raise NearDiscriminant(
            f"found {len(found)} separated lines, expected 27")
    if len(found) > 27:
        raise NearDiscriminant(
            f"found {len(found)} line candidates, expected 27")

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
    """Each complex line with the first later complex line, not yet paired,
    within tol of its conjugate."""
    P = np.array([l.plucker for l in lines])
    free = np.array([not l.real for l in lines])
    near = plucker_distances(P.conj(), P) < tol
    pairs = []
    for i in range(len(lines)):
        if not free[i]:
            continue
        free[i] = False
        partners = np.flatnonzero(near[i] & free)
        if not len(partners):
            # a real surface's complex lines come in conjugate pairs; a
            # missing partner means the numeric lines cannot be trusted,
            # as happens next to the discriminant
            raise NearDiscriminant(
                f"complex line {i} has no conjugate partner")
        pairs.append((i, int(partners[0])))
        free[partners[0]] = False
    return pairs


# ---------------------------------------------------------------------------
# incidence and tritangent planes
# ---------------------------------------------------------------------------

def meet_matrix(lines: list) -> np.ndarray:
    """Which pairs of lines meet: |p _MEET q| < MEET_TOL, off the
    diagonal."""
    P = np.array([l.plucker for l in lines])
    M = np.abs(P @ _MEET @ P.T) < MEET_TOL
    np.fill_diagonal(M, False)
    return M


def tritangent_triples(lineset: LineSet) -> list:
    """All triples of pairwise intersecting, coplanar lines, with the plane.

    Returns dicts {lines: (i, j, k), plane: ndarray(4), real: bool}, with
    i < j < k in lexicographic order.  On a nonsingular cubic there are
    exactly 45.
    """
    lines = lineset.lines
    U = np.triu(meet_matrix(lines))              # i < j that meet
    trips = np.argwhere(U[:, :, None] & U[:, None, :] & U[None, :, :])
    bases = np.array([l.basis for l in lines])
    _, sv, vt = np.linalg.svd(bases[trips].reshape(-1, 6, 4))
    coplanar = sv[:, -1] <= MEET_TOL * sv[:, 0]    # else concurrent only
    trips, planes = trips[coplanar], vt[coplanar, -1]
    big = np.argmax(np.abs(planes), axis=1)
    planes = planes / planes[np.arange(len(planes)), big][:, None]
    # conj[m]: the index of line m's conjugate, m itself for a real line
    conj = np.arange(len(lines))
    for i, j in lineset.conj_pairs:
        conj[i], conj[j] = j, i
    real = (conj[trips][:, :, None] == trips[:, None, :]).any(axis=2) \
        .all(axis=1)
    out = []
    for trip, plane, r in zip(trips.tolist(), planes, real.tolist()):
        if r and np.abs(plane.imag).max() < 1e-6:
            plane = plane.real.astype(complex)
        out.append({"lines": tuple(trip), "plane": plane, "real": r})
    return out


def line_plane_points(bases: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The points (n, 4) where the lines with the bases (n, 2, 4) meet the
    plane h.x = 0, each divided by its largest-modulus coordinate and made
    real when it nearly is.  LineInPlane when a line lies in the plane."""
    h = np.asarray(h, dtype=complex)
    u, v = bases[:, 0], bases[:, 1]
    X = (v @ h)[:, None] * u - (u @ h)[:, None] * v
    scale = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1) \
        * np.linalg.norm(h)
    if (np.linalg.norm(X, axis=1)
            < LINE_IN_PLANE_TOL * np.maximum(scale, 1e-300)).any():
        raise LineInPlane("line lies in the plane")
    X = X / X[np.arange(len(X)), np.argmax(np.abs(X), axis=1)][:, None]
    real = np.abs(X.imag).max(axis=1) < 1e-8
    X[real] = X[real].real
    return X


# ---------------------------------------------------------------------------
# reference surfaces with known lines
# ---------------------------------------------------------------------------

def fermat_surface() -> Poly:
    return Poly.parse("x^3 + y^3 + z^3 + w^3")


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


# the homotopy's start cubic and its lines, built once; `_start_system`
# maps them into each patch
_FERMAT_TENSOR = cubic_tensor(form_tensor(fermat_surface())[0])
_FERMAT_LINES = fermat_lines_closed_form()
