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
entry 1, evaluates F wherever a float value of it is needed.  A tensor
whose entries span more than the float range is first balanced by a
diagonal change of coordinates by powers of two (`balancing_exponents`);
the lines are then solved and checked in the balanced coordinates, which
`LineSet.scale` records.

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
Numerically Solving Polynomial Systems with Bertini, SIAM 2013).  Tracking
stops once at most STRAGGLERS = 5 paths are still live: the lines of the
others determine the rest.  Newton on C(F) finishes every path that did
not diverge, also one that stalled short of t = 1: on surfaces close to
the discriminant the lines are ill-conditioned and paths stall or merge
near them.  Each path stops at its own noise floor, and is kept when its
residual is small and Newton has stopped moving it.

The missing lines come from tritangent planes (Cayley, Camb. Dublin Math.
J. 4, 1849; Segre, The Non-singular Cubic Surfaces, 1942).  A plane that
holds two meeting lines of the cubic cuts it in a third line, the only
line that meets both; so two found lines that meet, with no found line
meeting both, give a missing line (`_residual_lines`), which goes through
the same endgame Newton and tests as a tracked path.  This repeats until
no new line appears.  Every line lies in 5 tritangent planes, and with at
most 5 lines missing each keeps one whose other two lines were found (see
`_track`).  When fewer than 27 distinct lines come out, the same 27 paths
are tracked again in a fresh patch with a fresh gamma, up to ATTEMPTS
times.  The 27 lines are accepted only when each meets exactly 10 others.

Line bookkeeping is done on normalized Pluecker vectors: the canonical
representative divides by the largest-modulus coordinate, which also makes
real lines literally real.  The lines found so far are kept as arrays; a
patch's solutions become lines, are deduplicated, sorted and met in array
passes, and the conjugate pairing and tritangent planes each work from one
matrix of Pluecker distances or meet forms.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

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
STRAGGLERS = 5               # paths left untracked, found from the others
SPAN_BITS = 1000             # tensor entries spanning more get balanced


# ---------------------------------------------------------------------------
# the cubic as a symmetric tensor
# ---------------------------------------------------------------------------

# the multiplicity of each coordinate in each tensor entry T_ijk, (64, 4)
_INDEX_COUNTS = np.array([np.bincount(ijk, minlength=4) for ijk in
                          itertools.product(range(4), repeat=3)])


def balancing_exponents(T: list) -> np.ndarray:
    """Integer exponents e (4,), largest 0, of a change of coordinates
    x_i = 2^e_i x'_i that balances the nonzero entries
    T_ijk 2^(e_i + e_j + e_k) of the integer tensor T: zeros when their
    bit lengths already lie within SPAN_BITS of each other.  Else each
    sweep moves every e_i in turn to where the spread of the entries' log2
    sizes is least; that spread is convex and piecewise linear in e_i, so
    it is least where two of its lines cross."""
    nonzero = [m for m, t in enumerate(T) if t]
    bits = [abs(T[m]).bit_length() for m in nonzero]
    if max(bits) - min(bits) < SPAN_BITS:
        return np.zeros(4, dtype=int)
    logs = np.array([math.log2(abs(T[m])) for m in nonzero])
    counts = _INDEX_COUNTS[nonzero]
    e = np.zeros(4)
    for _ in range(10):
        before = e.copy()
        for i in range(4):
            c = counts[:, i]
            a = logs + counts @ e - c * e[i]
            dc = c[:, None] - c[None, :]
            cross = (a[None, :] - a[:, None])[dc != 0] / dc[dc != 0]
            if not len(cross):
                continue
            sizes = a[:, None] + c[:, None] * cross[None, :]
            e[i] = cross[np.argmin(sizes.max(axis=0) - sizes.min(axis=0))]
        if np.abs(e - before).max() < 1e-9:
            break
    e = np.round(e).astype(int)
    return e - e.max()


def cubic_tensor(T: list, scale=None) -> np.ndarray:
    """The float tensor of the cubic F with the integer tensor T of
    `forms.form_tensor`, F(x) = s T(x, x, x) for s > 0, in the coordinates
    x_i = 2^scale_i x'_i when `scale` is given: T over its largest
    entry's modulus, each entry rounded once, so that none overflows."""
    if scale is not None and scale.any():
        shift = _INDEX_COUNTS @ scale
        T = [t << int(k) for t, k in zip(T, shift - shift.min())]
    top = max(map(abs, T))
    return np.array([t / top for t in T]).reshape(4, 4, 4)


def cubic_values(T: np.ndarray, X: np.ndarray) -> np.ndarray:
    """F at the points X (n, 4), from its tensor T: (n,)."""
    TX = (X @ T.reshape(4, 16)).reshape(-1, 4, 4)
    return ((TX @ X[:, :, None])[:, :, 0] * X).sum(axis=1)


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
    solutions X (n, 4) of C0 at t = 0 until at most STRAGGLERS of them are
    still live; returns the endgame's solutions of C1 (`_endgame`) from
    the others, (m, 4).  C0 and C1 are `patch_matrix` results.

    A step predicts, corrects once by Newton, and evaluates the homotopy
    once more at the corrected point: one solve there gives the second
    Newton correction and the tangent dX/dt for the next prediction.

    The stragglers' lines are not lost: when the other paths give their
    lines, the residual lines of tritangent planes give the rest
    (`_residual_lines`).  A missing line L lies in 5 tritangent planes,
    which meet only in L.  Another missing line lies in at most one of
    them, the plane it spans with L when it meets L, so at most 4 of the 5
    planes hold a second missing line.  In the fifth the two lines other
    than L were found; they meet, and L is the only line that meets both,
    since a line meeting both goes through their common point or lies in
    their plane, and either way lies in the plane."""
    # the homotopy is gamma C0 + t (C1 - gamma C0): one product gives the
    # system and Jacobian at t = 0 and their derivatives in t
    CC = np.hstack([gamma * C0, C1 - gamma * C0])

    def H_and_J(Xv, tv):
        V = _monomial_values(Xv) @ CC
        Vt = V[:, :20] + tv[:, None] * V[:, 20:]
        return Vt[:, :4], Vt[:, 4:].reshape(-1, 4, 4), V[:, 20:24]

    # the arrays hold the paths still being tracked, path[i] naming row i;
    # a path's last point goes to `ends` when it reaches t = 1 or dies.
    # Each keeps in Z its last accepted point X at t with tangent Xt, and
    # the point X0 at t0 with tangent Xt0 accepted before it (t0 == t
    # marks a path that has none yet), and in tt its times and step dt
    ends = np.empty_like(X)
    ended = np.zeros(len(X), dtype=bool)
    path = np.arange(len(X))
    Z = np.empty((len(X), 4, 4), dtype=complex)        # X, Xt, X0, Xt0
    tt = np.zeros((len(X), 3))                         # t, t0, dt
    tt[:, 2] = 0.05
    Z[:, 0] = X
    _, J, dHdt = H_and_J(X, tt[:, 0])
    Z[:, 1] = _solve_batched(J, -dHdt)
    Z[:, 2:] = Z[:, :2]
    for _ in range(2000):
        X, t, dt = Z[:, 0], tt[:, 0], tt[:, 2]
        t2 = np.minimum(1.0, t + dt)
        X2 = _predict(Z[:, 2], tt[:, 1], Z[:, 3], X, t, Z[:, 1], t2)
        H2, J2, _ = H_and_J(X2, t2)
        step1 = _solve_batched(J2, -H2)
        X2 = X2 + step1
        H2, J2, dHdt2 = H_and_J(X2, t2)
        # the corrected point and its tangent, (n, 2, 4)
        new = _solve_batched(J2, -np.stack([H2, dHdt2], axis=2)) \
            .transpose(0, 2, 1)
        step2 = new[:, 0].copy()
        new[:, 0] += X2
        # a first correction past 0.3 of the point's size marks a poor
        # prediction, from which Newton may reach another path; a second
        # one past CORRECTION_TOL marks a first that did not contract
        ok = np.abs(step1).max(axis=1) \
            <= 0.3 * np.maximum(1.0, np.abs(X).max(axis=1))
        ok &= np.abs(step2).max(axis=1) \
            <= CORRECTION_TOL * np.maximum(1.0, np.abs(new[:, 0]).max(axis=1))
        ok &= np.isfinite(new[:, 0]).all(axis=1)
        Z[ok, 2:] = Z[ok, :2]
        Z[ok, :2] = new[ok]
        tt[ok, 1] = t[ok]
        tt[ok, 0] = t2[ok]
        tt[:, 2] = np.where(ok, np.minimum(dt * 1.3, DT_MAX), dt * 0.4)
        done = (tt[:, 0] >= 1.0) | (tt[:, 2] < DT_MIN) \
            | (np.abs(Z[:, 0]).max(axis=1) > DIVERGENCE_CUTOFF)
        if done.any():
            ends[path[done]] = Z[done, 0]
            ended[path[done]] = True
            live = ~done
            path, Z, tt = path[live], Z[live], tt[live]
            if len(path) <= STRAGGLERS:
                break
    return _endgame(C1, ends[ended])


def _endgame(C1: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Plain Newton on the target system C1 from the points X (n, 4), also
    from paths that stalled short of t = 1; returns the solutions kept,
    (m, 4), in order.  A point stops at its noise floor: once its step is
    below 1e-12 of it, or below 1e-9 of it and no longer shrinking
    fourfold, as it would under Newton's quadratic convergence."""
    Xe = X[np.abs(X).max(axis=1) <= DIVERGENCE_CUTOFF]
    last = np.full(len(Xe), np.inf)     # each point's last step
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
    # the lines are in the coordinates x' of x_i = 2^scale_i x'_i
    # (`balancing_exponents`); zeros unless the surface needed balancing
    scale: np.ndarray = field(default_factory=lambda: np.zeros(4, int))


def _new_lines(S: np.ndarray, A: np.ndarray, T: np.ndarray, norm: float,
               found: np.ndarray, tol: float) -> tuple:
    """The lines of the solutions S (m, 4) in the patch A with residual at
    most tol in T relative to `norm`, DEDUPE_TOL or more from each found
    line (rows of the Pluecker array `found`) and from each earlier such
    solution, in order: their arrays (plucker, basis, real, residual)."""
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
    close = plucker_distances(np.vstack([found, P]), P) < DEDUPE_TOL
    fresh = (resid <= tol) & ~close[:len(found)].any(axis=0)
    keep = fresh & ~(np.triu(close[len(found):], 1)
                     & fresh[:, None]).any(axis=0)
    return P[keep], B[keep], real[keep], resid[keep]


def _plucker_matrices(P: np.ndarray) -> np.ndarray:
    """The antisymmetric matrices L = u v^T - v u^T (n, 4, 4) of the lines
    u ^ v with the Pluecker vectors P (n, 6).  L h is the point where the
    line meets the plane h; for the dual vectors P _MEET, L x is the plane
    through the line and the point x."""
    L = np.zeros((len(P), 4, 4), dtype=P.dtype)
    L[:, _PI, _PJ] = P
    L[:, _PJ, _PI] = -P
    return L


# the other two of three plane coordinates
_OTHER = np.array([[1, 2], [0, 2], [0, 1]])


def _residual_lines(T: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The third line of each plane spanned by two of the lines with the
    Pluecker vectors P (n, 6) that meet and have no common neighbour among
    them, as bases (m, 2, 4).

    For two lines that meet, L_1 L*_2 (`_plucker_matrices`, the second
    dual) has rank one, and its columns are multiples of their common
    point p; q = L_1 conj(p) and r = L_2 conj(p) are points of the two
    lines orthogonal to p.  In the coordinates y = a p + b q + c r of the
    plane, F is b c (6 T(p, q, r) a + 3 T(q, q, r) b + 3 T(q, r, r) c),
    and the third line is where the last factor vanishes: two of its
    points solve that factor for the coordinate of its largest
    coefficient."""
    M = _meets(P)
    Mi = M.astype(np.int64)
    i, j = np.nonzero(np.triu(M & (Mi @ Mi == 0)))
    m = np.arange(len(i))
    L = _plucker_matrices(P)
    LL = L[i] @ _plucker_matrices(P[j] @ _MEET)
    p = LL[m, :, np.argmax(np.abs(LL).sum(axis=1), axis=1)]
    q = (L[i] @ p.conj()[:, :, None])[:, :, 0]
    r = (L[j] @ p.conj()[:, :, None])[:, :, 0]
    Tr = (r @ T.reshape(4, 16)).reshape(-1, 4, 4)         # T(r, ., .)
    Tqr = (Tr @ q[:, :, None])[:, :, 0]
    Trr = (Tr @ r[:, :, None])[:, :, 0]
    form = np.stack([2 * (Tqr * p).sum(axis=1), (Tqr * q).sum(axis=1),
                     (Trr * q).sum(axis=1)], axis=1)
    big = np.argmax(np.abs(form), axis=1)
    Y = np.stack([p, q, r], axis=1)
    Y = Y - (form / form[m, big][:, None])[:, :, None] * Y[m, big][:, None]
    return Y[m[:, None], _OTHER[big]]


def _joined(found: tuple, new: tuple) -> tuple:
    """The line arrays of `_new_lines` with the new ones after them."""
    return tuple(map(np.concatenate, zip(found, new)))


def _complete(found: tuple, T: np.ndarray, A: np.ndarray, C1: np.ndarray,
              norm: float) -> tuple:
    """The line arrays `found` (plucker, basis, real, residual) with the
    residual lines of their tritangent planes (`_residual_lines`) added,
    until no new line appears or 27 are found.  Each is finished by
    `_endgame` on the target system C1 of the patch A, and kept as
    `_new_lines` keeps a tracked line."""
    while len(found[0]) < 27:
        bases = _residual_lines(T, found[0])
        if not len(bases):
            break
        S = _endgame(C1, _patch_coordinates(bases, A))
        new = _new_lines(S, A, T, norm, found[0], RESIDUAL_TOL)
        if not len(new[0]):
            break
        found = _joined(found, new)
    return found


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
    most RESIDUAL_TOL.  In each patch the tracked lines are completed from
    tritangent planes (`_residual_lines`) until no new line appears, and
    the next patch is taken while 27 lines are not found.  The lines are
    in the balanced coordinates of `LineSet.scale`.

    Raises NearDiscriminant when 27 clearly separated lines whose meet
    graph is that of the 27 lines (each meets exactly 10 others) cannot be
    produced, which for exact nonsingular input means the homotopy failed
    and for inexact input usually means the surface is too close to the
    discriminant.
    """
    if F.homogeneous_degree() != 3:
        raise ValueError("surface must be a homogeneous cubic")
    integer = (tensor or form_tensor(F))[0]
    scale = balancing_exponents(integer)
    T = cubic_tensor(integer, scale)
    norm = float(np.abs(T).sum())     # the sum of |coefficients| of T
    # the lines found: Pluecker vectors, bases, real flags and residuals
    found = (np.empty((0, 6), complex), np.empty((0, 2, 4), complex),
             np.empty(0, bool), np.empty(0))
    for attempt in range(ATTEMPTS):
        A, gamma, C0, X = _start_system(seed, attempt)
        C1 = patch_matrix(T, A)
        S = _track(C0, C1, gamma, X)
        found = _joined(found, _new_lines(S, A, T, norm, found[0],
                                          RESIDUAL_TOL))
        found = _complete(found, T, A, C1, norm)
        if len(found[0]) >= 27:
            break
    P, B, real, resid = found
    if len(P) < 27:
        raise NearDiscriminant(f"found {len(P)} separated lines, expected 27")
    if len(P) > 27:
        raise NearDiscriminant(
            f"found {len(P)} line candidates, expected 27")
    # sorted by each coordinate's real and imaginary part to 8 digits
    keys = np.round(np.stack([P.real, P.imag], axis=2).reshape(-1, 12), 8)
    order = np.lexsort(keys.T[::-1])
    degrees = _meets(P[order]).sum(axis=1)
    if (degrees != 10).any():
        raise NearDiscriminant(
            f"lines meet {sorted(set(degrees.tolist()))} others, "
            "expected 10 each")
    real_count = int(real.sum())
    if real_count not in (3, 7, 15, 27):
        raise NearDiscriminant(
            f"{real_count} real lines is impossible for a nonsingular surface")
    lines = [PluckerLine(P[k], B[k], bool(real[k]), float(resid[k]))
             for k in order]
    pairs = _conjugate_pairs(lines, DEDUPE_TOL)
    return LineSet(lines=lines, real_count=real_count, conj_pairs=pairs,
                   scale=scale)


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

def _meets(P: np.ndarray) -> np.ndarray:
    """Which pairs of the lines with the Pluecker vectors P (n, 6) meet:
    |p _MEET q| < MEET_TOL, off the diagonal."""
    M = np.abs(P @ _MEET @ P.T) < MEET_TOL
    np.fill_diagonal(M, False)
    return M


def input_plucker(lineset: LineSet) -> np.ndarray:
    """The lines' Pluecker vectors (n, 6) in the input's coordinates
    x_i = 2^e_i x'_i (e = `lineset.scale`): p_ij 2^(e_i + e_j), over the
    coordinate of largest modulus; one below the float range is 0."""
    P = np.array([l.plucker for l in lineset.lines])
    e = lineset.scale
    if not e.any():
        return P
    shift = e[_PI] + e[_PJ]
    with np.errstate(divide="ignore"):
        size = np.log2(np.abs(P)) + shift
    top = np.argmax(size, axis=1)
    R = P / P[np.arange(len(P)), top][:, None]
    shift = shift - shift[top][:, None]
    return np.ldexp(R.real, shift) + 1j * np.ldexp(R.imag, shift)


def meet_matrix(lines: list) -> np.ndarray:
    """`_meets` of the PluckerLines."""
    return _meets(np.array([l.plucker for l in lines]))


def tritangent_triples(lineset: LineSet) -> list:
    """All triples of pairwise intersecting, coplanar lines, with the plane.

    Returns dicts {lines: (i, j, k), plane: ndarray(4), real: bool}, with
    i < j < k in lexicographic order.  On a nonsingular cubic there are
    exactly 45.  The planes are in the coordinates of `lineset.scale`.
    """
    lines = lineset.lines
    U = np.triu(meet_matrix(lines))              # i < j that meet
    i, j = np.nonzero(U)
    # each k > j meeting both, in order
    pair, k = np.nonzero(U[i] & U[j])
    trips = np.stack([i[pair], j[pair], k], axis=1)
    bases = np.array([l.basis for l in lines])
    _, sv, vt = np.linalg.svd(bases[trips].reshape(-1, 6, 4))
    coplanar = sv[:, -1] <= MEET_TOL * sv[:, 0]    # else concurrent only
    trips, planes = trips[coplanar], vt[coplanar, -1]
    big = np.argmax(np.abs(planes), axis=1)
    planes = planes / planes[np.arange(len(planes)), big][:, None]
    # conj[m]: the index of line m's conjugate, m itself for a real line
    conj = np.arange(len(lines))
    if lineset.conj_pairs:
        a, b = np.array(lineset.conj_pairs).T
        conj[a], conj[b] = b, a
    real = (conj[trips][:, :, None] == trips[:, None, :]).any(axis=2) \
        .all(axis=1)
    flat = real & (np.abs(planes.imag).max(axis=1) < 1e-6)
    planes[flat] = planes[flat].real
    return [{"lines": trip, "plane": plane, "real": r}
            for trip, plane, r in zip(map(tuple, trips.tolist()), planes,
                                      real.tolist())]


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
