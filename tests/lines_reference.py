"""What the array passes of `realcubic.lines` are tested against: the
bookkeeping one line at a time, the homotopy tracker with three Newton
corrections and a residual test per step, and the start patches drawn in
turn from one generator.  Also the Clebsch diagonal surface, whose 27
lines are all real."""

import numpy as np

from realcubic.algebra import Poly
from realcubic.errors import NearDiscriminant
from realcubic.lines import (
    DEDUPE_TOL,
    DIVERGENCE_CUTOFF,
    DT_MAX,
    DT_MIN,
    IMAG_TOL,
    MEET_TOL,
    NEWTON_SETTLED,
    NEWTON_STEPS,
    PLUCKER_PAIRS,
    PluckerLine,
    _FERMAT_LINES,
    _FERMAT_TENSOR,
    _monomial_values,
    _patch_coordinates,
    _predict,
    _solve_batched,
    cubic_values,
    meet_matrix,
    patch_matrix,
    plucker_distances,
)


def clebsch_surface() -> Poly:
    return Poly.parse("x^3 + y^3 + z^3 + w^3 - (x + y + z + w)^3")


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


def conjugate_plucker(line: PluckerLine) -> np.ndarray:
    return normalize_plucker(np.conj(line.plucker))


def meet_form(p: np.ndarray, q: np.ndarray) -> complex:
    """Polarized quadric; zero iff the lines intersect."""
    return (p[0] * q[5] - p[1] * q[4] + p[2] * q[3]
            + q[0] * p[5] - q[1] * p[4] + q[2] * p[3])


def plucker_distance(p: np.ndarray, q: np.ndarray) -> float:
    """`plucker_distances` for one pair of lines."""
    return float(plucker_distances(p[None, :], q)[0])


def line_from_solution(sol, A, T, norm) -> PluckerLine:
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


def new_lines(S, A, T, norm, found, tol) -> list:
    """`lines._new_lines`, taking the solutions one by one, as
    PluckerLines; `found` holds the Pluecker vectors of the lines found."""
    P = found.reshape(-1, 6)
    out = []
    for sol in S:
        line = line_from_solution(sol, A, T, norm)
        if line.residual <= tol and (plucker_distances(
                P, line.plucker) >= DEDUPE_TOL).all():
            out.append(line)
            P = np.vstack([P, line.plucker])
    return out


def conjugate_pairs(lines: list, tol: float) -> list:
    pairs = []
    used = set()
    for i, li in enumerate(lines):
        if li.real or i in used:
            continue
        ci = conjugate_plucker(li)
        for j in range(i + 1, len(lines)):
            if j in used or lines[j].real:
                continue
            if plucker_distance(ci, lines[j].plucker) < tol:
                pairs.append((i, j))
                used.update((i, j))
                break
        else:
            raise NearDiscriminant(
                f"complex line {i} has no conjugate partner")
    return pairs


def tritangent_triples(lineset) -> list:
    lines = lineset.lines
    M = meet_matrix(lines)
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
                if sv[-1] > MEET_TOL * sv[0]:
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


def track(C0: np.ndarray, C1: np.ndarray, gamma: complex,
          X: np.ndarray) -> np.ndarray:
    """`lines._track` with four evaluations and four solves per step: three
    Newton corrections, then a residual test whose Jacobian also gives the
    tangent; it gathers and scatters all paths by index every step."""
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

    _, J, dHdt = H_and_J(X, t)
    Xt = _solve_batched(J, -dHdt)
    X0, t0, Xt0 = X.copy(), t.copy(), Xt.copy()
    for _ in range(2000):
        idx = np.flatnonzero(alive & (t < 1.0))
        if not len(idx):
            break
        t2 = np.minimum(1.0, t[idx] + dt[idx])
        X2 = _predict(X0[idx], t0[idx], Xt0[idx], X[idx], t[idx], Xt[idx],
                      t2)
        steps = []
        for _ in range(3):
            H2, J2, _ = H_and_J(X2, t2)
            steps.append(_solve_batched(J2, -H2))
            X2 = X2 + steps[-1]
        H2, J2, dHdt2 = H_and_J(X2, t2)
        mag = np.maximum(1.0, np.abs(X2).max(axis=1)) ** 3
        ok = (np.abs(H2).max(axis=1) < 1e-6 * scale * mag)
        ok &= np.isfinite(X2).all(axis=1)
        ok &= np.abs(steps[0]).max(axis=1) \
            <= 0.3 * np.maximum(1.0, np.abs(X[idx]).max(axis=1))
        good, bad = idx[ok], idx[~ok]
        X0[good], t0[good], Xt0[good] = X[good], t[good], Xt[good]
        X[good] = X2[ok]
        t[good] = t2[ok]
        Xt[good] = _solve_batched(J2[ok], -dHdt2[ok])
        dt[good] = np.minimum(dt[good] * 1.7, DT_MAX)
        dt[bad] *= 0.4
        alive[bad] &= dt[bad] >= DT_MIN
        alive &= np.abs(X).max(axis=1) <= DIVERGENCE_CUTOFF

    Xe = X[np.abs(X).max(axis=1) <= DIVERGENCE_CUTOFF]
    last = np.full(len(Xe), np.inf)
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
    keep &= last < NEWTON_SETTLED * mag
    keep &= np.isfinite(Xe).all(axis=1)
    return Xe[keep]


def start_systems(seed: int):
    """`lines._start_system(seed, k)` for k = 0, 1, ... in turn, drawn from
    one generator."""
    rng = np.random.default_rng(seed)
    while True:
        A = np.linalg.qr(rng.normal(size=(4, 4))
                         + 1j * rng.normal(size=(4, 4)))[0]
        gamma = np.exp(2j * np.pi * rng.random())
        yield (A, gamma, patch_matrix(_FERMAT_TENSOR, A),
               _patch_coordinates(_FERMAT_LINES, A))
