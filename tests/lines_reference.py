"""The line solver's bookkeeping one line at a time: the per-line helpers
and loops that the batched array passes of `realcubic.lines` are tested
against."""

import numpy as np

from realcubic.errors import NearDiscriminant
from realcubic.lines import (
    DEDUPE_TOL,
    IMAG_TOL,
    PLUCKER_PAIRS,
    PluckerLine,
    cubic_values,
    meet_matrix,
    plucker_distances,
)


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
    """`lines._new_lines`, taking the solutions one by one."""
    P = np.array([line.plucker for line in found]).reshape(-1, 6)
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


def tritangent_triples(lineset, tol: float = 1e-6) -> list:
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
