"""Acceptance gate: the nine end-to-end criteria, one report line each.

Each test prints '[acceptance] criterion N (name): PASS/FAIL' and asserts.
Random states are drawn from seeded generators so every run checks the
same inputs.
"""

import numpy as np

from povmkit.circuits import (
    compile_circuit,
    orbit_mixer_adjoint_circuit,
    qft_circuit,
    synthesize_circuit,
)
from povmkit.dilation import generic_completion, orbit_mixer, structured_dilation
from povmkit.errors import DegenerateOrbitError
from povmkit.families import (
    CUBE,
    DODECAHEDRON,
    ICOSAHEDRON,
    OCTAHEDRON,
    PLATONIC_KINDS,
    TETRAHEDRON,
    PovmFamily,
    build_povm,
    dihedral_povm,
    platonic_povm,
    validate_povm,
)
from povmkit.linalg import distance_up_to_global_phase, fourier_matrix
from povmkit.simulate import (
    DEFAULT_SEED,
    analytic_probabilities,
    circuit_probabilities,
    random_density_matrix,
    sample,
)

STATES_PER_FAMILY = 100


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


def dihedral_seeds(m: int, count: int = 3) -> list:
    """Deterministic non-degenerate seeds for ring size m."""
    rng = np.random.Generator(np.random.PCG64(1000 + m))
    seeds = []
    while len(seeds) < count:
        theta = rng.uniform(0.15, np.pi - 0.15)
        phi = rng.uniform(0.0, 2 * np.pi)
        alpha = float(np.cos(theta / 2))
        beta = complex(np.sin(theta / 2) * np.exp(1j * phi))
        try:
            dihedral_povm(m, alpha, beta)
        except DegenerateOrbitError:
            continue
        seeds.append((alpha, beta))
    return seeds


def completeness_matrix() -> list:
    families = [PovmFamily.cyclic(m) for m in range(2, 17)]
    for m in range(2, 9):
        families += [PovmFamily.dihedral(m, a, b) for a, b in dihedral_seeds(m)]
    families += [PovmFamily.platonic(kind) for kind in PLATONIC_KINDS]
    return families


def circuit_matrix() -> list:
    families = [PovmFamily.cyclic(m) for m in (2, 3, 4, 5, 8, 16)]
    for m in (2, 3, 4, 5, 6, 8):
        families += [PovmFamily.dihedral(m, a, b) for a, b in dihedral_seeds(m)]
    families += [PovmFamily.platonic(kind) for kind in PLATONIC_KINDS]
    return families


def test_criterion_1_completeness():
    worst = 0.0
    for family in completeness_matrix():
        check = validate_povm(build_povm(family))
        worst = max(worst, check.completeness_residual)
    _report(1, "completeness", worst <= 1e-10, f"worst residual {worst:.2e}")


def test_criterion_2_structured_dilations():
    worst_unitary = 0.0
    worst_rows = 0.0
    for family in circuit_matrix():
        d = structured_dilation(build_povm(family))
        worst_unitary = max(worst_unitary, d.unitarity_residual())
        worst_rows = max(worst_rows, d.embedding_residual())
    passed = worst_unitary <= 1e-10 and worst_rows <= 1e-10
    _report(
        2,
        "structured dilation",
        passed,
        f"unitarity {worst_unitary:.2e}, vector rows {worst_rows:.2e}",
    )


def test_criterion_3_circuit_fidelity():
    worst = 0.0
    for family in circuit_matrix():
        d = structured_dilation(build_povm(family))
        target = d.matrix.conj().T
        compiled = compile_circuit(synthesize_circuit(d))
        worst = max(worst, distance_up_to_global_phase(compiled, target))
    _report(3, "circuit fidelity", worst <= 1e-9, f"worst distance {worst:.2e}")


def test_criterion_4_circuit_statistics():
    rng = np.random.Generator(np.random.PCG64(DEFAULT_SEED))
    worst_error = 0.0
    worst_leak = 0.0
    for family in circuit_matrix():
        povm = build_povm(family)
        d = structured_dilation(povm)
        circuit = synthesize_circuit(d)
        u = compile_circuit(circuit)
        for _ in range(STATES_PER_FAMILY):
            rho = random_density_matrix(rng)
            big = np.zeros((d.dim, d.dim), dtype=complex)
            big[:2, :2] = rho
            basis = np.diag(u @ big @ u.conj().T).real
            folded = np.zeros(povm.n)
            for outcome, b in enumerate(d.outcome_positions):
                folded[outcome] = basis[b]
            for b in d.padding_positions:
                worst_leak = max(worst_leak, float(basis[b]))
            expected = analytic_probabilities(povm, rho)
            worst_error = max(worst_error, float(np.abs(folded - expected).max()))
    passed = worst_error <= 1e-9 and worst_leak <= 1e-12
    _report(
        4,
        "circuit statistics",
        passed,
        f"probability error {worst_error:.2e}, padding {worst_leak:.2e}",
    )


def test_criterion_5_frozen_values():
    rho = np.diag([1.0, 0.0])
    probs = analytic_probabilities(platonic_povm(TETRAHEDRON), rho)
    hi = (3 + np.sqrt(3)) / 12
    lo = (3 - np.sqrt(3)) / 12
    tetra_err = float(np.abs(probs - np.array([hi, hi, lo, lo])).max())

    mixer_err = 0.0
    for kind in (DODECAHEDRON, ICOSAHEDRON):
        compiled = compile_circuit(orbit_mixer_adjoint_circuit(kind))
        mixer_err = max(
            mixer_err, float(np.abs(compiled - orbit_mixer(kind).conj().T).max())
        )
    passed = tetra_err <= 1e-12 and mixer_err <= 1e-9
    _report(
        5,
        "frozen values",
        passed,
        f"tetrahedron probabilities {tetra_err:.2e}, mixer split {mixer_err:.2e}",
    )


def test_criterion_6_geometry():
    tol = 1e-10
    problems = []

    points = platonic_povm(TETRAHEDRON).bloch_points()
    dots = points @ points.T
    if np.abs(dots[~np.eye(4, dtype=bool)] + 1 / 3).max() > tol:
        problems.append("tetrahedron angles")

    points = platonic_povm(OCTAHEDRON).bloch_points()
    dots = points @ points.T
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            expected = -1.0 if abs(i - j) == 3 else 0.0
            if abs(dots[i, j] - expected) > tol:
                problems.append("octahedron axes")

    for kind in (CUBE, DODECAHEDRON, ICOSAHEDRON):
        points = platonic_povm(kind).bloch_points()
        for p in points:
            if min(np.linalg.norm(points + p, axis=1)) > tol:
                problems.append(f"{kind} inversion")

    points = platonic_povm(ICOSAHEDRON).bloch_points()
    dots = points @ points.T
    allowed = np.array([-1.0, -1 / np.sqrt(5), 1 / np.sqrt(5)])
    for i in range(12):
        for j in range(i + 1, 12):
            if np.abs(allowed - dots[i, j]).min() > tol:
                problems.append("icosahedron dot spectrum")

    m = 5
    for j, p in enumerate(build_povm(PovmFamily.cyclic(m)).bloch_points()):
        target = np.array(
            [np.cos(-2 * np.pi * j / m), np.sin(-2 * np.pi * j / m), 0.0]
        )
        if np.abs(p - target).max() > tol:
            problems.append("cyclic ring")

    alpha, beta, m = 0.6, 0.8, 4
    points = dihedral_povm(m, alpha, beta).bloch_points()
    for j in range(m):
        w = np.exp(-2j * np.pi * j / m)
        upper = 2 * alpha * beta * w
        if np.abs(points[j] - [upper.real, upper.imag, alpha**2 - beta**2]).max() > tol:
            problems.append("dihedral upper ring")
        if np.abs(points[m + j] - [upper.real, upper.imag, beta**2 - alpha**2]).max() > tol:
            problems.append("dihedral lower ring")

    outer_vertex = np.array([np.sqrt(2 / 3), 0.0, np.sqrt(1 / 3)])
    for kind in (TETRAHEDRON, CUBE, OCTAHEDRON):
        if np.abs(platonic_povm(kind).bloch_points()[0] - outer_vertex).max() > tol:
            problems.append(f"{kind} first vertex")
    r5 = np.sqrt(5.0)
    ring_vertex = np.array(
        [np.sqrt((10 - 2 * r5) / 15), 0.0, np.sqrt((5 + 2 * r5) / 15)]
    )
    for kind in (DODECAHEDRON, ICOSAHEDRON):
        if np.abs(platonic_povm(kind).bloch_points()[0] - ring_vertex).max() > tol:
            problems.append(f"{kind} first vertex")

    detail = "; ".join(sorted(set(problems))) if problems else "all pins hold"
    _report(6, "geometry", not problems, detail)


def test_criterion_7_qft():
    worst = 0.0
    for l in (1, 2, 3, 4):
        compiled = compile_circuit(qft_circuit(l))
        worst = max(worst, float(np.abs(compiled - fourier_matrix(2**l)).max()))
    _report(7, "qft", worst <= 1e-10, f"worst deviation {worst:.2e}")


def test_criterion_8_sampling():
    povm = build_povm(PovmFamily.cyclic(4))
    d = structured_dilation(povm)
    circuit = synthesize_circuit(d)
    rho = np.eye(2) / 2
    probs = circuit_probabilities(d, circuit, rho)
    first = sample(probs, 10**6, seed=0x5EED)
    second = sample(probs, 10**6, seed=0x5EED)
    identical = first.counts.tobytes() == second.counts.tobytes()
    tv = first.total_variation(analytic_probabilities(povm, rho))
    passed = identical and tv <= 0.005 and first.counts.sum() == 10**6
    _report(
        8,
        "sampling",
        passed,
        f"total variation {tv:.2e}, byte-identical {identical}",
    )


def test_criterion_9_generic_completion():
    rng = np.random.Generator(np.random.PCG64(DEFAULT_SEED + 1))
    worst_unitary = 0.0
    worst_rows = 0.0
    worst_error = 0.0
    worst_leak = 0.0
    for family in circuit_matrix():
        povm = build_povm(family)
        d = generic_completion(povm)
        worst_unitary = max(worst_unitary, d.unitarity_residual())
        worst_rows = max(worst_rows, d.embedding_residual())
        u = d.matrix.conj().T
        for _ in range(STATES_PER_FAMILY):
            rho = random_density_matrix(rng)
            big = np.zeros((d.dim, d.dim), dtype=complex)
            big[:2, :2] = rho
            basis = np.diag(u @ big @ u.conj().T).real
            if d.padding_positions.size:
                worst_leak = max(worst_leak, float(basis[d.padding_positions].max()))
            expected = analytic_probabilities(povm, rho)
            worst_error = max(
                worst_error, float(np.abs(basis[: povm.n] - expected).max())
            )
    passed = (
        worst_unitary <= 1e-10
        and worst_rows <= 1e-10
        and worst_error <= 1e-9
        and worst_leak <= 1e-12
    )
    _report(
        9,
        "generic completion",
        passed,
        f"unitarity {worst_unitary:.2e}, rows {worst_rows:.2e}, "
        f"probability error {worst_error:.2e}, padding {worst_leak:.2e}",
    )
