"""Command line interface.

Subcommands mirror the library pipeline: ``build`` emits vectors and the
dilation, ``verify`` runs the end-to-end checks, ``simulate`` compares
circuit statistics with the analytic ones, ``sample`` draws seeded shot
counts, ``circuit`` prints the gate factorization and ``bloch`` the
outcome directions.

Exit codes: 0 success, 1 verification failure, 2 usage or parameter
errors, or a request too large for memory, 3 degenerate dihedral seed, 4 an
operating-system error such as an ``--output`` file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bloch import bloch_to_state
from .circuits import format_circuit, synthesize_circuit
from .dilation import (
    generic_completion,
    register_size,
    structured_circuit,
    structured_dilation,
)
from .errors import DegenerateOrbitError, InvalidParameterError, PovmKitError
from .families import DIHEDRAL, FAMILY_KINDS, PLATONIC_KINDS, PovmFamily, build_povm
from .simulate import (
    DEFAULT_SEED,
    analytic_probabilities,
    circuit_probabilities,
    dilation_probabilities,
    sample,
    verify_family,
)


def _fmt(x) -> str:
    """Round-trip decimal rendering for CSV cells."""
    return repr(float(x))


def _json(payload) -> str:
    """Strict JSON: a NaN or infinity raises instead of printing ``NaN``."""
    return json.dumps(payload, indent=2, allow_nan=False)


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def family_from_args(args) -> PovmFamily:
    """The family the arguments name.  The family itself refuses a missing
    parameter and one it would ignore; only ``--theta``, which it does not
    hold, is checked here."""
    kind = args.family
    if kind is None:
        raise InvalidParameterError("a family is required unless --all is given")
    if args.theta is None:
        return PovmFamily(kind, args.m, args.alpha, args.beta)
    if kind != DIHEDRAL:
        raise InvalidParameterError(f"the {kind} family takes no theta")
    if args.alpha is not None or args.beta is not None:
        raise InvalidParameterError("given theta, the dihedral family takes no alpha or beta")
    return PovmFamily.dihedral_from_angle(args.m, args.theta)


def dilated_family_from_args(args) -> PovmFamily:
    """``family_from_args`` for commands that dilate the family.

    Checks the register cap on the outcome count first, so an oversized
    ring fails at once, before any of its vectors are built.
    """
    family = family_from_args(args)
    register_size(family.n_outcomes)
    return family


def parse_state(text: str) -> np.ndarray:
    """Density matrix from 'mixed', Bloch coordinates, or amplitudes.

    Three comma-separated floats are a Bloch point; four are the real and
    imaginary parts of the two amplitudes of a pure state (normalized
    automatically).
    """
    if text.strip() == "mixed":
        return np.eye(2) / 2
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse state {text!r}") from exc
    if not all(math.isfinite(p) for p in parts):
        raise InvalidParameterError(f"state {text!r} has a non-finite entry")
    if len(parts) == 3:
        return bloch_to_state(np.array(parts))
    if len(parts) == 4:
        # scaled down by a power of two, which is exact, so that the norm of
        # a large state does not overflow; a scaled state's norm is at least
        # 1/2, so only an unscaled one can fall below the floor
        shift = max(math.frexp(max(map(abs, parts)))[1], 0)
        re0, im0, re1, im1 = (math.ldexp(p, -shift) for p in parts)
        psi = np.array([re0 + 1j * im0, re1 + 1j * im1])
        norm = np.linalg.norm(psi)
        if norm < 1e-12:
            raise InvalidParameterError("amplitude state must be nonzero")
        psi = psi / norm
        return np.outer(psi, psi.conj())
    raise InvalidParameterError(
        "state must be 'mixed', three Bloch coordinates, or four amplitude parts"
    )


def default_verify_matrix() -> list[PovmFamily]:
    """The family grid exercised by ``verify --all``."""
    families = [PovmFamily.cyclic(m) for m in (2, 3, 4, 5, 8, 16)]
    families += [PovmFamily.dihedral(m, 0.6, 0.8) for m in (2, 3, 4, 5, 6, 8)]
    families += [PovmFamily.platonic(kind) for kind in PLATONIC_KINDS]
    return families


# ---------------------------------------------------------------- subcommands


def cmd_build(args) -> int:
    povm = build_povm(dilated_family_from_args(args))
    dilate = structured_dilation if args.method == "structured" else generic_completion
    payload = {"povm": povm.to_dict(), "dilation": dilate(povm).to_dict()}
    _emit(args, _json(payload))
    return 0


def cmd_verify(args) -> int:
    family_args = (args.family, args.m, args.alpha, args.beta, args.theta)
    if args.all and any(value is not None for value in family_args):
        raise InvalidParameterError(
            "--all verifies the standard grid and takes no family arguments"
        )
    # verify_family checks the register cap before building anything
    families = default_verify_matrix() if args.all else [family_from_args(args)]
    reports = [
        verify_family(family, n_states=args.states, seed=args.seed, method=args.method)
        for family in families
    ]
    if args.format == "json":
        _emit(args, _json([r.to_dict() for r in reports]))
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            if r.error is not None:
                lines.append(f"{status}  {r.label}  error: {r.error}")
                continue
            line = (
                f"{status}  {r.label}"
                f"  completeness={r.completeness_residual:.2e}"
                f" unitarity={r.unitarity_residual:.2e}"
                f" embedding={r.embedding_residual:.2e}"
            )
            if r.circuit_distance is not None:
                line += f" circuit={r.circuit_distance:.2e}"
            line += (
                f" probability={r.max_probability_error:.2e}"
                f" padding={r.max_padding_probability:.2e}"
            )
            if r.failures:
                line += f"  [{', '.join(r.failures)}]"
            lines.append(line)
        _emit(args, "\n".join(lines))
    if any(r.error is not None for r in reports):
        return 3
    return 0 if all(r.passed for r in reports) else 1


def cmd_simulate(args) -> int:
    family = dilated_family_from_args(args)
    povm = build_povm(family)
    rho = parse_state(args.state)
    analytic = analytic_probabilities(povm, rho)
    if args.method == "structured":
        dilated = structured_dilation(povm)
        circuit = synthesize_circuit(dilated)
        register = circuit_probabilities(dilated, circuit, rho)
    else:
        register = dilation_probabilities(generic_completion(povm), rho)
    errors = np.abs(register - analytic)
    if args.format == "csv":
        lines = ["outcome,analytic,circuit,abs_error"]
        for j in range(povm.n):
            lines.append(
                f"{j},{_fmt(analytic[j])},{_fmt(register[j])},{_fmt(errors[j])}"
            )
        _emit(args, "\n".join(lines))
    else:
        payload = {
            "family": family.to_dict(),
            "state": args.state,
            "analytic": [float(p) for p in analytic],
            "circuit": [float(p) for p in register],
            "max_abs_error": float(errors.max()),
        }
        _emit(args, _json(payload))
    return 0


def cmd_sample(args) -> int:
    family = dilated_family_from_args(args)
    povm = build_povm(family)
    rho = parse_state(args.state)
    analytic = analytic_probabilities(povm, rho)
    dilated = structured_dilation(povm)
    circuit = synthesize_circuit(dilated)
    probs = circuit_probabilities(dilated, circuit, rho)
    counts = sample(probs, args.shots, args.seed)
    freqs = counts.frequencies()
    if args.format == "csv":
        lines = [
            f"# seed={counts.seed} shots={counts.shots} family={family.label()}",
            "outcome,count,frequency",
        ]
        for j in range(povm.n):
            lines.append(f"{j},{int(counts.counts[j])},{_fmt(freqs[j])}")
        _emit(args, "\n".join(lines))
    else:
        payload = {
            "family": family.to_dict(),
            "state": args.state,
            "seed": counts.seed,
            "shots": counts.shots,
            "counts": [int(c) for c in counts.counts],
            "frequencies": [float(f) for f in freqs],
            "analytic": [float(p) for p in analytic],
        }
        _emit(args, _json(payload))
    return 0


def cmd_circuit(args) -> int:
    povm = build_povm(dilated_family_from_args(args))
    circuit = structured_circuit(povm)
    if args.format == "json":
        _emit(args, _json(circuit.to_dict()))
    else:
        _emit(args, format_circuit(circuit))
    return 0


def cmd_bloch(args) -> int:
    povm = build_povm(family_from_args(args))
    points = povm.bloch_points()
    if args.format == "csv":
        lines = ["index,x,y,z"]
        for j, p in enumerate(points):
            lines.append(f"{j},{_fmt(p[0])},{_fmt(p[1])},{_fmt(p[2])}")
        _emit(args, "\n".join(lines))
    else:
        payload = {
            "family": povm.family.to_dict(),
            "points": [[float(c) for c in p] for p in points],
        }
        _emit(args, _json(payload))
    return 0


# ---------------------------------------------------------------- parser


def _add_family_arguments(sub: argparse.ArgumentParser, required: bool = True) -> None:
    sub.add_argument(
        "family",
        choices=FAMILY_KINDS,
        nargs=None if required else "?",
        help="measurement family",
    )
    sub.add_argument(
        "-m", type=int, default=None, help="ring size for cyclic and dihedral"
    )
    sub.add_argument(
        "--alpha", type=float, default=None, help="dihedral seed amplitude (real)"
    )
    sub.add_argument(
        "--beta", type=complex, default=None, help="dihedral seed amplitude, e.g. 0.8 or 0.5+0.3j"
    )
    sub.add_argument(
        "--theta",
        type=float,
        default=None,
        help="dihedral upper-ring polar angle in radians (alternative to --alpha/--beta)",
    )


def _add_output_arguments(sub: argparse.ArgumentParser, formats: tuple) -> None:
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )


class _Parser(argparse.ArgumentParser):
    """A parser, its subcommands' too, whose usage errors raise, so that
    ``main`` prints each as one ``error:`` line."""

    def error(self, message):
        raise InvalidParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="povmkit",
        description="Symmetric single-qubit measurements, dilations and circuits.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="emit vectors and dilation as JSON")
    _add_family_arguments(b)
    b.add_argument("--method", choices=("structured", "generic"), default="structured")
    _add_output_arguments(b, ("json",))
    b.set_defaults(func=cmd_build)

    v = subs.add_parser("verify", help="run end-to-end checks")
    _add_family_arguments(v, required=False)
    v.add_argument("--all", action="store_true", help="verify the standard family grid")
    v.add_argument("--states", type=int, default=20, help="random states per family")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--method", choices=("structured", "generic"), default="structured")
    _add_output_arguments(v, ("text", "json"))
    v.set_defaults(func=cmd_verify)

    s = subs.add_parser("simulate", help="compare circuit and analytic statistics")
    _add_family_arguments(s)
    s.add_argument("--state", default="mixed", help="'mixed', x,y,z or re0,im0,re1,im1")
    s.add_argument("--method", choices=("structured", "generic"), default="structured")
    _add_output_arguments(s, ("json", "csv"))
    s.set_defaults(func=cmd_simulate)

    p = subs.add_parser("sample", help="draw seeded shot counts")
    _add_family_arguments(p)
    p.add_argument("--state", default="mixed", help="'mixed', x,y,z or re0,im0,re1,im1")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_arguments(p, ("json", "csv"))
    p.set_defaults(func=cmd_sample)

    c = subs.add_parser("circuit", help="print the gate factorization")
    _add_family_arguments(c)
    _add_output_arguments(c, ("text", "json"))
    c.set_defaults(func=cmd_circuit)

    g = subs.add_parser("bloch", help="outcome directions on the Bloch sphere")
    _add_family_arguments(g)
    _add_output_arguments(g, ("json", "csv"))
    g.set_defaults(func=cmd_bloch)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DegenerateOrbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PovmKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
