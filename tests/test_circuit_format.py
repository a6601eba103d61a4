"""Pins of the printed circuits: ``format_circuit`` text and ``to_dict``.

``data/circuit_format_golden.json`` holds, for every circuit of
``golden_circuits()``, its ``format_circuit`` text and its ``to_dict()``.
It was written, while each gate kind still had a class of its own, by::

    PYTHONPATH=src:tests python -c '
    import json
    from povmkit.circuits import format_circuit
    from test_circuit_format import golden_circuits
    golden = [
        {"name": name, "text": format_circuit(c), "circuit": c.to_dict()}
        for name, c in golden_circuits()
    ]
    print(json.dumps(golden, indent=1, allow_nan=False))
    ' > tests/data/circuit_format_golden.json

Its Fourier entries were rewritten once, by the same ``format_circuit``
and ``to_dict``, when the padded Fourier factor became a ``fourier`` gate:
each such gate had been a ``block`` whose printed matrix equals the new
gate's dense matrix to 1e-15, and no other entry changed.

The text and every key outside the gate matrices must match exactly; a
matrix entry may move by 1e-15, as the golden dilations may.  Entries are
read by name, and the ``plain`` ones are no longer read: a family has one
circuit, the ``merged`` one.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from povmkit.circuits import (
    format_circuit,
    inverse_circuit,
    qft_circuit,
    synthesize_circuit,
)
from povmkit.cli import default_verify_matrix
from povmkit.dilation import structured_dilation
from povmkit.families import build_povm

GOLDEN = Path(__file__).parent / "data" / "circuit_format_golden.json"


def golden_circuits():
    """The ``verify --all`` circuits, their inverses, and qft(1..5)."""
    circuits = []
    for family in default_verify_matrix():
        c = synthesize_circuit(structured_dilation(build_povm(family)))
        circuits.append((f"{family.label()} merged", c))
        circuits.append((f"{family.label()} merged inverse", inverse_circuit(c)))
    circuits += [(f"qft({n})", qft_circuit(n)) for n in range(1, 6)]
    return circuits


def _split_matrices(circuit: dict) -> tuple[dict, list]:
    """The circuit dict without its gates' matrices, and those matrices."""
    matrices = [np.array(g.get("matrix", [])).reshape(-1, 2) for g in circuit["gates"]]
    gates = [{k: v for k, v in g.items() if k != "matrix"} for g in circuit["gates"]]
    return {**circuit, "gates": gates}, matrices


GOLDEN_CIRCUITS = golden_circuits()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "k", range(len(GOLDEN_CIRCUITS)), ids=[name for name, _ in GOLDEN_CIRCUITS]
)
def test_printed_circuit_matches_golden(golden, k):
    name, circuit = GOLDEN_CIRCUITS[k]
    want = next(entry for entry in golden if entry["name"] == name)
    assert format_circuit(circuit) == want["text"]
    got = json.loads(json.dumps(circuit.to_dict(), allow_nan=False))
    got_rest, got_matrices = _split_matrices(got)
    want_rest, want_matrices = _split_matrices(want["circuit"])
    assert json.dumps(got_rest) == json.dumps(want_rest)
    for got_matrix, want_matrix in zip(got_matrices, want_matrices):
        assert got_matrix.shape == want_matrix.shape
        assert np.abs(got_matrix - want_matrix).max(initial=0.0) <= 1e-15


def test_golden_covers_every_circuit(golden):
    names = [entry["name"] for entry in golden if " plain" not in entry["name"]]
    assert names == [name for name, _ in GOLDEN_CIRCUITS]
