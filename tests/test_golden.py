"""Pins of the structured dilations and their gate lists.

``data/structured_golden.npz`` holds, for every family in
``golden_families()``, the dense structured dilation and, for the merged
and the unmerged circuit, each gate's ``wires`` and ``matrix``.  A family
now has one circuit, the merged one, which must match the ``merged`` keys
gate by gate; the ``plain`` circuit is no longer built, and its keys pin
only the operator, which the one circuit must still compile to.
It was written, before the per-family factor table replaced the two
per-family ladders, by::

    PYTHONPATH=src:tests python -c '
    import numpy as np
    from test_golden import golden_families
    from povmkit.circuits import synthesize_circuit
    from povmkit.dilation import structured_dilation
    from povmkit.families import build_povm
    data = {}
    for k, family in enumerate(golden_families()):
        d = structured_dilation(build_povm(family))
        data[f"{k}_label"] = family.label()
        data[f"{k}_dilation"] = d.matrix
        for tag, merge in (("merged", True), ("plain", False)):
            gates = synthesize_circuit(d, merge=merge).gates
            data[f"{k}_{tag}_count"] = len(gates)
            for i, g in enumerate(gates):
                data[f"{k}_{tag}_{i}_qubits"] = g.wires
                data[f"{k}_{tag}_{i}_matrix"] = g.matrix
    np.savez_compressed("tests/data/structured_golden.npz", **data)
    '

Gates are compared by wires and matrix, not by kind, so a padded Fourier
factor, stored when it was a dense gate and now a ``fourier`` gate, which
holds no matrix, counts as equal when ``helpers.gate_matrix`` of it is.

Those dilations were formed from a dense Fourier matrix, whose own
error reaches 1.1e-14 to 1.9e-14 at m = 96, 192 and 256.  Once the Fourier
factor ran as an FFT, within about 4e-17 of the exact F_m
(``test_kernels.test_structured_dilation_is_no_less_accurate_than_the_dense_fourier``),
the three dilations further than 1e-14 from the stored ones, cyclic 192,
cyclic 256 and dihedral 96, were stored again, every other array kept as
it was, by::

    PYTHONPATH=src:tests python -c '
    import numpy as np
    from test_golden import golden_families
    from povmkit.dilation import structured_dilation
    from povmkit.families import build_povm
    with np.load("tests/data/structured_golden.npz") as stored:
        data = dict(stored)
    for k, family in enumerate(golden_families()):
        d = structured_dilation(build_povm(family)).matrix
        if np.abs(d - data[f"{k}_dilation"]).max() > 1e-14:
            print(k, family.label())
            data[f"{k}_dilation"] = d
    np.savez_compressed("tests/data/structured_golden.npz", **data)
    '

``data/verify_all_reports.json`` holds the ``verify --all`` reports at
``DEFAULT_SEED``.  It was last written, when the Fourier factor and the
controlled phases stopped being dense products and only residual fields
moved, by::

    PYTHONPATH=src python -c '
    import json
    from povmkit.cli import default_verify_matrix
    from povmkit.simulate import verify_family
    reports = [verify_family(f).to_dict() for f in default_verify_matrix()]
    print(json.dumps(reports, indent=1, allow_nan=False))
    ' > tests/data/verify_all_reports.json
"""

import json
from pathlib import Path

import numpy as np
import pytest

from povmkit.circuits import compile_circuit, synthesize_circuit
from povmkit.cli import default_verify_matrix
from povmkit.dilation import structured_dilation
from povmkit.families import PLATONIC_KINDS, PovmFamily, build_povm
from povmkit.linalg import apply_gates
from povmkit.simulate import verify_family

from helpers import gate_matrix

GOLDEN = Path(__file__).parent / "data" / "structured_golden.npz"
REPORTS = Path(__file__).parent / "data" / "verify_all_reports.json"


def golden_families():
    families = [PovmFamily.cyclic(m) for m in (2, 3, 4, 5, 8, 16)]
    families += [PovmFamily.dihedral(m, 0.6, 0.8) for m in (2, 3, 4, 5, 6, 8)]
    families += [PovmFamily.platonic(kind) for kind in PLATONIC_KINDS]
    families.append(PovmFamily.dihedral(3, 0.6, 0.8j))
    families += [PovmFamily.cyclic(m) for m in (64, 192, 256)]
    families += [PovmFamily.dihedral_from_angle(m, 1.1) for m in (96, 128)]
    return families


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


FAMILIES = golden_families()


@pytest.mark.parametrize("k", range(len(FAMILIES)), ids=[f.label() for f in FAMILIES])
def test_structured_dilation_and_circuit_match_golden(golden, k):
    family = FAMILIES[k]
    assert str(golden[f"{k}_label"]) == family.label()
    d = structured_dilation(build_povm(family))
    expected = golden[f"{k}_dilation"]
    assert d.matrix.shape == expected.shape
    assert np.abs(d.matrix - expected).max() <= 1e-14
    gates = synthesize_circuit(d).gates
    assert len(gates) == int(golden[f"{k}_merged_count"])
    for i, g in enumerate(gates):
        assert g.wires == tuple(golden[f"{k}_merged_{i}_qubits"])
        want = golden[f"{k}_merged_{i}_matrix"]
        matrix = gate_matrix(g)
        assert matrix.shape == want.shape
        assert np.abs(matrix - want).max() <= 1e-15


@pytest.mark.parametrize("k", range(len(FAMILIES)), ids=[f.label() for f in FAMILIES])
def test_circuit_compiles_to_the_golden_plain_circuit(golden, k):
    """The unmerged circuit kept the half swap as its own cnot; the one
    circuit folds it into the coupling and must be the same operator."""
    d = structured_dilation(build_povm(FAMILIES[k]))
    plain = [
        (golden[f"{k}_plain_{i}_matrix"], tuple(golden[f"{k}_plain_{i}_qubits"]))
        for i in range(int(golden[f"{k}_plain_count"]))
    ]
    want = apply_gates(plain, np.eye(2**d.n_qubits, dtype=complex))
    assert np.abs(compile_circuit(synthesize_circuit(d)) - want).max() <= 1e-12


def test_verify_all_reports_match_golden():
    """The seeded states are the same stream, so every report field holds.

    The probability error alone may move in the last place, as the
    Born-rule kernel sums each probability's terms in its own order.
    """
    golden = json.loads(REPORTS.read_text())
    families = default_verify_matrix()
    assert len(golden) == len(families) == 17
    for family, want in zip(families, golden):
        got = json.loads(json.dumps(verify_family(family).to_dict()))
        error, want_error = got.pop("max_probability_error"), want.pop("max_probability_error")
        assert got == want
        assert abs(error - want_error) <= 1e-15
