"""Pins of the structured dilations and their gate lists.

``data/structured_golden.npz`` holds, for every family in
``golden_families()``, the dense structured dilation and, for the merged
and the unmerged circuit, each gate's ``qubits()`` and ``local_matrix()``.
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
                data[f"{k}_{tag}_{i}_qubits"] = g.qubits()
                data[f"{k}_{tag}_{i}_matrix"] = g.local_matrix()
    np.savez_compressed("tests/data/structured_golden.npz", **data)
    '

Gates are compared by qubits and local matrix, not by kind, so a ``u`` and
a one-target ``block`` with the same matrix count as equal.
"""

from pathlib import Path

import numpy as np
import pytest

from povmkit.circuits import synthesize_circuit
from povmkit.dilation import structured_dilation
from povmkit.families import PLATONIC_KINDS, PovmFamily, build_povm

GOLDEN = Path(__file__).parent / "data" / "structured_golden.npz"


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
    for tag, merge in (("merged", True), ("plain", False)):
        gates = synthesize_circuit(d, merge=merge).gates
        assert len(gates) == int(golden[f"{k}_{tag}_count"])
        for i, g in enumerate(gates):
            assert g.qubits() == tuple(golden[f"{k}_{tag}_{i}_qubits"])
            want = golden[f"{k}_{tag}_{i}_matrix"]
            assert g.local_matrix().shape == want.shape
            assert np.abs(g.local_matrix() - want).max() <= 1e-15
