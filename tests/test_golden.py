"""Golden outputs of the deterministic commands: every line of ``golden/outputs.sha256`` run in
process through ``cli.main`` (or ``reproduce_figures.py --steps 201``) gives its recorded digest.

The lines cover ``classify`` on the three EPR families and on one-mode moments, the edge
|m| = n + 1/2 included; every refusal of ``test_cli.TestBadInput``; the kernel files of
``test_cli.TestConvertExitDependsOnTheFile`` but the singular W, whose message prints an eigenvalue
from LAPACK; input past the verdict range; scans of the five figure pairs and of other grids; and
the scan CSVs of ``reproduce_figures.py``.
Each of these computes on closed forms and Python floats, so its bytes do not depend on the CPU.

Left out are the outputs that pass through LAPACK or numpy's ``exp``, whose last bits can differ
between CPUs and builds: ``classify`` of general two-mode moments (one ``eigh``), ``oracle`` (the
Fock spectrum), ``convert`` of a kernel file (one ``eigh``), ``wigner`` and ``wavefun`` grids, and
the wave-function CSV of ``reproduce_figures.py``.  Their refusals that print no such number are in.

An output changed on purpose is re-recorded with ``PYTHONPATH=src python tests/golden/regenerate.py``,
which prints the changed lines.
"""

import importlib.util
import pathlib

_spec = importlib.util.spec_from_file_location("regenerate", pathlib.Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_outputs_match_their_golden_digests():
    pairs = golden.read()
    got = golden.digests([argv for _, argv in pairs])
    assert [argv for (want, argv), digest in zip(pairs, got) if digest != want] == []
    assert len(pairs) >= 200 and len({argv for _, argv in pairs}) == len(pairs)
