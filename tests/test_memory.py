"""Peak memory of the oracle's largest stages at d=5 and of End(Q) at d=6, traced by tracemalloc.

numpy reports every array buffer to tracemalloc, so these peaks are exact
and repeatable, unlike process RSS.  Today's peaks (MiB, gf2-u1 / gf5-u2,
re-measured in this file's order in one process, after the TL image was
closed inside the solved double commutant and each target block of the
structure constants was read once):
structure constants of S(2, 5) 1.5 / 1.5, each target block read once from
the products over every middle weight (1.4 / 1.4 read once per triple of
weights, 2.7 / 2.9
through a coordinate reader on the live weight blocks, in chunks of 256 KiB
of products; 2.0 / 4.0 when every product was formed on all n^2 entries,
one left factor at a time), End(Q) at d=6 with its split into primitive
idempotents through the weight tops, all matrices on Q, 16.1 / 36.2 (16.1 /
50.8 by random Fitting splits, 45.8 / 103.2 with its dim^3 structure
constants),
the double centralizer report 1.7 / 3.8, the TL image closed inside the
double commutant (1.7 / 3.9 closed first on all weight-diagonal entries,
1.7 / 4.4 with its closure check
on all n^2 entries, 1.9 / 21.3 before the intertwiner systems were streamed
in row blocks), its double-commutant solve alone 1.6 / 3.3 (1.8 / 20.3),
the regular dominant dimension with its End(Q) and the split of End(Q)
into primitive idempotents 1.2 / 3.6 (1.2 / 4.0 by random Fitting splits,
1.2 / 5.4 with cokernel modules and
their complements in Q^g, 2.3 / 5.3 with End(Q)'s structure
constants, 3.8 / 6.7 with the End(Q) multiplication table and
unrestricted left-exactness unknowns, 3.8 / 16.2 unstreamed, 39.0 / 36.6
before minimal approximations).  Building all
dim^2 products at once, or the intertwiner systems in int64, puts each stage
over its bound on at least one config (10.1 / 101.6, 26.3 / 101.1 and
114.8 / 52.3).
"""

import pytest

from tlschur.hecke import classical_char2, quantum_ell2
from tlschur.oracle import _tensor_end
from tlschur.oracle import regular_module, relative_domdim, schur_algebra, tensor_module
from tlschur.tensor_action import double_centralizer_report, intertwiner_rows, structure_constants, weight_classes
from tlschur.tl import catalan

CONFIGS = [classical_char2, quantum_ell2]
IDS = ["gf2-u1", "gf5-u2"]


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_structure_constants_peak(make, traced_peak_mb):
    alg = schur_algebra(make(5))
    (c, _, _), peak = traced_peak_mb(structure_constants, alg.basis)
    assert (c == alg.structure).all()
    assert peak <= 16, f"{peak:.1f} MiB"


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_tensor_end_peak(make, traced_peak_mb):
    # End(Q) at d=6 and its split through the weight tops, held as matrices on Q: no dim^3 structure constants
    q = tensor_module(schur_algebra(make(6)))
    end, peak = traced_peak_mb(_tensor_end, q)
    assert sum(a * t for a, t in zip(end.mults, end.dims)) == q.dim
    assert peak <= 64, f"{peak:.1f} MiB"


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_double_centralizer_report_peak(make, traced_peak_mb):
    report, peak = traced_peak_mb(double_centralizer_report, make(5))
    assert report["commutant_closed_under_product"] and report["tl_image_equals_double_commutant"]
    assert peak <= 48, f"{peak:.1f} MiB"


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_double_commutant_solve_peak(make, traced_peak_mb):
    # the 2324 x 252 system goes through one RowSpace in row blocks, never whole as int64
    comm = schur_algebra(make(5)).basis
    classes = weight_classes(32)
    rows, peak = traced_peak_mb(intertwiner_rows, comm, comm, classes, classes)
    assert rows.nrows == catalan(5)
    assert peak <= 6, f"{peak:.1f} MiB"


@pytest.mark.parametrize("make", CONFIGS, ids=IDS)
def test_regular_domdim_peak(make, traced_peak_mb):
    # a fresh Q, so End(Q) and its structure constants are built inside the trace
    alg = schur_algebra(make(5))
    got, peak = traced_peak_mb(relative_domdim, regular_module(alg), tensor_module(alg))
    assert got.encode() == "infinity"
    assert peak <= 64, f"{peak:.1f} MiB"
