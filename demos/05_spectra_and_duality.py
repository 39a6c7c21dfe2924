#!/usr/bin/env python3
"""Finite-section spectra and the Aubry identity Spec(l) = l2 * Spec(dual)."""

import time

from harperlab.contfrac import golden
from harperlab.model import CouplingTriple, duality
from harperlab.spectral import duality_check, truncated_spectrum
from harperlab.model import OperatorSample

c = CouplingTriple(0.1, 0.5, 0.2)
s = OperatorSample(c, golden(), 0.135)

spec = truncated_spectrum(s, 512)
print(f"=== LAPACK ({spec.method}) spectrum of a 512-site window ===")
e = spec.eigenvalues
print(f"  {len(e)} eigenvalues in [{e[0]:.4f}, {e[-1]:.4f}], median {e[256]:.4f}")

print("\n=== duality identity, phase-aggregated ===")
print(f"  coupling {c.astuple()} has dual {duality(c).astuple()}, scale l2 = {c.lambda2}")
for size, phases in [(128, 8), (256, 16), (512, 24)]:
    t0 = time.perf_counter()
    d, rep = duality_check(c, golden(), size, phases)
    print(
        f"  size {size:4d} x {phases:2d} phases: Hausdorff distance {d:.5f} "
        f"(boundary modes dropped {rep.boundary_filtered}, {time.perf_counter()-t0:.1f}s)"
    )

print("\n=== the self-dual point is exact ===")
d, _ = duality_check(CouplingTriple(0, 1.0, 0), golden(), 128, 4)
print(f"  (0, 1, 0): distance {d}")
