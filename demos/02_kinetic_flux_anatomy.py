"""Anatomy of the kinetic interface flux: reflection and transmission.

Each cell state is represented by a rectangular velocity distribution.  At an
interface with a bottom step of height dz, particles whose kinetic energy
falls short of the potential jump 2 g dz bounce back; the others cross with
an energy-shifted speed.  This script shows how the flux splits as the step
grows, up to total reflection.
"""

import numpy as np

from pipewave.kinetic import SQRT3, _six_row_flux_arrays

c = 10.0
g = 9.81


def fluxes(left, right, dz):
    """(F-_A, F-_Q, F+_A, F+_Q) at one interface, dz = z_right - z_left."""
    return _six_row_flux_arrays(*map(np.float64, (*left, *right, dz)), c, g)


left = (2.0, 3.0)       # (A, Q): flows rightward at u = 1.5 m/s
right = (2.0, 3.0)

print("flux at one interface as the right cell's bottom rises:")
print(f"{'dz (m)':>8} {'F-_mass':>12} {'F-_mom':>12} {'F+_mass':>12} {'F+_mom':>12}")
for dz in (0.0, 1.0, 5.0, 20.0, 50.0):
    fm_a, fm_q, fp_a, fp_q = fluxes(left, right, dz)
    print(f"{dz:8.1f} {fm_a:12.4f} {fm_q:12.2f} {fp_a:12.4f} {fp_q:12.2f}")
print("(mass components stay equal across the interface at every step height)")

# against a right neighbour that moves away faster than its half-width c
# sqrt(3), F+ holds only what the left cell transmits; it vanishes once the
# jump exceeds the maximal microscopic kinetic energy (|u| + c sqrt(3))^2 / 2:
# total reflection
u = 1.5
away = (2.0, 2.0 * 2.0 * c * SQRT3)
cutoff = (abs(u) + c * SQRT3) ** 2
print(f"\ntransmitted mass flux from a cell climbing a jump w = 2 g dz "
      f"(cutoff w = {cutoff:.1f}):")
for w in np.linspace(0.0, 1.2 * cutoff, 7):
    _, _, m0, m1 = fluxes((2.0, 2.0 * u), away, w / (2.0 * g))
    m0 += 0.0           # the mirrored F+ frame leaves -0.0 where nothing crosses
    print(f"  w = {w:8.1f} m^2/s^2  ->  m0 = {m0:9.4f}, m1 = {m1:9.3f}")

# a flat interface between identical states reproduces the physical flux
a, q = 2.0, 3.0
fm_a, fm_q, _, _ = fluxes((a, q), (a, q), 0.0)
print(f"\nflat bottom, equal states: F = ({fm_a:.6f}, {fm_q:.6f})")
print(f"exact physical flux:       F = ({q:.6f}, {q * q / a + c * c * a:.6f})")
