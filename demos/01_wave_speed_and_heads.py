"""Physical building blocks: wave speeds, heads, entropy, friction.

A pressurized pipe carries acoustic waves whose speed depends on both the
water compressibility and the elasticity of the wall.  This script walks
through the derived quantities for a 2 m^2 concrete penstock.
"""

import numpy as np

from pipewave import (LinearAltitude, PipeGeometry, entropy_cell, friction_slope,
                      piezometric_head, total_head)
from pipewave.core import effective_wave_speed, sound_speed

# rigid-pipe sound speed from compressibility and density
beta = 5.0e-10          # 1/Pa
rho0 = 1000.0           # kg/m^3
c = sound_speed(beta, rho0)
print(f"rigid-pipe sound speed         c = {c:9.2f} m/s")

# a concrete pipe of 2 m^2 circular section slows the wave considerably;
# the section fixes the diameter
wall_thickness = 0.2    # m
young_modulus = 23e9    # Pa
geometry = PipeGeometry(
    length=2000.0, section=2.0,
    altitude=LinearAltitude(upstream_z=250.0, angle_deg=-5.0))
print(f"circular section S = 2 m^2:      D = {geometry.diameter:9.4f} m")
a = effective_wave_speed(c, geometry.diameter, wall_thickness, young_modulus, beta)
print(f"elastic (concrete) wave speed  a = {a:9.2f} m/s")
print(f"water-hammer period for L = 2000 m: 4L/a = {4 * 2000.0 / a:.3f} s")
print(f"Joukowsky head rise for du = 5 m/s: a du/g = {a * 5.0 / 9.81:.1f} m")

# the piezometric line is what gauges report: altitude + diameter + pressure
g = 9.81
areas = np.array([2.0, 2.0008, 2.0016])     # slightly compressed states
heads = piezometric_head(areas, geometry.section, 250.0, geometry.diameter, a, g)
print("\npiezometric line vs wetted area at the pipe inlet (z = 250 m):")
for area, head in zip(areas, heads):
    print(f"  A = {area:.4f} m^2  ->  piezo = {head:8.3f} m")

# total head u^2/2 + g z + c^2 ln A is the steady-state invariant
u = 5.0
print(f"\ntotal head at (A=2.0008, u=5, z=250): "
      f"{total_head(2.0008, u, 250.0, a, g):,.1f} m^2/s^2")
print(f"entropy density at the same state:    "
      f"{entropy_cell(2.0008, 2.0008 * u, 250.0, a, g):,.1f}")

# Strickler friction belongs to the pipe wall: a roughness K_s = 80 m^(1/3)/s
# fixes the coefficient K, and the slope K u|u| is quadratic in velocity
# (zero on a pipe built without a roughness)
rough = PipeGeometry(length=2000.0, section=2.0, altitude=geometry.altitude, strickler=80.0)
print(f"\nStrickler K_s = 80: K = {rough.friction_coefficient:.6f} s^2/m^2")
for vel in (0.0, 2.0, 5.0):
    slope = friction_slope(vel, rough)
    print(f"friction slope at u = {vel:3.1f} m/s: {slope:.5f}")
