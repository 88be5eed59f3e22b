"""Structural properties of the solver on closed domains.

Two classical sanity checks for a finite-volume scheme with topography:
a sloped column of still water should stay still, and a periodic pipe
should conserve mass and momentum to machine precision.  On its own the
reflection/transmission upwinding of the rectangular equilibrium balances
the bottom steps only to first order in g*dz_cell/c^2; the hydrostatic
reconstruction in the step (each side of an interface lowered along its rest
profile to the higher bottom) closes that gap, so the residuals below stay
at roundoff, far under the first-order scale printed first.
"""

import numpy as np

from pipewave import LinearAltitude, Mesh, Periodic, PipeGeometry, State, Wall
from pipewave.kinetic import cfl_timestep, step

g = 9.81    # each step takes its pipe; without a Strickler roughness, no friction


# --- sloped still water ----------------------------------------------------
c = 1086.6
pipe = PipeGeometry(2000.0, 2.0, LinearAltitude(upstream_z=250.0, angle_deg=-5.0))
mesh = Mesh.uniform(pipe.length, 100, pipe.altitude)
area0 = pipe.section * np.exp(-g * (mesh.z_cells - mesh.z_cells[0]) / (c * c))
state = State(area=area0, discharge=np.zeros(100))

eps = g * np.max(np.abs(np.diff(mesh.z_cells))) / (c * c)
print(f"per-cell imbalance scale g dz/c^2 = {eps:.2e}")
print(f"{'step':>6} {'max|Q|/(A c)':>14} {'max rel dA':>12}")
for k in range(1, 501):
    dt = cfl_timestep(state, c, mesh, 0.8)
    state = step(state, mesh, c, g, dt, Wall(), Wall(), pipe)
    if k in (1, 10, 100, 500):
        q_res = np.max(np.abs(state.discharge)) / (np.max(area0) * c)
        a_res = np.max(np.abs(state.area - area0) / area0)
        print(f"{k:6d} {q_res:14.3e} {a_res:12.3e}")
print("the residual stays at roundoff: the column is exactly balanced\n")

# --- periodic conservation --------------------------------------------------
pipe = PipeGeometry(100.0, 1.0, LinearAltitude(upstream_z=0.0, angle_deg=0.0))
mesh = Mesh.uniform(pipe.length, 64, pipe.altitude)
x = mesh.centers / 100.0
c = 25.0
area = 2.0 + 0.3 * np.sin(2 * np.pi * x)
state = State(area=area, discharge=area * (0.05 * c * np.sin(4 * np.pi * x)))
mass0 = np.sum(mesh.width * state.area)
mom0 = np.sum(mesh.width * state.discharge)
for _ in range(2000):
    dt = cfl_timestep(state, c, mesh, 0.9)
    state = step(state, mesh, c, g, dt, Periodic(), Periodic(), pipe)
mass = np.sum(mesh.width * state.area)
mom = np.sum(mesh.width * state.discharge)
print("periodic flat pipe after 2000 steps:")
print(f"  mass drift     {abs(mass - mass0) / mass0:.2e} (relative)")
print(f"  momentum drift {abs(mom - mom0) / (mass0 * c):.2e} (relative to mass*c)")
