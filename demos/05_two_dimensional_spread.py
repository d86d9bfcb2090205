"""Radial spreading in the plane.

A compactly supported colony under isotropic Laplacian dispersal
expands in every direction at the same speed.  We measure the radius of
the half-level set over time along two directions and compare both with
the 1-D prediction c* = 2.
"""

import kpplab as K

habitat = K.Habitat("continuum", 2, 30.0, 0.25)
reaction = K.Reaction.linear(1.0, 1.0)
op = K.DispersalOperator.random()

u0 = K.make_compact_initial(habitat, r=2.0, sigma=1.0)
dt = 0.95 * K.stability_dt_bound(op, reaction, u0)
print(f"2-D grid {habitat.shape}, dt = {dt:.4f}; integrating to T = 10 ...")
(traj,) = K.evolve(op, [reaction], [u0], T=10.0, dt=dt, record_every=35)

for xi, label in [((1.0, 0.0), "along e1"), ((0.0, 1.0), "along e2")]:
    trace = K.track_front(traj, xi, level=0.5)
    est = K.estimate_speed(trace, burn_in_fraction=0.4)
    print(f"  {label}: fitted speed {est.slope:.3f}")

theory = K.theoretical_speed("random", reaction, xi=(1.0, 0.0))
print(f"isotropic prediction in every direction: c* = {theory.c_star:.3f}")

radii = []
for t, snap in zip(traj.times, traj.snapshots):
    mask = snap.values >= 0.5
    radii.append(habitat.radius()[mask].max() if mask.any() else float("nan"))
print("\n  t      radius of the half-level set")
for k in range(0, len(traj.times), max(1, len(traj.times) // 8)):
    print(f"  {traj.times[k]:5.1f}  {radii[k]:6.2f}")

print("\ncurved fronts lag the planar speed by a 1/t correction, so the")
print("short-horizon fit undershoots; the radius increments are already")
print(f"accelerating toward 2 (last increment rate "
      f"{(radii[-1] - radii[-3]) / (traj.times[-1] - traj.times[-3]):.2f})")
