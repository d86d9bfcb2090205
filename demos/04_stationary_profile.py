"""The unique positive steady state, computed twice.

Newton's method from a large constant descends monotonically onto the
stationary profile; the monotone iteration from a small validated
sub-solution, finished by Newton, climbs onto the same profile.
Agreement of the two routes is the uniqueness statement made
computational; a negative Collatz-Wielandt bound on the spectral
abscissa of the Newton Jacobian at the profile certifies its stability.
A local boost in the growth rate lifts a hump in the
profile which flattens back to the homogeneous level away from the
perturbation.
"""

import numpy as np

import kpplab as K
from kpplab.experiments import run_stationary_profile

habitat = K.Habitat("continuum", 1, 20.0, 0.1)
reaction = K.Reaction.linear(1.0, 1.0, amplitude=0.5, radius=1.0)
op = K.DispersalOperator.random()

prof = run_stationary_profile(op, reaction, habitat)

for res in (prof.above, prof.below):
    print(f"{res.route} : {res.iterations} steps ({res.newton_steps} Newton), "
          f"{res.matvecs} operator applies, residual {res.residual:.1e}, "
          f"stability bound {res.stability_bound:.4f}")
print(f"route agreement (uniqueness): max gap = {prof.gap:.2e}\n")

x = habitat.grid()[0]
u = prof.above.u_star.values
for xv in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 18.0):
    print(f"  u*({xv:5.1f}) = {u[np.isclose(x, xv)][0]:.6f}")
print(f"\nhomogeneous equilibrium u0 = 1; hump height u*(0) - u0 = {u[x == 0.0][0] - 1.0:.4f}")
print(f"tail deviation beyond |x| >= {prof.tail_radius:g}: {prof.tail:.2e}")
print(f"verdict: {'pass' if prof.ok else 'fail'}")
