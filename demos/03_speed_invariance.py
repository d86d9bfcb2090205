"""A localized patch of better (or worse) habitat does not change how
fast the population ultimately spreads.

We sweep the amplitude of a compactly supported perturbation of the
growth rate, from a hostile dip to a generous bump, and re-measure the
front speed each time.  The speeds agree with each other and with the
unperturbed prediction: the invasion is driven by the far-field medium,
which the perturbation never touches.
"""

import kpplab as K
from kpplab.experiments import run_speed_invariance_sweep

op = K.DispersalOperator.discrete(K.LatticeWeights.symmetric(1, 1.0))
habitat = K.Habitat("lattice", 1, 200)
reaction = K.Reaction.linear(1.0, 1.0, radius=2.0)  # each cell replaces the amplitude

print("lattice dispersal, growth 1 + A*bump(|x|/2) - u, front speeds:\n")
report = run_speed_invariance_sweep(op, reaction, habitat, xi=1.0, T=60.0,
                                    amplitudes=(-0.5, 0.0, 0.5, 1.0))
print("  amplitude   fitted c    vs theory")
for run in report.runs:
    print(f"  {run.reaction.amplitude:+9.1f}   {run.estimate.slope:8.4f}   {run.rel_error:8.2%}")
print(f"\ntheoretical speed (amplitude 0): {report.c_theory:.4f}")
print(f"pairwise spread of the four speeds: {report.pairwise_spread:.3%}")
print(f"verdict: {'invariant' if report.ok else 'NOT invariant'}")
