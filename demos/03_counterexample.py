"""Why the discrete part of the modulus cannot be dropped.

A windowed sampling operator only sees node values.  Pack one narrow bump
around every node, with alternating phases tuned so the window annihilates
every sampled coefficient: the operator returns the zero polynomial, the
node-value seminorm stays at ||1||, yet the continuous norm of the bump
train collapses as the bumps narrow.  No bound of the form

    ||f - G_n f||  <=  C * (continuous smoothness of f alone)

can survive this family.
"""
import numpy as np

from latsamp import bump_train, counterexample_run, fejer_window, quasi_interp

# --- one member of the family, by hand -------------------------------------
n = 8
f = bump_train(n, k0=n, width=0.02)
G = quasi_interp(f, n, fejer_window())
coeffs = np.abs(G.coeffs)
print(f"n = {n}: Fejer quasi-interpolant of the bump train")
print(f"  max |coefficient| = {coeffs.max():.3e}   (operator output is ~0)")
nodes_seen = f(2.0 * np.pi * np.arange(-n, n + 1) / (2 * n + 1))
print(f"  |node values|     = {np.unique(np.round(np.abs(nodes_seen), 12))}")

# --- the full scaling run --------------------------------------------------
table = counterexample_run((8, 16, 32, 64, 128))
print("\nshrinking-width scaling, L2:")
print("     n   continuous    discrete     discrete/continuous")
for row in table.rows:
    print(f"  {row['n']:4d}   {row['continuous_error']:.6f}     "
          f"{row['discrete_error']:.6f}     {row['ratio']:10.1f}")
print(f"\nfinal ratio {table.final_ratio:.0f}: the discrete error ignores the")
print("collapse of the continuous norm entirely.  Any two-sided error bound")
print("must therefore carry the node-data (discrete) smoothness term.")

print(f"(max annihilated coefficient over the run: "
      f"{table.max_coefficient:.2e}; the construction, not luck)")
