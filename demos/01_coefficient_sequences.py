"""Build the fractional logistic coefficient sequence and look inside it.

The series solution is w(t) = sum_k g_k t^(beta k), where the normalized
coefficients g_k carry the rate parameter m and the Gamma normalizer. This
script builds a few sequences, shows the structure everyone should expect
(g_0 = 1/2 forced, even entries identically zero, alternating signs on the
odd raw numbers), and demonstrates the JSON round trip.
"""

import json

from felog import build_sequence, closed_form_check, sequence_from_json

# --- one sequence, inspected ------------------------------------------------

seq = build_sequence(beta=0.7, m=1.0, n_terms=16)
print(f"beta={seq.beta}, m={seq.m}, {seq.n_terms} coefficients\n")
print(f"{'k':>3} {'g_k':>24} {'sign':>5} {'log10|raw|':>12}")
for k in range(seq.n_terms):
    mag = f"{seq.raw_log10[k]:12.6f}" if seq.raw_sign[k] != 0 else "        zero"
    print(f"{k:>3} {seq.g[k]:>24.16e} {seq.raw_sign[k]:>5} {mag}")

# Note the pattern: every even entry past k=0 is zero. build_sequence skips
# the steps that make them and stores +0.0, since each would compute
# g_k - g_k = 0 while g_k is normal. The odd raw numbers alternate
# +, -, +, - ...

# --- the first raw numbers have closed forms --------------------------------

print("\nrelative residual of the recurrence against hand-derived closed forms:")
for beta in (0.3, 0.5, 0.9, 1.0):
    residuals = closed_form_check(build_sequence(beta, 1.0, 12))
    worst = max(residuals.values())
    print(f"  beta={beta}: worst over k in (3,5,7,9) = {worst:.2e}")

# At beta = 1 the raw numbers are half the classical Euler-polynomial values
# at 1: E_3 = -1/8, E_5 = 1/4, E_7 = -17/16, ...

# --- serialization round trip -----------------------------------------------

payload = json.dumps(seq.to_json_dict())
back = sequence_from_json(payload)
print("\nJSON round trip bit-exact:", all(a == b for a, b in zip(seq.g, back.g)))
print("JSON head:", json.dumps(json.loads(payload)["g"][:4]))
