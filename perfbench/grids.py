"""Input grids shared by the workloads and the reference generator.

Changing any of these requires remaking reference.json.
"""

FIG_D = (2, 3, 10)
# every admissible (d, beta_d) with beta = beta_d / d up to 3, for d in FIG_D
LATTICE_PAIRS = tuple((d, bd) for d in FIG_D for bd in range(2, 3 * d + 1))
CAPACITY_DB = tuple(range(-10, 61, 5))
SWEEP_EBN0_DB = (4, 6, 8, 10, 12, 14, 16, 18)
# Extreme-SNR capacity cells, where the closed forms are known to cancel.
EXTREME_CELLS = ((2, 3, 80), (3, 2, 90), (10, 3, 100), (2, 2, 110), (10, 30, 70), (3, 6, 120))
# The acceptance pairs of the Monte Carlo criteria, all at snr 10 (10 dB).
MC_PAIRS = ((2, 2), (3, 2), (3, 6), (10, 10))
MC_SNR_DB = 10
