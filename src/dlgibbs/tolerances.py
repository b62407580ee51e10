"""Every numerical cut of the package: one name per decision, its scale in
the comment above it.  Functions read their cut here when called, and none
takes a tolerance argument; tests/test_tolerances.py pins every value.
"""

# Hermitian input: ||a - a dagger||_F relative to max(1, ||a||_F).
HERMITIAN_INPUT_TOL = 1e-10
# eigh or SVD reconstruction residual (Frobenius), relative to max(1, ||a||_F).
RECONSTRUCTION_TOL = 1e-8
# Relative slack on a Frobenius bound standing in for a 2-norm (>> rounding).
NORM_SLACK = 1e-12
# Smallest gauge pivot of a singular vector, relative to its column's norm.
GAUGE_PIVOT = 1e-12
# Widest gap of sorted Bohr frequencies in one cluster, rel. max(1, ||H||).
BOHR_SPLIT = 1e-9
# Commutator norm of a commuting pair, relative to max(1, largest norm)^2.
# At small beta, kernel rounding puts projector commutators on both sides.
COMMUTATOR_CUT = 1e-10
# Width of H's ground cluster above its minimum, relative to max(1, ||H||).
GROUND_CLUSTER_WIDTH = 1e-8
# Detailed-balance defect ||h - h dagger|| of a coherent form h_m, parent
# term or sum; absolute.
DETAILED_BALANCE_TOL = 1e-8
# Largest eigenvalue of a nonpositive coherent form, rel. max(1, ||h||).
POSITIVE_EIGENVALUE_CUT = 1e-8
# |eigenvalue| of a coherent form's kernel, relative to max(1, ||h||).
# Per-term kernel gaps of 1e-7..1e-5 leave kernel bases ~1e-10 off it.
KERNEL_CUT = 1e-9
# Floor on a KmsForm's smallest normalized weight; absolute.  zz_chain n = 3
# falls below it at beta = 17; re-diagonalized marginals degrade before it.
MIN_STATE_WEIGHT = 1e-14
# Negative Choi eigenvalue and TP residual of a channel, rel. max(1, ||S||).
CPTP_TOL = 1e-9
# Norm of the all-ones probe off a kernel below which a seeded one replaces it.
PROBE_NORM_FLOOR = 1e-12
# Smallest kept coherent part ||G||, relative to max(1, ||L||)^2.
COHERENT_PART_CUT = 1e-12
# ||K - K_S (x) I||_F of a term off its support, relative to max(1, ||K||_F).
LOCALITY_TOL = 1e-10
# Hermiticity defect, trace error and negative eigenvalue of rho_0; absolute.
DENSITY_MATRIX_TOL = 1e-10
# Generator gap that, with g = 0, contracts to sigma in one round; absolute.
OPEN_GAP_FLOOR = 1e-9
# Squared KMS norm of a vacuous (proportional to I) trial; absolute.
VACUOUS_NORM2 = 1e-24
# Squared norm of a round's output that is zero, relative to its input's.
ZERO_ROUND_NORM2 = 1e-24
# Slack of the observed one-round contraction ratio over 1.
CONTRACTION_SLACK = 1e-8
# |Tr[sigma Phi(X)]| of a centered observable; absolute.
STATIONARITY_TOL = 1e-10
# Norm of the projected unit probe below which its energy is the gap.
PROJECTED_PROBE_FLOOR = 1e-14
# Slack of gap(H_L) >= gap(L); absolute.
GAP_ORDER_SLACK = 1e-8
# Slack above 1 of factor norms under which that ordering is a theorem.
UNIT_FACTOR_SLACK = 1e-9
# Negative eigenvalue of a negated, normalized parent term; absolute.
PARENT_TERM_PSD_TOL = 1e-10
# Width of a term's ground eigenspace, relative to max(1, ||H_m||).
TERM_GROUND_WIDTH = 1e-9
# ||P^2 - P|| and ||P - P dagger|| of a term ground projector; absolute.
IDEMPOTENCE_TOL = 1e-10
# Ground energy and ||H_a U_r|| of a frustration-free H, rel. max(1, ||H||).
FRUSTRATION_CUT = 1e-8
# Distance below 1 of a DL singular value in the top block.
UNIT_SINGULAR_SLACK = 1e-8
# Smallest gap of H that certifies a singular gap; absolute.
MIN_CERTIFIED_GAP = 1e-8
# Slack of the certified s_{r+1} bound; absolute.
SINGULAR_BOUND_SLACK = 1e-9
# Distance below 1 of gamma* for a term set of degree 0.
GAMMA_STAR_MARGIN = 1e-12
# Slack below 10 of the gamma* range of a speedup fit; absolute.
DECADE_SLACK = 1e-12
# Last temperature of a schedule off its target, relative to max(1, beta).
SCHEDULE_END_TOL = 1e-12
# Slack of the mix experiment's trace-distance bound; absolute.
MIX_VIOLATION_SLACK = 1e-8
# Slack of each bound the project and anneal experiments assert; absolute.
VIOLATION_SLACK = 1e-9
# Largest frustration residual the parent experiment accepts; absolute.
PARENT_FRUSTRATION_CUT = 1e-9
