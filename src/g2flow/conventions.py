"""Frozen sign and normalization conventions.

Each constant below is pinned by a calibration requirement that the test
suite exercises directly; none of them may change independently of those
tests.

Bracket sign
------------
The structure equations define d on basis 1-forms, and the bracket is read
off through  d(alpha)(X, Y) = -alpha([X, Y]).  Concretely, de^6 = e^{17}
means [e_1, e_7] = -e_6.

Codifferential sign
-------------------
On k-forms the codifferential is realized as CODIFF_SIGN[k] * star d star.
The table's authority is the adjointness property <da, b> = <a, delta b> on
unimodular algebras, which the test suite checks degree by degree; the
stored values equal (-1)^k, the unique signs passing that test in odd
dimension 7.

Metric normalization
--------------------
With B_ij defined by (iota_i phi) ^ (iota_j phi) ^ phi = B_ij e^{1..7}, the
induced metric is g = METRIC_KAPPA * B * (det B)^(-1/9).  At the standard
positive 3-form B = 6 * identity, so METRIC_KAPPA = 6^(-2/9) makes the
standard form map exactly to the identity metric with volume e^{1234567}.

Torsion pairing
---------------
The full torsion is T_ij = TORSION_PAIRING * <nabla_i phi, iota_j psi> in
the determinant inner-product convention (increasing monomials orthonormal,
equal to the 1/k! full-contraction convention).  The value 1/4 is calibrated
so that the metric trace of T equals the scalar torsion trace
(1/4) star(d phi ^ phi) on every fixture; the trace-consistency test is the
arbiter.

i_phi weight
------------
The index expression i_phi(h) = h_r^l phi_{lsk} dx^r ^ dx^s ^ dx^k, with the
wedge collecting all permutations, satisfies i_phi(g) = IPHI_KAPPA1 * phi.
The variation split  sigma = alpha ^ phi + 3 star i(h)  reproduces the
metric-variation law  dg/dt = (1/2) tr(h) g - 2 h  only when the i inside it
is unit-normalized (i(g) = phi), hence VARIATION_IPHI_WEIGHT = 1/IPHI_KAPPA1.
The finite-difference metric-variation test is the arbiter.
"""

#: delta = CODIFF_SIGN[k] * star d star on k-forms; entry 0 is unused.
CODIFF_SIGN = (1, -1, 1, -1, 1, -1, 1, -1)

#: g = METRIC_KAPPA * B * (det B)^(-1/9).
METRIC_KAPPA = 6.0 ** (-2.0 / 9.0)

#: i_phi(g) = IPHI_KAPPA1 * phi at every G2 structure.
IPHI_KAPPA1 = 6.0

#: T_ij = TORSION_PAIRING * <nabla_i phi, iota_j psi>_det.
TORSION_PAIRING = 0.25

#: Weight applied to i_phi inside the variation parametrization.
VARIATION_IPHI_WEIGHT = 1.0 / IPHI_KAPPA1

#: Recovery of phi from psi: gate on |star phi - psi| and the cap on Newton
#: correction steps after the closed form.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50

#: Relative singular-value cutoff for pseudo-inverses (Green operators).
PINV_RCOND = 1e-10

#: Scalar model blow-down threshold.
BLOWDOWN_THRESHOLD = 1e-12
