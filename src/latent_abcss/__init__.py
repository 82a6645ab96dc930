"""Likelihood-free Bayesian inversion toolkit.

Train a joint generative model on (field, travel-time) couples, sample an
approximate posterior over its latent space with ABC by subset simulation,
and pick the ABC tolerance from the curvature of the latent
probability-content curve.  A linear travel-time tomography test case with
an exact Gaussian posterior serves as the built-in ground truth.
"""

import os

# OpenBLAS's idle pool workers spin for 2^n cycles after each GEMM before they
# sleep (2^28 by default), holding the core that training's second Adam update
# runs on; 2^22 frees it.  OpenBLAS reads this when numpy loads, so it is set
# here, before any module of the package imports numpy.  A value already set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "22")

__version__ = "0.1.0"
