"""Likelihood-free Bayesian inversion toolkit.

Train a joint generative model on (field, travel-time) couples, sample an
approximate posterior over its latent space with ABC by subset simulation,
and pick the ABC tolerance from the curvature of the latent
probability-content curve.  A linear travel-time tomography test case with
an exact Gaussian posterior serves as the built-in ground truth.
"""

__version__ = "0.1.0"
