"""Domain-specific sub-networks for a small encoder-decoder transformer.

A domain gets a binary mask over the model's maskable parameters, found by a
short finetune plus magnitude pruning. Joint training updates each domain's
masked slice only; inference overlays the trained values onto the frozen base
model. See README.md for the experiment pipeline.
"""

__version__ = "0.1.0"

# The command line reads these names before `--threads` sets the BLAS thread
# variables that numpy reads on import, so this module imports no numpy.

# the domain-extension protocols of training.extend_domain
EXTENSION_MODES = ("ft_all_ones", "new_only_unconstrained", "all_masks_joint",
                   "new_only_disjoint")

# the variables that size a BLAS thread pool: `--threads` sets each of them,
# and evaluation.blas_threads reads them
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
