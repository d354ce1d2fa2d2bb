"""Domain-specific sub-networks for a small encoder-decoder transformer.

A domain gets a binary mask over the model's maskable parameters, found by a
short finetune plus magnitude pruning. Joint training updates each domain's
masked slice only; inference overlays the trained values onto the frozen base
model. See README.md for the experiment pipeline.
"""

from collections import namedtuple

__version__ = "0.1.0"

# The command line reads these names before `--threads` sets the BLAS thread
# variables that numpy reads on import, so this module imports no numpy.

# the domain-extension protocols of training.extend_domain
EXTENSION_MODES = ("ft_all_ones", "new_only_unconstrained", "all_masks_joint",
                   "new_only_disjoint")

# the variables that size a BLAS thread pool: `--threads` sets each of them,
# and evaluation.blas_threads reads them
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# A pipeline stage: its `--stages` name, also its key's "stage" (its subcommand
# spells "_" as "-"); the cli.Pipeline method that runs it; its train section,
# seeded by stage_seed(name), or None; the roles of the upstream artifacts whose
# sha256 enter its key; its help; and whether a plain `doss run` runs it.
Stage = namedtuple("Stage", "name method train upstream help default", defaults=(True,))

# every stage, in pipeline order: `doss run` runs its stages in this order
STAGES = {s.name: s for s in (
    Stage("pretrain", "pretrain", "pretrain", (), "train the base model"),
    Stage("make_masks", "make_masks", "masks", ("base",),
          "create one mask per domain (disjoint ones under [masks] disjoint)"),
    Stage("train_doss", "train_doss", "doss", ("base", "masks"), "structure-aware joint training"),
    Stage("finetune", "finetune", "finetune", ("base",), "per-domain and all-domain baselines"),
    Stage("extend", "extend", "extend", ("base", "doss", "masks"),
          "adapt the trained model to a new domain"),
    Stage("eval", "evaluate", None, ("base", "doss", "fts", "masks"),
          "score all variants on all domains"),
    Stage("sweep", "sweep", None, ("base",), "grid over prune fractions", default=False),
)}
