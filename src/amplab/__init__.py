"""Lattice amplitude simulator and consistency verification suite.

Setups (source, filters, detector) form an algebra under sequential (`and`)
and alternative (`or`) composition; amplitudes represent that algebra through
a product rule and a sum rule.  This package evaluates amplitudes by several
independent strategies and verifies their agreement, checks linearity of time
evolution, reproduces the concentration argument giving detection probability
|A_k|^2, and constructively recovers the additive regrade of any associative
binary operation.
"""

from .amplitudes import (
    BlockReport,
    BruteForcePaths,
    EvalStrategy,
    PathExplosionError,
    RecursiveDecompose,
    SigmaInsert,
    TransferMatrix,
    amplitude,
    amplitude_bruteforce,
    block_vectors,
    consistency_check,
    evaluate,
    relative_deviation,
)
from .born import (
    BornExperiment,
    ProjectorWindow,
    ScanRow,
    convergence_scan,
    overlap_exact,
    overlap_for_window,
    overlap_gaussian,
    small_N_direct,
)
from .composite import (
    CompositeSetup,
    composite_amplitude,
    product_state,
)
from .evolution import (
    Hamiltonian,
    evolve,
    hermiticity_defect,
    linearity_check,
    schrodinger_residual,
)
from .lattice import (
    Event,
    Kernel,
    KernelFormatError,
    LatticeConfig,
    WaveFunction,
    expm_series,
    is_normalized,
    kernel_from_dict,
    kernel_from_hamiltonian,
    load_kernel,
    load_wavefunction,
    make_tight_binding_kernel,
    mask_vector,
    masked_kernel,
    norm_sq,
    normalize,
    propagator,
    save_kernel,
    save_wavefunction,
    tight_binding_hamiltonian,
    unitarity_defect,
)
from .regrade import (
    BinaryOpSampler,
    NonAssociativeError,
    ProductRuleReport,
    RegradeError,
    RegradeResult,
    additivity_residual,
    affine_fit_deviation,
    associativity_residual,
    catalog_op,
    product_rule_residual,
    recover_regrade,
)
from .setups import (
    FilterSpec,
    NonConsecutiveError,
    NotCombinableError,
    Setup,
    SetupBlock,
    SetupError,
    and_compose,
    load_setup,
    or_compose,
    random_block,
    save_setup,
    setup_block,
)

__version__ = "0.1.0"
