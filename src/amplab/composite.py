"""The bound on independent-particle tensors.

``born.small_N_direct`` lists every configuration of an N-particle product
state and refuses a tensor of more than ``TENSOR_GUARD`` entries.  The
composite setups of independent particles, whose amplitude is the product of
the part amplitudes, and the ``product_state`` tensor are test references in
``tests/genutil.py``; no subcommand runs them.
"""

# The module stays as the home of this bound: the benchmark's tracer
# imports every layer module by name, this one included.
TENSOR_GUARD = 10_000_000
