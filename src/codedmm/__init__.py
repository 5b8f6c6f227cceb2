"""Coded computation toolkit for distributed matrix multiplication and
convolution over prime fields: straggler-tolerant polynomial codes, the
bilinear-construction code family, fault-tolerant decoding, threshold
calculators, and a deterministic master-worker simulator.  All seven codes,
the element-wise and convolution codes included, are CodingSchemes that
answer encode_all, worker_products and decode, the one decode: results[w]
is worker w's result, there and in detect_errors and correct_errors.
"""

from .bilinear import (
    BilinearConstruction,
    ElementwiseProductCode,
    ImprovedBilinearCode,
    load_construction,
    standard_construction,
    strassen_construction,
    tensor_power,
    validate_construction,
)
from .blocks import MatrixF, overlap_add, partition_vector
from .convolution import ConvCodeSpec, conv_decode, conv_encode, conv_spec, conv_worker
from .field import FieldElement, FieldPolynomial, PrimeField, lagrange_interpolate
from .robust import FaultModel, correct_errors, detect_errors, hamming_relations
from .schemes import (
    CodingScheme,
    EntangledCode,
    GeneralPolynomialCode,
    RandomLinearCode,
    UncodedRepetitionCode,
    worker_multiply,
)
from .sim import SimulationConfig, run_experiment, run_trial

__version__ = "0.1.0"

__all__ = [
    "BilinearConstruction",
    "CodingScheme",
    "ConvCodeSpec",
    "ElementwiseProductCode",
    "EntangledCode",
    "FaultModel",
    "FieldElement",
    "FieldPolynomial",
    "GeneralPolynomialCode",
    "ImprovedBilinearCode",
    "MatrixF",
    "PrimeField",
    "RandomLinearCode",
    "SimulationConfig",
    "UncodedRepetitionCode",
    "conv_decode",
    "conv_encode",
    "conv_spec",
    "conv_worker",
    "correct_errors",
    "detect_errors",
    "hamming_relations",
    "lagrange_interpolate",
    "load_construction",
    "overlap_add",
    "partition_vector",
    "run_experiment",
    "run_trial",
    "standard_construction",
    "strassen_construction",
    "tensor_power",
    "validate_construction",
    "worker_multiply",
]
