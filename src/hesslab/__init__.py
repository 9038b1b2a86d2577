"""hesslab: an exact tensor-algebra laboratory for Hessian-metric obstructions.

Everything computes over exact rationals by default: the quadratic map from
symmetric 3-tensors to algebraic curvature tensors, its image-dimension
census, curvature identities that cut out the image, a brute-force identity
miner, a constructive 3D Ricci inverse, jet-dimension counting, and the
planar involutivity test.

Modules load on first use (PEP 562): ``import hesslab`` imports no
submodule and no numpy, and ``hesslab.rho`` or ``hesslab.miner`` imports
the one module that defines it when it is first read.
"""

import importlib

__version__ = "0.1.0"

# module -> its public names, in the order of __all__
_EXPORTS = {
    "cartan": ("CartanReport", "SymbolParameters", "TwoDSym3", "cartan_test",
               "prolonged_symbol_matrix", "scalar_relation_residual", "solve_a",
               "symbol_matrix"),
    "curvature": ("CurvTensor", "RicciTensor", "curvature_basis", "curvature_space_dim",
                  "cyclic_sum", "random_curvature", "ricci", "scalar_curvature"),
    "hessmap": ("ImageRankReport", "image_rank_census", "rho", "rho2", "rho_jacobian"),
    "identities": ("bianchi_residual", "cubic_identity", "pontryagin_form",
                   "pontryagin_quadratic"),
    "jets": ("JetReport", "crossover", "jet_dim_hessian_data", "jet_dim_metric"),
    "miner": ("ContractionPattern", "MinedIdentityBasis", "enumerate_patterns",
              "evaluate_pattern", "mine"),
    "ricci3d": ("solve_from_eigenvalues", "solve_from_ricci", "solve_isotropic"),
    "serialize": ("tensor_from_json", "tensor_to_json"),
    "tensor": ("Sym3Tensor", "Tensor"),
}
_SUBMODULES = (*_EXPORTS, "cli", "linalg", "rng")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
