"""Workbench for entanglement-assisted quantum code parameters.

Finite-field and matrix kernels, classical code wrappers, the standard
entanglement-assisted constructions (CSS-type, Hermitian, concatenation
with length transforms), closed-form bounds and asymptotic rate curves,
and exact random-ensemble machinery, all tied together by a CLI.
"""

__version__ = "0.1.0"

from importlib import import_module

# Public names load from their submodule on first access (PEP 562), so that
# importing one layer, e.g. eaqec.gf, does not also import the others.
_SOURCES = {
    "ClassicalCode": "codes",
    "Distance": "codes",
    "dual": "codes",
    "min_distance": "codes",
    "audit_tables": "concat",
    "concatenate": "concat",
    "expurgate": "concat",
    "extend": "concat",
    "load_bundled_tables": "concat",
    "EaqeccParams": "eaqecc",
    "css_construct": "eaqecc",
    "css_entanglement": "eaqecc",
    "ea_singleton_defect": "eaqecc",
    "hermitian_construct": "eaqecc",
    "hermitian_entanglement": "eaqecc",
    "parse_params": "eaqecc",
    "EnsembleSpec": "ensemble",
    "ensemble_exhaustive": "ensemble",
    "nt_w_bruteforce": "ensemble",
    "psi_t": "ensemble",
    "EaqecError": "errors",
    "FieldSpec": "gf",
    "field_of_order": "gf",
    "MatrixGF": "matrix",
}


def __getattr__(name):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{source}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCES))


__all__ = ["__version__", *_SOURCES]
