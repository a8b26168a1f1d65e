"""Intersecting set-family toolkit.

``import ifam`` loads only ``hypergraph`` (bitmask families, covers,
matchings) and ``verify``, and binds the package names those two
define.  Every other public name is listed once, in the table behind
``_LAZY``, under the submodule that defines it; the table also yields
``__all__``.  Such a name is resolved on first access, which imports
its submodule and caches the value here, so a caller pays only for the
modules it uses.
``from ifam import *`` loads them all.

``verify`` stays eager because the submodule ``ifam.verify`` shares the
function's name: importing that submodule after the package would set
``ifam.verify`` to the module.
"""

from importlib import import_module as _import_module

from .hypergraph import (
    Hypergraph,
    SetFamily,
    cover_number,
    delete_vertices,
    is_intersecting,
    mask_of,
    matching_number,
    min_cover,
    vertices_of,
)
from .verify import STATEMENTS, VerificationReport, verify

__version__ = "0.1.0"

# The public names not bound above, each under the submodule that defines
# it.  ``_LAZY`` maps each name to its submodule; ``__all__`` adds them to
# the eager names.
_LAZY = {
    name: module
    for module, names in (
        ("classifier", ("Embedding", "Verdict", "VerdictKind", "classify",
                        "classify_3graph", "classify_rgraph", "decompose_matching",
                        "decompose_th4prime", "embed", "embedding_is_valid")),
        ("constructions", ("ConstructionError", "ConstructionId", "ConstructionParams",
                           "build_construction", "layout_table", "size_formula",
                           "special_vertices", "validate_construction_params")),
        ("enumeration", ("DEFAULT_CEILING", "EnumerationFilter", "canonical_form",
                         "enumerate_intersecting")),
        ("io", ("ParseError", "hypergraph_from_json", "hypergraph_to_json",
                "parse_hypergraph", "parse_set_family", "serialize_hypergraph",
                "serialize_set_family", "set_family_from_json", "set_family_to_json")),
        ("kernel", ("KernelDecomposition", "ThresholdScheme", "b_kernel", "kernel_bound",
                    "kernel_invariant_violations", "paper_r", "paper_rs")),
        ("sunflower", ("Sunflower", "find_sunflower", "find_sunflower_with_core")),
    )
    for name in names
}

__all__ = [
    "Hypergraph",
    "SetFamily",
    "cover_number",
    "delete_vertices",
    "is_intersecting",
    "mask_of",
    "matching_number",
    "min_cover",
    "vertices_of",
    "STATEMENTS",
    "VerificationReport",
    "verify",
    *_LAZY,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is not None:
        value = getattr(_import_module(f".{module}", __name__), name)
    elif name in _LAZY.values():
        # the submodules this package used to import eagerly stay reachable
        # as attributes, e.g. ``ifam.kernel`` right after ``import ifam``
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
