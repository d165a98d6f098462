"""povmlab: finite-dimensional verification toolkit for localization POVMs,
measurement causality, and conditional laboratory observables.

The names of ``__all__`` are served lazily (PEP 562): each one is imported
from its home module on first access and then cached here, so
``import povmlab`` loads no numpy and no module the caller does not use.
"""

__version__ = "0.1.0"

# the instance kinds of ``povmlab gen``, here so the CLI lists them without
# numpy; ``generate_instance`` seeds each kind's RNG with its index, so the
# order is fixed
KINDS = ("state", "effect", "povm", "luders_instrument", "commuting_pair")

_EXPORTS = {
    "geometry": ("FourVector", "RegionUnion", "SpacetimeBox", "causally_separated",
                 "lab_contains", "spatial_distance", "translate_region"),
    "linalg": ("op_norm", "psd_sqrt", "trace_norm"),
    "measurement": ("DiscretePOVM", "KrausInstrument", "luders_instrument",
                    "nonselective_post_state", "polar_kraus", "selective_post_state"),
    "signaling": ("beck_check", "commutator_residual", "heinosaari_wolf_search",
                  "luders_equivalence_check", "nsc_deviation", "rcc_deviation"),
    "lattice": ("LatticeLocalizationSystem", "build_alternating_system",
                "build_frame_smeared_system", "build_sharp_system", "cc_residual", "effect_of",
                "hc_audit", "ldp_minimal_region", "microcausality_residual",
                "projector_screening_identity"),
    "conditional": ("ConditionalPOVM", "build_conditional", "composition_identity_check",
                    "conditional_prob_bound", "cross_lab_commutator", "gentle_sides"),
    "reporting": ("CheckReport",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
