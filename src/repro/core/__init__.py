"""Core contribution of the paper: BIM-based address mapping + entropy analysis."""

from .address_map import (
    AddressField,
    AddressMap,
    AddressMapError,
    hynix_gddr5_map,
    stacked_memory_map,
    toy_map,
)
from .bim import BIM, BinaryInvertibleMatrix
from .entropy import (
    EntropyProfile,
    application_entropy_profile,
    average_entropy_profile,
    bit_value_ratios,
    entropy_of_bvr_window,
    find_entropy_valleys,
    has_parallel_bit_valley,
    kernel_entropy_profile,
    stream_entropy,
    window_entropy,
)
from .gf2 import GF2Error
from .mapper import decode_fields
from .schemes import (
    SCHEME_NAMES,
    MappingScheme,
    SchemeError,
    all_scheme,
    base_scheme,
    broad_scheme,
    fae_scheme,
    pae_scheme,
    pm_scheme,
    rmp_scheme,
)

__all__ = [
    "AddressField",
    "AddressMap",
    "AddressMapError",
    "BIM",
    "BinaryInvertibleMatrix",
    "EntropyProfile",
    "GF2Error",
    "MappingScheme",
    "SCHEME_NAMES",
    "SchemeError",
    "all_scheme",
    "application_entropy_profile",
    "average_entropy_profile",
    "base_scheme",
    "bit_value_ratios",
    "broad_scheme",
    "decode_fields",
    "entropy_of_bvr_window",
    "fae_scheme",
    "find_entropy_valleys",
    "has_parallel_bit_valley",
    "hynix_gddr5_map",
    "kernel_entropy_profile",
    "pae_scheme",
    "pm_scheme",
    "rmp_scheme",
    "stacked_memory_map",
    "stream_entropy",
    "toy_map",
    "window_entropy",
]
