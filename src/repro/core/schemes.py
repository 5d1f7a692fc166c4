"""Address mapping schemes as BIM instances.

This module constructs the six mapping schemes evaluated in the paper
(Section VI), each as a :class:`~repro.core.bim.BinaryInvertibleMatrix`
over a given :class:`~repro.core.address_map.AddressMap`:

* **BASE** — the identity: addresses hit DRAM exactly as laid out by
  the Hynix map (Fig. 4).
* **RMP**  — Remap strategy: a pure bit permutation that moves the
  bits with the highest *average* entropy into the channel/bank
  positions (one 1 per row/column, Fig. 6b).
* **PM**   — Permutation-based Mapping (Zhang et al. [5], Chatterjee
  et al. [4]): each channel/bank bit is XORed with one least
  significant row bit (two 1s per remapped row, Fig. 6c).
* **PAE**  — Page Address Entropy: each channel/bank output bit is the
  XOR of a random subset of the *page address* bits (row + bank +
  channel).  Column bits are untouched, which preserves row-buffer
  locality: all addresses in one DRAM page still land in one page.
* **FAE**  — Full Address Entropy: like PAE but the random subsets
  may also include column bits, harvesting entropy from the complete
  (non-block) address at the cost of spreading page-local accesses.
* **ALL**  — randomizes every non-block output bit from every
  non-block input bit.

Block-offset bits are never used or modified by any scheme, matching
the paper ("these are offsets within a DRAM page and therefore have no
impact on the behavior of the DRAM system").

All randomized builders take an explicit seed so experiments are
reproducible, and retry until the resulting matrix is invertible —
therefore every scheme is a bijection on the address space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from ..registry import register_scheme
from .address_map import AddressMap
from .bim import BinaryInvertibleMatrix

__all__ = [
    "MappingScheme",
    "SchemeError",
    "base_scheme",
    "rmp_scheme",
    "pm_scheme",
    "pae_scheme",
    "fae_scheme",
    "all_scheme",
    "broad_scheme",
    "SCHEME_NAMES",
    "PAPER_RMP_SOURCE_BITS",
]

SCHEME_NAMES: Tuple[str, ...] = ("BASE", "PM", "RMP", "PAE", "FAE", "ALL")

# Bits the paper found to have the highest average entropy across its
# benchmark suite and therefore allocated to bank/channel under RMP
# (Section IV-B: "bits 8-11, 15, and 16").
PAPER_RMP_SOURCE_BITS: Tuple[int, ...] = (8, 9, 10, 11, 15, 16)

_MAX_DRAW_TRIES = 512


class SchemeError(ValueError):
    """Raised when a mapping scheme cannot be constructed as requested."""


@dataclass(frozen=True)
class MappingScheme:
    """A named, ready-to-apply address mapping.

    Attributes
    ----------
    name:
        Scheme identifier ("BASE", "PAE", ...).
    bim:
        The underlying binary invertible matrix.
    address_map:
        The physical address map the output address is decoded with.
    strategy:
        BIM family per Fig. 6: "identity", "remap", "pm" or "broad".
    extra_latency_cycles:
        Pipeline cycles added by the mapping hardware (0 for BASE,
        1 for everything else, per the paper's Section V).
    """

    name: str
    bim: BinaryInvertibleMatrix
    address_map: AddressMap
    strategy: str = "broad"
    extra_latency_cycles: int = 1
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.bim.width != self.address_map.width:
            raise SchemeError(
                f"BIM width {self.bim.width} does not match address map width "
                f"{self.address_map.width}"
            )

    def map(self, addresses):
        """Apply the scheme to one address or an array of addresses."""
        return self.bim.apply(addresses)

    def unmap(self, addresses):
        """Invert the scheme (recover the original addresses)."""
        return self.bim.apply_inverse(addresses)

    def decode(self, address: int) -> Dict[str, int]:
        """Map an input address and decode the result into DRAM coordinates."""
        return self.address_map.decode(int(self.map(int(address))))

    def __repr__(self) -> str:
        return (
            f"MappingScheme({self.name!r}, strategy={self.strategy!r}, "
            f"width={self.bim.width})"
        )


# ----------------------------------------------------------------------
# Non-random schemes
# ----------------------------------------------------------------------
def base_scheme(address_map: AddressMap) -> MappingScheme:
    """The baseline (identity) mapping — addresses pass through unchanged."""
    return MappingScheme(
        name="BASE",
        bim=BinaryInvertibleMatrix.identity(address_map.width),
        address_map=address_map,
        strategy="identity",
        extra_latency_cycles=0,
    )


def rmp_scheme(
    address_map: AddressMap,
    entropy_by_bit: Optional[Sequence[float]] = None,
    source_bits: Optional[Sequence[int]] = None,
) -> MappingScheme:
    """Remap strategy: permute high-average-entropy bits into bank/channel.

    The source bits may be given directly (*source_bits*), derived from
    a per-bit average entropy profile (*entropy_by_bit*, highest
    non-block bits win), or defaulted to the paper's published choice
    (bits 8-11, 15 and 16 for the Hynix map).
    """
    targets = list(address_map.parallel_bits())
    if source_bits is not None:
        sources = list(source_bits)
    elif entropy_by_bit is not None:
        profile = np.asarray(entropy_by_bit, dtype=float)
        if profile.shape != (address_map.width,):
            raise SchemeError(
                f"entropy profile must have one entry per address bit "
                f"({address_map.width}), got shape {profile.shape}"
            )
        candidates = sorted(
            address_map.non_block_bits(), key=lambda b: (-profile[b], b)
        )
        sources = sorted(candidates[: len(targets)])
    else:
        sources = [b for b in PAPER_RMP_SOURCE_BITS if b < address_map.width]
        if len(sources) != len(targets):
            # The paper's bit list fits the Hynix map; for other maps
            # (e.g. 3D-stacked with 10 parallel bits) default to the
            # lowest non-block bits, which is where GPU entropy tends
            # to concentrate on average.
            sources = list(address_map.non_block_bits()[: len(targets)])
    if len(sources) != len(targets):
        raise SchemeError(
            f"RMP needs exactly {len(targets)} source bits, got {len(sources)}"
        )
    if len(set(sources)) != len(sources):
        raise SchemeError(f"RMP source bits repeat: {sources}")
    block = set(address_map.block_bits())
    if block.intersection(sources):
        raise SchemeError("RMP source bits may not include block-offset bits")

    # Build the permutation as a sequence of transpositions: for each
    # target position, swap in the desired source bit.  source_of[i]
    # is the input bit that output bit i takes its value from.
    source_of = list(range(address_map.width))
    for target, source in zip(targets, sources):
        holder = source_of.index(source)
        source_of[target], source_of[holder] = source_of[holder], source_of[target]
    return MappingScheme(
        name="RMP",
        bim=BinaryInvertibleMatrix.from_permutation(source_of),
        address_map=address_map,
        strategy="remap",
        metadata={"source_bits": tuple(sources)},
    )


def pm_scheme(address_map: AddressMap) -> MappingScheme:
    """Permutation-based Mapping: XOR each bank/channel bit with one row bit.

    Follows the prior work the paper compares against ([4], [5]): the
    i-th parallel-unit bit is XORed with the i-th least significant
    row bit.  Row bits themselves are unchanged, so the matrix is
    invertible by construction.
    """
    targets = list(address_map.parallel_bits())
    row_bits = sorted(address_map.field("row").bits)
    if len(row_bits) < len(targets):
        raise SchemeError(
            f"PM needs {len(targets)} row bits but the map only has {len(row_bits)}"
        )
    matrix = gf2.identity(address_map.width)
    for target, row_bit in zip(targets, row_bits):
        matrix[target, row_bit] ^= 1
    return MappingScheme(
        name="PM",
        bim=BinaryInvertibleMatrix(matrix),
        address_map=address_map,
        strategy="pm",
        metadata={"row_bits": tuple(row_bits[: len(targets)])},
    )


# ----------------------------------------------------------------------
# Broad-strategy schemes (random BIMs)
# ----------------------------------------------------------------------
def broad_scheme(
    name: str,
    address_map: AddressMap,
    input_bits: Sequence[int],
    output_bits: Sequence[int],
    seed: int,
    density: float = 0.5,
) -> MappingScheme:
    """Generic Broad-strategy builder.

    Each bit in *output_bits* is regenerated as the XOR of a random
    subset (expected fraction *density*) of *input_bits*; all other
    bits pass through.  Drawing retries until the full matrix is
    invertible, so the result is always a bijection.
    """
    width = address_map.width
    inputs = sorted(set(input_bits))
    outputs = sorted(set(output_bits))
    block = set(address_map.block_bits())
    if block.intersection(inputs) or block.intersection(outputs):
        raise SchemeError("broad schemes must not touch block-offset bits")
    if not inputs or not outputs:
        raise SchemeError("broad schemes need non-empty input and output bit sets")
    if not set(outputs) <= set(inputs):
        # Outputs outside the input set could never reconstruct their
        # own value, making the matrix trivially singular.
        raise SchemeError("output bits must be a subset of the harvested input bits")

    rng = np.random.default_rng(seed)
    input_arr = np.asarray(inputs)
    for _ in range(_MAX_DRAW_TRIES):
        matrix = gf2.identity(width)
        for out_bit in outputs:
            row = (rng.random(input_arr.size) < density).astype(np.uint8)
            matrix[out_bit, :] = 0
            matrix[out_bit, input_arr] = row
        if gf2.is_invertible(matrix):
            return MappingScheme(
                name=name,
                bim=BinaryInvertibleMatrix(matrix),
                address_map=address_map,
                strategy="broad",
                metadata={
                    "input_bits": tuple(inputs),
                    "output_bits": tuple(outputs),
                    "seed": seed,
                },
            )
    raise SchemeError(
        f"could not draw an invertible BIM for {name} in {_MAX_DRAW_TRIES} tries"
    )


def pae_scheme(address_map: AddressMap, seed: int = 0) -> MappingScheme:
    """Page Address Entropy: harvest page-address bits into bank/channel.

    Inputs are the row + bank + channel (page address) bits; outputs
    are the bank + channel bits.  Because column bits are neither read
    nor written, all blocks of one DRAM page stay together in the
    mapped page — the property that gives PAE its power efficiency.
    """
    return broad_scheme(
        "PAE",
        address_map,
        input_bits=address_map.page_bits(),
        output_bits=address_map.parallel_bits(),
        seed=seed,
    )


def fae_scheme(address_map: AddressMap, seed: int = 0) -> MappingScheme:
    """Full Address Entropy: harvest all non-block bits into bank/channel."""
    return broad_scheme(
        "FAE",
        address_map,
        input_bits=address_map.non_block_bits(),
        output_bits=address_map.parallel_bits(),
        seed=seed,
    )


def all_scheme(address_map: AddressMap, seed: int = 0) -> MappingScheme:
    """ALL: randomize every non-block bit from every non-block bit.

    The non-block/non-block submatrix is drawn directly as a uniform
    random invertible matrix and embedded into the identity.
    """
    width = address_map.width
    non_block = list(address_map.non_block_bits())
    rng = np.random.default_rng(seed)
    sub = gf2.random_invertible(len(non_block), rng)
    matrix = gf2.identity(width)
    idx = np.asarray(non_block)
    matrix[np.ix_(idx, idx)] = 0
    matrix[np.ix_(idx, idx)] = sub
    return MappingScheme(
        name="ALL",
        bim=BinaryInvertibleMatrix(matrix),
        address_map=address_map,
        strategy="broad",
        metadata={"input_bits": tuple(non_block), "output_bits": tuple(non_block), "seed": seed},
    )


# ----------------------------------------------------------------------
# Registry migration: the six paper schemes are just the pre-registered
# entries of repro.registry.  User schemes register the same way.
# ----------------------------------------------------------------------
@register_scheme("BASE", origin="builtin")
def _registered_base(address_map: AddressMap) -> MappingScheme:
    """Identity mapping (the Hynix baseline)."""
    return base_scheme(address_map)


@register_scheme("PM", origin="builtin")
def _registered_pm(address_map: AddressMap) -> MappingScheme:
    """Permutation-based Mapping (Zhang et al. / Chatterjee et al.)."""
    return pm_scheme(address_map)


@register_scheme("RMP", origin="builtin", needs_entropy_profile=True)
def _registered_rmp(
    address_map: AddressMap,
    entropy_by_bit: Optional[Sequence[float]] = None,
    source_bits: Optional[Sequence[int]] = None,
) -> MappingScheme:
    """Remap strategy (highest-average-entropy bits into bank/channel)."""
    return rmp_scheme(
        address_map, entropy_by_bit=entropy_by_bit, source_bits=source_bits
    )


@register_scheme("PAE", origin="builtin")
def _registered_pae(address_map: AddressMap, seed: int = 0) -> MappingScheme:
    """Page Address Entropy (the paper's contribution)."""
    return pae_scheme(address_map, seed=seed)


@register_scheme("FAE", origin="builtin")
def _registered_fae(address_map: AddressMap, seed: int = 0) -> MappingScheme:
    """Full Address Entropy."""
    return fae_scheme(address_map, seed=seed)


@register_scheme("ALL", origin="builtin")
def _registered_all(address_map: AddressMap, seed: int = 0) -> MappingScheme:
    """Randomize every non-block bit from every non-block bit."""
    return all_scheme(address_map, seed=seed)
