"""DRAM timing and organization parameter sets (paper Table I).

All timing values are in memory-controller clock cycles.  The baseline
is the paper's 1 GB Hynix GDDR5 configuration: 924 MHz, 4 channels,
16 banks/channel, 4K rows/bank, 64 columns/row, 12-12-12
(CL-tRCD-tRP), FR-FCFS, open-page policy, 118.3 GB/s aggregate.

The 3D-stacked configuration models 4 stacks x 16 vaults x 16 banks
with TSV signaling (Fig. 18's rightmost experiment).  Each vault has
its own controller, so the "channel" role is played by the
stack x vault pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DRAMTiming", "gddr5_timing", "stacked_timing"]


@dataclass(frozen=True)
class DRAMTiming:
    """Organization and timing of one DRAM configuration.

    Attributes
    ----------
    name:
        Human-readable configuration name.
    clock_mhz:
        Memory controller clock.
    channels, banks_per_channel, rows_per_bank, columns_per_row:
        Geometry.  For 3D-stacked parts "channels" counts the
        independent vault controllers (stacks x vaults).
    block_bytes:
        Bytes per column burst (the DRAM block of the address map).
    cl, t_rcd, t_rp, t_ras:
        Column latency, RAS-to-CAS, precharge, and minimum
        activate-to-precharge delays.
    t_burst:
        Data-bus occupancy per request transfer.
    t_ccd:
        Minimum spacing between column commands on one bank.
    t_rrd:
        Minimum spacing between activates on one channel.
    bytes_per_cycle:
        Data-bus width per channel (sets peak bandwidth).
    """

    name: str
    clock_mhz: float
    channels: int
    banks_per_channel: int
    rows_per_bank: int
    columns_per_row: int
    block_bytes: int = 64
    request_bytes: int = 128
    cl: int = 12
    t_rcd: int = 12
    t_rp: int = 12
    t_ras: int = 28
    t_burst: int = 4
    t_ccd: int = 4
    # tRRD equals the burst time: with 16 banks, a 100%-conflict stream
    # can still saturate the data bus.  Row misses therefore cost
    # latency and activate energy, not peak bandwidth — matching the
    # paper's observation that FAE/ALL stay fast while burning power.
    t_rrd: int = 4
    bytes_per_cycle: int = 32

    def __post_init__(self) -> None:
        positive = {
            "clock_mhz": self.clock_mhz,
            "channels": self.channels,
            "banks_per_channel": self.banks_per_channel,
            "rows_per_bank": self.rows_per_bank,
            "columns_per_row": self.columns_per_row,
            "block_bytes": self.block_bytes,
            "request_bytes": self.request_bytes,
            "t_burst": self.t_burst,
            "bytes_per_cycle": self.bytes_per_cycle,
        }
        for label, value in positive.items():
            if value <= 0:
                raise ValueError(f"{label} must be positive, got {value}")
        # A negative latency schedules DRAM events in the past or
        # silently reorders commands; zero is a legal ideal part.
        for label in ("cl", "t_rcd", "t_rp", "t_ras", "t_ccd", "t_rrd"):
            value = getattr(self, label)
            if value < 0:
                raise ValueError(f"{label} must be non-negative, got {value}")
        if self.t_ras < self.t_rcd:
            raise ValueError("t_RAS must cover at least t_RCD")

    @property
    def total_banks(self) -> int:
        return self.channels * self.banks_per_channel

    @property
    def peak_bandwidth_gbs(self) -> float:
        """Aggregate peak data bandwidth in GB/s."""
        return self.channels * self.bytes_per_cycle * self.clock_mhz * 1e6 / 1e9

    @property
    def row_cycle(self) -> int:
        """tRC: minimum time between activates to one bank."""
        return self.t_ras + self.t_rp

    def row_miss_penalty(self) -> int:
        """Extra cycles a row conflict costs over a row hit (tRP + tRCD)."""
        return self.t_rp + self.t_rcd


def gddr5_timing() -> DRAMTiming:
    """The paper's baseline Hynix GDDR5 configuration (Table I).

    4 channels x 16 banks x 4K rows x 64 columns x 64 B = 1 GB;
    924 MHz with a 32 B/cycle channel gives 118.3 GB/s aggregate.
    """
    return DRAMTiming(
        name="Hynix GDDR5 (1 GB)",
        clock_mhz=924.0,
        channels=4,
        banks_per_channel=16,
        rows_per_bank=4096,
        columns_per_row=64,
    )


def stacked_timing() -> DRAMTiming:
    """3D-stacked memory of the Fig. 18 sensitivity study.

    4 stacks x 16 vaults/stack = 64 independent vault controllers,
    16 banks each; 640 GB/s aggregate via TSV signaling.  Row hits are
    cheaper (shorter wires) and each vault channel is narrower.
    """
    return DRAMTiming(
        name="3D-stacked (4 stacks x 16 vaults)",
        clock_mhz=1250.0,
        channels=64,
        banks_per_channel=16,
        rows_per_bank=1024,
        columns_per_row=64,
        cl=9,
        t_rcd=9,
        t_rp=9,
        t_ras=21,
        t_burst=16,
        t_ccd=16,
        bytes_per_cycle=8,
    )
