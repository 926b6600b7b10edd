"""The benchmark's workloads: the CLI request each one sends, made from the seed.

Each workload is a closed loop: one caller sends one in-process CLI request
at a time and waits for its output.  The program receives only the generated
argument list; the seed never reaches it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Full size is what the benchmark measures; tiny size runs the same code paths
# in about a second and exists for the benchmark's own tests.
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    kind: str  # "spectrum" or "verify"
    argv: tuple[str, ...]  # the one CLI request an iteration sends
    first_m: int  # m of the first FieldCtx the request needs: built during set-up
    m: int | None = None  # spectrum: the field GF(2^(2m))
    mu_index: int | None = None  # spectrum: K of --mu idx:K; None for --mu all
    m_range: tuple[int, int] | None = None  # verify: inclusive m range

    @property
    def reports(self) -> int:
        """Spectrum reports the request should produce."""
        return 1 if self.mu_index is not None else (1 << self.m) - 1


def spectrum_argv(m: int, mu: str) -> tuple[str, ...]:
    return ("spectrum", "--construction", "f", "--m", str(m), "--mu", mu, "--format", "json")


def spectrum_m12(seed: int, size: str) -> Workload:
    # one f report at n = 24: 128 MB per table, about 0.9 GB peak, which an
    # 8 GB machine holds comfortably
    m = 12 if size == "full" else 4
    k = random.Random(seed).randrange((1 << m) - 1)
    return Workload("spectrum", spectrum_argv(m, f"idx:{k}"), m, m=m, mu_index=k)


def mu_sweep_m8(seed: int, size: str) -> Workload:
    # every mu of GF(2^m)^* in one request: the tables are built once and read
    # 2^m - 1 times; it has no free input, so the seed changes nothing
    m = 8 if size == "full" else 3
    return Workload("spectrum", spectrum_argv(m, "all"), m, m=m)


def verify_sweep(seed: int, size: str) -> Workload:
    # the whole claim set; it has no free input, so the seed changes nothing
    lo, hi = (3, 8) if size == "full" else (3, 4)
    argv = ("verify", "--suite", "all", "--m-range", f"{lo}..{hi}", "--format", "json")
    return Workload("verify", argv, lo, m_range=(lo, hi))


WORKLOADS = {
    "spectrum_m12": spectrum_m12,
    "mu_sweep_m8": mu_sweep_m8,
    "verify_sweep": verify_sweep,
}


def make(name: str, seed: int, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return WORKLOADS[name](seed, size)
