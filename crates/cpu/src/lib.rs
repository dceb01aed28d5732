//! CPU and memory platform models.
//!
//! The paper's CPU/memory results (Figs. 7–8) and motivation data
//! (Table 2, Fig. 1, §2.3) all reduce to one question: *how much does
//! virtualization tax a given instruction/memory stream, compared to
//! running the same stream natively on a compute board?* This crate
//! answers it mechanistically:
//!
//! * [`catalog`] — the processors BM-Hive ships ([`Processor`]): core
//!   counts, clocks, single-thread indices, memory channels, and TDP,
//!   reconstructed from the public figures the paper itself cites
//!   (CPU Mark ratios, Intel ARK TDP).
//! * [`exec`] — the execution model: [`CpuWork`] (cycles + cache-missing
//!   references + streamed bytes) priced on a [`Platform`]
//!   (physical / bare-metal board / VM). The VM platform charges VM
//!   exits (≈10 µs each, §2.1) at a per-workload rate, two-level
//!   page-walk amplification on TLB misses (up to 24 memory references,
//!   §5), and host preemption.
//! * [`virt`] — the VM-exit machinery itself: the one exit cost
//!   ([`virt::VM_EXIT_COST`]), the exit-rate population behind Table 2,
//!   and the preemption process behind Fig. 1.
//! * [`memsys`] / [`spec`] — the STREAM and SPEC CINT2006 workload
//!   models used by Figs. 7 and 8.
//! * [`nested`] — the nested-virtualization model of §2.3 (≈80 % native
//!   CPU, ≈25 % native I/O).
//! * [`sgx`] — the §6 SGX comparison: native enclaves on a compute
//!   board, special builds or nothing in a VM.
//!
//! Every cost is a named module `const` with the paper's value; the one
//! setting a caller chooses is a workload's VM exit rate
//! ([`Platform::with_exit_rate`]).

pub mod catalog;
pub mod exec;
pub mod memsys;
pub mod nested;
pub mod sgx;
pub mod spec;
pub mod virt;

pub use catalog::{Processor, ProcessorKind};
pub use exec::{CpuWork, Platform};
pub use memsys::StreamKernel;
pub use sgx::{EnclaveWorkload, SgxSupport};
pub use spec::{SpecBenchmark, SPEC_CINT2006};
pub use virt::PreemptionModel;
