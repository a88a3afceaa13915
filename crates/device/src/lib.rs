//! # cubie-device
//!
//! Device specifications for the GPUs the paper evaluates (Table 5):
//! NVIDIA A100 (Ampere), H200 (Hopper, GH200 platform) and B200
//! (Blackwell), expressed as the parameter set the `cubie-sim` timing and
//! power models consume.
//!
//! The specs encode public datasheet values — peak FP64 tensor-core and
//! CUDA-core throughput, DRAM bandwidth and capacity, SM count, clock,
//! TDP — plus model parameters (coalescing efficiencies, launch overhead,
//! pipe power weights) documented per field. [`presets`] also carries the
//! FP16/FP64 peak-evolution series of the paper's Figure 12.

#![warn(missing_docs)]

pub mod presets;
pub mod spec;

pub use presets::{a100, all_devices, b200, find_device, h200, GenerationPeaks, PEAK_EVOLUTION};
pub use spec::{Arch, DeviceSpec, MemEfficiency, PowerSpec};
