//! `kfusion-vgpu` — a discrete-event **virtual GPU** standing in for the
//! paper's NVIDIA Tesla C2070 + PCIe 2.0 testbed.
//!
//! This machine has no CUDA device, so the reproduction substitutes a
//! simulator that models exactly the quantities kernel fusion and kernel
//! fission act on (see DESIGN.md §2):
//!
//! * [`device::DeviceSpec`] — an analytic device model (SMs, clock, memory
//!   bandwidth/capacity, copy engines) with presets for the paper's Tesla
//!   C2070 and its dual Xeon E5520 CPU baseline.
//! * [`pcie::PcieModel`] — size-dependent PCIe 2.0 bandwidth curves for
//!   pinned vs. paged host memory in both directions (paper Fig. 4(b)).
//! * [`kernel::KernelProfile`] — a roofline kernel cost model charging
//!   `max(compute, memory)` time from per-element instruction counts (fed by
//!   `kfusion-ir`) and global-memory traffic, with register-spill penalties.
//! * [`des`] — a deterministic discrete-event scheduler for streams of
//!   commands over the device's engines (1 compute + 2 DMA), which is what
//!   makes kernel fission's copy/compute overlap measurable.
//! * [`exec`] — functional CTA execution on host threads, so simulated
//!   kernels still compute *real* results.
//! * [`tracing`] — bridge into `kfusion-trace`: timelines convert to trace
//!   values, and the DES mirrors every committed span into the global
//!   recorder when tracing is enabled.
//!
//! Timing is simulated; computation is real. All simulated durations are
//! `f64` seconds.
//!
//! # Modeling deviations from real hardware
//!
//! * The compute engine executes kernels serially. Fermi's concurrent kernel
//!   execution was limited in practice; the paper's stream experiments
//!   (Fig. 12) derive their benefit from copy/compute overlap, which the
//!   model captures fully.
//! * Cache effects are folded into the per-kernel traffic numbers the
//!   relational operators declare, rather than simulated per access.
//!
//! # Example
//!
//! ```
//! use kfusion_vgpu::device::DeviceSpec;
//! use kfusion_vgpu::kernel::{KernelProfile, LaunchConfig};
//!
//! let gpu = DeviceSpec::tesla_c2070();
//! let profile = KernelProfile::new("select_filter")
//!     .instr_per_elem(10.0)
//!     .bytes_read_per_elem(4.0)
//!     .bytes_written_per_elem(2.0);
//! let launch = LaunchConfig::for_elements(1 << 20, &gpu);
//! let t = profile.time(&gpu, &launch, 1 << 20);
//! assert!(t > 0.0 && t < 1.0);
//! ```

pub mod des;
pub mod device;
pub mod exec;
pub mod hazard;
pub mod kernel;
pub mod memory;
pub mod pcie;
pub mod segment;
pub mod tracing;

pub use des::{Command, CommandClass, Engine, Schedule, SimError, Span, Timeline};
pub use device::DeviceSpec;
pub use hazard::Hazard;
pub use kernel::{KernelProfile, LaunchConfig};
pub use memory::{DeviceMemory, MemError};
pub use pcie::{Direction, HostMemKind, PcieModel};
pub use segment::{check_partition, partition, SegRange, SegmentError};

/// A complete simulated GPU system: the device and its PCIe link.
#[derive(Debug, Clone)]
pub struct GpuSystem {
    /// The accelerator model.
    pub spec: DeviceSpec,
    /// Host link model.
    pub pcie: PcieModel,
}

impl GpuSystem {
    /// The paper's testbed: Tesla C2070 behind PCIe 2.0 x16 (Table II).
    pub fn c2070() -> Self {
        GpuSystem { spec: DeviceSpec::tesla_c2070(), pcie: PcieModel::pcie2_x16() }
    }

    /// A fresh capacity tracker for this device's global memory.
    pub fn memory(&self) -> DeviceMemory {
        DeviceMemory::new(self.spec.mem_capacity)
    }

    /// Simulate a schedule of stream commands on this system.
    ///
    /// The [`hazard`] detector runs first: a schedule whose declared buffer
    /// accesses race fails with [`SimError::Hazard`] instead of silently
    /// simulating a timing for a computation that would corrupt data on real
    /// hardware.
    pub fn simulate(&self, schedule: &Schedule) -> Result<Timeline, SimError> {
        {
            let _span = kfusion_trace::host_span("checker", "check_schedule");
            hazard::check_schedule(schedule).map_err(SimError::Hazard)?;
            kfusion_trace::counter("kfusion_checker_passes_total{pass=\"schedule\"}", 1);
        }
        des::simulate(self, schedule)
    }
}
