//! # mcps-sim — deterministic discrete-event simulation kernel
//!
//! Facade over [`mcps_runtime`], the workspace's execution substrate.
//! Domain crates historically imported the kernel through `mcps_sim`
//! paths (`mcps_sim::kernel::Simulation`, `mcps_sim::stats::Summary`,
//! …); those paths keep working here while the implementation lives in
//! `mcps-runtime`, split into a scheduler, an executor and a telemetry
//! bus. New code that only needs the substrate can depend on
//! `mcps-runtime` directly.
//!
//! ## Example
//!
//! ```
//! use mcps_sim::prelude::*;
//!
//! struct Heartbeat { beats: u32 }
//!
//! impl Actor<()> for Heartbeat {
//!     fn handle(&mut self, _msg: (), ctx: &mut Context<'_, ()>) {
//!         self.beats += 1;
//!         ctx.trace("hb", format!("beat {}", self.beats));
//!         ctx.schedule_self(SimDuration::from_secs(1), ());
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let hb = sim.add_actor("heartbeat", Heartbeat { beats: 0 });
//! sim.schedule(SimTime::ZERO, hb, ());
//! sim.run_until(SimTime::from_secs(10));
//! assert_eq!(sim.actor_as::<Heartbeat>(hb).unwrap().beats, 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mcps_runtime::{actor, kernel, rng, shard, time, trace};

/// Summary statistics (re-exported from the runtime telemetry bus).
pub mod stats {
    pub use mcps_runtime::telemetry::{percentile, Summary, Welford};
}

/// Metric collection (re-exported from the runtime telemetry bus).
pub mod metrics {
    pub use mcps_runtime::telemetry::{Histogram, Telemetry, TimeSeries};
}

/// Convenient glob-import of the kernel's everyday names.
pub mod prelude {
    pub use mcps_runtime::actor::{Actor, ActorId};
    pub use mcps_runtime::kernel::{Context, Simulation};
    pub use mcps_runtime::rng::{RngFactory, SimRng};
    pub use mcps_runtime::telemetry::Summary;
    pub use mcps_runtime::time::{SimDuration, SimTime};
}

pub use mcps_runtime::actor::{Actor, ActorId};
pub use mcps_runtime::kernel::{Context, Simulation};
pub use mcps_runtime::time::{SimDuration, SimTime};
