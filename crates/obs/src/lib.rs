//! Zero-dependency observability for the ParchMint pipeline.
//!
//! Instrumented code emits [`Event`]s — counter increments, numeric
//! samples, histogram observations, and span timings — through a
//! thread-local [`Recorder`] installed for the dynamic extent of a call
//! with [`with_recorder`]. When no recorder is installed (the default),
//! every emission is a single thread-local check and costs nothing
//! beyond it, so pipeline hot paths stay instrumented permanently.
//!
//! ```
//! use parchmint_obs::{self as obs, Collector};
//! use std::sync::Arc;
//!
//! let collector = Arc::new(Collector::new());
//! obs::with_recorder(collector.clone(), || {
//!     let _span = obs::Span::enter("demo.work");
//!     obs::count("demo.items", 3);
//!     obs::sample("demo.cost", 1.5);
//! });
//! let summary = collector.summary();
//! assert_eq!(summary.counters["demo.items"], 3);
//! assert_eq!(summary.spans["demo.work"].count, 1);
//! ```
//!
//! Metric names are `&'static str` by design: emission never allocates,
//! and aggregation keys stay interned for the process lifetime.

mod event;
mod metrics;
mod recorder;
mod scope;
mod summary;

pub use event::{Event, EventKind};
pub use metrics::Histogram;
pub use recorder::{Collector, Recorder};
pub use scope::{count, enabled, observe, sample, with_recorder, Span};
pub use summary::{SpanStats, TraceSummary};
