//! Deterministic discrete-event simulation kernel.
//!
//! The Matrix paper evaluated on a physical cluster running real games.
//! This crate is the testbed substitute — the discrete-event driver of
//! `ARCHITECTURE.md` runs the protocol on it: a virtual clock, a deterministic event queue, seeded randomness, network latency
//! and loss models, and a fluid service-queue model that produces the
//! receive-queue-length series of Figure 2b.
//!
//! Everything is reproducible: the same seed and schedule produce the same
//! trajectory, which is what lets the experiment harness regenerate the
//! paper's figures as stable artefacts.
//!
//! # Example
//!
//! ```
//! use matrix_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "world");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(1), "hello");
//! let (t1, e1) = q.pop().unwrap();
//! assert_eq!((t1.as_millis(), e1), (1, "hello"));
//! let (t2, e2) = q.pop().unwrap();
//! assert_eq!((t2.as_millis(), e2), (5, "world"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod latency;
mod queue;
mod rng;
mod service;
mod time;

pub use latency::{LatencyModel, LinkModel};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use service::ServiceQueue;
pub use time::{SimDuration, SimTime};
