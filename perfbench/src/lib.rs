//! Admission benchmark for `rtrm`: replays fixed-seed request streams
//! through `Simulator::session` / `Session::admit` on one thread and
//! reports per-arrival latency, throughput and decision quality, or, in a
//! separate traced run, the share of each layer. See `README.md`.

pub mod bench;
pub mod layers;
pub mod report;
pub mod workload;
