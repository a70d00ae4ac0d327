//! The NWADE reproduction's benchmark: three workloads driven through
//! the program's public API, their end-to-end metrics, and a traced run
//! that replays each workload's inputs through every layer's public
//! entry point. See `README.md` in this directory for what each metric
//! means and which way is better.

pub mod heap;
pub mod report;
pub mod trace;
pub mod traced;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;
