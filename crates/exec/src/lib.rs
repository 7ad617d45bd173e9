//! Execution substrate for the workspace, with no external
//! dependencies so the whole tree builds offline.
//!
//! * [`pool`] — a scoped thread pool built on [`std::thread::scope`]
//!   with atomic work distribution and *deterministic result
//!   ordering*: `par_map(items, jobs, f)` returns exactly the vector
//!   the serial `items.iter().map(f).collect()` would, regardless of
//!   the execution interleaving. Every experiment sweep in
//!   `adgen-bench` and the candidate enumeration in `adgen-explorer`
//!   fan out through it.
//! * [`prng`] — a small splitmix64/xorshift PRNG used by the
//!   randomized test suites (replacing the former `rand`/`proptest`
//!   dev-dependencies, which are unreachable offline), and the
//!   streaming FNV-1a-128 digest behind the serve cache's and the
//!   minimization memo's keys.

pub mod pool;
pub mod prng;

pub use pool::{available_jobs, par_map, resolve_jobs};
pub use prng::{splitmix64, Fnv1a128, Prng};
