//! `detlint` — a workspace determinism auditor.
//!
//! Everything this reproduction guarantees — digest-identical scenario
//! replay, byte-identical fleet reduction at any thread count, the
//! zero-cost observability contract — is enforced *dynamically* by `cmp`
//! gates, which can only catch a nondeterminism bug after a seed happens
//! to trigger it. This crate is the static complement: a dependency-free
//! (air-gapped — no `syn`, no `dylint`) pass over the workspace source
//! that rules out whole classes of nondeterminism before any seed runs,
//! and the precondition for the deterministic multi-core tick, where any
//! unordered iteration or ambient clock that is harmlessly
//! single-threaded today becomes a real race in the effect-merge order.
//!
//! # Rules
//!
//! * `unordered-iteration` — `.iter()`/`.keys()`/`.values()`/`.drain()`/
//!   `for … in` over `HashMap`/`HashSet` (or a local alias such as
//!   `NodeMap`): storage order can leak into effects, digests or reports.
//! * `wall-clock` — `Instant::now`/`SystemTime` anywhere simulation logic
//!   could observe host time.
//! * `ambient-rng` — RNG construction or seeding outside `DetRng`'s
//!   documented SplitMix64 derivation from the scenario seed.
//! * `float-reduction` — f64 accumulation in `fleet` aggregation paths,
//!   which are contractually integer/min/max-only.
//! * `unsafe-audit` — workspace crates missing `#![forbid(unsafe_code)]`.
//!
//! A finding is suppressed only by an inline annotation with a mandatory
//! reason:
//!
//! ```text
//! let t0 = Instant::now(); // detlint: allow(wall-clock) -- bench timing, outside digest
//! ```
//!
//! Reason-less or malformed annotations are `bad-allow` findings;
//! annotations that excuse nothing are `unused-allow` findings; neither
//! can be allowed. Run locally with:
//!
//! ```text
//! cargo run -p dynareg-detlint -- --workspace
//! ```

#![forbid(unsafe_code)]

pub mod allow;
pub mod rules;
pub mod scanner;
pub mod workspace;

pub use allow::{parse_comment, Allow, AllowError};
pub use rules::{lint_source, FileContext, Finding, Rule};
pub use workspace::{find_workspace_root, lint_workspace, partition, unallowed};
