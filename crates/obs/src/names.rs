//! The registered metric names — every metric in the workspace is
//! registered under a constant from this module, never a string literal
//! at the call site (`lint_smr` rule 6 enforces both halves: call sites
//! outside `crates/obs` must pass constants, and every name constant
//! here must end in a unit suffix `bench::regression` classifies —
//! `_total` (volatile event count), `_per_sec` (throughput, regresses by
//! dropping), `_bytes` / `_entries` (memory, regresses by growing)).
//!
//! Subsystem tags are the `SUB_*` constants; they name snapshot rows,
//! not metrics, and carry no unit suffix.
//!
//! Histogram names describe what one *sample* measures (`_entries` for
//! depth/occupancy samples); the snapshot exporter appends the stat
//! suffix (`_count`, `_p50`, `_p90`, `_p99`, `_max`) per exported field.

// Subsystem row tags.
pub const SUB_COOP: &str = "coop";
pub const SUB_THREAD: &str = "thread";
pub const SUB_EXPLORE: &str = "explore";
pub const SUB_LINCHECK: &str = "lincheck";
pub const SUB_SKETCH: &str = "sketch";

// CoopBackend.
pub const COOP_POLLS: &str = "polls_total";
pub const COOP_QUIESCES: &str = "quiesces_total";
pub const COOP_ARENA_BYTES: &str = "arena_bytes";
pub const COOP_RUNNABLE_DEPTH: &str = "runnable_depth_entries";

// ThreadBackend.
pub const THREAD_GATE_WAITS: &str = "gate_waits_total";

// smr::explore.
pub const EXPLORE_NODES: &str = "nodes_expanded_total";
pub const EXPLORE_SLEEP_HITS: &str = "sleep_set_hits_total";
pub const EXPLORE_BACKTRACKS: &str = "backtrack_points_total";
pub const EXPLORE_REPLAYS: &str = "replays_total";
pub const EXPLORE_FRONTIER_DEPTH: &str = "frontier_depth_entries";

// lincheck::online and LinearizabilityPass.
pub const LINCHECK_PUSHES: &str = "pushes_total";
pub const LINCHECK_FOLDS: &str = "fold_compactions_total";
pub const LINCHECK_RETAINED: &str = "retained_entries";
pub const LINCHECK_INERT: &str = "inert_transitions_total";

// sketch.
pub const SKETCH_FLUSHES: &str = "flushes_total";
pub const SKETCH_PRUNED_SCANS: &str = "pruned_shard_scans_total";
