//! Deterministic parallel execution of experiment grids.
//!
//! Every experiment in [`crate::experiments`] is a grid of independent
//! cells (system × benchmark × parameters). This module runs such grids on
//! a scoped thread pool while keeping the results *bit-identical* to a
//! sequential run:
//!
//! 1. **Content-addressed seeds** — a cell's seed is derived from *what it
//!    measures*, never from its position in an enumeration. Reordering,
//!    filtering, or parallelizing the grid cannot change any cell's random
//!    stream. [`cell_seed`] / [`unit_seed`] hash a whole spec (system,
//!    benchmark, setup, rate, windows, …) through
//!    [`SeedDeriver::seed_parts`]; the campaigns hash their cell
//!    coordinates (see [`crate::experiments::harness`], which lists each
//!    campaign's seed parts).
//! 2. **Ordered collection** — [`run_grid`] returns results in input
//!    order regardless of which worker finished first, so serialized
//!    output (JSON, CSV, rendered tables) is byte-identical for any
//!    worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use coconut_types::SeedDeriver;

use crate::runner::BenchmarkSpec;
use crate::workload::BenchmarkUnit;

/// Resolves a `--jobs` setting to a worker count for `items` work items:
/// `None` → all available CPUs, `Some(n)` → exactly `n` (minimum 1), both
/// capped at the number of items.
pub fn worker_count(jobs: Option<usize>, items: usize) -> usize {
    let n = jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    n.max(1).min(items.max(1))
}

/// Runs `f(index, item)` for every item on a scoped thread pool of
/// [`worker_count`]`(jobs, …)` workers and returns the results in input
/// order.
///
/// With `jobs = Some(1)` the items run inline on the calling thread — no
/// threads are spawned, which keeps single-job runs cheap and makes the
/// equivalence "parallel output ≡ sequential output" directly testable.
/// `f` must derive any randomness from the item's *content* (see
/// [`cell_seed`]), never from `index`, or parallel and sequential runs
/// will agree while a reordered grid silently changes results.
pub fn run_grid<T, R, F>(items: &[T], jobs: Option<usize>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = worker_count(jobs, items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let slots = Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                slots.lock().unwrap()[i] = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("worker completed"))
        .collect()
}

/// The content-addressed seed of one benchmark cell: a pure function of
/// `(root, scope, spec)` where every field of the spec that influences the
/// measurement — system, benchmark, deployment, rate, ops, windows,
/// repetitions — enters the hash. `scope` separates experiment families
/// (e.g. `"run-many"` vs `"fig-sweep"`) so the same spec drawn by two
/// experiments still gets independent streams.
pub fn cell_seed(root: u64, scope: &str, spec: &BenchmarkSpec) -> u64 {
    seed_of(root, scope, None, spec)
}

/// [`cell_seed`] for a whole benchmark unit run from `template`: the unit
/// identity joins the hash because the same template drives different
/// benchmark sequences under different units.
pub fn unit_seed(root: u64, scope: &str, unit: BenchmarkUnit, template: &BenchmarkSpec) -> u64 {
    seed_of(root, scope, Some(unit), template)
}

fn seed_of(root: u64, scope: &str, unit: Option<BenchmarkUnit>, spec: &BenchmarkSpec) -> u64 {
    let unit = unit.map_or(String::new(), |u| format!("{u:?}"));
    let nodes = spec
        .setup
        .nodes
        .map_or_else(|| "-".to_string(), |n| n.to_string());
    // `LatencyModel` carries its distribution parameters in its `Debug`
    // form, so the network identity is fully captured.
    let net = format!("{:?}", spec.setup.net);
    let block_param = spec.setup.block_param.to_string();
    let rate = spec.rate.to_string();
    let ops = spec.ops_per_tx.to_string();
    let send = spec.windows.send.as_micros().to_string();
    let listen = spec.windows.listen.as_micros().to_string();
    let reps = spec.repetitions.to_string();
    let parts = [
        scope,
        unit.as_str(),
        spec.system.label(),
        spec.benchmark.label(),
        nodes.as_str(),
        net.as_str(),
        block_param.as_str(),
        rate.as_str(),
        ops.as_str(),
        send.as_str(),
        listen.as_str(),
        reps.as_str(),
    ];
    SeedDeriver::new(root).seed_parts(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{BlockParam, SystemKind};
    use coconut_types::PayloadKind;

    #[test]
    fn grid_returns_results_in_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for jobs in [Some(1), Some(3), Some(8), None] {
            let out = run_grid(&items, jobs, |i, &x| {
                assert_eq!(i as u64, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn grid_parallel_equals_sequential() {
        let items: Vec<u64> = (0..40).collect();
        let work = |_: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(7);
        assert_eq!(
            run_grid(&items, Some(1), work),
            run_grid(&items, Some(8), work)
        );
    }

    #[test]
    fn grid_handles_empty_and_oversubscribed() {
        let empty: Vec<u8> = Vec::new();
        assert!(run_grid(&empty, Some(4), |_, &x| x).is_empty());
        // More workers than items must not hang or drop results.
        let out = run_grid(&[1u8, 2], Some(16), |_, &x| x);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(worker_count(Some(1), 100), 1);
        assert_eq!(worker_count(Some(8), 3), 3);
        assert_eq!(worker_count(Some(0), 3), 1);
        assert!(worker_count(None, 1000) >= 1);
    }

    #[test]
    fn cell_seed_is_content_addressed() {
        let spec = BenchmarkSpec::new(SystemKind::Fabric, PayloadKind::DoNothing);
        let a = cell_seed(7, "run-many", &spec);
        // Same content, same seed — regardless of any enumeration context.
        assert_eq!(a, cell_seed(7, "run-many", &spec));
        // Any measured field changes the seed.
        assert_ne!(a, cell_seed(7, "run-many", &spec.clone().rate(400.0)));
        assert_ne!(a, cell_seed(7, "run-many", &spec.clone().ops_per_tx(50)));
        assert_ne!(
            a,
            cell_seed(
                7,
                "run-many",
                &spec.clone().block_param(BlockParam::MaxMessageCount(100))
            )
        );
        // Scope and root separate streams.
        assert_ne!(a, cell_seed(7, "fig-sweep", &spec));
        assert_ne!(a, cell_seed(8, "run-many", &spec));
    }

    /// A campaign cell's seed from its `seed_parts` coordinates.
    fn parts(root: u64, parts: &[&str]) -> u64 {
        SeedDeriver::new(root).seed_parts(parts)
    }

    #[test]
    fn sweep_cell_seed_is_content_addressed() {
        let a = parts(7, &["chaos-sweep", "crash", "Fabric", "2"]);
        // Same content, same seed — independent of any campaign context.
        assert_eq!(a, parts(7, &["chaos-sweep", "crash", "Fabric", "2"]));
        // Kind, system, severity, and root each separate streams.
        assert_ne!(a, parts(7, &["chaos-sweep", "loss", "Fabric", "2"]));
        assert_ne!(a, parts(7, &["chaos-sweep", "crash", "Quorum", "2"]));
        assert_ne!(a, parts(7, &["chaos-sweep", "crash", "Fabric", "1"]));
        assert_ne!(a, parts(8, &["chaos-sweep", "crash", "Fabric", "2"]));
    }

    #[test]
    fn scenario_cell_seed_is_content_addressed() {
        let a = parts(7, &["scenario", "crash-heal", "Fabric"]);
        assert_eq!(a, parts(7, &["scenario", "crash-heal", "Fabric"]));
        assert_ne!(a, parts(7, &["scenario", "beyond-f-halt", "Fabric"]));
        assert_ne!(a, parts(7, &["scenario", "crash-heal", "Quorum"]));
        assert_ne!(a, parts(8, &["scenario", "crash-heal", "Fabric"]));
    }

    #[test]
    fn bottleneck_cell_seed_is_content_addressed() {
        let a = parts(7, &["bottleneck", "Fabric"]);
        assert_eq!(a, parts(7, &["bottleneck", "Fabric"]));
        assert_ne!(a, parts(7, &["bottleneck", "Quorum"]));
        assert_ne!(a, parts(8, &["bottleneck", "Fabric"]));
        // The scope separates campaigns that share a system label.
        assert_ne!(a, parts(7, &["scenario", "Fabric"]));
    }

    #[test]
    fn contention_cell_seed_is_content_addressed() {
        let a = parts(7, &["contention", "Fabric", "Smallbank", "low"]);
        assert_eq!(a, parts(7, &["contention", "Fabric", "Smallbank", "low"]));
        assert_ne!(a, parts(7, &["contention", "Quorum", "Smallbank", "low"]));
        assert_ne!(a, parts(7, &["contention", "Fabric", "YCSB", "low"]));
        assert_ne!(a, parts(7, &["contention", "Fabric", "Smallbank", "high"]));
        assert_ne!(a, parts(8, &["contention", "Fabric", "Smallbank", "low"]));
    }

    #[test]
    fn grayfail_cell_seed_is_content_addressed() {
        let a = parts(7, &["grayfail", "Fabric", "slow-leader", "mid"]);
        assert_eq!(a, parts(7, &["grayfail", "Fabric", "slow-leader", "mid"]));
        assert_ne!(a, parts(7, &["grayfail", "Quorum", "slow-leader", "mid"]));
        assert_ne!(a, parts(7, &["grayfail", "Fabric", "flaky-link", "mid"]));
        assert_ne!(a, parts(7, &["grayfail", "Fabric", "slow-leader", "high"]));
        assert_ne!(a, parts(8, &["grayfail", "Fabric", "slow-leader", "mid"]));
    }

    #[test]
    fn unit_seed_separates_units() {
        let spec = BenchmarkSpec::new(SystemKind::Quorum, PayloadKind::KeyValueSet);
        assert_ne!(
            unit_seed(7, "t", BenchmarkUnit::KeyValue, &spec),
            unit_seed(7, "t", BenchmarkUnit::BankingApp, &spec)
        );
        assert_ne!(
            unit_seed(7, "t", BenchmarkUnit::KeyValue, &spec),
            cell_seed(7, "t", &spec)
        );
    }
}
