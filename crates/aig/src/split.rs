//! Independent SAT queries split across worker threads.
//!
//! Two passes issue SAT queries by the hundred: Houdini's consecution
//! queries in [`analyze`](crate::analyze), and the per-clause
//! obligations of `engines::certify`. Within one batch no query needs
//! another's answer, so the batch is cut into contiguous chunks
//! ([`chunk`]), one per worker, and every worker runs its chunk on a
//! solver of its own ([`run`]). [`worker_count`] sizes the split: one
//! worker per idle core of the host's [`cores`], each with at least 64
//! queries. A batch too small for two workers, below 128 queries, runs
//! inline on the calling thread, which then neither spawns a thread nor
//! asks how many cores there are.
//!
//! A core is idle unless a thread holds a [`CoreClaim`] for it. The
//! seats of a portfolio race claim one each, so a witness checked
//! during the race is not split across cores the seats already keep
//! busy. There a worker thread only takes time from the seats, and on
//! 2 cores it raised the peak resident memory of perfbench's
//! `strengthen` workload by 16–32% in four paired runs: glibc's
//! allocator gives each thread a heap arena of its own, and a
//! short-lived thread per race shuffled the seats' arenas. The split
//! still serves the race where no seat runs yet: [`analyze`](crate::analyze)
//! and the race's admission of the invariant it mined, the one proof of
//! that invariant on the race's path, run before any seat starts and
//! claims its core, so they split across every core.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cores claimed by live [`CoreClaim`]s. A count that publishes no
/// other data, so relaxed ordering suffices.
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

/// One core claimed by its holder for work outside any split, such as
/// a portfolio seat, until the claim is dropped. [`worker_count`] only
/// splits across the cores nobody claims.
pub struct CoreClaim(());

impl CoreClaim {
    /// Claims one core.
    pub fn claim() -> CoreClaim {
        CLAIMED.fetch_add(1, Ordering::Relaxed);
        CoreClaim(())
    }
}

impl Drop for CoreClaim {
    fn drop(&mut self) {
        CLAIMED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// How many cores this host runs threads on
/// ([`std::thread::available_parallelism`]), and 1 when that cannot be
/// read. The portfolio's default line-up and [`worker_count`] both size
/// themselves by it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The fewest queries a worker is given. A scoped spawn, the core-count
/// lookup and the worker's own solver each cost more than a handful of
/// queries save.
const MIN_QUERIES_PER_WORKER: usize = 64;

/// How many workers a batch of `queries` independent queries is split
/// across: at most one per idle core, each with at least 64 queries,
/// and 1 for a batch below 128 queries or when no core is idle.
pub fn worker_count(queries: usize) -> usize {
    if queries < 2 * MIN_QUERIES_PER_WORKER {
        return 1;
    }
    let idle = cores().saturating_sub(CLAIMED.load(Ordering::Relaxed));
    idle.clamp(1, queries / MIN_QUERIES_PER_WORKER)
}

/// The `k`-th of `workers` contiguous chunks of `0..len`, in order;
/// their sizes differ by at most one.
pub fn chunk(len: usize, workers: usize, k: usize) -> Range<usize> {
    k * len / workers..(k + 1) * len / workers
}

/// Runs `job(k, &mut states[k])` for every worker `k` at once: worker 0
/// on the calling thread, every other worker on a scoped thread of its
/// own. Returns the results in worker order. A panic in any job is
/// raised again on the calling thread once every worker has finished.
pub fn run<W: Send, R: Send>(states: &mut [W], job: impl Fn(usize, &mut W) -> R + Sync) -> Vec<R> {
    let Some((first, rest)) = states.split_first_mut() else {
        return Vec::new();
    };
    if rest.is_empty() {
        return vec![job(0, first)];
    }
    let job = &job;
    std::thread::scope(|scope| {
        let others: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(k, state)| scope.spawn(move || job(k + 1, state)))
            .collect();
        let mut results = vec![job(0, first)];
        for worker in others {
            results.push(
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_batches_run_inline() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(2 * MIN_QUERIES_PER_WORKER - 1), 1);
        let cores = cores();
        assert_eq!(worker_count(2 * MIN_QUERIES_PER_WORKER), cores.min(2));
        assert_eq!(worker_count(1 << 20), cores);
        let claims: Vec<CoreClaim> = (0..cores).map(|_| CoreClaim::claim()).collect();
        assert_eq!(worker_count(1 << 20), 1, "every core is claimed");
        drop(claims);
        assert_eq!(worker_count(1 << 20), cores);
        let caller = std::thread::current().id();
        let ran_on = run(&mut [()], |_, ()| std::thread::current().id());
        assert_eq!(ran_on, vec![caller]);
    }

    #[test]
    fn split_chunks_cover_the_batch_and_results_keep_worker_order() {
        for (len, workers) in [(0, 1), (5, 1), (128, 2), (130, 3), (2, 3)] {
            let covered: Vec<usize> = (0..workers).flat_map(|k| chunk(len, workers, k)).collect();
            assert_eq!(covered, (0..len).collect::<Vec<_>>());
            assert!((0..workers).all(|k| chunk(len, workers, k).len() >= len / workers));
        }
        let mut states = vec![0usize; 3];
        let caller = std::thread::current().id();
        let results = run(&mut states, |k, state| {
            *state = 10 * k;
            (k, std::thread::current().id() == caller)
        });
        assert_eq!(results, vec![(0, true), (1, false), (2, false)]);
        assert_eq!(states, vec![0, 10, 20]);
    }
}
