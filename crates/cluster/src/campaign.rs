//! Batch scheduling of one campaign's matrix of cells.
//!
//! [`ParallelSession`](crate::ParallelSession) pumps **one** explorer
//! through the pool; a campaign has a whole matrix of independent cells
//! (`target × strategy × seed`). Since cells are exploration sessions —
//! and tests within them are already "embarrassingly parallel" (§6.1) —
//! the scheduler parallelizes at cell granularity: each picked cell's
//! session runs to completion on one worker. Cell-level scheduling keeps
//! each session sequential and therefore bit-deterministic in its own
//! seed, which is what lets an interrupted campaign resume to an
//! identical corpus no matter how many workers the pool has or how they
//! interleave.
//!
//! The unit of dispatch is a [`CellChain`]: cells that must run
//! serialized, in order, each seeing state folded from its predecessors
//! (cross-cell redundancy chaining seeds cell *k*'s feedback from the
//! traces of same-target cells `0..k`). Independent cells are simply
//! singleton chains. Chains serialize their own cells but fan out
//! against each other, and because a chain's outcomes depend only on its
//! own cell order and initial state, the schedule is deterministic in
//! the spec regardless of pool width.
//!
//! [`CampaignScheduler`] has no scheduling loop of its own: it runs the
//! [`MultiplexPool`](crate::MultiplexPool) core on scoped workers with
//! the campaign as its only stream, so batch campaigns and the campaign
//! service share one pick order and one panic quarantine.
//!
//! The scheduler is generic over the cell, state, and outcome types so it
//! stays target-agnostic (`afex-targets` wiring lives in the `afex`
//! facade crate).

use crate::multiplex::{CellResult, PoolCore};
use crossbeam::channel;

/// A dependency chain of cells: they run serialized, in order, threading
/// `state` from each finished cell into the next.
pub struct CellChain<S, C> {
    /// State visible to every cell of the chain, updated after each cell
    /// completes (e.g. the deduped failure traces found so far).
    pub state: S,
    /// The chain's cells, in dependency order.
    pub cells: Vec<C>,
}

/// Runs one campaign's chains to completion on a pool of scoped workers.
pub struct CampaignScheduler {
    workers: usize,
}

/// Stops the pool when dropped, so the scoped workers return even when
/// the caller's `on_complete` unwinds mid-stream.
struct StopOnDrop<'p, 'a, S, C, O>(&'p PoolCore<'a, S, C, O>);

impl<S, C, O> Drop for StopOnDrop<'_, '_, S, C, O> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

impl CampaignScheduler {
    /// Creates a scheduler with `workers` pool workers.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one campaign worker");
        CampaignScheduler { workers }
    }

    /// Runs every chain on the pool. A chain's cells run in order:
    /// `run_cell(cell, &state)` for each, folding the outcome back into
    /// the chain state with `update(&mut state, &cell, &outcome)` before
    /// the next cell starts. Outcomes stream to `on_complete` on the
    /// calling thread in wall-clock completion order — the campaign
    /// driver uses it to checkpoint snapshots after every cell without
    /// copying outcomes.
    ///
    /// A free worker picks the first chain in list order whose state is
    /// home and whose cells remain, so a single worker runs the chains
    /// one after another in list order. Since state never crosses
    /// chains, every outcome is a pure function of its chain's initial
    /// state and cell order — independent of pool width and of how
    /// chains interleave on the wall clock.
    ///
    /// # Panics
    ///
    /// A panic in `run_cell` or `update` quarantines its chain: the
    /// chain's remaining cells are dropped, the other chains run to
    /// completion and deliver every outcome, and then this call panics
    /// with the first panicking cell's message.
    pub fn run_chains<S, C, O, F, U, G>(
        &self,
        chains: Vec<CellChain<S, C>>,
        run_cell: F,
        update: U,
        mut on_complete: G,
    ) where
        S: Send,
        C: Send,
        O: Send,
        F: Fn(&C, &S) -> O + Sync,
        U: Fn(&mut S, &C, &O) + Sync,
        G: FnMut(O),
    {
        let core = PoolCore::new(Box::new(&run_cell), Box::new(&update));
        // The stream's callback owns the only sender: the channel closes
        // once the stream is exhausted and the pool drops it.
        let (res_tx, res_rx) = channel::unbounded();
        core.submit(
            chains,
            Box::new(move |res| {
                let _ = res_tx.send(res);
            }),
        );
        let mut quarantined = None;
        std::thread::scope(|scope| {
            let _stop = StopOnDrop(&core);
            for _ in 0..self.workers {
                scope.spawn(|| core.worker_loop());
            }
            for res in res_rx.iter() {
                match res {
                    CellResult::Done(outcome) => on_complete(outcome),
                    CellResult::Quarantined { reason, .. } => {
                        quarantined.get_or_insert(reason);
                    }
                }
            }
        });
        if let Some(reason) = quarantined {
            panic!("{reason}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Builds one chain per cell list, each with unit state.
    fn unit_chains<C>(lists: Vec<Vec<C>>) -> Vec<CellChain<(), C>> {
        lists
            .into_iter()
            .map(|cells| CellChain { state: (), cells })
            .collect()
    }

    #[test]
    fn on_complete_owns_every_cell_once() {
        let mut seen = vec![0usize; 10];
        CampaignScheduler::new(3).run_chains(
            unit_chains((0..10usize).map(|c| vec![c]).collect()),
            |&c, ()| c.to_string(),
            |(), _, _| {},
            |s: String| seen[s.parse::<usize>().unwrap()] += 1,
        );
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
    }

    #[test]
    fn empty_campaign_is_a_no_op() {
        let mut done = Vec::new();
        CampaignScheduler::new(2).run_chains(
            unit_chains(Vec::<Vec<u32>>::new()),
            |&c, ()| c,
            |(), _, _| {},
            |c| done.push(c),
        );
        assert!(done.is_empty());
    }

    #[test]
    fn single_worker_delivers_chain_by_chain_in_list_order() {
        // `--workers 1` export bytes follow this arrival order.
        let mut done = Vec::new();
        CampaignScheduler::new(1).run_chains(
            unit_chains(vec![vec![10, 11, 12], vec![20, 21], vec![30]]),
            |&c, ()| c,
            |(), _, _| {},
            |c| done.push(c),
        );
        assert_eq!(done, vec![10, 11, 12, 20, 21, 30]);
    }

    #[test]
    fn panicking_cell_lets_sibling_chains_finish_then_panics() {
        for workers in [1, 2] {
            let mut done = Vec::new();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                CampaignScheduler::new(workers).run_chains(
                    unit_chains(vec![vec![1, 13, 2, 3], vec![20, 21, 22]]),
                    |&c: &u32, ()| {
                        assert!(c != 13, "cell 13 is poisoned");
                        c
                    },
                    |(), _, _| {},
                    |c| done.push(c),
                );
            }));
            let payload = caught.expect_err("a cell panic must propagate");
            let reason = payload.downcast_ref::<String>().expect("string payload");
            assert!(reason.contains("cell 13 is poisoned"), "{reason}");
            // The poisoned chain stops at its panic; its sibling delivers
            // every outcome before the panic propagates.
            done.sort_unstable();
            assert_eq!(done, vec![1, 20, 21, 22], "workers={workers}");
        }
    }

    /// Runs two synthetic chains and returns each completed cell's id
    /// with the state it saw, in wall-clock completion order.
    fn run_two_chains(workers: usize, delays: bool) -> Vec<(u32, Vec<u32>)> {
        let sched = CampaignScheduler::new(workers);
        let chains = vec![
            CellChain {
                state: Vec::<u32>::new(),
                cells: vec![10, 11, 12],
            },
            CellChain {
                state: vec![99],
                cells: vec![20, 21],
            },
        ];
        let mut done = Vec::new();
        sched.run_chains(
            chains,
            |&cell, state: &Vec<u32>| {
                if delays && cell % 2 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(3));
                }
                (cell, state.clone())
            },
            |state, &cell, _| state.push(cell),
            |out| done.push(out),
        );
        done
    }

    #[test]
    fn chains_serialize_their_cells_and_thread_state() {
        for workers in [1, 2, 4] {
            for delays in [false, true] {
                let mut done = run_two_chains(workers, delays);
                // Wall-clock order varies; the per-chain view must not.
                done.sort_by_key(|(cell, _)| *cell);
                assert_eq!(
                    done,
                    vec![
                        (10, vec![]),
                        (11, vec![10]),
                        (12, vec![10, 11]),
                        (20, vec![99]),
                        (21, vec![99, 20]),
                    ],
                    "workers={workers} delays={delays}"
                );
            }
        }
    }

    #[test]
    fn chains_fan_out_across_workers() {
        // Two chains on two workers must genuinely overlap: chain 0's
        // first cell blocks until chain 1's first cell runs. If chains
        // serialized, the rendezvous would never complete — the timeout
        // is a generous failure bound, not a scheduling assumption.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let sched = CampaignScheduler::new(2);
        let chains: Vec<CellChain<(), u32>> = (0..2)
            .map(|k| CellChain {
                state: (),
                cells: vec![k * 10, k * 10 + 1],
            })
            .collect();
        let mut done = Vec::new();
        sched.run_chains(
            chains,
            |&c, ()| {
                if c == 0 {
                    rx.lock()
                        .unwrap()
                        .recv_timeout(std::time::Duration::from_secs(10))
                        .expect("chain 1 never ran while chain 0 was mid-cell");
                } else if c == 10 {
                    tx.send(()).unwrap();
                }
                c
            },
            |(), _, _| {},
            |c| done.push(c),
        );
        done.sort_unstable();
        assert_eq!(done, vec![0, 1, 10, 11]);
    }
}
