//! The claim loop the workspace runs its independent jobs on: the TREES
//! dataset build (`oocts_gen::dataset`) and both phases of the experiment
//! engine (`oocts_profile::engine`).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Calls `work(j)` once for every `j` of `order`, on up to `threads` scoped
/// threads counting the caller's. Threads claim the entries in `order`
/// through one atomic counter, so a job starts only after every job before
/// it in `order` has started. The caller's thread always works, so
/// `threads` of 0 or 1 run every job on it, and no more threads start than
/// `order` has entries.
///
/// # Panics
/// Re-raises the panic of a job once every thread has stopped. The other
/// threads keep claiming jobs until `order` runs out; a job that should
/// stop them must tell them itself.
pub fn claim_in_order(order: &[usize], threads: usize, work: impl Fn(usize) + Sync) {
    // `next` only hands out positions and publishes no data (`Relaxed`):
    // the scope's joins order every job before the caller reads its output.
    let next = AtomicUsize::new(0);
    let claim = || {
        while let Some(&j) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            work(j);
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(order.len()))
            .map(|_| scope.spawn(claim))
            .collect();
        claim();
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn every_job_runs_once_and_one_thread_keeps_the_order() {
        let order: Vec<usize> = (0..40).map(|j| (j * 17) % 40).collect();
        for threads in [0, 1, 2, 3, 8] {
            let seen = Mutex::new(Vec::new());
            claim_in_order(&order, threads, |j| seen.lock().unwrap().push(j));
            let mut seen = seen.into_inner().unwrap();
            if threads <= 1 {
                assert_eq!(seen, order, "one thread runs the jobs in claim order");
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..40).collect::<Vec<_>>(), "{threads} threads");
        }
        claim_in_order(&[], 4, |_| unreachable!("no job to run"));
    }
}
