//! One process-wide pool of helper threads, for splitting a single kernel
//! call across the cores of one device (DESIGN.md §8, "Split convolution").
//!
//! [`for_each`] runs `f(0), …, f(n−1)` once each. The caller publishes a job
//! that lives on its own stack, wakes the parked helpers, and claims chunk
//! indices from an atomic counter alongside them. It returns only after every
//! chunk is done *and* no helper still holds the job, so `f` may borrow from
//! the caller's frame. A caller that finds the pool busy (another caller's
//! job, or a nested call from a chunk) runs its chunks itself. Nothing is
//! allocated per call. There are `available_parallelism() − 1` helpers (none
//! under `taskset -c 0`), spawned on first use, parked while idle.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Runs `f(i)` once for every `i < n` on this thread and the pool's idle
/// helpers. A panicking chunk still counts as done; the first panic is
/// re-raised here after the wait, and the pool stays usable.
pub fn for_each(n: usize, f: &(dyn Fn(usize) + Sync)) {
    static GLOBAL: OnceLock<&'static Pool> = OnceLock::new();
    let helpers = || thread::available_parallelism().map_or(0, |cores| cores.get() - 1);
    GLOBAL.get_or_init(|| Pool::new(helpers())).for_each(n, f);
}

/// One published call: the chunk body, the claim counter and the first panic.
struct Job<'a> {
    f: &'a (dyn Fn(usize) + Sync),
    n: usize,
    next: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claims and runs chunks until none are left; never unwinds. `Relaxed`
    /// claims publish nothing: chunk writes reach the caller via `State`'s mutex.
    fn run(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
                lock(&self.panic).get_or_insert(payload);
            }
        }
    }
}

/// The published job, its lifetime erased; see [`Pool::for_each`].
#[derive(Clone, Copy)]
struct JobRef(*const Job<'static>);

// SAFETY: a `Job` is `Sync`, so its pointer may be used from any thread while
// the job lives, and `Pool::for_each` keeps it alive until no helper holds it.
unsafe impl Send for JobRef {}

struct State {
    job: Option<JobRef>, // published until its caller's helpers let go
    epoch: u64,          // bumped per job: a helper joins each job once
    holders: usize,      // helpers inside the published job
}

pub(crate) struct Pool {
    state: Mutex<State>,
    work: Condvar, // a job was published
    idle: Condvar, // the last holder let go of a job
    helpers: usize,
}

impl Pool {
    /// A pool with `helpers` parked threads, alive (and never unwinding) for
    /// the rest of the process; one that fails to spawn costs only speed.
    pub(crate) fn new(helpers: usize) -> &'static Pool {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            state: Mutex::new(State { job: None, epoch: 0, holders: 0 }),
            work: Condvar::new(),
            idle: Condvar::new(),
            helpers,
        }));
        for i in 0..helpers {
            let helper = thread::Builder::new().name(format!("murmuration-par-{i}"));
            let _ = helper.spawn(move || pool.help());
        }
        pool
    }

    /// [`for_each`] on this pool.
    pub(crate) fn for_each(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if self.helpers == 0 || n < 2 {
            return (0..n).for_each(f);
        }
        let job = Job { f, n, next: AtomicUsize::new(0), panic: Mutex::new(None) };
        let mut st = lock(&self.state);
        if st.job.is_some() {
            drop(st);
            return (0..n).for_each(f);
        }
        st.job = Some(JobRef(std::ptr::from_ref(&job).cast()));
        st.epoch += 1;
        drop(st);
        self.work.notify_all();
        job.run();
        // Every chunk is claimed. Wait out the helpers still inside the job,
        // then retract it under the same lock so none can join it late: only
        // then may `job`, and whatever `f` borrows, go out of scope.
        let mut st = lock(&self.state);
        while st.holders > 0 {
            st = self.idle.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        drop(st);
        if let Some(payload) = job.panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
            panic::resume_unwind(payload);
        }
    }

    /// A helper's life: park until a job it has not joined is published, run its chunks, let go.
    fn help(&self) {
        let mut seen = 0;
        let mut st = lock(&self.state);
        loop {
            match st.job {
                Some(job) if st.epoch != seen => {
                    seen = st.epoch;
                    st.holders += 1;
                    drop(st);
                    // SAFETY: the job is alive while `holders` counts this
                    // helper: its caller waits for `holders == 0`, and
                    // retracts it, before its frame can end.
                    unsafe { &*job.0 }.run();
                    st = lock(&self.state);
                    st.holders -= 1;
                    if st.holders == 0 {
                        self.idle.notify_one();
                    }
                }
                _ => st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

/// No user code runs under these locks; poisoning carries no meaning.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Barrier;
    use std::time::Duration;

    /// Runs `body` on its own thread and fails if it has not finished in 30 s.
    fn with_watchdog(body: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        let worker = thread::spawn(move || {
            body();
            let _ = tx.send(());
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(()) => worker.join().expect("test body"),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic::resume_unwind(worker.join().expect_err("body panicked"))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("pool hung"),
        }
    }

    #[test]
    fn every_chunk_runs_once_for_any_helper_count() {
        with_watchdog(|| {
            for helpers in 0..4 {
                let pool = Pool::new(helpers);
                for n in [0, 1, 2, 7, 100] {
                    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                    pool.for_each(n, &|i| {
                        // A nested call finds the pool busy and runs inline.
                        pool.for_each(2, &|_| {});
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    });
                    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{helpers}/{n}");
                }
            }
        });
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_and_the_pool_survives() {
        with_watchdog(|| {
            let pool = Pool::new(1);
            let caller = thread::current().id();
            // Each side blocks in its first chunk until the other arrives,
            // so the caller runs one chunk and the helper the other.
            let meet = Barrier::new(2);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.for_each(2, &|_| {
                    meet.wait();
                    if thread::current().id() != caller {
                        panic!("chunk failed on the helper");
                    }
                });
            }));
            let payload = outcome.expect_err("the helper's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk failed on the helper"));
            let sum = AtomicUsize::new(0);
            pool.for_each(64, &|i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(sum.into_inner(), 64 * 63 / 2);
        });
    }
}
