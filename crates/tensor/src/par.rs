//! One process-wide pool of helper threads, for splitting a single kernel
//! call across the cores of one device (DESIGN.md §8, "Split convolution"
//! and "Split roll-out").
//!
//! [`for_each`] runs `f(0), …, f(n−1)` once each. The caller publishes a job
//! that lives on its own stack, wakes the parked helpers, and claims chunk
//! indices from an atomic counter alongside them. It returns only after every
//! chunk is done *and* no helper still holds the job, so `f` may borrow from
//! the caller's frame. A caller that finds the pool busy (another caller's
//! job, or a nested call from a chunk) runs its chunks itself. Nothing is
//! allocated per call. There are `available_parallelism() − 1` helpers (none
//! under `taskset -c 0`), spawned on first use, parked while idle.
//!
//! [`Pool::lockstep`] is the same job for a sequence of short rounds: it is
//! published once, each [`Rounds::run`] hands out that round's parts from the
//! claim counter, and a helper that joined stays in the job between rounds,
//! spinning, until the caller retracts it. That is the pool's one spin: a
//! round is shorter than waking a parked helper.

use std::any::Any;
use std::hint;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Runs `f(i)` once for every `i < n` on this thread and the pool's idle
/// helpers. A panicking chunk still counts as done; the first panic is
/// re-raised here after the wait, and the pool stays usable.
pub fn for_each(n: usize, f: &(dyn Fn(usize) + Sync)) {
    Pool::global().for_each(n, f);
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

/// One round's body, behind a thin pointer so [`Lockstep`] can publish it atomically.
struct Body<'a>(&'a (dyn Fn(usize) + Sync));

/// A published lockstep job; see [`Pool::lockstep`].
struct Lockstep {
    parts: usize,
    /// `round << 32 | next unclaimed part`: a claim names its round, so one
    /// left over from a finished round can never take a part of the next.
    claim: AtomicU64,
    /// Parts of the current round that have finished: each part's
    /// `Release` increment pairs with the caller's `Acquire` wait, so the
    /// caller sees what every part wrote.
    done: AtomicUsize,
    /// The current round's body, valid while any of its parts is unfinished.
    body: AtomicPtr<Body<'static>>,
    /// Set when the caller retracts the job.
    closed: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Busy-wait steps before a waiter inside a lockstep job starts yielding
/// its core on every check: ≈38 µs of `pause` on the 2-vCPU Xeon measured,
/// about two rounds of the paper's policy.
const SPIN_LIMIT: u32 = 1 << 11;

/// One step of waiting inside a lockstep job.
fn backoff(spins: &mut u32) {
    if *spins < SPIN_LIMIT {
        *spins += 1;
        hint::spin_loop();
    } else {
        thread::yield_now();
    }
}

impl Lockstep {
    /// Claims and runs parts until a claim comes back empty, and returns the
    /// round that claim was in; never unwinds. A claim's `Acquire` pairs with
    /// the `Release` that opened its round, so the part sees the body and
    /// everything the caller wrote before it.
    fn work(&self) -> u64 {
        loop {
            let claim = self.claim.fetch_add(1, Ordering::AcqRel);
            let (round, i) = (claim >> 32, (claim & 0xffff_ffff) as usize);
            if i >= self.parts {
                return round;
            }
            // SAFETY: part `i` of `round` is claimed and unfinished, so its
            // caller is still inside `Rounds::run`, which keeps the body
            // alive until `done` counts this part below.
            let f = unsafe { &*self.body.load(Ordering::Relaxed) }.0;
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                lock(&self.panic).get_or_insert(payload);
            }
            self.done.fetch_add(1, Ordering::Release);
        }
    }

    /// A helper's stay in the job: take parts of every round it sees, spin
    /// between rounds, leave once the job is closed.
    fn help(&self) {
        let (mut seen, mut spins) = (0, 0);
        while !self.closed.load(Ordering::Acquire) {
            if self.claim.load(Ordering::Relaxed) >> 32 == seen {
                backoff(&mut spins);
            } else {
                seen = self.work();
                spins = 0;
            }
        }
    }
}

/// The rounds of one [`Pool::lockstep`] call.
pub struct Rounds<'a> {
    job: Option<&'a Lockstep>,
    parts: usize,
    round: u64,
}

impl Rounds<'_> {
    /// Rounds that run every part in a plain loop on the calling thread.
    pub fn inline(parts: usize) -> Rounds<'static> {
        Rounds { job: None, parts, round: 0 }
    }

    /// Parts a round.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Runs `part(0), …, part(parts − 1)` once each, on this thread and the
    /// helpers inside the job, and returns when all are done. Unclaimed parts
    /// run here, so no round waits for a helper to arrive. A part that
    /// panicked anywhere is re-raised here, after the round.
    pub fn run(&mut self, part: &(dyn Fn(usize) + Sync)) {
        let Some(job) = self.job else {
            return (0..self.parts).for_each(part);
        };
        self.round += 1;
        let body = Body(part);
        job.body.store(std::ptr::from_ref(&body).cast_mut().cast(), Ordering::Relaxed);
        job.done.store(0, Ordering::Relaxed);
        job.claim.store(self.round << 32, Ordering::Release);
        job.work();
        let mut spins = 0;
        while job.done.load(Ordering::Acquire) < job.parts {
            backoff(&mut spins);
        }
        if let Some(payload) = lock(&job.panic).take() {
            panic::resume_unwind(payload);
        }
    }
}

/// The published job, its lifetime erased; see [`Pool::for_each`] and
/// [`Pool::lockstep`].
#[derive(Clone, Copy)]
enum JobRef {
    Chunks(*const Job<'static>),
    Lockstep(*const Lockstep),
}

// SAFETY: `Job` and `Lockstep` are `Sync`, so their pointers may be used from
// any thread while the job lives, and `Pool::for_each` and `Pool::lockstep`
// keep it alive until no helper holds it.
unsafe impl Send for JobRef {}

struct State {
    job: Option<JobRef>, // published until its caller's helpers let go
    epoch: u64,          // bumped per job: a helper joins each job once
    holders: usize,      // helpers inside the published job
    room: usize,         // helpers the published job can use
}

/// A set of helper threads and the one job they may hold at a time. The
/// process-wide pool is [`Pool::global`]; tests build pools of given sizes.
pub struct Pool {
    state: Mutex<State>,
    work: Condvar, // a job was published
    idle: Condvar, // the last holder let go of a job
    helpers: usize,
}

impl Pool {
    /// The process-wide pool: `available_parallelism() − 1` helpers.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<&'static Pool> = OnceLock::new();
        let helpers = || thread::available_parallelism().map_or(0, |cores| cores.get() - 1);
        GLOBAL.get_or_init(|| Pool::new(helpers()))
    }

    /// A pool with `helpers` parked threads, alive (and never unwinding) for
    /// the rest of the process; one that fails to spawn costs only speed.
    pub fn new(helpers: usize) -> &'static Pool {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            state: Mutex::new(State { job: None, epoch: 0, holders: 0, room: 0 }),
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
    pub fn for_each(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if self.helpers == 0 || n < 2 {
            return (0..n).for_each(f);
        }
        let job = Job { f, n, next: AtomicUsize::new(0), panic: Mutex::new(None) };
        if !self.publish(JobRef::Chunks(std::ptr::from_ref(&job).cast()), n - 1) {
            return (0..n).for_each(f);
        }
        self.work.notify_all();
        job.run();
        // Every chunk is claimed. Wait out the helpers still inside the job,
        // then retract it under the same lock so none can join it late: only
        // then may `job`, and whatever `f` borrows, go out of scope.
        self.retract();
        if let Some(payload) = job.panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
            panic::resume_unwind(payload);
        }
    }

    /// Runs `drive` with a job of `parts` parts a round published on this
    /// pool: every [`Rounds::run`] inside it runs one round, on this thread
    /// and on up to `parts − 1` helpers that stay in the job between rounds.
    /// The job is published once and retracted when `drive` returns or
    /// unwinds, after the last helper has left it. A pool without helpers, a
    /// busy pool (another caller's job, or a call from inside a part) or
    /// `parts < 2` runs every round in a plain loop here. Nothing is
    /// allocated per call or per round.
    pub fn lockstep<T>(&self, parts: usize, drive: impl FnOnce(&mut Rounds<'_>) -> T) -> T {
        let inline = Rounds::inline(parts);
        if self.helpers == 0 || parts < 2 {
            return drive(&mut { inline });
        }
        assert!(parts < 1 << 31, "a part index and its failed claims fit the claim word");
        let job = Lockstep {
            parts,
            claim: AtomicU64::new(parts as u64), // round 0, nothing left to claim
            done: AtomicUsize::new(0),
            body: AtomicPtr::new(std::ptr::null_mut()),
            closed: AtomicBool::new(false),
            panic: Mutex::new(None),
        };
        if !self.publish(JobRef::Lockstep(std::ptr::from_ref(&job)), parts - 1) {
            return drive(&mut { inline });
        }
        for _ in 0..(parts - 1).min(self.helpers) {
            self.work.notify_one();
        }
        /// Closes the job and retracts it, also when `drive` unwinds: only
        /// then may `job` go out of scope.
        struct Retract<'a>(&'a Pool, &'a Lockstep);
        impl Drop for Retract<'_> {
            fn drop(&mut self) {
                self.1.closed.store(true, Ordering::Release);
                self.0.retract();
            }
        }
        let _retract = Retract(self, &job);
        let mut rounds = Rounds { job: Some(&job), ..inline };
        drive(&mut rounds)
    }

    /// Publishes `job` for up to `room` helpers, unless the pool holds one.
    fn publish(&self, job: JobRef, room: usize) -> bool {
        let mut st = lock(&self.state);
        if st.job.is_some() {
            return false;
        }
        st.job = Some(job);
        st.epoch += 1;
        st.room = room;
        true
    }

    /// Waits until no helper holds the published job, then retracts it
    /// under the same lock, so none can join it late.
    fn retract(&self) {
        let mut st = lock(&self.state);
        while st.holders > 0 {
            st = self.idle.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
    }

    /// A helper's life: park until a job it has not joined is published, run
    /// its chunks or stay in its rounds, let go.
    fn help(&self) {
        let mut seen = 0;
        let mut st = lock(&self.state);
        loop {
            match st.job {
                Some(job) if st.epoch != seen && st.holders < st.room => {
                    seen = st.epoch;
                    st.holders += 1;
                    drop(st);
                    // SAFETY: the job is alive while `holders` counts this
                    // helper: its caller waits for `holders == 0`, and
                    // retracts it, before its frame can end.
                    match job {
                        JobRef::Chunks(job) => unsafe { &*job }.run(),
                        JobRef::Lockstep(job) => unsafe { &*job }.help(),
                    }
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

    #[test]
    fn every_part_runs_once_a_round_for_any_helper_count() {
        with_watchdog(|| {
            for helpers in 0..4 {
                let pool = Pool::new(helpers);
                for parts in [1, 2, 3] {
                    let hits: Vec<AtomicUsize> = (0..parts).map(|_| AtomicUsize::new(0)).collect();
                    let rounds = pool.lockstep(parts, |rounds| {
                        assert_eq!(rounds.parts(), parts);
                        for round in 1..=50 {
                            rounds.run(&|i| {
                                // Nested calls find the pool busy and run inline.
                                pool.for_each(2, &|_| {});
                                pool.lockstep(2, |inner| inner.run(&|_| {}));
                                hits[i].fetch_add(1, Ordering::Relaxed);
                            });
                            // Every part of the round is done when `run` returns.
                            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == round));
                        }
                        50
                    });
                    assert_eq!(rounds, 50, "{helpers} helpers, {parts} parts");
                }
                // The job is retracted: the pool takes the next one.
                let sum = AtomicUsize::new(0);
                pool.for_each(8, &|i| {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
                assert_eq!(sum.into_inner(), 28);
            }
        });
    }

    #[test]
    fn a_second_caller_finds_the_job_held_and_runs_inline() {
        with_watchdog(|| {
            let pool = Pool::new(1);
            let (held, released) = (Barrier::new(2), Barrier::new(2));
            thread::scope(|s| {
                s.spawn(|| {
                    pool.lockstep(2, |rounds| {
                        rounds.run(&|_| {});
                        held.wait();
                        released.wait();
                        rounds.run(&|_| {});
                    });
                });
                held.wait();
                let me = thread::current().id();
                let elsewhere = AtomicUsize::new(0);
                pool.lockstep(2, |rounds| {
                    for _ in 0..20 {
                        rounds.run(&|_| {
                            if thread::current().id() != me {
                                elsewhere.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    }
                });
                released.wait();
                assert_eq!(elsewhere.into_inner(), 0, "a busy pool lent its helper");
            });
        });
    }

    #[test]
    fn a_part_panic_on_the_helper_reaches_the_caller_and_the_pool_survives() {
        with_watchdog(|| {
            let pool = Pool::new(1);
            let caller = thread::current().id();
            // Both sides block in their part until the other arrives, so
            // each runs one: the round cannot finish without the helper.
            let meet = Barrier::new(2);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.lockstep(2, |rounds| {
                    rounds.run(&|_| {
                        meet.wait();
                        if thread::current().id() != caller {
                            panic!("part failed on the helper");
                        }
                    });
                    unreachable!("the round re-raises the helper's panic");
                })
            }));
            let payload = outcome.expect_err("the helper's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"part failed on the helper"));
            let sum = AtomicUsize::new(0);
            pool.lockstep(2, |rounds| {
                for _ in 0..10 {
                    rounds.run(&|i| {
                        sum.fetch_add(i + 1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(sum.into_inner(), 30);
        });
    }
}
