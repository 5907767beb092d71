//! Deterministic fork-join dispatch over indexed work.
//!
//! The workspace's batch executors (the `MacroBank` in `bpimc-core`, the
//! Monte-Carlo fan-out in `bpimc-circuit`) all share this primitive: the
//! caller and a small pool of **persistent** worker threads pull contiguous
//! blocks of `n` independent, index-addressed jobs from a shared claim
//! queue, and results come back **in job order** regardless of scheduling.
//! Persistent workers matter: spawning OS threads per batch costs hundreds
//! of microseconds, which would swamp sub-millisecond batches; the pool is
//! spawned once and re-used for the life of the process.
//!
//! Determinism comes from the jobs themselves being index-seeded; this
//! module only guarantees order-stable collection.
//!
//! `rayon` would be the off-the-shelf answer, but the build environment is
//! offline, so this is a dependency-free implementation on `std::sync`
//! primitives.

use crate::sync::atomic::AtomicUsize;
use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock};

/// A job that panicked inside a parallel batch.
///
/// Carried per job by the `try_` variants so one faulty job fails alone:
/// sibling jobs in the same batch still complete, later batches still run,
/// and the worker pool stays healthy (workers catch every unwind and never
/// die). The panic payload is rendered to text — `&str` and `String`
/// payloads pass through verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload as text.
    pub message: String,
}

impl JobPanic {
    fn from_payload(payload: &(dyn Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Self { message }
    }
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Locks a mutex, recovering from poisoning.
///
/// Poisoning policy for this workspace's shared state (the pool's panic
/// bookkeeping, the server's session and writer locks): every critical
/// section is short and leaves the guarded data consistent at each await
/// point of the lock, so a panic while holding one of these locks cannot
/// leave half-updated state behind. Ignoring the poison flag is therefore
/// safe, and required: one panicking batch must not wedge every subsequent
/// batch behind a `PoisonError`.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The number of parallel lanes (pool workers + the calling thread) used
/// for `n` independent jobs.
pub fn worker_count(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1))
}

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    senders: Vec<mpsc::Sender<Task>>,
}

thread_local! {
    /// True on pool worker threads; nested parallel calls degrade to
    /// sequential instead of deadlocking the (small) pool.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The process-wide worker pool: one thread per core beyond the caller.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let helpers = worker_count(usize::MAX).saturating_sub(1).max(1);
        let senders = (0..helpers)
            .map(|i| {
                let (tx, rx) = mpsc::channel::<Task>();
                std::thread::Builder::new()
                    .name(format!("bpimc-worker-{i}"))
                    .spawn(move || {
                        IS_WORKER.with(|w| w.set(true));
                        // Tasks arrive pre-wrapped in panic guards. Spin
                        // only briefly before blocking: this box's sandboxed
                        // kernel throttles busy-spinning threads for tens of
                        // milliseconds, so prompt blocking beats long spins.
                        'serve: loop {
                            for _ in 0..4_096 {
                                match rx.try_recv() {
                                    Ok(task) => {
                                        task();
                                        continue 'serve;
                                    }
                                    Err(mpsc::TryRecvError::Empty) => {}
                                    Err(mpsc::TryRecvError::Disconnected) => break 'serve,
                                }
                            }
                            match rx.recv() {
                                Ok(task) => task(),
                                Err(_) => break 'serve,
                            }
                        }
                    })
                    .expect("spawning a pool worker");
                tx
            })
            .collect();
        Pool { senders }
    })
}

/// Completion bookkeeping shared between a batch's tasks and its caller.
///
/// Lives on the caller's stack for the duration of one batch. The final
/// `remaining` decrement is the LAST access any worker makes to this state
/// (the wake-up handle is cloned out beforehand), so the caller may free it
/// the moment it observes zero.
struct BatchState {
    /// Tasks still running; checked lock-free by the caller.
    remaining: AtomicUsize,
    /// First panic observed in the batch, if any. A shim lock (named, and
    /// a schedule point under the model scheduler) because it is protocol
    /// state: first-fault-wins is one of the invariants the concurrency
    /// models assert.
    panic: crate::sync::Mutex<Option<JobPanic>>,
    /// The caller's thread, unparked by whichever task finishes last.
    caller: std::thread::Thread,
}

impl BatchState {
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(JobPanic::from_payload(&*payload));
        }
    }
}

/// Runs every closure in `tasks` to completion, using the worker pool plus
/// the calling thread. Blocks until all have finished.
///
/// # Panics
///
/// Panics (after all tasks have completed) if any task panicked.
fn run_tasks<'env>(mut tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
    let nested = IS_WORKER.with(|w| w.get());
    if tasks.len() <= 1 || nested {
        for t in tasks {
            t();
        }
        return;
    }
    let inline = tasks.pop().expect("len checked above");
    let state = BatchState {
        remaining: AtomicUsize::new(tasks.len()),
        panic: crate::sync::Mutex::named("pool.batch.panic", None),
        caller: std::thread::current(),
    };
    let state_ref: &BatchState = &state;
    let senders = &pool().senders;
    for (i, t) in tasks.into_iter().enumerate() {
        let wrapped: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(t)) {
                state_ref.record_panic(payload);
            }
            // Clone the wake-up handle BEFORE the decrement: the moment the
            // caller observes zero it may free `state`, so the decrement
            // must be this closure's final access to it.
            let caller = state_ref.caller.clone();
            if state_ref.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                caller.unpark();
            }
        });
        // SAFETY: the closure borrows only `state` and the caller's `'env`
        // data. This function does not return until `remaining` hits zero,
        // which (per the ordering above) is after every dispatched closure
        // has made its last access, so the borrows never outlive their
        // referents. Workers never unwind (the closure catches panics), so
        // a dispatched task always completes and decrements.
        let wrapped: Task = unsafe { std::mem::transmute(wrapped) };
        senders[i % senders.len()]
            .send(wrapped)
            .expect("pool worker alive");
    }
    if let Err(payload) = catch_unwind(AssertUnwindSafe(inline)) {
        state.record_panic(payload);
    }
    // Spin only briefly before parking (long spins get this thread
    // throttled by the sandboxed kernel, see the worker loop). A stray
    // unpark token from an earlier batch at worst makes one park return
    // early; the loop re-checks the count either way.
    let mut spins = 0u32;
    while state.remaining.load(Ordering::Acquire) > 0 {
        spins += 1;
        if spins > 4_096 {
            std::thread::park_timeout(std::time::Duration::from_millis(1));
        }
    }
    let first_panic = state.panic.lock().take();
    if let Some(p) = first_panic {
        panic!("a parallel task panicked: {}", p.message);
    }
}

/// Runs `f(i)` for every `i in 0..n` across the worker pool and returns the
/// results in index order, with **claim-queue load balancing**: the caller
/// and the pool workers pull contiguous index blocks from a shared queue.
///
/// `f` is called exactly once per index. Per-index cost may vary freely —
/// a Monte-Carlo sweep whose adaptive transient solves take different step
/// counts per sample, say: claimed blocks keep every lane busy to the end
/// instead of making the batch wait for whichever lane drew the slow
/// samples. Nested calls from inside a job run sequentially, and a
/// panicking job re-raises its message on the caller once the batch is
/// done (see [`par_queue_map`]). Blocks are sized by [`par_queue_try_map`]'s heuristic
/// (`n / (lanes * 16)`, clamped to `[1, 256]`), which for the workspace's
/// millisecond-scale jobs keeps each claim well above the ~1 ms of work
/// that makes a pool hand-off worthwhile on this host (see the module
/// docs on futex latency).
///
/// # Examples
///
/// ```
/// let squares = bpimc_stats::parallel::par_claim_indexed_map(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn par_claim_indexed_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let mut states = vec![(); worker_count(n)];
    let jobs: Vec<usize> = (0..n).collect();
    par_queue_map(&mut states, &jobs, |_, &i| f(i))
}

/// The claim-queue protocol itself, factored out of [`par_queue_try_map`]
/// so the concurrency models (`sync::models`) can explore exactly the
/// production claim/drain logic under the deterministic scheduler.
///
/// Invariants the protocol maintains (and the models assert):
///
/// * every index in `0..len` is claimed by exactly one participant;
/// * `active` is raised before a worker touches a claimed block and
///   lowered after, so `active == 0` with the queue exhausted means no
///   worker will ever touch batch memory again.
pub(crate) struct ClaimQueue {
    /// Next unclaimed job index.
    next: AtomicUsize,
    /// Claims currently being executed by pool workers.
    active: AtomicUsize,
    /// Total job count.
    len: usize,
    /// Contiguous indices handed out per claim.
    block: usize,
}

impl ClaimQueue {
    pub(crate) fn new(len: usize, block: usize) -> Self {
        Self {
            next: AtomicUsize::named("claim.next", 0),
            active: AtomicUsize::named("claim.active", 0),
            len,
            block: block.max(1),
        }
    }

    /// A worker's claim: raises `active` *before* taking a block so an
    /// observer can never see "queue empty, nobody active" while jobs are
    /// still being executed; lowers it again (and returns `None`) when the
    /// queue is exhausted.
    pub(crate) fn worker_claim(&self) -> Option<Range<usize>> {
        self.active.fetch_add(1, Ordering::AcqRel);
        let start = self.next.fetch_add(self.block, Ordering::AcqRel);
        if start >= self.len {
            self.active.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(start..(start + self.block).min(self.len))
    }

    /// Marks a worker's claimed block finished (pairs with a `Some` return
    /// from [`ClaimQueue::worker_claim`]).
    pub(crate) fn worker_done(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }

    /// The caller's claim: no `active` bookkeeping — the caller waits for
    /// the workers, never for itself.
    pub(crate) fn caller_claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.block, Ordering::AcqRel);
        if start >= self.len {
            return None;
        }
        Some(start..(start + self.block).min(self.len))
    }

    /// Worker claims currently in flight.
    pub(crate) fn active_claims(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }
}

/// Shared state of one claim-queue batch (see [`par_queue_map`]). Arc'd so
/// late-waking workers can inspect it safely after the caller has returned.
struct QueueShared {
    queue: ClaimQueue,
    caller: std::thread::Thread,
}

/// Runs `f(&mut state, &jobs[i])` for every job, with the **caller and the
/// pool workers pulling jobs from a shared claim queue**, and returns the
/// results in job order.
///
/// Each participating thread owns one `states` slot exclusively for the
/// whole batch. Unlike chunked dispatch, the caller never waits on a worker
/// *wake-up*: if the pool is slow to wake (sandboxed kernels can take ~1 ms
/// to deliver a futex), the caller simply drains the queue itself and waits
/// only for jobs a worker actually claimed. Small batches therefore cost at
/// worst sequential time; big batches parallelize.
///
/// Job-to-state assignment is scheduling-dependent: `f` must produce the
/// same result whichever state slot it runs on (true for self-contained
/// jobs that write their operands before use).
///
/// # Panics
///
/// Panics (after every job has completed) if any job panicked, re-raising
/// the first panic's message. Use [`par_queue_try_map`] to receive per-job
/// `Result`s instead — a server multiplexing independent requests must fail
/// only the offending request, not the whole batch.
pub fn par_queue_map<S, J, T, F>(states: &mut [S], jobs: &[J], f: F) -> Vec<T>
where
    S: Send,
    J: Sync,
    T: Send,
    F: Fn(&mut S, &J) -> T + Sync,
{
    par_queue_try_map(states, jobs, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => panic!("a parallel job panicked: {}", p.message),
        })
        .collect()
}

/// [`par_queue_map`] with **per-job panic containment**: a job that panics
/// yields `Err(JobPanic)` in its own result slot while every sibling job —
/// including later jobs claimed by the same worker — still runs and returns
/// `Ok`. The worker pool stays healthy and subsequent batches are
/// unaffected.
///
/// A panicking job may leave its state slot (`&mut S`) partially updated;
/// `f` must therefore tolerate running on a state slot a previous job
/// abandoned mid-way (true for self-contained jobs that write their
/// operands before use — the same requirement `par_queue_map` already has).
///
/// # Examples
///
/// ```
/// use bpimc_stats::parallel::par_queue_try_map;
///
/// let mut states = vec![(); 4];
/// let jobs = [1u32, 2, 3];
/// let out = par_queue_try_map(&mut states, &jobs, |_, &j| {
///     if j == 2 {
///         panic!("bad job");
///     }
///     j * 10
/// });
/// assert_eq!(out[0].as_ref().unwrap(), &10);
/// assert_eq!(out[1].as_ref().unwrap_err().message, "bad job");
/// assert_eq!(out[2].as_ref().unwrap(), &30);
/// ```
pub fn par_queue_try_map<S, J, T, F>(states: &mut [S], jobs: &[J], f: F) -> Vec<Result<T, JobPanic>>
where
    S: Send,
    J: Sync,
    T: Send,
    F: Fn(&mut S, &J) -> T + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(!states.is_empty(), "need at least one state slot");
    let lanes = worker_count(n).min(states.len());
    let nested = IS_WORKER.with(|w| w.get());
    if lanes <= 1 || nested {
        let s0 = &mut states[0];
        return jobs
            .iter()
            .map(|j| {
                catch_unwind(AssertUnwindSafe(|| f(s0, j))).map_err(|p| JobPanic::from_payload(&*p))
            })
            .collect();
    }

    // Every slot is written exactly once (by whichever participant claimed
    // its index) before the length is set below.
    let mut results: Vec<Result<T, JobPanic>> = Vec::with_capacity(n);
    // Claim in blocks: contended atomic RMWs cost ~0.5 us on virtualized
    // hosts, so per-job claiming would swamp fine-grained jobs. Blocks keep
    // the claim overhead at a fraction of a percent while still giving
    // lanes * 16 units of load-balancing granularity.
    let block = (n / (lanes * 16)).clamp(1, 256);
    let shared = Arc::new(QueueShared {
        queue: ClaimQueue::new(n, block),
        caller: std::thread::current(),
    });

    // Raw-pointer captures: a worker that wakes only after this call has
    // returned must not hold live references into our stack. It re-creates
    // references ONLY after winning a claim, which cannot happen once we
    // have returned: the caller leaves only with the queue exhausted
    // (`next` past `len`, so every later claim fails) and no claim still
    // active, and a late-waking worker's first claim therefore fails
    // without touching the pointers.
    let jobs_ptr = jobs.as_ptr() as usize;
    let f_ptr = &f as *const F as usize;
    let res_ptr = results.as_mut_ptr() as usize;

    let (first, rest) = states.split_first_mut().expect("non-empty states");
    let senders = &pool().senders;
    for (w, state) in rest.iter_mut().take(lanes - 1).enumerate() {
        let state_ptr = state as *mut S as usize;
        let sh = shared.clone();
        let task: Task = Box::new(move || loop {
            let Some(claim) = sh.queue.worker_claim() else {
                sh.caller.unpark();
                break;
            };
            // SAFETY: the claimed block is unique, so the job reads and the
            // result slot writes are unaliased and every slot is written
            // once; the caller cannot have returned (it waits for the
            // queue to be exhausted and `active` to drain), so the pointers
            // are live. Panics are caught PER JOB: a faulty job records a
            // `JobPanic` in its own slot and the loop continues with the
            // block's remaining jobs, so every claimed slot is filled.
            unsafe {
                let f = &*(f_ptr as *const F);
                for i in claim {
                    let job = &*(jobs_ptr as *const J).add(i);
                    let state = &mut *(state_ptr as *mut S);
                    let out = catch_unwind(AssertUnwindSafe(|| f(state, job)))
                        .map_err(|p| JobPanic::from_payload(&*p));
                    (res_ptr as *mut Result<T, JobPanic>).add(i).write(out);
                }
            }
            sh.queue.worker_done();
        });
        senders[w % senders.len()]
            .send(task)
            .expect("pool worker alive");
    }

    // The caller drains the queue with the first state slot. Results go
    // through the same raw pointer the workers use, so no `&mut` to the
    // vector is formed while they might also be writing disjoint slots.
    while let Some(claim) = shared.queue.caller_claim() {
        #[allow(clippy::needless_range_loop)] // `i` also addresses the raw result slot
        for i in claim {
            let out = catch_unwind(AssertUnwindSafe(|| f(first, &jobs[i])))
                .map_err(|p| JobPanic::from_payload(&*p));
            // SAFETY: the claimed block is unique across participants.
            unsafe {
                (res_ptr as *mut Result<T, JobPanic>).add(i).write(out);
            }
        }
    }
    // Wait until no worker is executing a claim. Workers that never woke
    // see an exhausted queue later and exit without touching our stack.
    let mut spins = 0u32;
    while shared.queue.active_claims() > 0 {
        spins += 1;
        if spins > 4_096 {
            std::thread::park_timeout(std::time::Duration::from_millis(1));
        }
    }
    // SAFETY: the queue is exhausted, so every index in `0..n` was claimed,
    // and no claim is active, so every claimed slot has been written.
    unsafe { results.set_len(n) };
    results
}

/// Runs `f(i, &mut state[i])` for every `i`, mutating each state slot on
/// its worker, and returns per-index results in order.
///
/// This is the executor shape a macro bank needs: each job owns one
/// stateful engine (`&mut S`) for its whole chunk, so engines never migrate
/// mid-job and no locking is involved.
pub fn par_state_map<S, T, F>(states: &mut [S], f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let n = states.len();
    if n == 0 {
        return Vec::new();
    }
    if worker_count(n) <= 1 {
        return states
            .iter_mut()
            .enumerate()
            .map(|(i, s)| f(i, s))
            .collect();
    }
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = results
        .iter_mut()
        .zip(states.iter_mut())
        .enumerate()
        .map(|(i, (out, state))| {
            Box::new(move || {
                *out = Some(f(i, state));
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    run_tasks(tasks);
    results
        .into_iter()
        .map(|x| x.expect("all jobs filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_index_order() {
        let out = par_claim_indexed_map(257, |i| i * 3);
        assert_eq!(out, (0..257).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = par_claim_indexed_map(100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<usize> = par_claim_indexed_map(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn claim_indexed_map_is_order_stable_and_complete() {
        let calls = AtomicUsize::new(0);
        let out = par_claim_indexed_map(517, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * 7
        });
        assert_eq!(out, (0..517).map(|i| i * 7).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 517);
        let empty: Vec<usize> = par_claim_indexed_map(0, |i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn state_map_mutates_each_slot() {
        let mut states = vec![0u64; 5];
        let out = par_state_map(&mut states, |i, s| {
            *s = i as u64 + 10;
            *s * 2
        });
        assert_eq!(states, vec![10, 11, 12, 13, 14]);
        assert_eq!(out, vec![20, 22, 24, 26, 28]);
    }

    #[test]
    fn repeated_batches_reuse_the_pool() {
        // Thousands of small batches: would take seconds with per-batch
        // thread spawns, milliseconds with the persistent pool.
        let mut total = 0usize;
        for round in 0..2000 {
            let out = par_claim_indexed_map(4, |i| i + round);
            total += out.iter().sum::<usize>();
        }
        assert!(total > 0);
    }

    #[test]
    fn nested_calls_degrade_to_sequential() {
        // A nested call from a pool worker must run inline on that worker
        // (dispatching to the busy pool could deadlock it); the nested
        // state map covers the fork-join path the same way.
        let out = par_claim_indexed_map(4, |i| {
            let inner = par_claim_indexed_map(3, move |j| i * 10 + j);
            let mut states = vec![0usize; 2];
            let forked = par_state_map(&mut states, |k, s| {
                *s = k;
                k + i
            });
            inner.iter().sum::<usize>() + forked.iter().sum::<usize>()
        });
        assert_eq!(out.len(), 4);
        assert_eq!(out[1], (10 + 11 + 12) + (1 + 2));
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            par_claim_indexed_map(8, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
        let forked = std::panic::catch_unwind(|| {
            let mut states = vec![(); 4];
            par_state_map(&mut states, |i, _| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(forked.is_err());
    }

    #[test]
    fn try_map_fails_only_the_panicking_job() {
        let mut states = vec![0u8; 8];
        let jobs: Vec<usize> = (0..200).collect();
        let out = par_queue_try_map(&mut states, &jobs, |_, &j| {
            if j == 97 {
                panic!("job 97 exploded");
            }
            j * 2
        });
        assert_eq!(out.len(), 200);
        for (j, r) in out.iter().enumerate() {
            if j == 97 {
                let p = r.as_ref().expect_err("job 97 must fail");
                assert!(p.message.contains("exploded"), "{p}");
            } else {
                assert_eq!(*r.as_ref().expect("sibling jobs unaffected"), j * 2);
            }
        }
    }

    #[test]
    fn pool_survives_a_panicking_batch() {
        // A batch with panicking jobs must not abort sibling jobs or wedge
        // the pool for later, unrelated batches.
        let mut states = vec![(); 4];
        let jobs: Vec<usize> = (0..64).collect();
        let out = par_queue_try_map(&mut states, &jobs, |_, &j| {
            if j % 7 == 3 {
                panic!("periodic fault");
            }
            j
        });
        let failed = out.iter().filter(|r| r.is_err()).count();
        assert_eq!(failed, jobs.iter().filter(|j| *j % 7 == 3).count());
        // The pool keeps serving healthy batches afterwards.
        for round in 0..20 {
            let ok = par_queue_map(&mut states, &jobs, |_, &j| j + round);
            assert_eq!(ok[10], 10 + round);
            let claimed = par_claim_indexed_map(32, |i| i * i);
            assert_eq!(claimed[5], 25);
        }
    }

    #[test]
    fn queue_map_panic_carries_the_message() {
        let result = std::panic::catch_unwind(|| {
            let mut states = vec![(); 2];
            par_queue_map(&mut states, &[1u32, 2, 3, 4], |_, &j| {
                if j == 3 {
                    panic!("specific failure detail");
                }
                j
            })
        });
        let payload = result.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("message payload")
            .clone();
        assert!(msg.contains("specific failure detail"), "{msg}");
    }

    #[test]
    fn lock_unpoisoned_recovers_from_a_poisoned_mutex() {
        let m = std::sync::Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().expect("fresh lock");
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), 7);
        *lock_unpoisoned(&m) = 9;
        assert_eq!(*lock_unpoisoned(&m), 9);
    }
}
