//! Bounded, order-preserving fork-join on scoped threads.
//!
//! The whole measurement pipeline is *embarrassingly re-runnable*: every
//! FFM stage and every application in an experiment fleet builds its own
//! fresh simulator context, so runs share no mutable state and can
//! proceed concurrently. What must **not** change under parallelism is
//! the output: results are returned in input order, so every consumer
//! (tables, JSON exports, report renderers) sees exactly the bytes a
//! sequential run would produce.
//!
//! ## Fan-out
//!
//! [`par_map`] runs inside one `std::thread::scope`: the caller and up
//! to `jobs - 1` helper threads (named `ffm-pool-{k}`) take item indices
//! from one shared counter, and every helper is joined before the call
//! returns, so no thread outlives the fan-out that started it.
//!
//! A fan-out started on a thread that is already running fan-out tasks
//! (a sweep cell's stage DAG, say) maps inline on that thread. That keeps
//! the thread count bounded by the outermost `jobs` and spares every
//! nested fan-out a spawn it could rarely use while the outer fan-out
//! keeps `jobs` threads busy. The price is the tail: once the outer
//! fan-out runs out of items, its idle threads do not join the nested
//! maps still running (the last cell of a 9-cell sweep at `jobs = 2`
//! runs its stage DAG on one thread).
//!
//! `jobs <= 1` runs the work inline on the caller's thread, no worker
//! threads are spawned anywhere, and the result is byte-for-byte the
//! sequential pipeline's.
//!
//! Built on `std` only — the workspace builds with no external crates.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::telemetry;

/// Environment variable overriding the worker count for every fleet-level
/// `par_map` in the repo (`0` or unset = one worker per available core).
pub const JOBS_ENV: &str = "DIOGENES_JOBS";

/// Upper bound on helper threads per fan-out, a guard against absurd
/// `--jobs` requests.
const MAX_POOL_HELPERS: usize = 256;

/// Interpret a raw [`JOBS_ENV`] value.
///
/// `Ok(Some(n))` — a positive worker count; `Ok(None)` — unset-equivalent
/// (`0` means "auto", empty/whitespace means "not configured");
/// `Err(())` — malformed (not a base-10 non-negative integer: `abc`,
/// `-2`, `1e3`, …), which callers must treat as unset, loudly.
pub(crate) fn parse_jobs_env(raw: &str) -> Result<Option<usize>, ()> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(()),
    }
}

/// Resolve an effective worker count.
///
/// Precedence: an explicit non-zero `requested` wins; otherwise a
/// non-zero [`JOBS_ENV`] value; otherwise the machine's available
/// parallelism. Always at least 1. A malformed [`JOBS_ENV`] value is
/// reported once on stderr and treated as unset instead of silently
/// falling through to the core count.
pub fn effective_jobs(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    if let Ok(raw) = std::env::var(JOBS_ENV) {
        match parse_jobs_env(&raw) {
            Ok(Some(n)) => return n,
            Ok(None) => {}
            Err(()) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    crate::log_warn!(
                        "ignoring malformed {JOBS_ENV}={raw:?} \
                         (expected a non-negative integer); using auto worker count"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Threads a fan-out of `items` items runs on at `jobs`: the caller plus
/// at most [`MAX_POOL_HELPERS`] helpers, never more than one per item,
/// and always at least the caller.
fn worker_count(items: usize, jobs: usize) -> usize {
    jobs.min(items).clamp(1, MAX_POOL_HELPERS + 1)
}

thread_local! {
    /// Whether this thread is running fan-out tasks right now.
    static IN_FAN_OUT: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a fan-out thread until dropped, then
/// restores the previous mark.
struct FanOutMark(bool);

impl FanOutMark {
    fn set() -> FanOutMark {
        FanOutMark(IN_FAN_OUT.replace(true))
    }
}

impl Drop for FanOutMark {
    fn drop(&mut self) {
        IN_FAN_OUT.set(self.0);
    }
}

/// Apply `f` to every item, running up to `jobs` applications at once,
/// and return the results **in input order**.
///
/// `jobs <= 1` (after clamping to the item count), and any call made
/// from inside a running fan-out, is a plain sequential map on the
/// caller's thread — no threads are spawned, so `jobs = 1` is
/// byte-for-byte the sequential pipeline. Helpers run under the caller's
/// request id ([`telemetry::trace_scope`]). Only a fan-out that spreads
/// over threads wraps its tasks in `pool.task` spans and counts them in
/// `pool.tasks_submitter`/`pool.tasks_helper`; a sequential map records
/// neither. A panic in `f` re-raises on the caller once every helper has
/// been joined.
pub fn par_map<T, U, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let workers = worker_count(items.len(), jobs);
    if workers <= 1 || IN_FAN_OUT.get() {
        return items.into_iter().map(f).collect();
    }
    // Workers take the next index from one counter and write the result
    // into the same index, so input order survives any completion order.
    // No task runs while a slot lock is held, so no lock is ever poisoned.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<U>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let drain = |counter: &'static str| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { return };
        telemetry::counter_add(counter, 1);
        let item = slot.lock().expect("slot lock").take().expect("each index is taken once");
        let result = {
            let _task = telemetry::span("pool.task");
            f(item)
        };
        *out[i].lock().expect("slot lock") = Some(result);
    };
    let trace = telemetry::current_trace();
    let _mark = FanOutMark::set();
    let panic = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers)
            .map(|k| {
                std::thread::Builder::new()
                    .name(format!("ffm-pool-{k}"))
                    .spawn_scoped(s, || {
                        let _trace = telemetry::trace_scope(trace);
                        let _mark = FanOutMark::set();
                        drain("pool.tasks_helper");
                    })
                    .expect("spawn fan-out helper")
            })
            .collect();
        let own = catch_unwind(AssertUnwindSafe(|| drain("pool.tasks_submitter"))).err();
        let joined: Vec<_> = helpers.into_iter().filter_map(|h| h.join().err()).collect();
        own.into_iter().chain(joined).next()
    });
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    out.into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("every index completed"))
        .collect()
}

/// Fallible [`par_map`]: the full fleet still runs to completion, then
/// the first error **in input order** is returned (matching what a
/// sequential `?`-loop would report for an input whose failures do not
/// depend on earlier items — true here, since every run is independent).
pub fn try_par_map<T, U, E, F>(items: Vec<T>, jobs: usize, f: F) -> Result<Vec<U>, E>
where
    T: Send,
    U: Send,
    E: Send,
    F: Fn(T) -> Result<U, E> + Sync,
{
    par_map(items, jobs, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        for jobs in [1, 2, 3, 8, 64] {
            let out = par_map((0..100).collect::<Vec<_>>(), jobs, |x| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..40).collect();
        let seq = par_map(items.clone(), 1, |x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
        let par = par_map(items, 6, |x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
        assert_eq!(seq, par);
    }

    #[test]
    fn runs_every_item_exactly_once() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let out = par_map((0..57).collect::<Vec<_>>(), 4, |x| {
            CALLS.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 57);
        assert_eq!(CALLS.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map(Vec::<u8>::new(), 8, |x| x), Vec::<u8>::new());
        assert_eq!(par_map(vec![9], 8, |x| x + 1), vec![10]);
    }

    #[test]
    fn try_par_map_reports_first_error_in_input_order() {
        let items: Vec<u32> = (0..20).collect();
        let r = try_par_map(items, 4, |x| if x % 7 == 3 { Err(x) } else { Ok(x) });
        // Failures at 3, 10, 17; input order means 3 wins regardless of
        // which worker finished first.
        assert_eq!(r, Err(3));
    }

    #[test]
    fn effective_jobs_precedence() {
        assert_eq!(effective_jobs(3), 3);
        assert!(effective_jobs(0) >= 1);
    }

    #[test]
    fn jobs_env_parsing_accepts_integers_and_flags_garbage() {
        assert_eq!(parse_jobs_env("4"), Ok(Some(4)));
        assert_eq!(parse_jobs_env(" 12 "), Ok(Some(12)));
        assert_eq!(parse_jobs_env("0"), Ok(None), "0 means auto");
        assert_eq!(parse_jobs_env(""), Ok(None), "empty means unset");
        assert_eq!(parse_jobs_env("   "), Ok(None));
        assert_eq!(parse_jobs_env("abc"), Err(()), "garbage is malformed, not auto");
        assert_eq!(parse_jobs_env("-2"), Err(()), "negative is malformed");
        assert_eq!(parse_jobs_env("1e3"), Err(()), "scientific notation is malformed");
        assert_eq!(parse_jobs_env("4.0"), Err(()));
        assert_eq!(parse_jobs_env("0x10"), Err(()));
    }

    #[test]
    fn worker_count_clamps_to_items_and_the_helper_cap() {
        assert_eq!(worker_count(10, 1_000_000), 10, "never more workers than items");
        assert_eq!(worker_count(100_000, 1_000_000), MAX_POOL_HELPERS + 1, "caller + cap");
        assert_eq!(worker_count(10, 0), 1, "jobs 0 still runs on the caller");
    }

    #[test]
    fn nested_fan_out_runs_on_the_tasks_own_thread() {
        let out = par_map((0..4).collect::<Vec<_>>(), 4, |_| {
            let task_thread = std::thread::current().id();
            par_map((0..8).collect::<Vec<_>>(), 4, |_| std::thread::current().id())
                .into_iter()
                .all(|id| id == task_thread)
        });
        assert_eq!(out, vec![true; 4], "every inner item runs on its task's thread");
    }

    #[test]
    fn nested_fan_out_shares_the_pool_without_deadlock() {
        let out = par_map((0..6u64).collect::<Vec<_>>(), 3, |x| {
            // Inner fan-out from inside a fan-out task, the way a sweep
            // cell's stage DAG nests inside the sweep fleet.
            let inner = par_map((0..5u64).collect::<Vec<_>>(), 2, move |y| x * 10 + y);
            inner.into_iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..6u64).map(|x| (0..5u64).map(|y| x * 10 + y).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn deeply_nested_self_pool_fan_out_makes_progress() {
        // Two levels below the outer fan-out: each level maps inline on
        // the thread that reached it.
        let out = par_map(vec![1u64, 2, 3], 2, |x| {
            par_map(vec![10u64, 20], 2, move |y| {
                par_map(vec![100u64, 200], 2, move |z| x + y + z).into_iter().sum::<u64>()
            })
            .into_iter()
            .sum::<u64>()
        });
        assert_eq!(out, vec![664, 668, 672]);
    }

    #[test]
    fn helpers_inherit_the_submitters_trace_id() {
        let _scope = telemetry::trace_scope(Some(telemetry::TraceId(77)));
        let traces =
            par_map((0..32).collect::<Vec<_>>(), 4, |_| telemetry::current_trace().map(|t| t.0));
        assert!(
            traces.iter().all(|&t| t == Some(77)),
            "every task (submitter- or helper-run) sees the request id: {traces:?}"
        );
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let caught = std::panic::catch_unwind(|| {
            par_map(vec![1, 2, 3, 4], 2, |x| {
                if x == 3 {
                    panic!("boom {x}");
                }
                x
            })
        });
        let payload = caught.expect_err("task panic must re-raise on the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("boom 3"));
        // The fan-out mark was restored while unwinding: a later fan-out
        // on this thread runs in parallel again.
        assert!(!IN_FAN_OUT.get());
    }
}
