//! Self-measurement: the tool watching itself the way it watches apps.
//!
//! The paper's premise is *honest* measurement — Diogenes reports its own
//! collection overhead (§6, Fig. 8) so users can trust the benefit
//! estimates. [`crate::pipeline::StageStats::overhead_factor`] reproduces
//! that at stage granularity, but nothing below the stage level was
//! visible once `run_ffm` became a concurrent stage DAG on fan-out
//! threads. This module is the layer that explains where *pipeline*
//! time goes: hierarchical spans, a metrics table of counters and
//! value histograms, and exporters that render the tool's own execution
//! as a Chrome trace (one track per `ffm-pool-N` worker) plus a summary
//! document (`results/TELEMETRY_<app>.json`, written by `--profile`).
//!
//! ## Jobs-invariance by construction
//!
//! Telemetry must never be able to change a report. Three properties
//! guarantee it:
//!
//! 1. **No data flows back.** Spans and metrics are write-only from the
//!    pipeline's perspective; nothing in `run_ffm`/`run_sweep` reads the
//!    sink. Reports are bit-identical with profiling on or off, at every
//!    `--jobs` value (pinned by `crates/diogenes/tests`).
//! 2. **No-op fast path.** When off (the default), every entry point is
//!    one relaxed atomic load and an early return — no allocation, no
//!    locks, no clock reads — so the hot paths in `par.rs` /
//!    `pipeline.rs` cost nothing on tier-1 runs.
//! 3. **One span sink, one metrics table.** Every closed span goes to
//!    the flight ring: one deque behind one lock, owning the whole byte
//!    budget. Each event carries its thread's track id and name, which
//!    the thread keeps in a thread-local, so no per-thread state outlives
//!    the ring. `--profile` runs the ring with no byte budget and renders
//!    it as `TELEMETRY_<app>.json` ([`snapshot`]); `diogenes serve`
//!    bounds it and dumps it at `GET /trace`, through the same trace
//!    renderer. Counters and histograms go to one cumulative table behind
//!    a second lock.
//!
//! Wall-clock timestamps make telemetry output inherently
//! non-deterministic — which is exactly why it lives in separate
//! artifacts and never inside `FfmReport` / `SweepMatrix` JSON.

use std::cell::{Cell, OnceCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Synthetic pid for the tool-self trace (the simulated app's traceviz
/// export also uses pid 1; the two documents are separate files, so the
/// ids never collide in one viewer session).
pub const SELF_TRACE_PID: u32 = 1;

// ---------------------------------------------------------------------------
// Collection switch — the no-op fast path — and trace correlation.
// ---------------------------------------------------------------------------

/// Total byte budget of the flight-recorder ring; `0` = off (the
/// default, so one-shot CLI runs pay nothing), `usize::MAX` = keep every
/// span (`--profile`).
static FLIGHT_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Whether spans and metrics are being collected. One relaxed load —
/// this is the no-op fast path of every entry point.
#[inline]
pub fn collecting() -> bool {
    FLIGHT_BYTES.load(Ordering::Relaxed) != 0
}

/// Turn whole-run profiling on or off (the CLI's `--profile` flag):
/// `true` runs the ring with no byte budget, `false` turns it off.
pub fn set_enabled(on: bool) {
    flight_configure(if on { usize::MAX } else { 0 });
}

/// Set the flight recorder's total byte budget (`diogenes serve
/// --flight-recorder-bytes`). `0` disables it. The budget bounds resident
/// memory: once full, the oldest spans are overwritten.
pub fn flight_configure(total_bytes: usize) {
    FLIGHT_BYTES.store(total_bytes, Ordering::Relaxed);
}

/// A request-correlation id minted at an entry point (one per HTTP
/// request or job in `diogenes serve`) and carried via a thread-local so
/// every span recorded and every log line emitted while it is installed
/// can be attributed to the request. `0` is reserved for "untraced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

thread_local! {
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// The trace id installed on the current thread, if any. Safe to call
/// from anywhere (including thread teardown): absent a scope it is
/// `None`.
#[inline]
pub fn current_trace() -> Option<TraceId> {
    let raw = CURRENT_TRACE.try_with(Cell::get).unwrap_or(0);
    if raw == 0 {
        None
    } else {
        Some(TraceId(raw))
    }
}

/// RAII guard restoring the previously installed trace id on drop.
#[must_use = "the trace id is uninstalled when the scope drops"]
pub struct TraceScope {
    prev: u64,
}

/// Install `trace` (or clear it, for `None`) as the current thread's
/// trace id until the returned scope drops. Scopes nest; the previous id
/// is restored on drop. Two thread-local cell accesses — cheap enough
/// for per-task use.
pub fn trace_scope(trace: Option<TraceId>) -> TraceScope {
    let next = trace.map_or(0, |t| t.0);
    let prev = CURRENT_TRACE.try_with(|c| c.replace(next)).unwrap_or(0);
    TraceScope { prev }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        let _ = CURRENT_TRACE.try_with(|c| c.set(self.prev));
    }
}

// ---------------------------------------------------------------------------
// Tracks, span events and histograms.
// ---------------------------------------------------------------------------

/// One recorded span: a named interval on one thread's track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (`"stage2-detailed-tracing"`, `"sweep.cell"`, …).
    pub name: &'static str,
    /// Optional per-instance label, built only while enabled.
    pub detail: Option<String>,
    /// Nanoseconds since the process telemetry epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Nesting depth at entry (0 = top level on this thread).
    pub depth: u32,
    /// Request-correlation id installed when the span closed
    /// ([`trace_scope`]); `0` = untraced.
    pub trace: u64,
}

impl SpanEvent {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// Display label: the static name, plus the per-instance detail in
    /// brackets when present (`"serve.job [4f0e...]"`). Trace exports
    /// and well-formedness diagnostics both use this form.
    pub fn label(&self) -> String {
        match &self.detail {
            Some(d) => format!("{} [{}]", self.name, d),
            None => self.name.to_string(),
        }
    }
}

/// A value histogram with power-of-two buckets plus exact count / sum /
/// min / max. Every field is a commutative fold over the recorded
/// values, so the result is independent of the order threads record in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// `buckets[i]` counts values in `[2^(i-1), 2^i)`; bucket 0 holds 0.
    pub buckets: [u64; 64],
}

impl Default for Hist {
    fn default() -> Self {
        Hist { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; 64] }
    }
}

impl Hist {
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(63)
    }

    pub fn record(&mut self, v: u64) {
        self.count += 1;
        // Saturating: commutative and associative over unsigned values,
        // so recording order still cannot change the result.
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Inclusive upper bound of bucket `i` (the largest value it holds).
    fn bucket_hi(i: usize) -> u64 {
        match i {
            0 => 0,
            63 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Lower bound of bucket `i`.
    fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) from the log2 buckets.
    ///
    /// The rank-holding bucket is found by a cumulative walk, then the
    /// value is linearly interpolated inside the bucket's `[lo, hi]`
    /// range and clamped to the exact observed `[min, max]`. Guarantees
    /// (pinned by property tests): the estimate always lies in
    /// `[min, max]`, and it is monotone non-decreasing in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let lo = Self::bucket_lo(i);
                let hi = Self::bucket_hi(i);
                let frac = (rank - cum) as f64 / c as f64;
                let est = lo as f64 + (hi - lo) as f64 * frac;
                return (est as u64).clamp(self.min, self.max);
            }
            cum += c;
        }
        self.max
    }
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    /// Nesting depth of this thread's open spans.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// This thread's track id and name, assigned when it first closes a
    /// span and shared with every span it records.
    static TRACK: OnceCell<(u32, Arc<str>)> = const { OnceCell::new() };
}

/// The current thread's track: a process-unique id, handed out in the
/// order threads first record and never reused, and the thread's name
/// (`thread-<id>` for an unnamed thread). `None` while thread-locals are
/// torn down.
fn this_track() -> Option<(u32, Arc<str>)> {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    TRACK
        .try_with(|t| {
            t.get_or_init(|| {
                let id = NEXT.fetch_add(1, Ordering::Relaxed);
                let name = std::thread::current()
                    .name()
                    .map_or_else(|| format!("thread-{id}"), str::to_string);
                (id, name.into())
            })
            .clone()
        })
        .ok()
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// An open span; records a [`SpanEvent`] on drop. A disabled process gets
/// an inert guard (no allocation, no clock read).
#[must_use = "a span records on drop; binding it to `_` closes it immediately"]
pub struct Span {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    detail: Option<String>,
    start_ns: u64,
}

/// Open a span named `name` on the current thread's track.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !collecting() {
        return Span { active: None };
    }
    open_span(name, None)
}

/// Open a span with a per-instance label; `detail` is only invoked while
/// [`collecting`], so label formatting is free on the no-op path.
#[inline]
pub fn span_detail(name: &'static str, detail: impl FnOnce() -> String) -> Span {
    if !collecting() {
        return Span { active: None };
    }
    open_span(name, Some(detail()))
}

fn open_span(name: &'static str, detail: Option<String>) -> Span {
    let _ = DEPTH.try_with(|d| d.set(d.get() + 1));
    Span { active: Some(ActiveSpan { name, detail, start_ns: now_ns() }) }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let end = now_ns();
        let Ok(depth) = DEPTH.try_with(|d| {
            d.set(d.get().saturating_sub(1));
            d.get()
        }) else {
            return;
        };
        let Some((track, thread)) = this_track() else { return };
        let event = SpanEvent {
            name: a.name,
            detail: a.detail,
            start_ns: a.start_ns,
            dur_ns: end.saturating_sub(a.start_ns),
            depth,
            trace: current_trace().map_or(0, |t| t.0),
        };
        // Spans close child-before-parent, so the ring receives a
        // post-order stream: this is what lets its drop-oldest policy
        // preserve well-formed nesting (evicting a prefix removes
        // children before their parents).
        flight_push(FlightEvent { track, thread, event });
    }
}

// ---------------------------------------------------------------------------
// Metrics table.
// ---------------------------------------------------------------------------

/// The cumulative counters and histograms since process start.
static METRICS: Mutex<MetricsTotals> =
    Mutex::new(MetricsTotals { counters: BTreeMap::new(), hists: BTreeMap::new() });

/// Lock the metrics table. No update leaves it half-done, so a lock
/// poisoned by a panic elsewhere still guards valid totals.
fn metrics() -> MutexGuard<'static, MetricsTotals> {
    METRICS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Add `n` to the named counter (addition commutes, so the total is
/// worker-count independent).
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if !collecting() {
        return;
    }
    *metrics().counters.entry(name).or_insert(0) += n;
}

/// Record a value into the named histogram. Values are durations in
/// nanoseconds for `*_ns` metrics and plain magnitudes otherwise (queue
/// depth, batch size).
#[inline]
pub fn record(name: &'static str, value: u64) {
    if !collecting() {
        return;
    }
    metrics().hists.entry(name).or_default().record(value);
}

// ---------------------------------------------------------------------------
// Snapshot + metrics totals.
// ---------------------------------------------------------------------------

/// One thread's recorded spans.
#[derive(Debug, Clone)]
pub struct TrackSnapshot {
    pub thread: String,
    pub track: u32,
    pub events: Vec<SpanEvent>,
}

impl TrackSnapshot {
    /// Time covered by top-level spans on this track — the "busy" time
    /// the worker-utilization summary reports.
    pub fn busy_ns(&self) -> u64 {
        self.events.iter().filter(|e| e.depth == 0).map(|e| e.dur_ns).sum()
    }
}

/// Everything collected so far: the ring's spans by thread, plus the
/// cumulative metrics.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Per-thread span tracks, in track order.
    pub tracks: Vec<TrackSnapshot>,
    /// Cumulative counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Cumulative histograms.
    pub hists: BTreeMap<&'static str, Hist>,
}

/// Aggregate of all spans sharing a name, across tracks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAggregate {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl TelemetrySnapshot {
    /// Per-name span rollup, sorted by name for deterministic output.
    pub fn span_aggregates(&self) -> Vec<SpanAggregate> {
        let mut by_name: BTreeMap<&'static str, SpanAggregate> = BTreeMap::new();
        for t in &self.tracks {
            for e in &t.events {
                let agg = by_name.entry(e.name).or_insert(SpanAggregate {
                    name: e.name,
                    count: 0,
                    total_ns: 0,
                    min_ns: u64::MAX,
                    max_ns: 0,
                });
                agg.count += 1;
                agg.total_ns += e.dur_ns;
                agg.min_ns = agg.min_ns.min(e.dur_ns);
                agg.max_ns = agg.max_ns.max(e.dur_ns);
            }
        }
        by_name.into_values().collect()
    }
}

/// The resident spans grouped into per-thread tracks, plus
/// [`gather_metrics`]' cumulative totals — what `--profile` renders as
/// `TELEMETRY_<app>.json` after turning collection off.
pub fn snapshot() -> TelemetrySnapshot {
    let MetricsTotals { counters, hists } = gather_metrics();
    TelemetrySnapshot { tracks: flight_tracks(), counters, hists }
}

/// A copy of the cumulative counter and histogram totals. The table is
/// never reset, so repeated `/metrics` scrapes see monotone counters —
/// the Prometheus contract.
pub fn gather_metrics() -> MetricsTotals {
    metrics().clone()
}

/// Cumulative counter / histogram totals since process start (the
/// `/metrics` view of the sink). See [`gather_metrics`].
#[derive(Debug, Clone, Default)]
pub struct MetricsTotals {
    pub counters: BTreeMap<&'static str, u64>,
    pub hists: BTreeMap<&'static str, Hist>,
}

// ---------------------------------------------------------------------------
// Flight recorder: a bounded ring of the most recent spans.
// ---------------------------------------------------------------------------

/// One closed span on its thread's track.
struct FlightEvent {
    track: u32,
    thread: Arc<str>,
    event: SpanEvent,
}

impl FlightEvent {
    /// Bytes this entry is charged against the ring budget: the inline
    /// struct, the heap detail string, and the thread name (shared by a
    /// track's events, and charged to each so that the name of a thread
    /// that has exited stays within budget too). `VecDeque` slack is not
    /// charged; the budget bounds the dominant, workload-proportional
    /// cost.
    fn cost(&self) -> usize {
        std::mem::size_of::<FlightEvent>()
            + self.event.detail.as_ref().map_or(0, |d| d.len())
            + self.thread.len()
    }
}

struct Ring {
    events: VecDeque<FlightEvent>,
    bytes: usize,
    overwritten: u64,
}

/// The flight ring: every closed span of every thread, oldest first.
static RING: Mutex<Ring> = Mutex::new(Ring { events: VecDeque::new(), bytes: 0, overwritten: 0 });

/// Lock the ring. No update leaves it half-done, so a lock poisoned by a
/// panic elsewhere still guards a valid ring; taking it keeps
/// `Span::drop` from panicking.
fn ring() -> MutexGuard<'static, Ring> {
    RING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Append one closed span, evicting the oldest entries past the byte
/// budget. Each track's spans arrive in post-order (children close
/// before parents), so eviction removes children before their parents
/// and each track's surviving suffix still passes [`spans_well_formed`]
/// once all its open spans close.
fn flight_push(ev: FlightEvent) {
    let budget = FLIGHT_BYTES.load(Ordering::Relaxed);
    if budget == 0 {
        // The ring was turned off while this span was open: drop the
        // span instead of evicting the ring down to a zero budget.
        return;
    }
    let mut ring = ring();
    ring.bytes += ev.cost();
    ring.events.push_back(ev);
    while ring.bytes > budget {
        // Guaranteed to terminate: the ring is non-empty (we just
        // pushed) and popping the last entry takes bytes to zero — an
        // oversized single event evicts itself.
        let old = ring.events.pop_front().expect("bytes > 0 implies a resident event");
        ring.bytes -= old.cost();
        ring.overwritten += 1;
    }
}

/// Flight-recorder occupancy, for `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlightStats {
    /// Resident bytes, always ≤ `budget_bytes`.
    pub bytes: usize,
    /// The configured budget ([`flight_configure`]; `usize::MAX` under
    /// [`set_enabled`]).
    pub budget_bytes: usize,
    /// Spans currently resident.
    pub events: usize,
    /// Spans overwritten (evicted) since process start.
    pub overwritten: u64,
}

pub fn flight_stats() -> FlightStats {
    let ring = ring();
    FlightStats {
        bytes: ring.bytes,
        budget_bytes: FLIGHT_BYTES.load(Ordering::Relaxed),
        events: ring.events.len(),
        overwritten: ring.overwritten,
    }
}

/// Empty the ring (tests; the daemon never clears it).
pub fn flight_clear() {
    let mut ring = ring();
    ring.events.clear();
    ring.bytes = 0;
    ring.overwritten = 0;
}

/// The resident spans grouped into per-thread tracks in track order,
/// each track's spans ordered for the nesting validator:
/// `(start, Reverse(end), depth)`.
fn flight_tracks() -> Vec<TrackSnapshot> {
    let mut all: Vec<(u32, Arc<str>, SpanEvent)> = ring()
        .events
        .iter()
        .map(|fe| (fe.track, Arc::clone(&fe.thread), fe.event.clone()))
        .collect();
    all.sort_by_key(|(track, _, e)| (*track, e.start_ns, std::cmp::Reverse(e.end_ns()), e.depth));
    let mut tracks: Vec<TrackSnapshot> = Vec::new();
    for (track, thread, event) in all {
        match tracks.last_mut() {
            Some(t) if t.track == track => t.events.push(event),
            _ => tracks.push(TrackSnapshot {
                thread: thread.to_string(),
                track,
                events: vec![event],
            }),
        }
    }
    tracks
}

/// Copy out the resident spans, grouped by track and ordered for the
/// nesting validator: `(track, start, Reverse(end), depth)`.
pub fn flight_events() -> Vec<(u32, SpanEvent)> {
    flight_tracks()
        .into_iter()
        .flat_map(|t| t.events.into_iter().map(move |e| (t.track, e)))
        .collect()
}

/// Render the flight ring as a Perfetto-openable Chrome trace document
/// (`GET /trace`). With `filter`, only spans carrying that request id
/// are included (`/trace?job=<id>`).
///
/// Spans are recorded when they *close*, so a dump taken while requests
/// or jobs are mid-flight can contain child spans whose still-open
/// parents are absent; a dump from a quiescent daemon passes
/// [`spans_well_formed`] per track (what `diogenes trace-check`
/// verifies).
pub fn flight_trace_json(filter: Option<TraceId>) -> Json {
    let events = chrome_trace_events("diogenes-serve", &flight_tracks(), filter);
    Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", "ns".into())])
}

/// The tool's own spans as Chrome trace events: the `process` name, then
/// one track per thread (`main`, `ffm-pool-N`, …) labeled with a
/// metadata event. Each event carries its nesting depth and request id
/// in `args`. With `filter`, only spans carrying that request id are
/// kept, and tracks left empty are dropped. The one renderer behind
/// `GET /trace` and `--profile`'s `traceEvents`.
fn chrome_trace_events(
    process: &str,
    tracks: &[TrackSnapshot],
    filter: Option<TraceId>,
) -> Vec<Json> {
    let mut out = vec![chrome_metadata_event("process_name", SELF_TRACE_PID, 0, process)];
    for t in tracks {
        let mut kept = t.events.iter().filter(|e| filter.is_none_or(|f| e.trace == f.0)).peekable();
        if kept.peek().is_none() {
            continue;
        }
        out.push(chrome_metadata_event("thread_name", SELF_TRACE_PID, t.track, &t.thread));
        out.extend(kept.map(|e| {
            chrome_duration_event_args(
                e.label(),
                "flight",
                SELF_TRACE_PID,
                t.track,
                e.start_ns as f64 / 1_000.0,
                (e.dur_ns.max(1)) as f64 / 1_000.0,
                Json::obj([
                    ("depth", Json::Int(e.depth as i128)),
                    ("trace", Json::Str(format!("{:016x}", e.trace))),
                ]),
            )
        }));
    }
    out
}

// ---------------------------------------------------------------------------
// Well-formedness (used by the telemetry test suite).
// ---------------------------------------------------------------------------

/// Check that one track's spans form a proper hierarchy: every exit
/// matches an enter (guaranteed structurally by the RAII guard, verified
/// here from the recorded data), spans never partially overlap, and the
/// recorded depth matches the nesting implied by the intervals.
pub fn spans_well_formed(events: &[SpanEvent]) -> Result<(), String> {
    let mut order: Vec<&SpanEvent> = events.iter().collect();
    order.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.end_ns()), e.depth));
    let mut stack: Vec<u64> = Vec::new();
    for e in &order {
        while let Some(&top_end) = stack.last() {
            if top_end <= e.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&top_end) = stack.last() {
            if e.end_ns() > top_end {
                return Err(format!(
                    "span {:?} [{}, {}) partially overlaps its enclosing span ending at {}",
                    e.label(),
                    e.start_ns,
                    e.end_ns(),
                    top_end
                ));
            }
        }
        if e.depth as usize != stack.len() {
            return Err(format!(
                "span {:?} recorded depth {} but interval nesting implies {}",
                e.label(),
                e.depth,
                stack.len()
            ));
        }
        stack.push(e.end_ns());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Chrome trace-event encoding (shared with `diogenes::traceviz`).
// ---------------------------------------------------------------------------

use crate::json::Json;

/// One complete (`ph:"X"`) trace event in Chrome trace-event JSON.
/// `chrome://tracing`, Perfetto and Speedscope all read this shape; the
/// simulated-app exporter and the tool-self exporter share it so the
/// same viewers open both.
pub fn chrome_duration_event(
    name: String,
    cat: &str,
    pid: u32,
    tid: u32,
    ts_us: f64,
    dur_us: f64,
) -> Json {
    Json::obj([
        ("name", name.into()),
        ("cat", cat.into()),
        ("ph", "X".into()),
        ("pid", Json::Int(pid as i128)),
        ("tid", Json::Int(tid as i128)),
        ("ts", Json::Float(ts_us)),
        ("dur", Json::Float(dur_us)),
    ])
}

/// [`chrome_duration_event`] plus an `args` object — per-event metadata
/// (nesting depth, request id) shown in the viewer's detail panel.
pub fn chrome_duration_event_args(
    name: String,
    cat: &str,
    pid: u32,
    tid: u32,
    ts_us: f64,
    dur_us: f64,
    args: Json,
) -> Json {
    let Json::Obj(mut fields) = chrome_duration_event(name, cat, pid, tid, ts_us, dur_us) else {
        unreachable!("chrome_duration_event returns an object")
    };
    fields.push(("args".to_string(), args));
    Json::Obj(fields)
}

/// A metadata (`ph:"M"`) event labeling a process or thread track, so
/// viewers show `ffm-pool-2` instead of a raw tid integer. `what` is
/// `"process_name"` or `"thread_name"`.
pub fn chrome_metadata_event(what: &str, pid: u32, tid: u32, label: &str) -> Json {
    Json::obj([
        ("name", what.into()),
        ("ph", "M".into()),
        ("pid", Json::Int(pid as i128)),
        ("tid", Json::Int(tid as i128)),
        ("args", Json::obj([("name", label.into())])),
    ])
}

/// Render a snapshot as the `results/TELEMETRY_<app>.json` document:
/// span rollups, cumulative metrics, per-worker utilization, and the full
/// tool-self Chrome trace under the standard `traceEvents` key (so the
/// artifact itself opens in Perfetto).
pub fn snapshot_to_json(app: &str, workload: &str, jobs: usize, snap: &TelemetrySnapshot) -> Json {
    let spans = snap
        .span_aggregates()
        .into_iter()
        .map(|a| {
            Json::obj([
                ("name", a.name.into()),
                ("count", Json::Int(a.count as i128)),
                ("total_ns", Json::Int(a.total_ns as i128)),
                ("min_ns", Json::Int(a.min_ns as i128)),
                ("max_ns", Json::Int(a.max_ns as i128)),
            ])
        })
        .collect();
    let counters =
        snap.counters.iter().map(|(k, v)| (k.to_string(), Json::Int(*v as i128))).collect();
    let hists = snap
        .hists
        .iter()
        .map(|(k, h)| {
            let buckets: Vec<Json> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| {
                    let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                    Json::arr([Json::Int(lo as i128), Json::Int(c as i128)])
                })
                .collect();
            (
                k.to_string(),
                Json::obj([
                    ("count", Json::Int(h.count as i128)),
                    ("sum", Json::Int(h.sum as i128)),
                    ("min", Json::Int(if h.count == 0 { 0 } else { h.min as i128 })),
                    ("max", Json::Int(h.max as i128)),
                    ("mean", Json::Float(h.mean())),
                    ("buckets", Json::Arr(buckets)),
                ]),
            )
        })
        .collect();
    let workers = snap
        .tracks
        .iter()
        .map(|t| {
            Json::obj([
                ("thread", Json::Str(t.thread.clone())),
                ("spans", Json::Int(t.events.len() as i128)),
                ("busy_ns", Json::Int(t.busy_ns() as i128)),
            ])
        })
        .collect();
    Json::obj([
        ("telemetry", "diogenes-self".into()),
        ("app", app.into()),
        ("workload", workload.into()),
        ("jobs", Json::Int(jobs as i128)),
        ("spans", Json::Arr(spans)),
        ("counters", Json::Obj(counters)),
        ("histograms", Json::Obj(hists)),
        ("workers", Json::Arr(workers)),
        ("traceEvents", Json::Arr(chrome_trace_events("diogenes-self", &snap.tracks, None))),
        ("displayTimeUnit", "ns".into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry tests share one process-global sink, so they serialize
    /// on this lock and assert "contains", never "equals" (other test
    /// modules may run concurrently while the flag is on).
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_paths_record_nothing_and_allocate_nothing() {
        let _g = test_lock();
        set_enabled(false);
        let s = span("never");
        assert!(s.active.is_none(), "disabled span must be inert");
        drop(s);
        counter_add("never.counter", 7);
        record("never.hist", 7);
        let snap = snapshot();
        assert!(!snap.counters.contains_key("never.counter"));
        assert!(!snap.hists.contains_key("never.hist"));
        assert!(snap.tracks.iter().all(|t| t.events.iter().all(|e| e.name != "never")));
    }

    #[test]
    fn spans_counters_and_hists_round_trip() {
        let _g = test_lock();
        set_enabled(true);
        flight_clear();
        {
            let _outer = span_detail("tele.outer", || "label".to_string());
            let _inner = span("tele.inner");
            counter_add("tele.count", 2);
            counter_add("tele.count", 3);
            record("tele.hist", 10);
            record("tele.hist", 1000);
        }
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counters["tele.count"], 5);
        let h = &snap.hists["tele.hist"];
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 1010, 10, 1000));
        let me: Vec<&SpanEvent> = snap
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.name.starts_with("tele."))
            .collect();
        assert_eq!(me.len(), 2);
        let outer = me.iter().find(|e| e.name == "tele.outer").unwrap();
        let inner = me.iter().find(|e| e.name == "tele.inner").unwrap();
        assert_eq!(outer.detail.as_deref(), Some("label"));
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns() <= outer.end_ns());
        let aggs = snap.span_aggregates();
        let oa = aggs.iter().find(|a| a.name == "tele.outer").unwrap();
        assert_eq!((oa.count, oa.total_ns), (1, outer.dur_ns));
    }

    #[test]
    fn worker_threads_get_their_own_tracks() {
        let _g = test_lock();
        set_enabled(true);
        flight_clear();
        // The worker exits before the snapshot: its events carry its
        // track id and name, so the track outlives the thread.
        std::thread::Builder::new()
            .name("tele-worker".to_string())
            .spawn(|| {
                let _s = span("tele.on_worker");
            })
            .unwrap()
            .join()
            .unwrap();
        set_enabled(false);
        let snap = snapshot();
        let track = snap
            .tracks
            .iter()
            .find(|t| t.events.iter().any(|e| e.name == "tele.on_worker"))
            .expect("worker span recorded");
        assert_eq!(track.thread, "tele-worker");
        spans_well_formed(&track.events).unwrap();
    }

    #[test]
    fn hist_buckets_are_power_of_two_ranges() {
        let mut h = Hist::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        assert_eq!(h.buckets[0], 1, "zero bucket");
        assert_eq!(h.buckets[1], 1, "[1,2)");
        assert_eq!(h.buckets[2], 2, "[2,4)");
        assert_eq!(h.buckets[3], 1, "[4,8)");
    }

    #[test]
    fn trace_scopes_nest_and_restore() {
        assert_eq!(current_trace(), None);
        {
            let _a = trace_scope(Some(TraceId(7)));
            assert_eq!(current_trace(), Some(TraceId(7)));
            {
                let _b = trace_scope(Some(TraceId(9)));
                assert_eq!(current_trace(), Some(TraceId(9)));
                let _c = trace_scope(None);
                assert_eq!(current_trace(), None);
            }
            assert_eq!(current_trace(), Some(TraceId(7)));
        }
        assert_eq!(current_trace(), None);
    }

    #[test]
    fn quantiles_stay_in_observed_range_and_are_monotone() {
        assert_eq!(Hist::default().quantile(0.5), 0, "empty hist");
        let mut one = Hist::default();
        one.record(42);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 42, "single-value hist at q={q}");
        }
        let mut h = Hist::default();
        for v in [3u64, 9, 17, 1_000, 65_536] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), h.min);
        assert_eq!(h.quantile(1.0), h.max);
        let mut prev = 0;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0);
            assert!((h.min..=h.max).contains(&q), "q estimate {q} outside [min, max]");
            assert!(q >= prev, "quantile must be monotone in q");
            prev = q;
        }
    }

    #[test]
    fn flight_ring_bounds_bytes_and_survives_wraparound() {
        let _g = test_lock();
        set_enabled(false);
        let budget = 16 * 1024;
        flight_configure(budget);
        flight_clear();
        // Push far more span bytes than the budget holds; every
        // iteration closes a complete `[outer [inner]]` tree under a
        // distinct trace id.
        std::thread::Builder::new()
            .name("flight-test".to_string())
            .spawn(|| {
                for i in 0..4000u64 {
                    let _t = trace_scope(Some(TraceId(i + 1)));
                    let _outer = span_detail("flight.outer", || format!("iter-{i}"));
                    let _inner = span("flight.inner");
                }
            })
            .unwrap()
            .join()
            .unwrap();
        let st = flight_stats();
        assert!(st.bytes <= budget, "resident {} bytes exceed the {budget} budget", st.bytes);
        assert!(st.overwritten > 0, "8000 spans into 16KiB must wrap");
        assert!(st.events > 0, "the ring retains a recent suffix");
        assert!(st.bytes > budget / 2, "one thread's spans may use the whole budget: {st:?}");
        // The surviving suffix of the test thread's track is still a
        // well-formed hierarchy, and every span carries its trace id.
        let evs: Vec<SpanEvent> = flight_events()
            .into_iter()
            .filter(|(_, e)| e.name.starts_with("flight."))
            .map(|(_, e)| e)
            .collect();
        assert!(!evs.is_empty());
        spans_well_formed(&evs).unwrap();
        assert!(evs.iter().all(|e| e.trace != 0), "spans inherit the installed trace id");
        // A few hundred short-lived threads, started and joined one at a
        // time, stay within the same budget and leave one well-formed
        // track each under their own names.
        for k in 0..300 {
            std::thread::Builder::new()
                .name(format!("flight-short-{k}"))
                .spawn(|| {
                    let _outer = span("flight.short");
                    let _inner = span("flight.inner");
                })
                .unwrap()
                .join()
                .unwrap();
        }
        let st = flight_stats();
        assert!(st.bytes <= budget, "resident {} bytes exceed the {budget} budget", st.bytes);
        let tracks = snapshot().tracks;
        let short: Vec<&TrackSnapshot> =
            tracks.iter().filter(|t| t.thread.starts_with("flight-short-")).collect();
        assert!(short.len() > 1, "the ring keeps the recent threads' tracks");
        let names: std::collections::HashSet<&str> =
            short.iter().map(|t| t.thread.as_str()).collect();
        assert_eq!(names.len(), short.len(), "one track per thread");
        for t in &short {
            spans_well_formed(&t.events).unwrap();
        }
        // A span that closes after the ring is turned off is dropped; it
        // must not evict what the ring holds.
        let late = span("flight.late");
        flight_configure(0);
        let before = flight_stats();
        drop(late);
        let after = flight_stats();
        assert_eq!((after.events, after.overwritten), (before.events, before.overwritten));
        flight_clear();
    }

    #[test]
    fn flight_trace_json_is_perfetto_shaped_and_filters_by_trace() {
        let _g = test_lock();
        set_enabled(false);
        flight_configure(64 * 1024);
        flight_clear();
        {
            let _t = trace_scope(Some(TraceId(0xabcd)));
            let _s = span("flight.wanted");
        }
        {
            let _t = trace_scope(Some(TraceId(0x1234)));
            let _s = span("flight.other");
        }
        let all = flight_trace_json(None).to_string_compact();
        assert!(all.contains("\"traceEvents\""), "{all}");
        assert!(all.contains("flight.wanted") && all.contains("flight.other"), "{all}");
        assert!(all.contains("\"process_name\""), "{all}");
        let filtered = flight_trace_json(Some(TraceId(0xabcd))).to_string_compact();
        assert!(filtered.contains("flight.wanted"), "{filtered}");
        assert!(!filtered.contains("flight.other"), "{filtered}");
        assert!(filtered.contains("000000000000abcd"), "args carry the request id: {filtered}");
        flight_configure(0);
        flight_clear();
    }

    #[test]
    fn nesting_validator_accepts_proper_hierarchies() {
        let ev = |name, start, dur, depth| SpanEvent {
            name,
            detail: None,
            start_ns: start,
            dur_ns: dur,
            depth,
            trace: 0,
        };
        // [a [b] [c]] [d]
        let good =
            vec![ev("a", 0, 100, 0), ev("b", 10, 20, 1), ev("c", 40, 30, 1), ev("d", 120, 10, 0)];
        spans_well_formed(&good).unwrap();
        assert!(spans_well_formed(&[]).is_ok());
    }

    #[test]
    fn nesting_validator_rejects_partial_overlap_and_bad_depth() {
        let ev = |name, start, dur, depth| SpanEvent {
            name,
            detail: None,
            start_ns: start,
            dur_ns: dur,
            depth,
            trace: 0,
        };
        let overlap = vec![ev("a", 0, 50, 0), ev("b", 25, 50, 1)];
        assert!(spans_well_formed(&overlap).is_err(), "partial overlap must be rejected");
        let bad_depth = vec![ev("a", 0, 100, 0), ev("b", 10, 20, 2)];
        assert!(spans_well_formed(&bad_depth).is_err(), "depth mismatch must be rejected");
    }

    #[test]
    fn chrome_events_have_viewer_required_fields() {
        let x = chrome_duration_event("work".to_string(), "tool", 1, 3, 1.5, 2.0);
        let s = x.to_string_compact();
        assert!(s.contains("\"ph\":\"X\""), "{s}");
        assert!(s.contains("\"tid\":3"), "{s}");
        let m = chrome_metadata_event("thread_name", 1, 3, "ffm-pool-3");
        let s = m.to_string_compact();
        assert!(s.contains("\"ph\":\"M\""), "{s}");
        assert!(s.contains("\"args\":{\"name\":\"ffm-pool-3\"}"), "{s}");
    }

    #[test]
    fn snapshot_json_contains_all_sections() {
        let snap = TelemetrySnapshot {
            tracks: vec![TrackSnapshot {
                thread: "main".to_string(),
                track: 0,
                events: vec![SpanEvent {
                    name: "run_ffm",
                    detail: Some("als".to_string()),
                    start_ns: 5,
                    dur_ns: 100,
                    depth: 0,
                    trace: 0,
                }],
            }],
            counters: [("graph.nodes", 42u64)].into_iter().collect(),
            hists: {
                let mut h = Hist::default();
                h.record(7);
                [("pool.batch_size", h)].into_iter().collect()
            },
        };
        let doc = snapshot_to_json("als", "w", 4, &snap).to_string_pretty();
        for key in [
            "\"app\"",
            "\"spans\"",
            "\"counters\"",
            "\"histograms\"",
            "\"workers\"",
            "\"traceEvents\"",
            "run_ffm",
            "graph.nodes",
            "pool.batch_size",
            "\"ph\": \"M\"",
        ] {
            assert!(doc.contains(key), "missing {key} in:\n{doc}");
        }
    }
}
