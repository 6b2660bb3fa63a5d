//! The sweep workload: a Gaussian configuration grid against one disk
//! cache directory, in process, op after op — `diogenes sweep` with a
//! fresh artifact store per op, so every reuse goes through the disk.
//!
//! Ops are dealt from shuffled decks of four. One is "fresh": a grid over
//! two never-seen `cost.free_base_ns` values, which misses, computes,
//! encodes and writes its stage artifacts. Three are "revisits" of a grid
//! run before, which read and decode every stage from disk and re-run
//! stage 5. The median op is a revisit and the 99th percentile a fresh
//! one, so `op_p50_ms` tracks the read path and `op_p99_ms` the write
//! path: the same layers, used two ways.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Mutex;

use cuda_driver::GpuApp;
use diogenes::{build_app, write_json_doc};
use ffm_core::{
    run_sweep_with_store, sweep_to_json, ArtifactStore, FfmConfig, Json, StoreStats, SweepSpec,
};
use gpu_sim::{Digest, SplitMix64};

use crate::loadgen::{closed_loop, deal, Budget, Measured};
use crate::runload::{take_file, warm_up};
use crate::stats::nearest_rank;
use crate::sys::{cpu_seconds, dir_mib, timed, with_peak_rss, WorkDir};
use crate::{median, Ctx, E2e, SETUP_REPS};

/// The grid's second axis; the first is two `cost.free_base_ns` values.
const THRESHOLDS: [u64; 3] = [1_000, 2_000, 4_000];
/// Grids computed at set-up, so the first revisits have a choice.
const PRIMED_GRIDS: usize = 8;
/// The op mix: `true` is a fresh grid, `false` a revisit.
const DECK: [bool; 4] = [true, false, false, false];

/// Store counters summed over the ops of a session.
#[derive(Default)]
struct Tally {
    stats: StoreStats,
    cells: u64,
    ops: u64,
    /// Latencies of the measured ops, by kind.
    fresh_ms: Vec<f64>,
    revisit_ms: Vec<f64>,
}

impl Tally {
    fn add(&mut self, s: StoreStats, cells: usize) {
        self.stats.mem_hits += s.mem_hits;
        self.stats.disk_hits += s.disk_hits;
        self.stats.misses += s.misses;
        self.stats.puts += s.puts;
        self.cells += cells as u64;
        self.ops += 1;
    }
}

struct Session {
    app: Box<dyn GpuApp>,
    dir: PathBuf,
    out: String,
    jobs: usize,
    rng: SplitMix64,
    deck: Vec<bool>,
    /// Every grid run so far, with the digest of its first document.
    grids: Vec<([u64; 2], u128)>,
    used: HashSet<u64>,
    tally: Tally,
}

impl Session {
    /// Set-up: an empty cache directory, the app, and the primed grids.
    fn open(ctx: &Ctx, work: &WorkDir, jobs: usize) -> Result<Session, String> {
        let dir = work.path().join("cache");
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        }
        let app = build_app("gaussian", ctx.paper).expect("gaussian is a CLI app");
        let mut s = Session {
            app,
            dir,
            out: work.file("SWEEP_gaussian.json"),
            jobs,
            rng: SplitMix64::new(ctx.seed),
            deck: Vec::new(),
            grids: Vec::new(),
            used: HashSet::new(),
            tally: Tally::default(),
        };
        for _ in 0..PRIMED_GRIDS {
            s.fresh()?;
        }
        s.tally = Tally::default();
        Ok(s)
    }

    /// The grid, threshold-major: its first two cells need different
    /// collections, so two workers start on one each. Free-base-major,
    /// the second worker would wait on the first one's claim, which the
    /// store polls every 25 ms: whether a fresh op then took one poll or
    /// two would turn on a few milliseconds of compute time.
    fn spec(&self, values: [u64; 2]) -> SweepSpec {
        SweepSpec::new(FfmConfig::default())
            .axis("analysis.misplaced_threshold_ns", THRESHOLDS.to_vec())
            .axis("cost.free_base_ns", values.to_vec())
            .with_jobs(self.jobs)
    }

    /// One grid through a fresh store on the cache directory (or
    /// uncached), written as the CLI writes it; returns the digest of the
    /// written document.
    fn run_grid(&mut self, values: [u64; 2], cached: bool) -> Result<u128, String> {
        let store = ArtifactStore::with_disk(&self.dir);
        let spec = self.spec(values);
        let matrix = run_sweep_with_store(self.app.as_ref(), &spec, cached.then_some(&store))?;
        write_json_doc(&self.out, &sweep_to_json(&matrix))?;
        let bytes = take_file(&self.out)?;
        if cached {
            self.tally.add(store.stats(), matrix.cells.len());
        }
        Ok(Digest::of(&bytes).0)
    }

    /// A grid over two never-seen `free_base` values.
    fn fresh(&mut self) -> Result<(), String> {
        let mut values = [0u64; 2];
        for v in &mut values {
            *v = loop {
                let v = 200 + self.rng.next_below(50_000);
                if self.used.insert(v) {
                    break v;
                }
            };
        }
        let digest = self.run_grid(values, true)?;
        self.grids.push((values, digest));
        Ok(())
    }

    /// A grid run before, which must repeat its first document byte for
    /// byte.
    fn revisit(&mut self) -> Result<(), String> {
        let (values, want) = self.grids[self.rng.next_below(self.grids.len() as u64) as usize];
        if self.run_grid(values, true)? != want {
            return Err(format!("grid {values:?} did not repeat its first document"));
        }
        Ok(())
    }

    /// The next op of the mix.
    fn op(&mut self) -> Result<(), String> {
        let fresh = deal(&mut self.deck, DECK.into_iter(), &mut self.rng);
        let (done, secs) = timed(|| if fresh { self.fresh() } else { self.revisit() });
        let kind = if fresh { &mut self.tally.fresh_ms } else { &mut self.tally.revisit_ms };
        kind.push(secs * 1e3);
        done
    }
}

pub fn e2e(ctx: &Ctx, budget: Budget) -> Result<E2e, String> {
    let work = WorkDir::create("sweep_disk")?;
    let mut setups = Vec::new();
    let mut session = None;
    for _ in 0..SETUP_REPS {
        let (s, secs) = timed(|| {
            warm_up(&work, ctx.jobs)?;
            Session::open(ctx, &work, ctx.jobs)
        });
        session = Some(s?);
        setups.push(secs);
    }
    let session = Mutex::new(session.expect("SETUP_REPS > 0"));
    let peaks = Mutex::new(Vec::new());
    let pid = std::process::id();
    let cpu0 = cpu_seconds(pid)?;
    let measured = closed_loop(budget, 1, |_, _| {
        let (op, peak) = with_peak_rss(|| session.lock().expect("single client").op())?;
        peaks.lock().expect("single client").push(peak);
        op
    });
    let cpu_s = cpu_seconds(pid)? - cpu0;
    let session = session.into_inner().expect("single client");
    let t = &session.tally;
    let p50 = |ms: &[f64]| nearest_rank(ms, 50.0).map_or(Json::Null, Json::Float);
    let notes = vec![
        ("fresh_ops", Json::Int(t.fresh_ms.len() as i128)),
        ("fresh_p50_ms", p50(&t.fresh_ms)),
        ("revisit_p50_ms", p50(&t.revisit_ms)),
        ("cache_mib", Json::Float(dir_mib(&session.dir))),
    ];
    Ok(E2e {
        setup_s: median(&setups),
        measured,
        cpu_s,
        peak_rss_mib: median(&peaks.into_inner().expect("single client")),
        jobs: ctx.jobs,
        notes,
    })
}

/// The store and sweep layers: `ops` ops of the mix at jobs=1, summed
/// store counters, and one grid recomputed without the store, which
/// must give the cached bytes.
pub fn layers(
    ctx: &Ctx,
    ops: u64,
    checks: &mut Measured,
) -> Result<Vec<(&'static str, f64)>, String> {
    let work = WorkDir::create("sweep_layers")?;
    let mut session = Session::open(ctx, &work, 1)?;
    let budget = Budget { ops, max_seconds: 120.0 };
    let measured = {
        let shared = Mutex::new(&mut session);
        closed_loop(budget, 1, |_, _| shared.lock().expect("single client").op())
    };
    checks.absorb(measured);
    let (values, want) = session.grids[0];
    let uncached = session.run_grid(values, false);
    checks.record(match uncached {
        Ok(d) if d == want => Ok(()),
        Ok(_) => Err(format!("grid {values:?} computed without the store gave other bytes")),
        Err(e) => Err(e),
    });
    let t = &session.tally;
    let n = t.ops.max(1) as f64;
    Ok(vec![
        ("store.hit_rate", t.stats.hit_rate()),
        ("store.disk_hits_per_op", t.stats.disk_hits as f64 / n),
        ("store.puts_per_op", t.stats.puts as f64 / n),
        ("sweep.cells_per_op", t.cells as f64 / n),
    ])
}
