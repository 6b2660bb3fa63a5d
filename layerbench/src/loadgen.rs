//! Closed-loop load generation: each client issues its next op only
//! after the previous one completed, until the run's ops are done.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gpu_sim::SplitMix64;

/// How much to measure: a fixed number of ops, so every run of a
/// workload computes its statistics over the same sample, and a time
/// after which no further op starts, so a run that turned out much
/// slower than expected still ends.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub ops: u64,
    pub max_seconds: f64,
}

/// What the measured ops produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latency of every op that succeeded, in milliseconds.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// First op start to last op end.
    pub wall_s: f64,
    /// The first few failure messages, for stderr.
    pub errors: Vec<String>,
}

impl Measured {
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn absorb(&mut self, other: Measured) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s = self.wall_s.max(other.wall_s);
        for e in other.errors {
            self.note_error(e);
        }
    }

    pub fn note_error(&mut self, e: String) {
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    /// Count one correctness check made outside the measured ops.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.note_error(e);
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.record(if ok { Ok(()) } else { Err(what()) });
    }
}

/// Refill `deck` with `items` in a seeded order once it is empty, then
/// deal one. Dealing op kinds from a deck keeps a mix's proportions
/// exact over every whole deck, whatever the seed.
pub fn deal<T>(deck: &mut Vec<T>, items: impl Iterator<Item = T>, rng: &mut SplitMix64) -> T {
    if deck.is_empty() {
        deck.extend(items);
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
    }
    deck.pop().expect("refilled above")
}

/// Admission shared by the clients of one measurement.
struct Gate {
    start: Instant,
    budget: Budget,
    issued: AtomicU64,
}

impl Gate {
    /// Admit one more op, numbered, while ops remain and time allows.
    fn admit(&self) -> Option<u64> {
        if self.start.elapsed().as_secs_f64() > self.budget.max_seconds {
            return None;
        }
        let i = self.issued.fetch_add(1, Ordering::Relaxed);
        (i < self.budget.ops).then_some(i)
    }
}

/// Run `clients` closed loops of `op` concurrently. `op(client, i)` gets
/// the client index and a global op ordinal.
pub fn closed_loop<F>(budget: Budget, clients: usize, op: F) -> Measured
where
    F: Fn(usize, u64) -> Result<(), String> + Sync,
{
    let gate = Gate { start: Instant::now(), budget, issued: AtomicU64::new(0) };
    let total = Mutex::new(Measured::default());
    std::thread::scope(|s| {
        for client in 0..clients.max(1) {
            let (gate, total, op) = (&gate, &total, &op);
            s.spawn(move || {
                let mut mine = Measured::default();
                while let Some(i) = gate.admit() {
                    let t0 = Instant::now();
                    let result = op(client, i);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    mine.attempted += 1;
                    match result {
                        Ok(()) => mine.latencies_ms.push(ms),
                        Err(e) => {
                            mine.failed += 1;
                            mine.note_error(e);
                        }
                    }
                }
                mine.wall_s = gate.start.elapsed().as_secs_f64();
                total.lock().expect("no client panicked holding the tally").absorb(mine);
            });
        }
    });
    total.into_inner().expect("no client panicked holding the tally")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_cap_and_failures_are_counted() {
        let budget = Budget { ops: 7, max_seconds: 10.0 };
        let m =
            closed_loop(budget, 2, |_, i| if i % 3 == 0 { Err(format!("op {i}")) } else { Ok(()) });
        assert_eq!(m.attempted, 7);
        assert_eq!(m.failed, 3); // ops 0, 3, 6
        assert_eq!(m.latencies_ms.len(), 4);
        assert_eq!(m.errors.len(), 3);
    }
}
