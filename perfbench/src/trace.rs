//! In-memory spans for the traced run, the self-time arithmetic over them,
//! and the executor busy/idle accounting built from per-trial start stamps.
//!
//! Every span is recorded from the benchmark's own code, around a call
//! into one layer's public functions. Spans stay in memory and are written
//! out as JSON lines once the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use rcb_sim::json::Json;

/// One timed call: `[start_ns, end_ns)` on the recorder's clock. Spans of
/// one trial share `trial` (the trial's global index in the workload's
/// spec list); `parent` is the index of the enclosing span, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub trial: Option<u64>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span list sharing one clock origin.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the recorder's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, trial: Option<u64>, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            trial,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        trial: Option<u64>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, trial, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Makes `parent` the parent of every parentless span recorded at or
    /// after index `first` (other than `parent` itself).
    pub fn adopt(&mut self, first: usize, parent: usize) {
        for (id, s) in self.spans.iter_mut().enumerate().skip(first) {
            if s.parent.is_none() && id != parent {
                s.parent = Some(parent);
            }
        }
    }

    /// Moves another recorder's spans (same origin) into this one,
    /// re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns())
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.to_string())),
                ("trial", opt(s.trial)),
                ("parent", opt(s.parent.map(|p| p as u64))),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render_compact())?;
        }
        out.flush()
    }
}

/// Streaming union length of intervals clipped to a window, for intervals
/// that arrive in non-decreasing start order (sequential calls on one
/// thread). Overlaps are counted once; anything outside the window is
/// ignored. A span's self time is its duration minus the coverage of its
/// child spans.
#[derive(Debug, Clone, Copy)]
pub struct Coverage {
    window: (u64, u64),
    frontier: u64,
    pub covered_ns: u64,
}

impl Coverage {
    pub fn new(start_ns: u64, end_ns: u64) -> Coverage {
        Coverage {
            window: (start_ns, end_ns),
            frontier: start_ns,
            covered_ns: 0,
        }
    }

    pub fn add(&mut self, start_ns: u64, end_ns: u64) {
        let lo = start_ns.max(self.frontier);
        let hi = end_ns.min(self.window.1);
        if hi > lo {
            self.covered_ns += hi - lo;
            self.frontier = hi;
        }
    }
}

/// One executor worker's claim of a trial, stamped by the skip hook
/// immediately before the trial runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialStamp {
    pub thread: usize,
    pub global: u64,
    pub at_ns: u64,
}

/// Worker busy/idle split of one executor call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorAccount {
    pub wall_ns: u64,
    pub busy_ns: u64,
    pub idle_ns: u64,
    /// `busy / (workers · wall)`.
    pub efficiency: f64,
    /// Distinct `TRIAL_CHUNK`-aligned chunks that ran at least one trial.
    pub chunks: u64,
}

/// Turns skip-hook stamps into per-trial spans and a busy/idle account.
///
/// A worker's trial runs from its stamp to that worker's next stamp. The
/// hook sees no trial end, so each worker's last trial is given
/// `last_len(global)` (its duration measured elsewhere), capped at the
/// executor call's end. Capacity is `workers` times the call's wall time,
/// so a requested worker that never claimed a trial counts as idle for the
/// whole call.
pub fn executor_account(
    stamps: &[TrialStamp],
    call: &Span,
    workers: usize,
    chunk: u64,
    last_len: impl Fn(u64) -> u64,
) -> (Vec<Span>, ExecutorAccount) {
    let mut sorted = stamps.to_vec();
    sorted.sort_unstable_by_key(|s| (s.thread, s.at_ns));
    let mut spans = Vec::with_capacity(sorted.len());
    let mut busy_ns = 0u64;
    let mut cover: Option<(usize, Coverage)> = None;
    for (k, s) in sorted.iter().enumerate() {
        let end = match sorted.get(k + 1) {
            Some(next) if next.thread == s.thread => next.at_ns,
            _ => (s.at_ns + last_len(s.global)).min(call.end_ns),
        }
        .max(s.at_ns);
        match &mut cover {
            Some((thread, c)) if *thread == s.thread => c.add(s.at_ns, end),
            _ => {
                busy_ns += cover.map_or(0, |(_, c)| c.covered_ns);
                let mut c = Coverage::new(call.start_ns, call.end_ns);
                c.add(s.at_ns, end);
                cover = Some((s.thread, c));
            }
        }
        spans.push(Span {
            name: "executor.trial",
            trial: Some(s.global),
            parent: None,
            start_ns: s.at_ns,
            end_ns: end,
        });
    }
    busy_ns += cover.map_or(0, |(_, c)| c.covered_ns);
    let capacity_ns = call.duration_ns() * workers as u64;
    let mut chunk_ids: Vec<u64> = sorted.iter().map(|s| s.global / chunk).collect();
    chunk_ids.sort_unstable();
    chunk_ids.dedup();
    let account = ExecutorAccount {
        wall_ns: call.duration_ns(),
        busy_ns,
        idle_ns: capacity_ns.saturating_sub(busy_ns),
        efficiency: if capacity_ns == 0 {
            0.0
        } else {
            busy_ns as f64 / capacity_ns as f64
        },
        chunks: chunk_ids.len() as u64,
    };
    (spans, account)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            trial: None,
            parent: None,
            start_ns,
            end_ns,
        }
    }

    /// Self time of `parent` given its children, sorted by start.
    fn self_ns(parent: &Span, children: &[Span]) -> u64 {
        let mut cover = Coverage::new(parent.start_ns, parent.end_ns);
        for c in children {
            cover.add(c.start_ns, c.end_ns);
        }
        parent.duration_ns() - cover.covered_ns
    }

    #[test]
    fn self_time_subtracts_covered_part_once() {
        let parent = span(100, 200);
        assert_eq!(self_ns(&parent, &[]), 100);
        // Disjoint children.
        assert_eq!(self_ns(&parent, &[span(110, 120), span(150, 170)]), 70);
        // Overlapping children count their union.
        assert_eq!(self_ns(&parent, &[span(110, 160), span(150, 170)]), 40);
        // A child nested in another adds nothing.
        assert_eq!(self_ns(&parent, &[span(110, 160), span(120, 130)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_ns(&parent, &[span(50, 120), span(190, 300)]), 70);
        // A child covering everything leaves no self time.
        assert_eq!(self_ns(&parent, &[span(0, 1000)]), 0);
        // Children entirely outside cover nothing.
        assert_eq!(self_ns(&parent, &[span(0, 50), span(250, 300)]), 100);
    }

    #[test]
    fn coverage_streams_sorted_intervals() {
        let mut c = Coverage::new(0, 100);
        c.add(10, 20);
        c.add(15, 30); // overlaps the previous one
        c.add(30, 30); // empty
        c.add(90, 120); // clipped at the window end
        assert_eq!(c.covered_ns, 20 + 10);
    }

    fn stamp(thread: usize, global: u64, at_ns: u64) -> TrialStamp {
        TrialStamp {
            thread,
            global,
            at_ns,
        }
    }

    #[test]
    fn busy_and_idle_from_stamps() {
        // Two workers over [0, 100). Worker 0 runs trials 0 and 1 back to
        // back; worker 1 starts late (at 20). Each last trial lasts 50, so
        // worker 1's is capped at the call's end.
        let call = span(0, 100);
        let stamps = [
            stamp(0, 0, 0),
            stamp(1, 16, 20),
            stamp(0, 1, 40),
            stamp(1, 17, 60),
        ];
        let (spans, acc) = executor_account(&stamps, &call, 2, 16, |_| 50);
        assert_eq!(acc.wall_ns, 100);
        // Worker 0: [0,40) + [40,90) = 90. Worker 1: [20,60) + [60,100) = 80.
        assert_eq!(acc.busy_ns, 170);
        assert_eq!(acc.idle_ns, 30);
        assert!((acc.efficiency - 0.85).abs() < 1e-12);
        assert_eq!(acc.chunks, 2);
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.end_ns <= call.end_ns));
    }

    #[test]
    fn an_unused_worker_is_idle_for_the_whole_call() {
        // One worker did all the work (fewer trials than one chunk).
        let call = span(0, 100);
        let stamps = [stamp(7, 0, 0), stamp(7, 1, 50)];
        let (_, acc) = executor_account(&stamps, &call, 2, 16, |_| 50);
        assert_eq!(acc.busy_ns, 100);
        assert_eq!(acc.idle_ns, 100);
        assert!((acc.efficiency - 0.5).abs() < 1e-12);
        assert_eq!(acc.chunks, 1);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        a.time("outer", None, None, || ());
        let mut b = Recorder::new(origin);
        let p = b.open("run", Some(3), None);
        b.time("inner", Some(3), Some(p), || ());
        b.close(p);
        a.absorb(b);
        assert_eq!(a.spans.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[1].name, "run");
    }
}
