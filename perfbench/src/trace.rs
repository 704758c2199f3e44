//! In-memory span recorder and the small statistics helpers every workload
//! shares.
//!
//! Spans are recorded only from the benchmark's own files, around calls
//! into the simulator's public API; nothing inside the simulator is
//! instrumented. They stay in memory and are written out once, at exit.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `ftl.timed_step`.
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, or `u32::MAX` for a root.
    pub parent: u32,
    /// Request, cell or device id the span belongs to.
    pub key: u64,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration of the span, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Marker for a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// Collects spans in memory; [`Tracer::write_csv`] flushes them once.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { t0: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Opens a span and returns its index; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, key: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, key, start_ns, end_ns: start_ns });
        u32::try_from(self.spans.len() - 1).expect("fewer than 4 billion spans")
    }

    /// Closes span `id` now and returns its duration, ns.
    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.ns()
    }

    /// Runs `f` inside a span and returns its result and duration, ns.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        key: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, key);
        let out = f();
        (out, self.close(id))
    }

    /// Records an already measured span (for calls timed by hand in a hot
    /// loop, where the recorder cannot be borrowed around the call).
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as CSV (`id,parent,name,key,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        writeln!(out, "id,parent,name,key,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { String::new() } else { s.parent.to_string() };
            writeln!(out, "{id},{parent},{},{},{},{}", s.name, s.key, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    quantile(&mut v, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One step of the splitmix64 generator: the benchmark's only source of
/// randomness, so every input is a pure function of the seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
