//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its layer, name, start, end, parent span and the id
//! of the job or campaign it belongs to. Spans stay in memory until the
//! run ends, when [`Spans::write_jsonl`] writes them out. A layer's
//! self time is the duration of its spans minus the part of each span
//! that its children cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique span id (1-based).
    pub id: u64,
    /// Id shared by every span of one job or campaign.
    pub trace: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer (crate) the timed call belongs to.
    pub layer: &'static str,
    /// The timed call.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Where a new span hangs: its trace id and parent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    /// Trace (job or campaign) id.
    pub trace: u64,
    /// Parent span, if any.
    pub parent: Option<u64>,
}

/// A thread-safe span recorder. A disabled recorder times nothing and
/// keeps nothing.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; `enabled` selects whether spans are kept.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// A fresh trace id for a job or campaign.
    pub fn new_trace(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Run `f` inside a span `layer`/`name` under `ctx`. `f` receives the
    /// context its own child spans should use.
    pub fn time<T>(
        &self,
        ctx: Ctx,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(Ctx) -> T,
    ) -> T {
        if !self.enabled {
            return f(ctx);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(Ctx {
            trace: ctx.trace,
            parent: Some(id),
        });
        let end = self.now();
        self.done.lock().expect("span store poisoned").push(Span {
            id,
            trace: ctx.trace,
            parent: ctx.parent,
            layer,
            name,
            start,
            end,
        });
        out
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, ordered by id.
    pub fn take(&self) -> Vec<Span> {
        let mut v = std::mem::take(&mut *self.done.lock().expect("span store poisoned"));
        v.sort_by_key(|s| s.id);
        v
    }

    /// Write `spans` as JSON lines to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"trace\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.trace, parent, s.layer, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in ns: its duration minus the length of the
/// union of its children's intervals, clipped to the span. Children may
/// overlap each other (jobs on parallel workers).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            let covered = union_len(kids, s.start, s.end);
            (s.id, (s.end - s.start).saturating_sub(covered))
        })
        .collect()
}

/// Total self time per layer, in ns.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut by_layer = BTreeMap::new();
    for s in spans {
        *by_layer.entry(s.layer).or_insert(0) += own[&s.id];
    }
    by_layer
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            trace: 1,
            parent,
            layer,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with children 10..30 and 20..50 (overlapping, as
        // on two workers) and 60..70: covered = 40 + 10 = 50.
        let spans = vec![
            span(1, None, "runner", 0, 100),
            span(2, Some(1), "sim", 10, 30),
            span(3, Some(1), "sim", 20, 50),
            span(4, Some(1), "core", 60, 70),
            span(5, Some(4), "kernels", 62, 65),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 50);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&4], 7);
        assert_eq!(own[&5], 3);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["runner"], 50);
        assert_eq!(layers["sim"], 50);
        assert_eq!(layers["core"], 7);
        assert_eq!(layers["kernels"], 3);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span(1, None, "a", 10, 20), span(2, Some(1), "b", 5, 15)];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn recorder_nests_and_shares_trace_ids() {
        let rec = Spans::new(true);
        let trace = rec.new_trace();
        let root = Ctx {
            trace,
            parent: None,
        };
        let v = rec.time(root, "runner", "outer", |c| {
            rec.time(c, "sim", "inner", |_| 7)
        });
        assert_eq!(v, 7);
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.trace, trace);
        assert!(outer.start <= inner.start && inner.end <= outer.end);

        let off = Spans::new(false);
        assert_eq!(off.time(root, "sim", "x", |_| 1), 1);
        assert!(off.take().is_empty());
    }
}
