//! Layered host-time benchmark of the Warped-DMR reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figure-suite|fault-campaign|certify> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. It times calls into the public API
//! of the workspace crates from outside, repeating identical passes of
//! the workload for `--seconds`, checks every output, and prints each
//! metric with its unit, its better direction and the end-to-end metric
//! it should move. End-to-end host times average the slower half of each
//! operation's repetitions (see [`stats::Cells`]). The last line of standard output
//! is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run alternates passes
//! with and without spans and writes the spans to
//! `perfbench/out/spans-<workload>-seed<n>.jsonl`.
//!
//! Kernel inputs are seeded from the benchmark identity inside
//! `warped-kernels` and the model check is exhaustive, so `--seed`
//! changes only the fault draws of the campaign workload.

mod campaign;
mod certify;
mod figure;
mod metrics;
mod spans;
mod stats;

use metrics::{Def, Values};
use spans::{layer_self_ns, Span, Spans};
use stats::{geomean, median, percentile, tail_percentile, Cells, Tally};
use std::time::{Duration, Instant};

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    workload: String,
    /// Seed of the generated inputs (the campaign's fault draws).
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: Duration,
    /// Report per-layer metrics and record spans.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["figure-suite", "fault-campaign", "certify"];

/// Passes a run makes at least, so every operation repeats and its
/// outputs can be compared between passes.
const MIN_PASSES: usize = 3;

/// After each pass the set-up is timed again, at least this many times
/// and for at least [`SETUP_TIME_PER_PASS`], so that the reported median
/// covers the whole run and sub-millisecond set-ups get many samples.
const SETUPS_PER_PASS: usize = 3;
const SETUP_TIME_PER_PASS: Duration = Duration::from_millis(20);
const SETUP_MAX_PER_PASS: usize = 1000;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                opts.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    Ok(opts)
}

/// Nanoseconds since `t0`.
pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 * 1e-6
}

/// Run `f`, returning its duration in ns and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let v = std::hint::black_box(f());
    (elapsed_ns(t0), v)
}

/// The layer delta of two jobs over the same work: `(with − without) /
/// units`, the added cost per unit of the layer the first job adds.
pub fn per_unit_delta(with_ns: f64, without_ns: f64, units: f64) -> f64 {
    if units == 0.0 {
        0.0
    } else {
        (with_ns - without_ns) / units
    }
}

/// The timed passes of one run. Every pass repeats the same work. With
/// tracing on, odd passes record spans and even ones do not, so the
/// difference is the tracing overhead.
#[derive(Debug, Default)]
pub struct Passes {
    off_ns: Vec<u64>,
    on_ns: Vec<u64>,
    setup_ns: Vec<u64>,
    spans: Vec<Span>,
}

impl Passes {
    /// Repeat `body` for about `opts.seconds`, and at least
    /// [`MIN_PASSES`] times: no pass starts that would end more than half
    /// a pass (as long as the last one) after the deadline. `first_setup_ns` is the duration of the
    /// set-up whose result the passes use; `setup` repeats that set-up
    /// and drops the result after each pass (see [`SETUPS_PER_PASS`]).
    pub fn run(
        opts: &Opts,
        first_setup_ns: u64,
        setup: impl Fn(),
        mut body: impl FnMut(&Spans),
    ) -> Passes {
        let on = Spans::new(true);
        let off = Spans::new(false);
        let mut p = Passes {
            setup_ns: vec![first_setup_ns],
            ..Passes::default()
        };
        let start = Instant::now();
        let mut last = Duration::ZERO;
        while p.count() < MIN_PASSES || start.elapsed() + last / 2 < opts.seconds {
            let traced = opts.trace && p.count() % 2 == 1;
            let (ns, ()) = timed(|| body(if traced { &on } else { &off }));
            last = Duration::from_nanos(ns);
            if traced { &mut p.on_ns } else { &mut p.off_ns }.push(ns);
            let t0 = Instant::now();
            for n in 0..SETUP_MAX_PER_PASS {
                if n >= SETUPS_PER_PASS && t0.elapsed() >= SETUP_TIME_PER_PASS {
                    break;
                }
                p.setup_ns.push(timed(&setup).0);
            }
        }
        p.spans = on.take();
        p
    }

    /// Median set-up time, in seconds.
    pub fn setup_s(&self) -> f64 {
        let v: Vec<f64> = self.setup_ns.iter().map(|&n| n as f64 * 1e-9).collect();
        median(&v)
    }

    /// Passes run.
    pub fn count(&self) -> usize {
        self.off_ns.len() + self.on_ns.len()
    }

    fn overhead_pct(&self) -> f64 {
        let fastest = |v: &[u64]| v.iter().min().copied().unwrap_or(0) as f64;
        100.0 * (fastest(&self.on_ns) / fastest(&self.off_ns) - 1.0)
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    provenance: String,
    /// End-to-end metric values.
    pub e2e: Values,
    /// Per-layer metric values.
    pub layers: Values,
    /// Extra lines naming workload-specific figures.
    pub aliases: Vec<String>,
    /// Checks attempted and failed.
    pub tally: Tally,
    /// The timed passes.
    pub passes: Passes,
    ops: usize,
}

impl Outcome {
    /// An empty outcome with the workload's provenance text.
    pub fn new(provenance: String) -> Self {
        Outcome {
            provenance,
            e2e: Values::default(),
            layers: Values::default(),
            aliases: Vec::new(),
            tally: Tally::default(),
            passes: Passes::default(),
            ops: 0,
        }
    }

    /// Keep the passes and report their median set-up time.
    pub fn set_setup(&mut self, passes: Passes) {
        self.e2e.set("setup_s", passes.setup_s());
        self.layers.set("kernels.build_ms", passes.setup_s() * 1e3);
        self.passes = passes;
    }

    /// Report the end-to-end figures of the operations in `cells`, which
    /// together do `work` units per pass, from each operation's mean over
    /// the slower half of its repetitions: `work_per_s` is `work` over the
    /// sum of those means, `op_ms_geomean` their geometric mean. `alias`
    /// names the operation latency in this workload's terms.
    pub fn set_ops(&mut self, cells: &Cells, work: f64, alias: &str) {
        let means = cells.slow_half_mean_ms();
        let all = cells.all_ms();
        let geo = geomean(&means);
        self.ops = means.len();
        self.e2e
            .set("work_per_s", work / (means.iter().sum::<f64>() * 1e-3));
        self.e2e.set("op_ms_geomean", geo);
        self.aliases.push(format!(
            "{alias}_geomean = {geo:.6} ms over {} operations, {} repetitions",
            means.len(),
            all.len()
        ));
        let tail = tail_percentile(all.len()).map_or(String::new(), |p| {
            format!(
                ", {alias}_p{p} (highest percentile with >= 10 beyond) = {:.6} ms",
                percentile(&all, p)
            )
        });
        self.aliases.push(format!(
            "{alias}_p50 = {:.6} ms{tail}",
            percentile(&all, 50.0)
        ));
    }
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit the checkout is at, from `.git/HEAD`, or `unknown`.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| head.clone()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_metric(d: &Def, v: f64) {
    println!(
        "{:<36} {:>18.6} {:<6} {:<6}  {}",
        d.name, v, d.unit, d.better, d.moves
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };

    let mut out = match opts.workload.as_str() {
        "figure-suite" => figure::run(&opts),
        "fault-campaign" => campaign::run(&opts),
        _ => certify::run(&opts),
    };
    let rss = peak_rss_mb();
    out.tally
        .check(rss.is_some(), || "VmHWM unreadable".to_string());
    out.e2e.set("peak_rss_mb", rss.unwrap_or(0.0));

    let spans = &out.passes.spans;
    if opts.trace {
        let self_ns = layer_self_ns(spans);
        let traced = out.passes.on_ns.len().max(1) as f64;
        for layer in metrics::LAYERS {
            let ns = self_ns.get(layer).copied().unwrap_or(0);
            out.layers.set(format!("self_ms.{layer}"), ms(ns) / traced);
        }
        out.layers
            .set("tracing_overhead_pct", out.passes.overhead_pct());
        let path = format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            opts.workload, opts.seed
        );
        let written = Spans::write_jsonl(spans, std::path::Path::new(&path));
        out.tally.result("writing spans", written);
        println!("spans: {} written to {path}", spans.len());
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} passes={} rev={} nproc={} {}",
        opts.workload,
        opts.seed,
        opts.seconds.as_secs_f64(),
        u8::from(opts.trace),
        out.passes.count(),
        git_revision(),
        nproc,
        out.provenance
    );
    let (defs, values) = if opts.trace {
        (metrics::per_layer(), &out.layers)
    } else {
        (metrics::end_to_end(), &out.e2e)
    };
    let unknown = values.unknown(&defs);
    assert!(
        unknown.is_empty(),
        "metrics outside the catalog: {unknown:?}"
    );
    let list = |v: &[u64]| {
        v.iter()
            .map(|&n| format!("{:.3}", n as f64 * 1e-9))
            .collect::<Vec<_>>()
    };
    println!(
        "  passes without spans (s): {:?}, with spans (s): {:?}",
        list(&out.passes.off_ns),
        list(&out.passes.on_ns)
    );
    for line in &out.aliases {
        println!("  {line}");
    }
    if opts.trace {
        for (prefix, workloads) in metrics::NO_CHANGE {
            println!("  predicted no change: {prefix} on {workloads}");
        }
    }
    let mut fields = Vec::with_capacity(defs.len());
    let mut finite = true;
    for d in &defs {
        let v = values.get(&d.name).unwrap_or(0.0);
        finite &= v.is_finite();
        print_metric(d, v);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(v),
            d.unit
        ));
    }
    let t = &out.tally;
    println!(
        "fail_ratio {} ({} failed of {} attempted){}",
        t.fail_ratio(),
        t.failed(),
        t.attempted(),
        t.first_failure()
            .map_or(String::new(), |f| format!("; first: {f}"))
    );
    let correct = t.failed() == 0 && t.attempted() > 0 && finite && out.ops > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted(),
        t.failed(),
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse_args(&args("--workload certify --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(o.workload, "certify");
        assert_eq!(o.seed, 7);
        assert_eq!(o.seconds, Duration::from_secs(3));
        assert!(o.trace);
        for bad in [
            "--workload nope",
            "--workload certify --trace 2",
            "--workload certify --seconds 0",
            "--workload certify --seed",
            "--workload certify --bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn layer_delta_is_per_unit_of_work() {
        // A Warped-DMR job of 1.5 s against a bare job of 1.0 s over
        // 1e6 warp-instructions costs 500 ns per warp-instruction.
        assert_eq!(per_unit_delta(1.5e9, 1.0e9, 1e6), 500.0);
        assert_eq!(per_unit_delta(1.0e9, 1.2e9, 2e8), -1.0);
        assert_eq!(per_unit_delta(1.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn json_numbers_stay_valid() {
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
