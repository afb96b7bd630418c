//! `warped` — the Warped-DMR experiment harness.
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! ```text
//! warped figure1   [--paper]      active-thread breakdown (Fig. 1)
//! warped figure5   [--paper]      instruction-type breakdown (Fig. 5)
//! warped figure8a  [--paper]      type-switch distances (Fig. 8a)
//! warped figure8b  [--paper]      RAW dependency distances (Fig. 8b)
//! warped figure9a  [--paper]      error coverage (Fig. 9a)
//! warped figure9b  [--paper]      ReplayQ overhead sweep (Fig. 9b)
//! warped figure10  [--paper]      scheme comparison (Fig. 10)
//! warped figure11  [--paper]      power & energy (Fig. 11)
//! warped table1                   RFU MUX priorities (Table 1)
//! warped config                   simulated chip & workloads (Tables 3, 4)
//! warped faults    [--trials N]   fault-injection validation
//! warped ablation  [--paper]      design-choice ablations (mechanisms,
//!                                 scheduler, lane shuffle, sampling-DMR)
//! warped profile   [--paper]      coverage sliced by warp utilization (§3.3)
//! warped diagnose <bench>         inject a stuck-at fault, localize it (§3.4)
//! warped analyze <bench> [--json]  static CFG/dataflow verifier + DMR cost
//! warped certify <bench> [--depth N] [--json]
//!                                 bounded model check of the Replay Checker
//!                                 + static DMR coverage certificate
//! warped disasm <bench>           disassemble a benchmark's kernel
//! warped trace <bench> [--count N]  print the first N issued instructions
//! warped trace <bench> --format jsonl|chrome [--out PATH] [--invariants]
//!                                 full cycle-level event trace (and check it)
//! warped invariants [--check]     trace invariant suite + replay check
//! warped run <bench> [--paper]    run one benchmark, verify, report
//! warped figures   [--paper]      all figure harnesses, in order
//! warped campaign  [<bench>] [--site CLASS] [--trials N] [--seed N] [--json]
//!                  [--checkpoint PATH] [--resume] [--fail-chunk C:N]
//!                                 resilient fault campaigns: masked/detected/
//!                                 SDC/hang taxonomy, checker-internal fault
//!                                 sites, crash-safe resumable checkpointing
//! warped all       [--paper]      everything above, in order
//! ```
//!
//! Default scale is `--quick` (Small inputs, 4 SMs); `--paper` selects
//! Full inputs on the paper's 30-SM chip (Table 3). `--csv` switches the
//! table output to CSV for downstream plotting.
//!
//! Every harness fans its independent (benchmark, config) cells out
//! through the `warped-runner` worker pool. `--threads N` sets the pool
//! size explicitly (default: `WARPED_THREADS` or the machine's available
//! parallelism); output is bit-identical at any value.

use std::process::ExitCode;
use warped::experiments::runs::{RunKey, Runs};
use warped::experiments::{self, ExperimentConfig, ExperimentError};
use warped::{baselines, dmr, faults, isa, kernels, sim, trace};

/// Every byte the CLI writes to stdout goes through here. When the reader
/// has gone away (`warped trace SHA | head -1`) the process ends quietly
/// with success, as other command-line tools do; any other write error
/// ends it with a message and a failure status.
fn to_stdout(write: impl FnOnce(&mut std::io::StdoutLock<'static>) -> std::io::Result<()>) {
    if let Err(e) = write(&mut std::io::stdout().lock()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("warped: writing stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`to_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        to_stdout(|o| std::io::Write::write_fmt(o, format_args!($($arg)*)))
    };
}

/// `println!` through [`to_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        to_stdout(|o| std::io::Write::write_fmt(o, format_args!("{}\n", format_args!($($arg)*))))
    };
}

fn usage() -> &'static str {
    "usage: warped <figure1|figure5|figure8a|figure8b|figure9a|figure9b|figure10|figure11|\
     table1|config|faults|ablation|diagnose <benchmark>|analyze <benchmark>|\n\
     certify <benchmark>|disasm <benchmark>|trace <benchmark>|invariants|\
     run <benchmark>|figures|profile|campaign [<benchmark>]|all>\n\
     options: [--paper|--quick] [--csv] [--json] [--trials N] [--count N]\n\
     \u{20}        [--threads N] [--seed N] [--check] [--format jsonl|chrome]\n\
     \u{20}        [--out PATH] [--invariants] [--site CLASS] [--checkpoint PATH]\n\
     \u{20}        [--resume] [--fail-chunk CHUNK:ATTEMPTS] [--depth N]\n\
     benchmarks: BFS Nqueen MUM SCAN BitonicSort Laplace MatrixMul RadixSort SHA Libor CUFFT\n\
     fault sites: lane_transient lane_stuck comparator rfu_mux replayq_meta rf_slot"
}

#[derive(Clone)]
struct Args {
    command: String,
    bench: Option<String>,
    paper: bool,
    trials: u32,
    count: usize,
    csv: bool,
    json: bool,
    threads: Option<usize>,
    seed: u64,
    check: bool,
    format: Option<String>,
    out: Option<String>,
    invariants: bool,
    site: Option<String>,
    checkpoint: Option<String>,
    resume: bool,
    fail_chunk: Option<(u32, u32)>,
    depth: usize,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let command = args.next().ok_or_else(|| usage().to_string())?;
    let mut parsed = Args {
        command,
        bench: None,
        paper: false,
        trials: 8,
        count: 40,
        csv: false,
        json: false,
        threads: None,
        seed: 0xf417,
        check: false,
        format: None,
        out: None,
        invariants: false,
        site: None,
        checkpoint: None,
        resume: false,
        fail_chunk: None,
        depth: warped::analysis::DEFAULT_DEPTH,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--paper" => parsed.paper = true,
            "--csv" => parsed.csv = true,
            "--json" => parsed.json = true,
            "--quick" => parsed.paper = false,
            "--check" => parsed.check = true,
            "--trials" => parsed.trials = value(&mut args, "--trials", "trial count")?,
            "--count" => parsed.count = value(&mut args, "--count", "count")?,
            "--threads" => parsed.threads = Some(value(&mut args, "--threads", "thread count")?),
            "--seed" => parsed.seed = value(&mut args, "--seed", "seed")?,
            "--format" => {
                let v: String = value(&mut args, "--format", "format")?;
                if v != "jsonl" && v != "chrome" {
                    return Err(format!("bad format {v} (expected jsonl or chrome)"));
                }
                parsed.format = Some(v);
            }
            "--out" => parsed.out = Some(value(&mut args, "--out", "path")?),
            "--invariants" => parsed.invariants = true,
            "--site" => parsed.site = Some(value(&mut args, "--site", "site")?),
            "--checkpoint" => parsed.checkpoint = Some(value(&mut args, "--checkpoint", "path")?),
            "--resume" => parsed.resume = true,
            "--depth" => {
                parsed.depth = value(&mut args, "--depth", "depth")?;
                if parsed.depth == 0 {
                    return Err("--depth must be at least 1".to_string());
                }
            }
            "--fail-chunk" => {
                let v: String = value(&mut args, "--fail-chunk", "value")?;
                let (c, n) = v
                    .split_once(':')
                    .ok_or(format!("bad --fail-chunk {v} (expected CHUNK:ATTEMPTS)"))?;
                parsed.fail_chunk = Some((
                    c.parse()
                        .map_err(|_| format!("bad --fail-chunk chunk index {c}"))?,
                    n.parse()
                        .map_err(|_| format!("bad --fail-chunk attempt count {n}"))?,
                ));
            }
            other if parsed.bench.is_none() && !other.starts_with('-') => {
                parsed.bench = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(parsed)
}

/// The value after `flag`, parsed; one that does not parse is a bad `what`.
fn value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let v = args.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {what} {v}"))
}

fn heading(title: &str) {
    outln!("\n== {title} ==");
}

/// Resolve the positional benchmark argument of `command`, failing with
/// a typed usage error (non-zero exit) when it is missing or unknown.
fn require_bench(args: &Args, command: &str) -> Result<kernels::Benchmark, ExperimentError> {
    let name = args.bench.as_deref().ok_or_else(|| {
        ExperimentError::Usage(format!("{command} needs a benchmark name\n{}", usage()))
    })?;
    kernels::Benchmark::from_name(name)
        .ok_or_else(|| ExperimentError::Usage(format!("unknown benchmark {name}\n{}", usage())))
}

fn show(table: &warped::stats::Table, csv: bool) {
    if csv {
        out!("{}", table.to_csv());
    } else {
        outln!("{table}");
    }
}

/// The figure commands `figures` prints, in order; `all` adds `profile`.
const FIGURES: [&str; 8] = [
    "figure1", "figure5", "figure8a", "figure8b", "figure9a", "figure9b", "figure10", "figure11",
];

/// The runs figure or ablation command `command` reads; `None` for any other.
fn figure_keys(command: &str) -> Option<Vec<RunKey>> {
    Some(match command {
        "figure1" => experiments::fig1::keys(),
        "figure5" => experiments::fig5::keys(),
        "figure8a" | "figure8b" => experiments::fig8::keys(),
        "figure9a" => experiments::fig9a::keys(),
        "figure9b" => experiments::fig9b::keys(),
        "figure10" => experiments::fig10::keys(),
        "figure11" => experiments::fig11::keys(),
        "profile" => experiments::coverage_profile::keys(),
        "ablation" => experiments::ablation::keys(),
        _ => return None,
    })
}

/// Run `args.command`. `figures` and `all` expand to the commands they
/// print; one plan simulates the runs of every planned table among them.
fn run_command(args: &Args) -> Result<(), ExperimentError> {
    let cfg = if args.paper {
        ExperimentConfig::paper()
    } else {
        ExperimentConfig::quick()
    }
    .with_threads(warped::runner::resolve_threads(args.threads));
    let commands = match args.command.as_str() {
        "figures" => FIGURES.to_vec(),
        "all" => [
            &["table1", "config"],
            &FIGURES[..],
            &["profile", "faults", "ablation"],
        ]
        .concat(),
        command => vec![command],
    };
    let keys: Vec<RunKey> = commands
        .iter()
        .filter_map(|c| figure_keys(c))
        .flatten()
        .collect();
    let runs = if keys.is_empty() {
        None
    } else {
        Some(Runs::simulate(&cfg, &keys)?)
    };
    for command in commands {
        run_one(command, args, &cfg, runs.as_ref())?;
    }
    Ok(())
}

/// Run one command; `runs` holds the planned runs when it reads any.
fn run_one(
    command: &str,
    args: &Args,
    cfg: &ExperimentConfig,
    runs: Option<&Runs>,
) -> Result<(), ExperimentError> {
    let planned = || runs.expect("the command's runs are planned");
    match command {
        "figure1" => {
            heading("Figure 1: execution time by number of active threads");
            let (rows, t) = experiments::fig1::build(planned());
            show(&t, args.csv);
            if !args.csv {
                let chart_rows: Vec<(String, Vec<f64>)> = rows
                    .iter()
                    .map(|r| {
                        (
                            r.benchmark.name().to_string(),
                            r.fractions.iter().map(|(_, f)| *f).collect(),
                        )
                    })
                    .collect();
                let labels: Vec<String> =
                    rows[0].fractions.iter().map(|(l, _)| l.clone()).collect();
                outln!("{}", warped::stats::bars::stacked(&chart_rows, &labels, 60));
            }
        }
        "figure5" => {
            heading("Figure 5: execution time by instruction type");
            let (rows, t) = experiments::fig5::build(planned());
            show(&t, args.csv);
            if !args.csv {
                let chart_rows: Vec<(String, Vec<f64>)> = rows
                    .iter()
                    .map(|r| (r.benchmark.name().to_string(), vec![r.sp, r.sfu, r.ldst]))
                    .collect();
                let labels = vec!["SP".to_string(), "SFU".to_string(), "LD/ST".to_string()];
                outln!("{}", warped::stats::bars::stacked(&chart_rows, &labels, 60));
            }
        }
        "figure8a" => {
            heading("Figure 8a: cycles between instruction-type switches");
            let (_, t) = experiments::fig8::build_switch_distances(planned());
            show(&t, args.csv);
        }
        "figure8b" => {
            heading("Figure 8b: RAW dependency distances (cycles)");
            let (_, t) = experiments::fig8::build_raw_distances(planned());
            show(&t, args.csv);
        }
        "figure9a" => {
            heading("Figure 9a: error coverage by configuration");
            let (rows, t) = experiments::fig9a::build(planned());
            show(&t, args.csv);
            let (a, b, c) = experiments::fig9a::averages(&rows);
            outln!("averages: 4-lane {a:.2}%  8-lane {b:.2}%  cross {c:.2}%");
            outln!("(paper: 89.60%, 91.91%, 96.43%)");
        }
        "figure9b" => {
            heading("Figure 9b: normalized kernel cycles vs ReplayQ size");
            let (rows, t) = experiments::fig9b::build(planned());
            show(&t, args.csv);
            let avg = experiments::fig9b::averages(&rows);
            outln!(
                "averages: Q0 {:.3}  Q1 {:.3}  Q5 {:.3}  Q10 {:.3}",
                avg[0],
                avg[1],
                avg[2],
                avg[3]
            );
            outln!("(paper: 1.41, 1.32, 1.24, 1.16)");
        }
        "figure10" => {
            heading("Figure 10: end-to-end time per detection scheme");
            let (_, t) = experiments::fig10::build(planned());
            show(&t, args.csv);
        }
        "figure11" => {
            heading("Figure 11: normalized power and energy");
            let (rows, t) = experiments::fig11::build(planned());
            show(&t, args.csv);
            let (p, e) = experiments::fig11::averages(&rows);
            outln!("averages: power {p:.3}  energy {e:.3}   (paper: 1.11, 1.31)");
        }
        "profile" => {
            heading("Coverage by warp utilization (paper \u{00a7}3.3)");
            let (_, t) = experiments::coverage_profile::build(planned());
            show(&t, args.csv);
            outln!(
                "theory: 100% while active <= 16; inactive/active above; 100% at 32 (inter-warp)"
            );
        }
        "table1" => {
            heading("Table 1: RFU MUX priority table");
            outln!("{}", experiments::config_tables::table1());
        }
        "config" => {
            heading("Table 3: simulation parameters");
            outln!("{}", experiments::config_tables::table3(&cfg.gpu));
            heading("Table 4: workloads");
            outln!("{}", experiments::config_tables::table4());
        }
        "faults" => {
            heading("Fault injection: measured detection vs analytic coverage");
            let (_, t) = experiments::faults_exp::run(cfg, args.trials, args.seed)?;
            show(&t, args.csv);
            outln!("(transient rate should track coverage; DMTR misses all stuck-at faults)");
        }
        "campaign" => return run_campaign(args, cfg),
        "certify" => return run_certify(args, cfg),
        "ablation" => {
            heading("Ablation: which mechanism earns the coverage");
            let (_, t) = experiments::ablation::build_mechanisms(planned());
            show(&t, args.csv);
            heading("Ablation: warp scheduler vs type-run length and overhead");
            let (_, t) = experiments::ablation::build_scheduler(planned());
            show(&t, args.csv);
            heading("Ablation: Fermi dual schedulers (paper \u{00a7}2.2)");
            let (_, t) = experiments::ablation::build_dual_issue(planned());
            show(&t, args.csv);
            outln!(
                "(the second scheduler helps, yet units stay idle -- the DMR opportunity survives)"
            );
            heading("Ablation: Sampling-DMR duty sweep (MatrixMul)");
            let (_, t) = experiments::ablation::sampling(cfg, planned())?;
            show(&t, args.csv);
            heading("Ablation: lane shuffling vs core affinity (stuck-at faults)");
            let t = experiments::ablation::shuffling(cfg, args.trials, 0xab1a)?;
            show(&t, args.csv);
        }
        "diagnose" => {
            let bench = require_bench(args, "diagnose")?;
            heading(&format!(
                "Fault localization on {bench} (paper \u{00a7}3.4)"
            ));
            // Plant a permanent fault on a pseudo-random site and see how
            // precisely the detection log isolates it.
            struct Stuck(dmr::LaneSite);
            impl dmr::FaultOracle for Stuck {
                fn transform(&self, site: dmr::LaneSite, _c: u64, v: u32) -> u32 {
                    if site == self.0 {
                        v ^ 0x0004_0000
                    } else {
                        v
                    }
                }
            }
            let planted = dmr::LaneSite { sm: 0, lane: 21 };
            let w = bench.build(cfg.size)?;
            let mut engine = dmr::WarpedDmr::with_oracle(
                dmr::DmrConfig::default(),
                &cfg.gpu,
                Box::new(Stuck(planted)),
            );
            w.run_with(&cfg.gpu, &mut engine)?;
            outln!(
                "planted fault:   sm{} lane {} (stuck output bit 18)",
                planted.sm,
                planted.lane
            );
            outln!("detections:      {}", engine.errors().total());
            match dmr::diagnose(engine.errors()) {
                Some(d) => {
                    outln!(
                        "diagnosis:       sm{} lane {} ({} of {} events, {:.1}% confidence)",
                        d.site.sm,
                        d.site.lane,
                        d.implicated,
                        d.total,
                        100.0 * d.confidence()
                    );
                    if d.site == planted {
                        outln!(
                            "verdict:         CORRECT — the defective SP is isolated; \
                                  the SM stays usable via core re-routing [Zhang et al.]"
                        );
                    } else {
                        outln!("verdict:         MISLOCALIZED");
                    }
                }
                None => {
                    outln!("diagnosis:       inconclusive (fault never exercised or not covered)")
                }
            }
        }
        "analyze" => {
            let bench = require_bench(args, "analyze")?;
            let w = bench.build(cfg.size)?;
            let pcfg = warped::analysis::PredictConfig {
                gpu: cfg.gpu.clone(),
                replayq_entries: dmr::DmrConfig::default().replayq_entries,
            };
            let a = warped::analysis::analyze(w.kernel(), &pcfg);
            if args.json {
                outln!("{}", a.to_json());
            } else {
                heading(&format!("Static analysis of {bench}"));
                out!("{}", a.to_text());
            }
        }
        "disasm" => {
            let bench = require_bench(args, "disasm")?;
            let w = bench.build(cfg.size)?;
            out!("{}", isa::disasm::disassemble(w.kernel()));
        }
        "trace" => {
            let bench = require_bench(args, "trace")?;
            if args.format.is_some() || args.out.is_some() || args.invariants {
                return trace_full(bench, cfg, args);
            }
            heading(&format!(
                "First {} issued instructions of {bench}",
                args.count
            ));
            let w = bench.build(cfg.size)?;
            let mut t = sim::collectors::TraceCollector::new(args.count).only_sm(0);
            w.run_with(&cfg.gpu, &mut t)?;
            for r in t.records() {
                outln!("{r}");
            }
        }
        "invariants" => {
            let icfg = if args.check {
                ExperimentConfig::test_tiny()
                    .with_threads(warped::runner::resolve_threads(args.threads))
            } else {
                cfg.clone()
            };
            heading(&format!(
                "Trace invariant suite ({:?} scale): I1-I5 + replay check",
                icfg.size
            ));
            let (rows, t) = experiments::invariants::run(&icfg)?;
            show(&t, args.csv);
            experiments::invariants::require_clean(&rows)?;
            outln!("all invariants hold; every trace replays to the exact live report");
        }
        "run" => {
            let bench = require_bench(args, "run")?;
            heading(&format!("Running {bench} ({:?})", cfg.size));
            let w = bench.build(cfg.size)?;
            let mut engine = dmr::WarpedDmr::new(dmr::DmrConfig::default(), &cfg.gpu);
            let run = w.run_with(&cfg.gpu, &mut engine)?;
            w.check(&run)?;
            let mut occ = sim::collectors::OccupancyCollector::new();
            let mut banks = sim::regfile::BankConflictCollector::new();
            let base = {
                let mut multi = sim::MultiObserver::new();
                multi.push(&mut occ).push(&mut banks);
                w.run_with(&cfg.gpu, &mut multi)?
            };
            let report = engine.report();
            outln!("result check:        PASS");
            outln!("kernel launches:     {}", run.launches);
            outln!("baseline cycles:     {}", base.stats.cycles);
            outln!(
                "with Warped-DMR:     {} ({:+.1}%)",
                run.stats.cycles,
                100.0 * (run.stats.cycles as f64 / base.stats.cycles.max(1) as f64 - 1.0)
            );
            outln!("error coverage:      {:.2}%", report.coverage_pct());
            outln!("intra-warp share:    {:.1}%", 100.0 * report.intra_share());
            outln!(
                "partial-input checks: {:.2}% of instructions (paper: <4%)",
                100.0 * report.partial_check_fraction()
            );
            outln!("ReplayQ stalls:      {}", report.checker.stall_cycles);
            outln!("ReplayQ high-water:  {}", report.checker.max_queue);
            outln!(
                "issue efficiency:    {:.1}% over {} active SM(s), IPC {:.2}",
                100.0 * occ.chip_efficiency(),
                occ.active_sms(),
                base.stats.ipc()
            );
            outln!(
                "RF bank conflicts:   {:.1}% of operand fetches (hidden by operand buffering)",
                100.0 * banks.conflict_rate()
            );
            let pcie = baselines::PcieModel::default();
            let fp = w.footprint();
            outln!(
                "transfer time:       {:.1} us ({} words in, {} words out)",
                pcie.footprint_ns(&fp) / 1000.0,
                fp.input_words,
                fp.output_words
            );
        }
        other => {
            return Err(ExperimentError::Usage(format!(
                "unknown command {other}\n{}",
                usage()
            )));
        }
    }
    Ok(())
}

/// `warped campaign [<bench>] [--site CLASS] [--trials N] [--seed N]
/// [--json] [--checkpoint PATH] [--resume] [--fail-chunk C:N]`:
/// resilient fault-injection campaigns with the full outcome taxonomy.
///
/// Without a benchmark the campaign sweep covers
/// [`experiments::faults_exp::CAMPAIGN_BENCHMARKS`]; without `--site`
/// it covers every fault-site class. `--json` prints one canonical
/// JSON report per line (bit-identical at any `--threads` and across
/// any interrupt/resume pattern); the default is a table with 95%
/// Wilson intervals. `--checkpoint` journals exactly one campaign, so
/// it requires both a benchmark and `--site`.
fn run_campaign(args: &Args, cfg: &ExperimentConfig) -> Result<(), ExperimentError> {
    let benches: Vec<kernels::Benchmark> = match args.bench.as_deref() {
        Some(_) => vec![require_bench(args, "campaign")?],
        None => experiments::faults_exp::CAMPAIGN_BENCHMARKS.to_vec(),
    };
    let classes: Vec<faults::FaultSiteClass> = match args.site.as_deref() {
        Some(s) => vec![faults::FaultSiteClass::from_wire(s).ok_or_else(|| {
            ExperimentError::Usage(format!("unknown fault-site class {s}\n{}", usage()))
        })?],
        None => faults::FaultSiteClass::ALL.to_vec(),
    };
    if args.checkpoint.is_some() && (benches.len() != 1 || classes.len() != 1) {
        return Err(ExperimentError::Usage(
            "--checkpoint journals exactly one campaign; name a benchmark and a --site CLASS"
                .to_string(),
        ));
    }
    let mut opts = faults::ResilientOptions::default().with_threads(cfg.threads);
    opts.checkpoint = args.checkpoint.as_deref().map(std::path::PathBuf::from);
    opts.resume = args.resume;
    opts.forced_panic = args
        .fail_chunk
        .map(|(chunk, attempts)| faults::ForcedPanic { chunk, attempts });

    let mut reports = Vec::new();
    for &bench in &benches {
        for &class in &classes {
            reports.push(experiments::faults_exp::resilient(
                cfg,
                bench,
                class,
                args.trials,
                args.seed,
                &opts,
            )?);
        }
    }
    if args.json {
        for r in &reports {
            outln!("{}", r.to_json());
        }
    } else {
        heading("Fault campaign: outcome taxonomy (masked / detected / SDC / hang)");
        show(&experiments::faults_exp::taxonomy_table(&reports), args.csv);
        outln!("(rates carry 95% Wilson intervals, widened when chunks were skipped)");
    }
    for r in &reports {
        if !r.failed_chunks.is_empty() {
            eprintln!(
                "warning: {} {}: {} chunk(s) skipped after exhausting retries; \
                 result degraded to {} of {} trials",
                r.bench,
                r.class,
                r.failed_chunks.len(),
                r.result.trials,
                r.result.planned
            );
        }
    }
    Ok(())
}

/// `warped certify <bench> [--depth N] [--json]`: bounded model check of
/// the Replay Checker (every issue/idle/done schedule up to `--depth`
/// transitions, stepped differentially against an abstract model of
/// Algorithm 1, checking invariants I1–I5 and model/implementation
/// agreement) plus a static DMR coverage certificate for the
/// benchmark's kernel (abstract interpretation of active masks over the
/// CFG under the configured thread→core mapping). Exits non-zero when
/// the model check finds a violation or is truncated by its state
/// budget, or the certified lower bound exceeds the simulator-measured
/// coverage ([`experiments::certify::Certification::check`]).
fn run_certify(args: &Args, cfg: &ExperimentConfig) -> Result<(), ExperimentError> {
    use warped::analysis::{InstrClass, ModelCheckConfig};
    let bench = require_bench(args, "certify")?;
    let model = ModelCheckConfig {
        depth: args.depth,
        ..ModelCheckConfig::default()
    };
    let c = experiments::certify::certify(bench, &model, cfg)?;
    let (mc, cert) = (&c.model, &c.cert);

    if args.json {
        outln!("{}", c.to_json());
    } else {
        heading(&format!(
            "Certification of {bench} (model depth {})",
            mc.depth
        ));
        outln!("model check: Replay Checker vs Algorithm 1, invariants I1-I5");
        for cap in &mc.per_capacity {
            outln!(
                "  ReplayQ capacity {}: {:>7} states, {:>9} transitions",
                cap.capacity,
                cap.states,
                cap.transitions
            );
        }
        outln!(
            "  total: {} states, {} transitions, {} violation(s){}",
            mc.states(),
            mc.transitions(),
            mc.violations.len(),
            if mc.truncated {
                "  (TRUNCATED by state budget)"
            } else {
                ""
            }
        );
        for v in &mc.violations {
            outln!("{}", v.render());
        }
        outln!(
            "\nstatic coverage certificate ({} warp shape(s), {} abstract states{}):",
            cert.shapes.len(),
            cert.states,
            if cert.overflowed {
                ", widened after budget overflow"
            } else {
                ""
            }
        );
        for class in InstrClass::ALL {
            outln!("  {:<13} {:>4} instr", class.tag(), cert.count(class));
        }
        outln!("  certified coverage lower bound: {:.2}%", cert.bound_pct);
        outln!(
            "  measured coverage ({:?} scale):  {:.2}%",
            cfg.size,
            c.measured_pct
        );
    }
    c.check()
}

/// `warped trace <bench> --format jsonl|chrome [--out PATH]
/// [--invariants]`: record the full cycle-level event stream of one
/// traced run, optionally check the Algorithm-1 invariants over it, and
/// write it out (stdout when no `--out`).
fn trace_full(
    bench: kernels::Benchmark,
    cfg: &ExperimentConfig,
    args: &Args,
) -> Result<(), ExperimentError> {
    let format = args.format.as_deref().unwrap_or("jsonl");
    let w = bench.build(cfg.size)?;
    let mut engine = dmr::WarpedDmr::new(dmr::DmrConfig::default(), &cfg.gpu);
    let (collector, handle) = trace::TraceHandle::shared(trace::CollectSink::new());
    engine.set_trace(handle.clone());
    let run = w.run_traced(&cfg.gpu, &mut engine, handle)?;
    w.check(&run)?;
    let events = collector.lock().expect("collector poisoned").take();

    let io_err = |path: &str| {
        let path = path.to_string();
        move |e: std::io::Error| ExperimentError::Io { path, source: e }
    };
    let mut payload = Vec::new();
    if format == "chrome" {
        trace::chrome::write(&events, &mut payload).map_err(io_err("trace buffer"))?;
    } else {
        for ev in &events {
            payload.extend_from_slice(trace::jsonl::to_line(ev).as_bytes());
            payload.push(b'\n');
        }
    }
    match args.out.as_deref() {
        Some(path) => {
            std::fs::write(path, &payload).map_err(io_err(path))?;
            eprintln!(
                "wrote {} events ({} bytes, {format}) to {path}",
                events.len(),
                payload.len()
            );
        }
        None => to_stdout(|o| std::io::Write::write_all(o, &payload)),
    }

    if args.invariants {
        let mut inv = trace::InvariantSink::new();
        trace::replay::feed(&events, &mut inv);
        if let Some(v) = inv.violations().first() {
            return Err(ExperimentError::Invariant(format!(
                "{bench}: {} violation(s); first: {v}",
                inv.total_violations()
            )));
        }
        eprintln!(
            "invariants: ok ({} events, {} verifies live)",
            inv.events_seen(),
            engine.report().checker.total_verified()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run_command(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // Usage errors already read as full sentences (and embed the
        // usage text); everything else gets the failure prefix.
        Err(ExperimentError::Usage(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;
    use proptest::prelude::*;

    fn parse(words: &[&str]) -> Result<super::Args, String> {
        parse_args(words.iter().map(|w| w.to_string()))
    }

    /// Every command `run_command` dispatches is named in the usage text.
    #[test]
    fn usage_lists_every_command() {
        let text = super::usage();
        let commands = "figure1 figure5 figure8a figure8b figure9a figure9b figure10 figure11 \
             table1 config faults campaign certify figures profile ablation diagnose \
             analyze disasm trace invariants run all";
        for cmd in commands.split_whitespace() {
            let named = text
                .split(|c: char| !c.is_ascii_alphanumeric())
                .any(|w| w == cmd);
            assert!(named, "usage omits {cmd}");
        }
    }

    #[test]
    fn defaults_are_quick_scale() {
        let a = parse(&["figure1"]).unwrap();
        assert_eq!(a.command, "figure1");
        assert!(!a.paper);
        assert!(!a.csv);
        assert_eq!(a.trials, 8);
        assert_eq!(a.count, 40);
        assert!(a.bench.is_none());
    }

    #[test]
    fn flags_and_positionals_parse() {
        let a = parse(&[
            "run",
            "MatrixMul",
            "--paper",
            "--csv",
            "--trials",
            "3",
            "--count",
            "7",
        ])
        .unwrap();
        assert_eq!(a.bench.as_deref(), Some("MatrixMul"));
        assert!(a.paper && a.csv);
        assert_eq!(a.trials, 3);
        assert_eq!(a.count, 7);
    }

    #[test]
    fn json_flag_parses() {
        let a = parse(&["analyze", "SHA", "--json"]).unwrap();
        assert_eq!(a.command, "analyze");
        assert_eq!(a.bench.as_deref(), Some("SHA"));
        assert!(a.json);
        assert!(!parse(&["analyze", "SHA"]).unwrap().json);
    }

    #[test]
    fn quick_overrides_paper() {
        let a = parse(&["all", "--paper", "--quick"]).unwrap();
        assert!(!a.paper);
    }

    #[test]
    fn threads_seed_and_check_parse() {
        let a = parse(&["campaign", "--threads", "4", "--seed", "99"]).unwrap();
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.seed, 99);
        assert!(!a.check);
        let b = parse(&["invariants", "--check"]).unwrap();
        assert!(b.check);
        assert_eq!(b.threads, None, "threads default to the environment");
        assert!(parse(&["figures", "--threads"]).is_err());
        assert!(parse(&["figures", "--threads", "lots"]).is_err());
        assert!(parse(&["campaign", "--seed", "x"]).is_err());
    }

    #[test]
    fn trace_flags_parse() {
        let a = parse(&[
            "trace",
            "SCAN",
            "--format",
            "chrome",
            "--out",
            "t.json",
            "--invariants",
        ])
        .unwrap();
        assert_eq!(a.bench.as_deref(), Some("SCAN"));
        assert_eq!(a.format.as_deref(), Some("chrome"));
        assert_eq!(a.out.as_deref(), Some("t.json"));
        assert!(a.invariants);
        let b = parse(&["trace", "SCAN"]).unwrap();
        assert!(b.format.is_none() && b.out.is_none() && !b.invariants);
        assert!(parse(&["trace", "SCAN", "--format", "xml"]).is_err());
        assert!(parse(&["trace", "SCAN", "--format"]).is_err());
        assert!(parse(&["trace", "SCAN", "--out"]).is_err());
        assert!(parse(&["invariants", "--check"]).unwrap().check);
    }

    #[test]
    fn campaign_flags_parse() {
        let a = parse(&[
            "campaign",
            "SCAN",
            "--site",
            "comparator",
            "--checkpoint",
            "j.jsonl",
            "--resume",
            "--fail-chunk",
            "3:2",
        ])
        .unwrap();
        assert_eq!(a.bench.as_deref(), Some("SCAN"));
        assert_eq!(a.site.as_deref(), Some("comparator"));
        assert_eq!(a.checkpoint.as_deref(), Some("j.jsonl"));
        assert!(a.resume);
        assert_eq!(a.fail_chunk, Some((3, 2)));
        let b = parse(&["campaign"]).unwrap();
        assert!(b.site.is_none() && b.checkpoint.is_none() && !b.resume);
        assert!(b.fail_chunk.is_none());
        assert!(parse(&["campaign", "--site"]).is_err());
        assert!(parse(&["campaign", "--checkpoint"]).is_err());
        assert!(parse(&["campaign", "--fail-chunk", "3"]).is_err());
        assert!(parse(&["campaign", "--fail-chunk", "a:b"]).is_err());
    }

    #[test]
    fn certify_flags_parse() {
        let a = parse(&["certify", "MatrixMul", "--depth", "5", "--json"]).unwrap();
        assert_eq!(a.command, "certify");
        assert_eq!(a.bench.as_deref(), Some("MatrixMul"));
        assert_eq!(a.depth, 5);
        assert!(a.json);
        let b = parse(&["certify", "SCAN"]).unwrap();
        assert_eq!(b.depth, warped::analysis::DEFAULT_DEPTH);
        assert!(parse(&["certify", "SCAN", "--depth"]).is_err());
        assert!(parse(&["certify", "SCAN", "--depth", "x"]).is_err());
        assert!(parse(&["certify", "SCAN", "--depth", "0"]).is_err());
    }

    /// Every flag that takes a value, with a value it accepts.
    const VALUE_FLAGS: [(&str, &str); 10] = [
        ("--trials", "3"),
        ("--count", "7"),
        ("--threads", "2"),
        ("--seed", "9"),
        ("--format", "jsonl"),
        ("--depth", "4"),
        ("--fail-chunk", "1:2"),
        ("--out", "t.json"),
        ("--site", "comparator"),
        ("--checkpoint", "j.jsonl"),
    ];

    /// The first seven flags above parse their value; the rest store it.
    const PARSED_FLAGS: usize = 7;

    /// `command`, then each picked flag with its accepted value.
    fn valid_words(picks: &[usize]) -> Vec<String> {
        let mut words = vec!["campaign".to_string()];
        for &i in picks {
            let (flag, value) = VALUE_FLAGS[i];
            words.extend([flag.to_string(), value.to_string()]);
        }
        words
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A value-taking flag as the last word has no value.
        #[test]
        fn value_flag_last_is_an_error(
            picks in prop::collection::vec(0usize..VALUE_FLAGS.len(), 0..5),
            last in 0usize..VALUE_FLAGS.len(),
        ) {
            let mut words = valid_words(&picks);
            prop_assert!(parse_args(words.clone().into_iter()).is_ok());
            words.push(VALUE_FLAGS[last].0.to_string());
            prop_assert!(parse_args(words.into_iter()).is_err());
        }

        /// A parsed flag's value holding a character no accepted value
        /// holds (letter, sign, dot, space, slash, non-ASCII) is an error.
        #[test]
        fn unparsable_values_are_errors(
            picks in prop::collection::vec(0usize..VALUE_FLAGS.len(), 0..5),
            flag in 0usize..PARSED_FLAGS,
            digits in prop::collection::vec(0u8..11, 0..8),
            bad_at in (0usize..6, any::<usize>()),
        ) {
            let (bad, at) = bad_at;
            let mut value: Vec<char> = digits
                .iter()
                .map(|&d| if d == 10 { ':' } else { char::from(b'0' + d) })
                .collect();
            value.insert(at % (value.len() + 1), ['x', '-', '.', ' ', '/', '\u{e9}'][bad]);
            let mut words = valid_words(&picks);
            words.extend([VALUE_FLAGS[flag].0.to_string(), value.into_iter().collect()]);
            prop_assert!(parse_args(words.clone().into_iter()).is_err(), "{words:?} parsed");
        }
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["figure1", "--trials"]).is_err());
        assert!(parse(&["figure1", "--trials", "many"]).is_err());
        assert!(parse(&["figure1", "--bogus-flag"]).is_err());
        // A second positional is rejected too.
        assert!(parse(&["run", "BFS", "SCAN"]).is_err());
    }
}
