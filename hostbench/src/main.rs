//! End-to-end host-time benchmark of the hetero-hpc workspace.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload numeric_sweep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on untraced passes.
//! `--trace 1` alternates untraced and traced passes, reports the tracing
//! overhead, then replays the lower layers' public functions on the
//! workload's own inputs and reports the per-layer metrics. Every line but
//! the last is for people; the last line is one JSON object. See
//! `hostbench/README.md` for the workloads and the metric map.

mod layers;
mod numeric;
mod serve_mix;
mod stats;
mod table3;

use stats::{median, peak_rss_mb, quantile, reset_peak_rss, Probe, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// What one pass reports to the pass loop.
#[derive(Default)]
pub struct PassOut {
    /// Host seconds of the pass's set-up step.
    pub setup_s: f64,
    /// Jobs the pass ran.
    pub jobs: usize,
    /// Latency of each cold and hot job, in seconds.
    pub cold_s: Vec<f64>,
    pub hot_s: Vec<f64>,
}

/// One workload: a pass the loop times, and the checks and replay inputs
/// around it.
pub trait Workload {
    /// Untimed preparation of the next pass.
    fn before_pass(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    /// One timed pass; records spans and counts into `probe` when enabled.
    fn pass(&mut self, probe: &mut Probe) -> PassOut;
    /// Extra samples taken after the pass, outside its wall time and peak
    /// memory: repeated set-ups, and hot jobs that the pass itself does
    /// not run.
    fn after_pass(&mut self, _probe: &mut Probe, _out: &mut PassOut) {}
    /// Checks the last pass's outputs (untimed).
    fn check(&mut self, tally: &mut Tally);
    /// Counters the last traced pass left in the program (untimed).
    fn counters(&self, _probe: &mut Probe) {}
    /// The workload's sizes and requests for the layer replay.
    fn replay_inputs(&self) -> layers::ReplayInputs;
}

/// Per-layer metrics, printed for every workload on traced runs. Samples of
/// a metric in `ms`, `us` or `ns` are recorded in seconds and scaled on
/// output; other units are printed as recorded.
const PER_LAYER: [(&str, &str); 41] = [
    ("mesh.build_ms", "ms"),
    ("partition.assign_ms", "ms"),
    ("fem.dofmap_ms", "ms"),
    ("fem.assembly_symbolic_ms", "ms"),
    ("fem.assembly_step_ms", "ms"),
    ("linalg.precond_ms", "ms"),
    ("linalg.solve_ms", "ms"),
    ("linalg.spmv_us", "us"),
    ("linalg.krylov_iters", "count"),
    ("simmpi.spawn_ms", "ms"),
    ("simmpi.hop_ns", "ns"),
    ("simmpi.msgs_per_step", "count"),
    ("simmpi.bytes_per_step", "B"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.serialize_ms", "ms"),
    ("snapshot.delta_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("recovery.attempts", "count"),
    ("recovery.campaign_ms", "ms"),
    ("run.execute_numerical_ms", "ms"),
    ("run.execute_modeled_ms", "ms"),
    ("modeled.run_ms", "ms"),
    ("prep.scenario_ms", "ms"),
    ("prep.builds", "count"),
    ("prep.hits", "count"),
    ("prep.ff_hits", "count"),
    ("prep.hit_ratio", "share"),
    ("fault.timeline_ms", "ms"),
    ("fault.replay_ms", "ms"),
    ("plan.parse_resolve_ms", "ms"),
    ("plan.instance_keys_ms", "ms"),
    ("canon.request_key_us", "us"),
    ("canon.prep_key_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.cache_store_us", "us"),
    ("serve.journal_append_us", "us"),
    ("serve.hit_ratio", "share"),
    ("serve.batch_size", "count"),
    ("serve.coalesced", "count"),
    ("trace_overhead_share", "share"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => seconds = value.parse().map_err(|_| "--seconds needs a number")?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The host every result is recorded with.
fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serve_workers = hetero_serve::ServeConfig::new(".").workers;
    format!(
        "{{\"nproc\":{nproc},\"sched_workers\":\"auto ({nproc})\",\"plan_workers\":\"auto ({nproc})\",\
         \"serve_workers\":{serve_workers},\"serve_clients\":{},\"rustc\":\"{}\",\"profile\":\"{}\"}}",
        serve_mix::CLIENTS,
        env!("HOSTBENCH_RUSTC"),
        env!("HOSTBENCH_PROFILE")
    )
}

/// Scales a sample recorded in seconds to the unit its name states.
fn scale(unit: &str) -> f64 {
    match unit {
        "ms" => 1e3,
        "us" => 1e6,
        "ns" => 1e9,
        _ => 1.0,
    }
}

/// `(name, value, unit, samples, source)` of every printed metric.
type Metrics = Vec<(&'static str, f64, &'static str, usize, &'static str)>;

fn end_to_end(passes: &[Pass]) -> Metrics {
    let n = passes.len();
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| -> f64 { median(&passes.iter().map(f).collect::<Vec<f64>>()) };
    // Latency percentiles are taken per pass, then the median over passes,
    // so one noisy pass moves a tail by at most one rank.
    let cold_n: usize = passes.iter().map(|p| p.out.cold_s.len()).sum();
    let hot_n: usize = passes.iter().map(|p| p.out.hot_s.len()).sum();
    vec![
        ("wall_s", per_pass(&|p| p.wall), "s", n, "untraced passes"),
        (
            "setup_s",
            per_pass(&|p| p.out.setup_s),
            "s",
            n,
            "untraced passes",
        ),
        // The first pass runs in a fresh process, as every plan run or
        // service start does; later passes inherit the allocator's
        // retained pages.
        ("peak_rss_mb", passes[0].rss, "MiB", 1, "untraced passes"),
        (
            "jobs_per_s",
            per_pass(&|p| p.out.jobs as f64 / p.wall),
            "1/s",
            n,
            "untraced passes",
        ),
        (
            "cold_job_p50_ms",
            1e3 * per_pass(&|p| quantile(&p.out.cold_s, 0.5)),
            "ms",
            cold_n,
            "untraced passes",
        ),
        (
            "cold_job_p90_ms",
            1e3 * per_pass(&|p| quantile(&p.out.cold_s, 0.9)),
            "ms",
            cold_n,
            "untraced passes",
        ),
        (
            "hot_job_p50_ms",
            1e3 * per_pass(&|p| quantile(&p.out.hot_s, 0.5)),
            "ms",
            hot_n,
            "untraced passes",
        ),
        (
            "hot_job_p99_ms",
            1e3 * per_pass(&|p| quantile(&p.out.hot_s, 0.99)),
            "ms",
            hot_n,
            "untraced passes",
        ),
    ]
}

/// One timed pass: its wall time, its peak memory, its prepared-scenario
/// cache builds, hits and fast-forward hits, the seconds its after-pass
/// samples took, and what it reported.
struct Pass {
    wall: f64,
    rss: f64,
    prep: [f64; 3],
    after: f64,
    out: PassOut,
}

/// Runs one timed pass: untimed preparation, a fresh peak-memory mark, the
/// pass, its after-pass samples, and its untimed output check.
fn timed_pass(w: &mut dyn Workload, probe: &mut Probe, tally: &mut Tally) -> Pass {
    if let Err(e) = w.before_pass() {
        tally.fail(format!("pass preparation failed: {e}"));
    }
    reset_peak_rss();
    let (b0, h0, f0) = hetero_hpc::prep::cache_stats();
    let t = Instant::now();
    let mut out = w.pass(probe);
    let wall = t.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let (b1, h1, f1) = hetero_hpc::prep::cache_stats();
    let prep = [(b1 - b0) as f64, (h1 - h0) as f64, (f1 - f0) as f64];
    let t = Instant::now();
    w.after_pass(probe, &mut out);
    let after = t.elapsed().as_secs_f64();
    w.check(tally);
    Pass {
        wall,
        rss,
        prep,
        after,
        out,
    }
}

fn run(args: &Args, w: &mut dyn Workload, dir: &std::path::Path, tally: &mut Tally) -> Metrics {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let mut off = Probe::new(false);
        let mut passes = Vec::new();
        while passes.is_empty() || Instant::now() < deadline {
            passes.push(timed_pass(w, &mut off, tally));
        }
        let show = |f: &dyn Fn(&Pass) -> String| -> String {
            passes.iter().map(f).collect::<Vec<String>>().join(" ")
        };
        println!("pass walls [s]: {}", show(&|p| format!("{:.4}", p.wall)));
        println!(
            "after-pass samples [s]: {}",
            show(&|p| format!("{:.4}", p.after))
        );
        println!(
            "pass peak rss [MiB]: {}",
            show(&|p| format!("{:.1}", p.rss))
        );
        return end_to_end(&passes);
    }

    // Traced run: untraced and traced passes alternate, so the overhead is
    // measured under the same conditions; prep counters are per traced pass.
    let mut off = Probe::new(false);
    let mut on = Probe::new(true);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while traced.is_empty() || Instant::now() < deadline {
        plain.push(timed_pass(w, &mut off, tally).wall);
        let pass = timed_pass(w, &mut on, tally);
        traced.push(pass.wall);
        let [b, h, f] = pass.prep;
        on.record("prep.builds", b);
        on.record("prep.hits", h);
        on.record("prep.ff_hits", f);
        on.record("prep.hit_ratio", h / (b + h).max(1.0));
        w.counters(&mut on);
    }
    on.record(
        "trace_overhead_share",
        median(&traced) / median(&plain) - 1.0,
    );
    let mut replayed = Probe::new(true);
    let inputs = w.replay_inputs();
    layers::replay(&inputs, &on, &mut replayed, dir, tally);

    let mut out = Metrics::new();
    for (name, unit) in PER_LAYER {
        let (xs, source) = match on.get(name) {
            Some(xs) => (xs, "traced passes"),
            None => (replayed.get(name).unwrap_or(&[]), "layer replay"),
        };
        out.push((name, median(xs) * scale(unit), unit, xs.len(), source));
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("hostbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "numeric_sweep" => Box::new(numeric::NumericSweep::new(args.seed)),
        "table3_paper" => Box::new(table3::Table3::new(args.seed)),
        "serve_mix" => match serve_mix::ServeMix::new(args.seed, &dir) {
            Ok(w) => Box::new(w),
            Err(e) => {
                eprintln!("hostbench: serve_mix set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("hostbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "hostbench {} seed {} {mode} {}s",
        args.workload, args.seed, args.seconds
    );
    println!("host {}", host_line());
    let mut tally = Tally::default();
    let metrics = run(&args, workload.as_mut(), &dir, &mut tally);
    let _ = std::fs::remove_dir_all(&dir);
    // Succeeds only when no other run is using the directory.
    let _ = std::fs::remove_dir(".bench_work");

    for (name, value, unit, n, source) in &metrics {
        println!("metric {name:<26} {value:>14.6} {unit:<6} n={n:<6} from {source}");
    }
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "ops attempted {} failed {} failed_share {failed_share}",
        tally.attempted, tally.failed
    );
    for e in &tally.errors {
        println!("failure: {e}");
    }
    let finite = metrics.iter().all(|m| m.1.is_finite());
    if !finite {
        println!("failure: a metric has no samples");
    }
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _, _)| {
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
