//! `table3_paper`: the paper-sized Table III plan (72 modeled resilient EC2
//! campaign cells at 1–1000 ranks) through `load_str`, `instance_keys` and
//! `execute_plan` with auto-sized workers and no stage cache: one plan run
//! per pass, from an empty prepared-scenario cache. The hot job is timed
//! after the pass, outside its wall time: the same plan run again in the
//! same process, with the prepared-scenario cache as the pass left it, as a
//! long-lived caller runs a plan a second time.

use crate::layers::ReplayInputs;
use crate::stats::{median, Probe, Tally};
use crate::{PassOut, Workload};
use hetero_hpc::{prep, App, Fidelity, ResilienceSpec, RunRequest};
use hetero_plan::exec::{execute_plan, instance_keys, ExecOptions};
use hetero_plan::ResolvedPlan;
use hetero_platform::catalog;
use std::time::Instant;

/// The plan, as checked in.
pub const PLAN: &str = include_str!("../../plans/table3.toml");
/// The plan's own seed; its report bytes are pinned by [`GOLDEN`].
const PLAN_SEED: u64 = 2012;
/// The report `plan_run plans/table3.toml` prints at the plan's own seed.
const GOLDEN: &str = include_str!("../golden/table3_seed2012.txt");
/// Set-ups timed per pass, the pass's own included; the pass reports
/// their median.
const SETUP_REPS: usize = 21;

pub struct Table3 {
    seed: u64,
    doc: String,
    /// The resolved plan of the last pass.
    plan: Option<ResolvedPlan>,
    /// The first run's report, which every later run must repeat.
    first: Option<String>,
    /// This pass's reports: the pass's own run, then the after-pass runs.
    last: Vec<Result<String, String>>,
}

/// The plan with its `[options] seed` replaced by `seed`.
fn with_seed(seed: u64) -> String {
    let from = format!("seed = {PLAN_SEED}\n");
    assert!(PLAN.contains(&from), "the plan sets `{}`", from.trim());
    PLAN.replacen(&from, &format!("seed = {seed}\n"), 1)
}

impl Table3 {
    pub fn new(seed: u64) -> Self {
        Table3 {
            seed,
            doc: with_seed(seed),
            plan: None,
            first: None,
            last: Vec::new(),
        }
    }

    /// `load_str` plus `instance_keys`, with its host time.
    fn set_up(&self, probe: &mut Probe) -> (f64, Result<ResolvedPlan, String>) {
        let t = Instant::now();
        let loaded = probe
            .time("plan.parse_resolve_ms", || hetero_plan::load_str(&self.doc))
            .map_err(|e| format!("plan does not load: {e}"))
            .and_then(|rp| {
                probe
                    .time("plan.instance_keys_ms", || instance_keys(&rp))
                    .map(|_| rp)
                    .map_err(|e| format!("no instance keys: {e}"))
            });
        (t.elapsed().as_secs_f64(), loaded)
    }

    /// One `execute_plan` run without a stage cache, with its host time,
    /// its report recorded for the check.
    fn run(&mut self, rp: &ResolvedPlan) -> f64 {
        let opts = ExecOptions {
            workers: 0,
            cache_dir: None,
        };
        let t = Instant::now();
        let res = execute_plan(rp, &opts);
        let s = t.elapsed().as_secs_f64();
        self.last.push(
            res.map(|o| o.reports.iter().map(|(_, text)| text.as_str()).collect())
                .map_err(|e| e.to_string()),
        );
        s
    }
}

impl Workload for Table3 {
    fn before_pass(&mut self) -> std::io::Result<()> {
        prep::clear_cache();
        Ok(())
    }

    fn pass(&mut self, probe: &mut Probe) -> PassOut {
        self.last.clear();
        let (setup_s, loaded) = self.set_up(probe);
        let mut out = PassOut {
            setup_s,
            ..PassOut::default()
        };
        match loaded {
            Ok(rp) => {
                let s = self.run(&rp);
                out.cold_s.push(s);
                out.jobs = rp.instances.len();
                self.plan = Some(rp);
            }
            Err(e) => {
                self.last.push(Err(e));
                self.plan = None;
            }
        }
        out
    }

    fn after_pass(&mut self, probe: &mut Probe, out: &mut PassOut) {
        let mut setups = vec![out.setup_s];
        for _ in 1..SETUP_REPS {
            setups.push(self.set_up(probe).0);
        }
        out.setup_s = median(&setups);
        if let Some(rp) = self.plan.take() {
            let s = self.run(&rp);
            out.hot_s.push(s);
        }
    }

    fn check(&mut self, tally: &mut Tally) {
        for got in &self.last {
            match got {
                Err(e) => tally.fail(format!("table3 plan failed: {e}")),
                Ok(report) => {
                    let first = self.first.get_or_insert_with(|| report.clone());
                    if self.seed == PLAN_SEED && report != GOLDEN {
                        tally.fail("table3 report differs from the golden file");
                    } else if report != first {
                        tally.fail("table3 report differs from the first run");
                    } else {
                        tally.ok();
                    }
                }
            }
        }
    }

    fn replay_inputs(&self) -> ReplayInputs {
        // The plan's own cells: RD on EC2 at 20^3 cells per rank, 600
        // steps, on-demand and spot-with-restart across the rank ladder.
        let ec2 = catalog::ec2();
        let requests: Vec<RunRequest> = [1usize, 8, 64, 216, 512, 1000]
            .into_iter()
            .map(|ranks| RunRequest {
                fidelity: Fidelity::Modeled,
                seed: self.seed,
                discard: 5,
                resilience: Some(ResilienceSpec::spot_with_restart(&ec2, 1.0, 16, 60)),
                ..RunRequest::new(ec2.clone(), App::paper_rd(600), ranks, 20)
            })
            .collect();
        ReplayInputs {
            meshes: vec![(8, 3)],
            resilient: requests[3].clone(),
            requests,
            plan_doc: self.doc.clone(),
        }
    }
}
