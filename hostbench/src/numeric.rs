//! `numeric_sweep`: real distributed numerics through `execute`, each
//! request first on puma (which builds the prepared setup) and then on ec2
//! (which reuses it), plus one fault-injected EC2-spot RD campaign with
//! incremental checkpoints through `execute_resilient`.

use crate::layers::ReplayInputs;
use crate::stats::{median, Probe, Tally};
use crate::{PassOut, Workload};
use hetero_fault::{FaultModel, SpotMarket};
use hetero_hpc::recovery::execute_resilient;
use hetero_hpc::{execute, prep, App, Fidelity, ResilienceSpec, RunRequest};
use hetero_platform::catalog;
use std::hint::black_box;
use std::time::Instant;

/// Exact-solution tolerances of `tests/integration_rd.rs` and
/// `tests/integration_ns.rs`.
const RD_LINF: f64 = 5e-6;
const NS_LINF: f64 = 0.06;
/// Set-ups timed per pass, the pass's own included; the pass reports their
/// median.
const SETUP_REPS: usize = 101;

/// One pass's outputs: the serialized report of every operation, in order,
/// with the nodal error where the operation verifies against an exact
/// solution.
type Reports = Vec<Result<(String, Option<f64>), String>>;

pub struct NumericSweep {
    /// The puma requests; each is re-run on ec2.
    runs: Vec<RunRequest>,
    resilient: RunRequest,
    /// The first pass's reports, which every later pass must repeat.
    first: Option<Reports>,
    last: Reports,
}

fn numerical(app: App, ranks: usize, axis: usize, seed: u64) -> RunRequest {
    RunRequest {
        fidelity: Fidelity::Numerical,
        seed,
        ..RunRequest::new(catalog::puma(), app, ranks, axis)
    }
}

/// The `serve_demo` spot campaign: an EC2 spot fleet under a market with
/// frequent price spikes, checkpointing every step, incremental deltas.
fn resilient_spot(seed: u64) -> RunRequest {
    let ec2 = catalog::ec2();
    let mut spec = ResilienceSpec::spot_with_restart(&ec2, 1.0, 1, 50);
    spec.faults = FaultModel {
        crashes: None,
        spot: Some(SpotMarket {
            epoch_seconds: 0.012,
            spike_probability: 0.35,
            ..SpotMarket::ec2_like(1.0)
        }),
        degradation: None,
    };
    RunRequest {
        fidelity: Fidelity::Numerical,
        seed,
        resilience: Some(spec.with_incremental_checkpoints()),
        ..RunRequest::new(ec2, App::paper_rd(4), 8, 3)
    }
}

impl NumericSweep {
    pub fn new(seed: u64) -> Self {
        NumericSweep {
            runs: vec![
                numerical(App::paper_rd(4), 8, 4, seed),
                numerical(App::paper_rd(4), 64, 2, seed),
                numerical(App::paper_ns(3), 8, 3, seed),
            ],
            resilient: resilient_spot(seed),
            first: None,
            last: Vec::new(),
        }
    }

    fn tolerance(req: &RunRequest) -> f64 {
        match req.app {
            App::Rd(_) => RD_LINF,
            App::Ns(_) => NS_LINF,
        }
    }
}

impl NumericSweep {
    /// `prep::scenario_for` over the pass's distinct requests from an empty
    /// cache, with its host time; the scenarios stay cached for the runs.
    /// The scenario builds its modeled prep and key here; the mesh,
    /// partition, DoF maps and symbolic assembly are built by the first
    /// numerical run that uses it, so they are part of the cold job.
    fn set_up(&self, probe: &mut Probe) -> f64 {
        prep::clear_cache();
        let t = Instant::now();
        for req in self.runs.iter().chain([&self.resilient]) {
            black_box(probe.time("prep.scenario_ms", || prep::scenario_for(req)));
        }
        t.elapsed().as_secs_f64()
    }
}

impl Workload for NumericSweep {
    fn pass(&mut self, probe: &mut Probe) -> PassOut {
        let mut out = PassOut {
            setup_s: self.set_up(probe),
            ..PassOut::default()
        };
        self.last.clear();
        for req in &self.runs {
            let ec2 = RunRequest {
                platform: catalog::ec2(),
                ..req.clone()
            };
            for (r, cold) in [(req, true), (&ec2, false)] {
                let t = Instant::now();
                let res = probe.time("run.execute_numerical_ms", || execute(r));
                let s = t.elapsed().as_secs_f64();
                if cold {
                    out.cold_s.push(s);
                } else {
                    out.hot_s.push(s);
                }
                if let Ok(o) = &res {
                    probe.record("linalg.krylov_iters", o.krylov_iters);
                }
                self.last.push(
                    res.map(|o| {
                        let err = o.verification.map(|v| v.linf);
                        (serde_json::to_string(&o).expect("a report serializes"), err)
                    })
                    .map_err(|e| e.to_string()),
                );
            }
        }
        let res = probe.time("recovery.campaign_ms", || {
            execute_resilient(&self.resilient)
        });
        if let Ok(r) = &res {
            probe.record("recovery.attempts", r.stats.attempts as f64);
        }
        self.last.push(res.map_err(|e| e.to_string()).and_then(|r| {
            if !r.stats.completed {
                return Err("the spot campaign ran out of restarts".to_string());
            }
            let err = r
                .outcome
                .as_ref()
                .and_then(|o| o.verification)
                .map(|v| v.linf);
            Ok((serde_json::to_string(&r).expect("a report serializes"), err))
        }));
        out.jobs = self.last.len();
        out
    }

    fn after_pass(&mut self, probe: &mut Probe, out: &mut PassOut) {
        let mut setups = vec![out.setup_s];
        for _ in 1..SETUP_REPS {
            setups.push(self.set_up(probe));
        }
        out.setup_s = median(&setups);
    }

    fn check(&mut self, tally: &mut Tally) {
        let reqs: Vec<&RunRequest> = self
            .runs
            .iter()
            .flat_map(|r| [r, r])
            .chain([&self.resilient])
            .collect();
        let first = self.first.get_or_insert_with(|| self.last.clone());
        for (i, (got, req)) in self.last.iter().zip(&reqs).enumerate() {
            let tol = Self::tolerance(req);
            match got {
                Err(e) => tally.fail(format!("numeric op {i} failed: {e}")),
                Ok((report, err)) => {
                    if !err.is_some_and(|e| e < tol) {
                        tally.fail(format!(
                            "numeric op {i}: nodal error {err:?} not under {tol}"
                        ));
                    } else if first[i].as_ref().map(|f| &f.0) != Ok(report) {
                        tally.fail(format!(
                            "numeric op {i}: report differs from the first pass"
                        ));
                    } else {
                        tally.ok();
                    }
                }
            }
        }
    }

    fn replay_inputs(&self) -> ReplayInputs {
        ReplayInputs {
            meshes: self
                .runs
                .iter()
                .map(|r| (r.ranks, r.per_rank_axis))
                .collect(),
            requests: self.runs.clone(),
            resilient: self.resilient.clone(),
            plan_doc: crate::table3::PLAN.to_string(),
        }
    }
}
