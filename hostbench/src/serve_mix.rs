//! `serve_mix`: a closed loop of two clients calling `submit_wait` on one
//! service with default configuration. Each pass reopens the service on a
//! copy of a prior session's state directory (disjoint keys), then runs a
//! cold phase of distinct modeled requests, some submitted twice in a row
//! so the two clients coalesce, then a hot phase of skewed repeats.

use crate::layers::{serve_counters, ReplayInputs};
use crate::stats::{Probe, Rng, Tally};
use crate::{PassOut, Workload};
use hetero_hpc::recovery::execute_resilient;
use hetero_hpc::{execute, prep, App, Fidelity, ResilienceSpec, RunRequest};
use hetero_platform::catalog;
use hetero_serve::{JobOutcome, ServeConfig, ServeError, ServeHandle};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop clients (the host's two cores).
pub const CLIENTS: usize = 2;
/// Rank ladder `k^3`, k = 1..=10: more distinct setup keys than the
/// prepared-scenario LRU holds.
const LADDER: [usize; 10] = [1, 8, 27, 64, 125, 216, 343, 512, 729, 1000];
/// Request seeds per (app, platform, ranks) cell.
const SEEDS_PER_CELL: usize = 3;
/// Modeled spot-resilient campaigns among the distinct requests.
const CAMPAIGNS: usize = 40;
/// Jobs of the prior session whose state each pass reopens.
const PRIOR_JOBS: usize = 150;
/// Share of cold jobs submitted twice in a row.
const DUP_SHARE: f64 = 0.1;
/// Hot repeats per distinct request.
const HOT_PER_COLD: usize = 9;

/// What a submission is, for the latency classes.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    /// First submission of a key in the pass.
    Cold,
    /// The immediate repeat of a cold submission: coalesced or a hit.
    Dup,
    /// A repeat after every cold job completed: always a hit.
    Hot,
}

type Done = Vec<(usize, Class, f64, Result<Arc<JobOutcome>, ServeError>)>;

pub struct ServeMix {
    dir: PathBuf,
    /// Distinct requests of a pass; the streams index into it.
    reqs: Vec<RunRequest>,
    /// Cold phase stream and hot phase stream.
    cold: Vec<(usize, Class)>,
    hot: Vec<usize>,
    /// The serialized outcome of a direct engine call per request.
    direct: Vec<String>,
    prior: Vec<RunRequest>,
    last: Done,
    counters: Option<hetero_trace::MetricsRegistry>,
}

/// The distinct modeled requests of a session. `discard` separates two
/// sessions' keys.
fn requests(rng: &mut Rng, discard: usize, n: usize) -> Vec<RunRequest> {
    let platforms = catalog::all_platforms();
    let mut reqs = Vec::new();
    for app in [App::paper_rd(10), App::paper_ns(10)] {
        for p in &platforms {
            for &ranks in &LADDER {
                for _ in 0..SEEDS_PER_CELL {
                    reqs.push(RunRequest {
                        fidelity: Fidelity::Modeled,
                        seed: rng.next_u64() % 1_000_000,
                        discard,
                        ..RunRequest::new(p.clone(), app.clone(), ranks, 20)
                    });
                }
            }
        }
    }
    let ec2 = catalog::ec2();
    for _ in 0..CAMPAIGNS {
        let cadence = [1, 4, 16, 64][rng.below(4)];
        let spec = ResilienceSpec::spot_with_restart(&ec2, 1.0, cadence, 20);
        reqs.push(RunRequest {
            fidelity: Fidelity::Modeled,
            seed: rng.next_u64() % 1_000_000,
            discard,
            resilience: Some(spec),
            ..RunRequest::new(ec2.clone(), App::paper_rd(20), LADDER[rng.below(6)], 20)
        });
    }
    // Shuffle (Fisher-Yates), then keep `n`.
    for i in (1..reqs.len()).rev() {
        reqs.swap(i, rng.below(i + 1));
    }
    reqs.truncate(n);
    reqs
}

/// A direct engine call, shaped as the service's outcome.
fn direct(req: &RunRequest) -> JobOutcome {
    match &req.resilience {
        Some(_) => execute_resilient(req).map(JobOutcome::Resilient),
        None => execute(req).map(JobOutcome::Completed),
    }
    .unwrap_or_else(JobOutcome::Rejected)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dst = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dst)?;
        } else {
            std::fs::copy(entry.path(), dst)?;
        }
    }
    Ok(())
}

impl ServeMix {
    /// Builds the streams from `seed` and fills the prior session's state
    /// directory under `dir` (untimed).
    pub fn new(seed: u64, dir: &Path) -> std::io::Result<Self> {
        let mut rng = Rng::new(seed);
        let reqs = requests(&mut rng, 0, usize::MAX);
        let prior = requests(&mut rng, 1, PRIOR_JOBS);
        let mut cold = Vec::new();
        for i in 0..reqs.len() {
            cold.push((i, Class::Cold));
            if rng.unit() < DUP_SHARE {
                cold.push((i, Class::Dup));
            }
        }
        // Skewed repeats: a power law over the distinct requests.
        let hot = (0..reqs.len() * HOT_PER_COLD)
            .map(|_| ((rng.unit().powi(3)) * reqs.len() as f64) as usize)
            .collect();
        let direct = reqs
            .iter()
            .map(|r| serde_json::to_string(&direct(r)).expect("an outcome serializes"))
            .collect();

        let template = dir.join("prior");
        let _ = std::fs::remove_dir_all(&template);
        let handle = ServeHandle::open(ServeConfig::new(&template))?;
        for r in &prior {
            handle
                .submit_wait(r)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        handle.shutdown();
        Ok(ServeMix {
            dir: dir.to_path_buf(),
            reqs,
            cold,
            hot,
            direct,
            prior,
            last: Vec::new(),
            counters: None,
        })
    }

    fn pass_dir(&self) -> PathBuf {
        self.dir.join("pass")
    }
}

/// Runs `stream` through `CLIENTS` closed-loop clients sharing one cursor.
fn closed_loop(
    handle: &ServeHandle,
    reqs: &[RunRequest],
    stream: &[(usize, Class)],
    traced: bool,
) -> (Done, Probe) {
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Done::new();
                    let mut probe = Probe::new(traced);
                    loop {
                        let n = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(i, class)) = stream.get(n) else {
                            break;
                        };
                        let t = Instant::now();
                        let res = if traced {
                            probe
                                .time("serve.submit_us", || handle.submit(&reqs[i]))
                                .and_then(|id| handle.wait(id))
                        } else {
                            handle.submit_wait(&reqs[i])
                        };
                        done.push((i, class, t.elapsed().as_secs_f64(), res));
                    }
                    (done, probe)
                })
            })
            .collect();
        let mut all = Done::new();
        let mut probe = Probe::new(traced);
        for c in clients {
            let (done, p) = c.join().expect("a client thread panicked");
            all.extend(done);
            probe.absorb(p);
        }
        (all, probe)
    })
}

impl Workload for ServeMix {
    fn before_pass(&mut self) -> std::io::Result<()> {
        prep::clear_cache();
        let dir = self.pass_dir();
        let _ = std::fs::remove_dir_all(&dir);
        copy_dir(&self.dir.join("prior"), &dir)
    }

    fn pass(&mut self, probe: &mut Probe) -> PassOut {
        let traced = probe.enabled();
        let t = Instant::now();
        let handle = match ServeHandle::open(ServeConfig::new(self.pass_dir())) {
            Ok(h) => h,
            Err(e) => {
                self.last = vec![(0, Class::Cold, 0.0, Err(ServeError::Io(e.to_string())))];
                return PassOut::default();
            }
        };
        let mut out = PassOut {
            setup_s: t.elapsed().as_secs_f64(),
            ..PassOut::default()
        };
        let (mut done, p) = closed_loop(&handle, &self.reqs, &self.cold, traced);
        probe.absorb(p);
        let hot: Vec<(usize, Class)> = self.hot.iter().map(|&i| (i, Class::Hot)).collect();
        let (hot_done, p) = closed_loop(&handle, &self.reqs, &hot, traced);
        probe.absorb(p);
        done.extend(hot_done);
        if traced {
            self.counters = Some(handle.metrics());
        }
        handle.shutdown();
        for (_, class, s, _) in &done {
            match class {
                Class::Cold => out.cold_s.push(*s),
                Class::Hot => out.hot_s.push(*s),
                Class::Dup => {}
            }
        }
        out.jobs = done.len();
        self.last = done;
        out
    }

    fn check(&mut self, tally: &mut Tally) {
        for (i, _, _, res) in &self.last {
            match res {
                Err(e) => tally.fail(format!("serve job {i} failed: {e}")),
                Ok(o) => {
                    let text = serde_json::to_string(o.as_ref()).expect("an outcome serializes");
                    tally.check(text == self.direct[*i], || {
                        format!("serve job {i}: outcome differs from a direct execute")
                    });
                }
            }
        }
    }

    fn counters(&self, probe: &mut Probe) {
        if let Some(m) = &self.counters {
            serve_counters(m, probe);
        }
    }

    fn replay_inputs(&self) -> ReplayInputs {
        let resilient = self
            .reqs
            .iter()
            .find(|r| r.resilience.is_some())
            .unwrap_or(&self.reqs[0])
            .clone();
        ReplayInputs {
            meshes: vec![(8, 3)],
            requests: self.reqs.iter().chain(&self.prior).cloned().collect(),
            resilient,
            plan_doc: crate::table3::PLAN.to_string(),
        }
    }
}
